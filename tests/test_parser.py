import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reallogic.logic import (
    App, Atom, Axiom, Bin, Eq, Guard, Not, Quant, Query, Signature, Var,
)
from reallogic.parser import (
    _UNICODE_ALIASES, ConfigDecl, ConstDecl, DomainDecl, ParseError,
    SymbolDecl, VarDecl, parse_formula, parse_theory, parse_theory_file,
    tokenize,
)

from randformula import rand_formula, small_sig


# -- tokenizer -----------------------------------------------------------------


def test_token_spans():
    toks = tokenize('domain d = 3\naxiom: "x"', filename="t.rl")
    assert [(t.text, t.span) for t in toks[:4]] == [
        ("domain", ("t.rl", 1, 1)),
        ("d", ("t.rl", 1, 8)),
        ("=", ("t.rl", 1, 10)),
        ("3", ("t.rl", 1, 12)),
    ]
    assert toks[4].span == ("t.rl", 2, 1)
    assert toks[6].kind == "string" and toks[6].span == ("t.rl", 2, 8)


def test_comments_and_numbers():
    toks = tokenize("1.5 2e-3 7 # trailing words\n0.25")
    assert [t.value for t in toks[:-1]] == [1.5, 2e-3, 7.0, 0.25]


def test_a_number_is_ascii_digits_only():
    # U+0663, ARABIC-INDIC DIGIT THREE, is a Unicode digit
    with pytest.raises(ParseError) as err:
        parse_theory("domain d = ٣\n")
    assert err.value.message == "stray character '٣'"
    assert err.value.span == ("<theory>", 1, 12)


def test_unicode_aliases_match_ascii():
    uni = tokenize("∀x: P(x) ∧ ¬Q(x) → R ∨ S ↔ T ≤ ≥ ≠ ∃")
    asc = tokenize("forall x: P(x) & ~Q(x) -> R | S <-> T <= >= != exists")
    assert [(t.kind, t.text) for t in uni] == [(t.kind, t.text) for t in asc]


def test_tokenizer_rejects_garbage():
    with pytest.raises(ParseError, match="stray"):
        tokenize("axiom: P $ Q")
    with pytest.raises(ParseError, match="unterminated"):
        tokenize('include "half')


def test_a_string_holding_a_newline_moves_later_spans_down():
    text = 'domain d = 1\naxiom "two\nlines": P\nvar x : d = [1]\nfoo'
    assert [str(d) for d in parse_theory(text).diagnostics] == [
        "<theory>:3:9: unknown symbol 'P'",
        "<theory>:5:1: expected a statement, found 'foo'",
    ]


LEXEMES = ["forall", "x", "P", "1.5", "2e-3", '"a"', '"two\nlines"',
           '"\\"\n"', "#note", "\n", " ", "\t", "\r", "(", "->", "<->",
           "=", ":", '"', "$"] + list(_UNICODE_ALIASES)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LEXEMES), max_size=20).map("".join))
def test_every_span_points_at_its_lexeme(text):
    lines = text.split("\n")

    def source(span):
        """The text from ``span`` on."""
        _, line, col = span
        assert 1 <= line <= len(lines)
        assert 1 <= col <= len(lines[line - 1]) + 1
        return text[sum(len(s) + 1 for s in lines[:line - 1]) + col - 1:]

    try:
        toks = tokenize(text)
    except ParseError as e:
        c = source(e.span)[:1]
        assert e.message == ("unterminated string" if c == '"' else
                             f"stray character {c!r}")
        return
    for t in toks[:-1]:
        rest = source(t.span)
        assert rest.startswith(t.text) or \
            _UNICODE_ALIASES.get(rest[:1]) == t.text, (t, rest)
    assert source(toks[-1].span) == ""


# -- formula grammar -------------------------------------------------------------


def test_precedence_not_and_or_implies_iff():
    f = parse_formula("~P(x) & Q(x) | R -> R <-> R", small_sig())
    px = Atom("P", (Var("x"),))
    qx = Atom("Q", (Var("x"),))
    r = Atom("R", ())
    assert f == Bin("iff",
                    Bin("implies", Bin("or", Bin("and", Not(px), qx), r), r),
                    r)


def test_implies_right_associative():
    f = parse_formula("P(x) -> Q(x) -> R", small_sig())
    assert f.op == "implies"
    assert f.rhs == Bin("implies", Atom("Q", (Var("x"),)), Atom("R", ()))


def test_parens_override_precedence():
    f = parse_formula("P(x) & (Q(x) | R)", small_sig())
    assert f.op == "and" and f.rhs.op == "or"


def test_equality_binds_tighter_than_connectives():
    f = parse_formula("f(x) = y & P(x)", small_sig())
    assert f == Bin("and",
                    Eq(App("f", (Var("x"),)), Var("y")),
                    Atom("P", (Var("x"),)))


def test_quantifier_body_extends_right():
    f = parse_formula("forall x: P(x) & Q(x) -> R", small_sig())
    assert isinstance(f, Quant)
    assert f.body.op == "implies"


def test_quantifier_groups_and_guard():
    f = parse_formula("forall (x, y), z [2*x - y <= 0.5]: S(x, y)",
                      small_sig())
    assert f.groups == (("x", "y"), ("z",))
    assert f.guard == Guard("<=",
                            ((2.0, Var("x")), (-1.0, Var("y"))),
                            ((0.5, None),))


def test_guard_leading_minus_and_bare_term():
    f = parse_formula("exists x [-x + 1 > y]: P(x)", small_sig())
    assert f.guard.lhs == ((-1.0, Var("x")), (1.0, None))
    assert f.guard.rhs == ((1.0, Var("y")),)


def test_unknown_symbols_are_errors():
    sig = small_sig()
    with pytest.raises(ParseError, match="unknown symbol 'nope'"):
        parse_formula("P(nope)", sig)
    with pytest.raises(ParseError, match="not a predicate"):
        parse_formula("f(x)", sig)
    with pytest.raises(ParseError, match="not a function or predicate"):
        parse_formula("c(x) = y", sig)
    with pytest.raises(ParseError, match="after formula"):
        parse_formula("P(x) Q(x)", sig)


def type_sig():
    s = Signature()
    s.add_domain("pt", 2)
    s.add_domain("num", 1)
    s.add_variable("x", "pt")
    s.add_variable("t", "num")
    s.add_constant("c", "pt")
    s.add_function("f", ("pt",), "num")
    s.add_predicate("P", ("pt",))
    return s


@pytest.mark.parametrize("text", [
    "P(x)", "f(x) = t", "exists x [f(x) < 1]: P(x)",
    "forall x: forall x: P(x)",  # an inner quantifier may rebind
])
def test_parse_formula_accepts_well_typed(text):
    parse_formula(text, type_sig())


def test_parse_formula_catches_type_errors():
    """Each error is raised at the token at fault: (column, message)."""
    cases = {
        "Nope(x)": (1, "'Nope' is not a function or predicate"),
        "P(x, x)": (1, "P takes 1 arguments, got 2"),
        "P(t)": (3, "P: expected pt, got num"),
        "f(t) = t": (3, "f: expected pt, got num"),
        "x = t": (1, "= compares 'pt' with 'num'"),
        "P(c) & ~(f(c) = c)": (10, "= compares 'num' with 'pt'"),
        "forall (x, x): P(x)": (12, "variable 'x' quantified twice"),
        "forall x, x: P(x)": (11, "variable 'x' quantified twice"),
        "forall c: P(c)": (8, "unknown variable 'c'"),
        "forall x [x < 1]: P(x)": (11, "guard term of domain 'pt' is not scalar"),
        "exists x [1 < 2 * c]: P(x)": (
            19, "guard term of domain 'pt' is not scalar"),
    }
    sig = type_sig()
    for text, (col, message) in cases.items():
        with pytest.raises(ParseError) as e:
            parse_formula(text, sig)
        assert (e.value.span, e.value.message) == (("<formula>", 1, col),
                                                   message), text
        assert str(e.value) == f"<formula>:1:{col}: {message}"


def test_zero_ary_atom_and_double_negation():
    f = parse_formula("~~R", small_sig())
    assert f == Not(Not(Atom("R", ())))


# -- redundant parentheses ------------------------------------------------------


@pytest.mark.parametrize("text,shown", [
    ("((P(x) & Q(x)) | R)", "P(x) & Q(x) | R"),
    ("P(x) & (Q(x) | R)", "P(x) & (Q(x) | R)"),
    ("(P(x) -> Q(x)) -> R", "(P(x) -> Q(x)) -> R"),
    ("P(x) -> (Q(x) -> R)", "P(x) -> Q(x) -> R"),
    ("~(P(x) & R)", "~(P(x) & R)"),
    ("R & (forall x: P(x))", "R & (forall x: P(x))"),
    ("forall x: exists y: S(x, y)", "forall x: exists y: S(x, y)"),
    ("forall (x, y) [x - y = 0]: S(x, y)",
     "forall (x, y) [x - y = 0]: S(x, y)"),
])
def test_precedence_and_associativity(text, shown):
    """Each text and its minimally parenthesized form parse alike."""
    sig = small_sig()
    assert parse_formula(text, sig) == parse_formula(shown, sig)


def _full_parens(f):
    """Independent printer: parenthesize every composite node."""
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(_full_term(a) for a in f.args)})"
    if isinstance(f, Eq):
        return f"({_full_term(f.lhs)} = {_full_term(f.rhs)})"
    if isinstance(f, Not):
        return f"(~{_full_parens(f.body)})"
    if isinstance(f, Quant):
        groups = ", ".join(g[0] if len(g) == 1 else f"({', '.join(g)})"
                           for g in f.groups)
        guard = ""
        if f.guard is not None:
            (ca, ta), (cb, tb) = f.guard.lhs
            guard = f" [{ta.name} - {tb.name} < 0.5]"
        return f"({f.kind} {groups}{guard}: {_full_parens(f.body)})"
    sym = {"and": "&", "or": "|", "implies": "->", "iff": "<->"}[f.op]
    return f"({_full_parens(f.lhs)} {sym} {_full_parens(f.rhs)})"


def _full_term(t):
    if isinstance(t, App):
        return f"{t.func}({', '.join(_full_term(a) for a in t.args)})"
    return t.name


def test_random_formulas_round_trip():
    rng = np.random.default_rng(7)
    sig = small_sig()
    for _ in range(300):
        ast = rand_formula(rng, 4, list("xyzw"))
        assert parse_formula(_full_parens(ast), sig) == ast


# -- theories --------------------------------------------------------------------


SAMPLE = """
# sample knowledge base
domain item = 2
domain label = 3

const c : item = [1, 0]
const m : item = train in [0, 1]
const m2 : item = train([0.5, -0.25])

var x : item = [[0, 1], [1, 0], [0.5, 0.5]]
var xs : item = consts(c, m)
var lab : label = data "points.csv" cols f1, f2, f3

func f : item -> item = mlp(2, 8, 2; elu, linear)
func dist : item, item -> item = builtin euclidean

pred P : item = mlp(2, 8, 1; elu@0.25, sigmoid)
pred Cls : item, label = select mlp(2, 8, 3; elu, softmax)
pred A = scalar(0.5)

config and = product
config forall = pmean_error:p=4
config eq_alpha = 2

axiom "closure" @forall(p=6): forall x: P(x) -> P(f(x))
axiom: A | ~A
"""


def test_theory_declarations():
    doc = parse_theory(SAMPLE)
    assert doc.diagnostics == []
    s = doc.statements
    assert s[0] == DomainDecl("item", 2)
    assert s[2] == ConstDecl("c", "item", (1.0, 0.0))
    assert s[3] == ConstDecl("m", "item", None, True, 0.0, 1.0)
    assert s[4] == ConstDecl("m2", "item", (0.5, -0.25), True, None, None)
    assert s[5] == VarDecl("x", "item",
                           ("inline", ((0.0, 1.0), (1.0, 0.0), (0.5, 0.5))))
    assert s[6] == VarDecl("xs", "item", ("consts", ("c", "m")))
    assert s[7] == VarDecl("lab", "label",
                           ("data", "points.csv", ("f1", "f2", "f3")))
    assert s[8] == SymbolDecl("f", ("item",), "item",
                              ("mlp", (2, 8, 2), ("elu", "linear"), (0.0, 0.0)))
    assert s[9] == SymbolDecl("dist", ("item", "item"), "item",
                              ("builtin", "euclidean"))
    assert s[10] == SymbolDecl("P", ("item",), None,
                               ("mlp", (2, 8, 1), ("elu", "sigmoid"), (0.25, 0.0)))
    assert s[11].impl[0] == "select"
    assert s[12] == SymbolDecl("A", (), None, ("scalar", 0.5))
    assert doc.configs == [ConfigDecl("and", "product"),
                           ConfigDecl("forall", "pmean_error:p=4"),
                           ConfigDecl("eq_alpha", "2")]
    ax1, ax2 = doc.axioms
    assert ax1.label == "closure" and ax1.p == {"forall": 6.0}
    assert isinstance(ax1.formula, Quant)
    assert ax2 == Axiom(Bin("or", Atom("A", ()), Not(Atom("A", ()))))
    assert doc.sig.predicates["Cls"] == ("item", "label")
    assert doc.sig.dim("item") == 2


def test_axioms_check_against_signature():
    doc = parse_theory("domain d = 1\npred P : d = mlp(1, 1; sigmoid)\n"
                       "var x : d = [1, 2]\naxiom: forall x: P(x, x)")
    assert [str(d) for d in doc.diagnostics] == [
        "<theory>:4:18: P takes 1 arguments, got 2"]
    assert doc.axioms == []


def test_recovery_continues_after_errors():
    text = """
domain item = 2
const broken : item =
pred P : item = mlp(2, 1; elu, sigmoid)
axiom: P(nope)
var x : item = [[0, 1]]
axiom: forall x: P(x)
"""
    doc = parse_theory(text, filename="bad.rl")
    assert len(doc.diagnostics) == 2
    assert "expected '['" in doc.diagnostics[0].message
    assert "unknown symbol 'nope'" in doc.diagnostics[1].message
    assert doc.diagnostics[1].span[0] == "bad.rl"
    kinds = [type(s).__name__ for s in doc.statements]
    assert kinds == ["DomainDecl", "SymbolDecl", "VarDecl", "Axiom"]
    with pytest.raises(ParseError, match="nope"):
        doc.raise_on_errors()


THEORY_WITH_ERRORS = """\
domain pt = 2
domain num = 1
var x : pt = [[0, 1], [1, 0]]
var x : pt = [[1, 1]]
var t : num = [[1], [2]]
const c : pt = [0, 0]
func f : pt -> num = mlp(2, 1; sigmoid)
pred P : pt = mlp(2, 1; sigmoid)
axiom: forall x: P(t)
axiom: forall x: P(x, x)
axiom: forall x: f(t) = t
axiom: forall x: f(x) = x
axiom: forall x [x < 1]: P(x)
axiom: forall x, x: P(x)
axiom: forall (x, x): P(x)
axiom: forall c: P(c)
axiom: forall x: P(x)
pred Q : e = scalar"""


def test_each_diagnostic_points_at_its_token_or_statement():
    doc = parse_theory(THEORY_WITH_ERRORS, filename="bad.rl")
    assert [str(d) for d in doc.diagnostics] == [
        "bad.rl:4:1: symbol 'x' already declared",
        "bad.rl:9:20: P: expected pt, got num",
        "bad.rl:10:18: P takes 1 arguments, got 2",
        "bad.rl:11:20: f: expected pt, got num",
        "bad.rl:12:18: = compares 'num' with 'pt'",
        "bad.rl:13:18: guard term of domain 'pt' is not scalar",
        "bad.rl:14:18: variable 'x' quantified twice",
        "bad.rl:15:19: variable 'x' quantified twice",
        "bad.rl:16:15: unknown variable 'c'",
        "bad.rl:18:1: unknown domain 'e'",
    ]
    assert len(doc.axioms) == 1


def test_duplicate_declaration_is_a_diagnostic():
    doc = parse_theory("domain d = 1\ndomain d = 2\nconst e : d = [1]\n"
                       "var e : d = [1]")
    assert [str(d) for d in doc.diagnostics] == [
        "<theory>:2:1: domain 'd' already declared",
        "<theory>:4:1: symbol 'e' already declared"]
    assert len(doc.statements) == 2


def test_include(tmp_path):
    (tmp_path / "base.rl").write_text(
        "domain d = 1\npred P : d = mlp(1, 1; sigmoid)\n")
    (tmp_path / "main.rl").write_text(
        'include "base.rl"\nvar x : d = [1, 2, 3]\naxiom: forall x: P(x)\n')
    doc = parse_theory_file(tmp_path / "main.rl")
    assert doc.diagnostics == []
    assert "P" in doc.sig.predicates
    assert len(doc.axioms) == 1

    (tmp_path / "a.rl").write_text('include "b.rl"\n')
    (tmp_path / "b.rl").write_text('include "a.rl"\n')
    doc = parse_theory_file(tmp_path / "a.rl")
    assert any("circular" in d.message for d in doc.diagnostics)

    doc = parse_theory('include "nowhere.rl"')
    assert any("file-based" in d.message for d in doc.diagnostics)


def test_axiom_annotation_validation():
    doc = parse_theory("domain d = 1\npred A = scalar\n"
                       "axiom @forall(q=2): A")
    assert any("only p" in d.message for d in doc.diagnostics)


def test_axiom_annotation_below_one_is_reported_at_its_number():
    doc = parse_theory("domain d = 1\npred A = scalar\n"
                       "axiom @forall(p=0.5): A\n"
                       "axiom @exists(p=-2) @forall(p=1): A\n"
                       "axiom @exists(p=1): A\n")
    assert [(d.message, d.span[1:]) for d in doc.diagnostics] == [
        ("p must be >= 1, got 0.5", (3, 17)), ("p must be >= 1, got -2", (4, 17))]
    assert [ax.p for ax in doc.axioms] == [{"exists": 1.0}]


def test_repeated_axiom_annotation_is_reported_at_its_keyword():
    doc = parse_theory("domain d = 1\npred A = scalar\n"
                       "axiom @forall(p=2) @forall(p=3): A\n"
                       "axiom @forall(p=2) @exists(p=3): A\n")
    assert [(d.message, d.span[1:]) for d in doc.diagnostics] == [
        ("repeated @forall annotation", (3, 21))]
    assert [ax.p for ax in doc.axioms] == [{"forall": 2.0, "exists": 3.0}]


def test_a_query_is_read_like_an_axiom_but_kept_apart():
    doc = parse_theory("domain d = 1\nvar x : d = [0.5]\n"
                       "pred P : d = mlp(1, 1; sigmoid)\n"
                       "axiom: forall x: P(x)\n"
                       'query "q" @exists(p=3) @forall(p=2): forall x: ~P(x)\n',
                       filename="q.rl")
    assert doc.diagnostics == []
    assert len(doc.axioms) == 1
    (q,) = [s for s in doc.statements if isinstance(s, Query)]
    assert q == Query(parse_formula("forall x: ~P(x)", doc.sig), "q",
                      {"exists": 3.0, "forall": 2.0})
    assert q.span == ("q.rl", 5, 1)


def test_a_query_without_a_label_is_a_parse_error():
    doc = parse_theory("domain d = 1\npred A = scalar\n"
                       "query @forall(p=2): A\nquery: A\n"
                       'query "kept": A\n')
    assert [(d.message, d.span[1:]) for d in doc.diagnostics] == [
        ('a query needs a "label"', (3, 7)),
        ('a query needs a "label"', (4, 6))]
    assert [s.label for s in doc.statements if isinstance(s, Query)] == \
        ["kept"]
