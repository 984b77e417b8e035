"""Text format for theories: declarations, operator config, axioms, queries.

Grammar (EBNF, ``#`` starts a line comment, whitespace is free-form):

    theory      = { statement } ;
    statement   = domain | constdecl | vardecl | funcdecl | preddecl
                | configdecl | includedecl | axiomdecl | querydecl ;

    domain      = "domain" IDENT "=" NUMBER ;
    constdecl   = "const" IDENT ":" IDENT "=" constinit ;
    constinit   = vector
                | "train" [ "(" vector ")" ] [ "in" "[" NUMBER "," NUMBER "]" ] ;
    vardecl     = "var" IDENT ":" IDENT "=" varinit ;
    varinit     = vector                      (* rows; scalars or vectors *)
                | "consts" "(" IDENT { "," IDENT } ")"
                | "data" STRING [ "cols" IDENT { "," IDENT } ] ;
    funcdecl    = "func" IDENT ":" IDENT { "," IDENT } "->" IDENT "=" funcimpl ;
    funcimpl    = mlp | "builtin" IDENT ;
    preddecl    = "pred" IDENT [ ":" IDENT { "," IDENT } ] "=" predimpl ;
    predimpl    = mlp | "select" mlp | "scalar" [ "(" NUMBER ")" ] ;
    mlp         = "mlp" "(" NUMBER { "," NUMBER } ";" act { "," act } ")" ;
    act         = IDENT [ "@" NUMBER ]        (* activation, dropout rate *)
    configdecl  = "config" IDENT "=" configval ;
    includedecl = "include" STRING ;
    axiomdecl   = "axiom" [ STRING ] { annotation } ":" formula ;
    querydecl   = "query" STRING { annotation } ":" formula ;  (* not in Sat *)
    annotation  = "@" IDENT "(" "p" "=" NUMBER ")" ;

    formula     = iff ;                       (* one level per _BINARY row *)
    iff         = imp { "<->" imp } ;
    imp         = or [ "->" imp ] ;           (* right-associative *)
    or          = and { "|" and } ;
    and         = unary { "&" unary } ;
    unary       = "~" unary | quant | "(" formula ")" | atom ;
    quant       = ( "forall" | "exists" ) group { "," group }
                  [ "[" guard "]" ] ":" formula ;   (* body extends right *)
    group       = IDENT | "(" IDENT { "," IDENT } ")" ;  (* tuple = diagonal *)
    guard       = gsum ( "<" | "<=" | ">" | ">=" | "=" | "!=" ) gsum ;
    gsum        = gpiece { ( "+" | "-" ) gpiece } ;
    gpiece      = NUMBER [ "*" term ] | term ;
    atom        = term [ "=" term ] ;         (* a lone predicate term is an
                                                 atom; "=" makes an equality *)
    term        = IDENT [ "(" term { "," term } ")" ] ;
    vector      = "[" element { "," element } "]" ;
    element     = signed NUMBER | vector ;

Unicode forms are accepted for logical symbols: for-all and exists
quantifier signs, conjunction/disjunction wedges, the negation sign,
single arrows, the double-headed arrow, and slanted comparison signs.
Statements are newline-insensitive; a parse error skips ahead to the
next statement keyword and is reported in ``TheoryDoc.diagnostics``.

``tokenize`` reads one ordered table of token kinds, ``_LEXEMES``.
Newlines, blanks and comments make no token; an alias becomes its ASCII
text, an identifier in ``_KEYWORDS`` a keyword, a number its float, and
a string its body with ``\\x`` read as ``x``. Every lexeme, whatever its
kind, moves the line past the newlines it holds, so each span is the
line and column of its lexeme's first character.

Identifiers must be declared before use; the parser resolves each name
against the signature built so far, which is how ``P(x)`` becomes an
atom while ``f(x)`` stays a term. The same pass types each formula:
every term is read with its domain and each node is checked where it
is built, so every diagnostic names the token at fault (a declaration
the signature rejects names its statement's first token).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from reallogic.logic import (
    COMPARISONS, QUANTIFIERS, App, Atom, Axiom, Bin, Const, Eq, Guard, Not,
    Quant, Query, Signature, SignatureError, Var, where,
)

STATEMENT_KEYWORDS = ("domain", "const", "var", "func", "pred",
                      "axiom", "query", "config", "include")
_KEYWORDS = STATEMENT_KEYWORDS + QUANTIFIERS + (
    "in", "train", "consts", "data", "cols", "mlp", "select", "scalar",
    "builtin")

_UNICODE_ALIASES = {
    "∀": "forall", "∃": "exists", "∧": "&", "∨": "|",
    "¬": "~", "→": "->", "↔": "<->", "≤": "<=",
    "≥": ">=", "≠": "!=",
}

_LEXEMES = (
    ("newline", r"\n"),
    ("blank", r"[ \t\r]+"),
    ("comment", r"#[^\n]*"),
    ("alias", "[" + "".join(_UNICODE_ALIASES) + "]"),
    ("string", r'"(?:[^"\\]|\\[\s\S])*"'),
    ("number", r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("punct", r"<->|->|<=|>=|!=|[()\[\],:;=<>~&|@+*-]"),
)
_SCANNER = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _LEXEMES))

# the binary connectives, loosest first: (token, Bin op, right-associative)
_BINARY = (("<->", "iff", False), ("->", "implies", True),
           ("|", "or", False), ("&", "and", False))


class ParseError(ValueError):
    def __init__(self, message, span=None):
        self.span = span
        self.message = message
        super().__init__(f"{where(span)}{message}")


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: tuple  # (file, line, col)

    def __str__(self):
        return f"{where(self.span)}{self.message}"


@dataclass(frozen=True)
class Token:
    kind: str  # ident | keyword | number | string | punct | eof
    text: str
    value: object
    span: tuple


def tokenize(text: str, filename: str = "<theory>") -> list[Token]:
    tokens = []
    line, start = 1, 0  # the current line and the offset it starts at
    pos = 0
    while pos < len(text):
        span = (filename, line, pos - start + 1)
        m = _SCANNER.match(text, pos)
        if m is None:
            if text[pos] == '"':
                raise ParseError("unterminated string", span)
            raise ParseError(f"stray character {text[pos]!r}", span)
        kind, lexeme = m.lastgroup, m.group()
        if "\n" in lexeme:  # every kind moves the line past its newlines
            line += lexeme.count("\n")
            start = pos + lexeme.rindex("\n") + 1
        pos = m.end()
        if kind in ("newline", "blank", "comment"):
            continue
        if kind == "alias":
            kind, lexeme = "punct", _UNICODE_ALIASES[lexeme]
        value = lexeme
        if lexeme in _KEYWORDS:
            kind = "keyword"
        elif kind == "number":
            value = float(lexeme)
        elif kind == "string":
            value = re.sub(r"\\([\s\S])", r"\1", lexeme[1:-1])
        tokens.append(Token(kind, lexeme, value, span))
    tokens.append(Token("eof", "", None, (filename, line, pos - start + 1)))
    return tokens


# -- declaration records -------------------------------------------------------


@dataclass(frozen=True)
class DomainDecl:
    name: str
    dim: int
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class ConstDecl:
    name: str
    domain: str
    init: tuple          # nested tuples or None
    trainable: bool = False
    lo: float = None
    hi: float = None
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class VarDecl:
    name: str
    domain: str
    source: tuple        # ("inline", rows) | ("consts", names) | ("data", path, cols)
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SymbolDecl:
    name: str
    din: tuple
    dout: str            # the range domain; None for a predicate
    impl: tuple          # ("mlp"|"select", widths, acts, drops) |
                         # ("scalar", init) | ("builtin", name)
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class ConfigDecl:
    key: str
    value: str
    span: tuple = field(default=None, compare=False)


@dataclass
class TheoryDoc:
    sig: Signature
    statements: list
    diagnostics: list

    @property
    def axioms(self) -> list[Axiom]:
        return [s for s in self.statements if type(s) is Axiom]  # no Query

    @property
    def configs(self) -> list[ConfigDecl]:
        return [s for s in self.statements if isinstance(s, ConfigDecl)]

    def raise_on_errors(self) -> "TheoryDoc":
        if self.diagnostics:
            raise ParseError("\n".join(str(d) for d in self.diagnostics))
        return self


class _Parser:
    def __init__(self, tokens, sig, statements, diagnostics, base, seen):
        self.toks = tokens
        self.pos = 0
        self.sig = sig
        self.statements = statements
        self.diagnostics = diagnostics
        self.base = base
        self.seen = seen

    # -- token helpers ---------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind, text=None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def eat(self, kind, text=None):
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind, text=None) -> Token:
        t = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}",
                             t.span)
        return self.next()

    def _recover(self):
        depth = 0
        while not self.at("eof"):
            t = self.peek()
            if t.kind == "punct" and t.text in "([":
                depth += 1
            elif t.kind == "punct" and t.text in ")]":
                depth = max(0, depth - 1)
            elif depth == 0 and t.kind == "keyword" and t.text in STATEMENT_KEYWORDS:
                return
            self.next()

    # -- driver ------------------------------------------------------------

    def run(self):
        while not self.at("eof"):
            start = self.pos
            try:
                self.statement()
            except (ParseError, SignatureError) as e:
                span = getattr(e, "span", None) or self.toks[start].span
                msg = getattr(e, "message", None) or e.args[0]
                self.diagnostics.append(Diagnostic(msg, span))
                if self.pos == start:
                    self.next()
                self._recover()

    def statement(self):
        t = self.peek()
        if t.kind != "keyword" or t.text not in STATEMENT_KEYWORDS:
            raise ParseError(f"expected a statement, found {t.text or 'end of input'!r}",
                             t.span)
        getattr(self, "s_" + t.text)()

    # -- statements -----------------------------------------------------------

    def s_domain(self):
        span = self.next().span
        name = self.expect("ident").text
        self.expect("punct", "=")
        dim = self.expect("number")
        if dim.value != int(dim.value):
            raise ParseError("domain dimension must be an integer", dim.span)
        self.sig.add_domain(name, int(dim.value))
        self.statements.append(DomainDecl(name, int(dim.value), span))

    def s_const(self):
        span = self.next().span
        name = self.expect("ident").text
        self.expect("punct", ":")
        domain = self.expect("ident").text
        self.expect("punct", "=")
        if self.eat("keyword", "train"):
            init = None
            if self.eat("punct", "("):
                init = self.vector()
                self.expect("punct", ")")
            lo = hi = None
            if self.eat("keyword", "in"):
                lo, hi = self.interval()
            decl = ConstDecl(name, domain, init, True, lo, hi, span)
        else:
            decl = ConstDecl(name, domain, self.vector(), False, None, None, span)
        self.sig.add_constant(name, domain)
        self.statements.append(decl)

    def s_var(self):
        span = self.next().span
        name = self.expect("ident").text
        self.expect("punct", ":")
        domain = self.expect("ident").text
        self.expect("punct", "=")
        if self.eat("keyword", "consts"):
            self.expect("punct", "(")
            source = ("consts", self.idents())
            self.expect("punct", ")")
        elif self.eat("keyword", "data"):
            path = self.expect("string").value
            cols = self.idents() if self.eat("keyword", "cols") else None
            source = ("data", path, cols)
        else:
            source = ("inline", self.vector())
        self.sig.add_variable(name, domain)
        self.statements.append(VarDecl(name, domain, source, span))

    def s_func(self):
        span = self.next().span
        name = self.expect("ident").text
        self.expect("punct", ":")
        din = self.idents()
        self.expect("punct", "->")
        dout = self.expect("ident").text
        self.expect("punct", "=")
        if self.eat("keyword", "builtin"):
            impl = ("builtin", self.expect("ident").text)
        else:
            impl = self.mlp_impl("mlp")
        self.sig.add_function(name, din, dout)
        self.statements.append(SymbolDecl(name, din, dout, impl, span))

    def s_pred(self):
        span = self.next().span
        name = self.expect("ident").text
        din = self.idents() if self.eat("punct", ":") else ()
        self.expect("punct", "=")
        if self.eat("keyword", "scalar"):
            init = None
            if self.eat("punct", "("):
                init = self.signed_number()
                self.expect("punct", ")")
            impl = ("scalar", init)
        elif self.eat("keyword", "select"):
            impl = self.mlp_impl("select")
        else:
            impl = self.mlp_impl("mlp")
        self.sig.add_predicate(name, din)
        self.statements.append(SymbolDecl(name, din, None, impl, span))

    def mlp_impl(self, tag):
        self.expect("keyword", "mlp")
        self.expect("punct", "(")
        widths = [int(self.expect("number").value)]
        while self.eat("punct", ","):
            widths.append(int(self.expect("number").value))
        self.expect("punct", ";")
        acts, drops = [], []
        while True:
            acts.append(self.expect("ident").text)
            drops.append(self.signed_number() if self.eat("punct", "@") else 0.0)
            if not self.eat("punct", ","):
                break
        self.expect("punct", ")")
        return (tag, tuple(widths), tuple(acts), tuple(drops))

    def s_config(self):
        span = self.next().span
        t = self.peek()
        # keys include "forall"/"exists", which tokenize as keywords
        if t.kind not in ("ident", "keyword") or t.text in STATEMENT_KEYWORDS:
            raise ParseError("expected a config key", t.span)
        key = self.next().text
        self.expect("punct", "=")
        # the value runs to the next statement keyword: an op tag like
        # "pmean_error:p=2,eps=1e-3", or a bare number for eq_alpha
        parts = []
        while not self.at("eof"):
            t = self.peek()
            if t.kind == "keyword" and t.text in STATEMENT_KEYWORDS:
                break
            if t.kind not in ("ident", "number") and \
                    not (t.kind == "punct" and t.text in (":", ",", "=")):
                break
            parts.append(self.next().text)
        if not parts:
            raise ParseError("missing config value", self.peek().span)
        self.statements.append(ConfigDecl(key, "".join(parts), span))

    def s_include(self):
        span = self.next().span
        rel = self.expect("string").value
        if self.base is None:
            raise ParseError("include needs a file-based theory", span)
        path = (Path(self.base) / rel).resolve()
        if str(path) in self.seen:
            raise ParseError(f"circular include of {rel!r}", span)
        if not path.exists():
            raise ParseError(f"included file {rel!r} not found", span)
        self.seen.add(str(path))
        toks = tokenize(path.read_text(), str(path))
        sub = _Parser(toks, self.sig, self.statements, self.diagnostics,
                      path.parent, self.seen)
        sub.run()

    def s_axiom(self):
        head = self.next()
        label = self.next().value if self.at("string") else None
        if label is None and head.text == "query":
            raise ParseError("a query needs a \"label\"", self.peek().span)
        p = {}
        while self.eat("punct", "@"):
            kw = self.peek()
            if kw.text not in QUANTIFIERS:
                raise ParseError("expected @forall(p=..) or @exists(p=..)", kw.span)
            if kw.text in p:
                raise ParseError(f"repeated @{kw.text} annotation", kw.span)
            self.next()
            self.expect("punct", "(")
            pname = self.expect("ident")
            if pname.text != "p":
                raise ParseError("only p can be overridden", pname.span)
            self.expect("punct", "=")
            num = self.peek()
            val = self.signed_number()
            if val < 1:  # the p-mean rule, checked where it is written
                raise ParseError(f"p must be >= 1, got {val:g}", num.span)
            self.expect("punct", ")")
            p[kw.text] = val
        self.expect("punct", ":")
        f = self.formula()
        record = Query if head.text == "query" else Axiom
        self.statements.append(record(f, label, p, head.span))

    s_query = s_axiom  # a query is read like an axiom but needs a label

    # -- shared small pieces ------------------------------------------------

    def idents(self) -> tuple:
        names = [self.expect("ident").text]
        while self.eat("punct", ","):
            names.append(self.expect("ident").text)
        return tuple(names)

    def signed_number(self) -> float:
        neg = bool(self.eat("punct", "-"))
        v = self.expect("number").value
        return -v if neg else v

    def interval(self):
        self.expect("punct", "[")
        lo = self.signed_number()
        self.expect("punct", ",")
        hi = self.signed_number()
        self.expect("punct", "]")
        return lo, hi

    def vector(self):
        self.expect("punct", "[")
        items = [self.element()]
        while self.eat("punct", ","):
            items.append(self.element())
        self.expect("punct", "]")
        return tuple(items)

    def element(self):
        if self.at("punct", "["):
            return self.vector()
        return self.signed_number()

    # -- formulas -------------------------------------------------------------

    def formula(self, level=0):
        """A formula whose binary connectives bind no looser than
        ``_BINARY[level]``; the default reads a whole formula."""
        if level == len(_BINARY):
            return self.unary()
        token, op, right = _BINARY[level]
        lhs = self.formula(level + 1)
        while t := self.eat("punct", token):
            rhs = self.formula(level if right else level + 1)
            lhs = Bin(op, lhs, rhs, span=t.span)
        return lhs

    def unary(self):
        t = self.eat("punct", "~")
        if t:
            return Not(self.unary(), span=t.span)
        if self.at("keyword") and self.peek().text in QUANTIFIERS:
            return self.quant()
        if self.eat("punct", "("):
            f = self.formula()
            self.expect("punct", ")")
            return f
        return self.atom()

    def quant(self):
        kw = self.next()
        bound = set()
        groups = [self.group(bound)]
        while self.eat("punct", ","):
            groups.append(self.group(bound))
        guard = None
        if self.eat("punct", "["):
            guard = self.guard()
            self.expect("punct", "]")
        self.expect("punct", ":")
        body = self.formula()
        return Quant(kw.text, tuple(groups), guard, body, span=kw.span)

    def group(self, bound):
        """One group; ``bound`` holds the names its quantifier bound so far."""
        paren = self.eat("punct", "(")
        names = [self.bound_var(bound)]
        while paren and self.eat("punct", ","):
            names.append(self.bound_var(bound))
        if paren:
            self.expect("punct", ")")
            if len(names) < 2:
                raise ParseError("a diagonal group needs at least two "
                                 "variables", paren.span)
        return tuple(names)

    def bound_var(self, bound) -> str:
        t = self.expect("ident")
        if t.text in bound:
            raise ParseError(f"variable {t.text!r} quantified twice", t.span)
        if t.text not in self.sig.variables:
            raise ParseError(f"unknown variable {t.text!r}", t.span)
        bound.add(t.text)
        return t.text

    def guard(self) -> Guard:
        span = self.peek().span
        lhs = self.gsum()
        t = self.peek()
        if not (t.kind == "punct" and t.text in COMPARISONS):
            raise ParseError("expected a comparison in guard", t.span)
        self.next()
        rhs = self.gsum()
        return Guard(t.text, lhs, rhs, span=span)

    def gsum(self):
        sign = -1.0 if self.eat("punct", "-") else 1.0
        pieces = [self.gpiece(sign)]
        while True:
            if self.eat("punct", "+"):
                pieces.append(self.gpiece(1.0))
            elif self.eat("punct", "-"):
                pieces.append(self.gpiece(-1.0))
            else:
                return tuple(pieces)

    def gpiece(self, sign):
        if self.at("number"):
            sign *= self.next().value
            if not self.eat("punct", "*"):
                return (sign, None)
        term, dom = self.term()
        if self.sig.dim(dom) != 1:
            raise ParseError(f"guard term of domain {dom!r} is not scalar",
                             term.span)
        return (sign, term)

    def atom(self):
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected a formula, found {t.text or t.kind!r}",
                             t.span)
        din = self.sig.predicates.get(t.text)
        if din is None:
            lhs, dl = self.term()
            if not self.eat("punct", "="):
                raise ParseError(f"{t.text!r} is not a predicate", t.span)
            rhs, dr = self.term()
            if dl != dr:
                raise ParseError(f"= compares {dl!r} with {dr!r}", lhs.span)
            return Eq(lhs, rhs, span=t.span)
        self.next()
        paren = self.at("punct", "(")
        atom = Atom(t.text, self.args(t, din), span=t.span)
        if self.at("punct", "="):
            raise _predicate_as_term(t, paren)
        return atom

    def term(self):
        """One term and its domain."""
        t = self.expect("ident")
        name, sig = t.text, self.sig
        paren = self.at("punct", "(")
        if name in sig.predicates:
            raise _predicate_as_term(t, paren)
        if paren:
            if name not in sig.functions:
                raise ParseError(f"{name!r} is not a function or predicate",
                                 t.span)
            din, dout = sig.functions[name]
            return App(name, self.args(t, din), span=t.span), dout
        if name in sig.variables:
            return Var(name, span=t.span), sig.variables[name]
        if name in sig.constants:
            return Const(name, span=t.span), sig.constants[name]
        raise ParseError(f"unknown symbol {name!r}", t.span)

    def args(self, t, din) -> tuple:
        """The arguments after the function or predicate at ``t``, if
        any, each checked against its domain in ``din``."""
        args = []
        if self.eat("punct", "("):
            args.append(self.term())
            while self.eat("punct", ","):
                args.append(self.term())
            self.expect("punct", ")")
        if len(args) != len(din):
            raise ParseError(
                f"{t.text} takes {len(din)} arguments, got {len(args)}", t.span)
        for want, (arg, got) in zip(din, args):
            if got != want:
                raise ParseError(f"{t.text}: expected {want}, got {got}",
                                 arg.span)
        return tuple(arg for arg, _ in args)


def _predicate_as_term(t, paren) -> ParseError:
    """The error for the predicate at ``t`` read where a term belongs."""
    kind = "function" if paren else "constant"
    return ParseError(f"unknown {kind} {t.text!r}", t.span)


def parse_theory(text: str, filename: str = "<theory>", base=None) -> TheoryDoc:
    """Parse theory text; include paths resolve relative to ``base``."""
    sig = Signature()
    statements: list = []
    diagnostics: list = []
    toks = tokenize(text, filename)
    p = _Parser(toks, sig, statements, diagnostics, base, set())
    p.run()
    return TheoryDoc(sig, statements, diagnostics)


def parse_formula(text: str, sig: Signature):
    """Parse and type one formula against an existing signature."""
    toks = tokenize(text, "<formula>")
    p = _Parser(toks, sig, [], [], None, set())
    f = p.formula()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected {t.text!r} after formula", t.span)
    return f


def parse_theory_file(path) -> TheoryDoc:
    path = Path(path).resolve()
    return parse_theory(path.read_text(), str(path), base=path.parent)
