"""Random well-typed formulas over one small signature, shared by the
parser's round-trip test, the gradient check of grounded formulas and
the differential checks of the fuzzy kernels, of shared network outputs
and of guard masks. ``rand_*`` draw from a numpy generator; ``formulas``
and ``guarded_quants`` are hypothesis strategies over the same node
kinds, so a failing formula shrinks."""

from hypothesis import strategies as st

from reallogic.logic import (
    COMPARISONS, App, Atom, Bin, Const, Eq, Guard, Not, Quant, Signature,
    Var, free_vars,
)


def small_sig():
    """One 1-d domain ``item``: constants c, d; variables x, y, z, w;
    functions f (unary) and g (binary); predicates P, Q (unary), S
    (binary) and R (0-ary)."""
    s = Signature()
    s.add_domain("item", 1)
    s.add_constant("c", "item")
    s.add_constant("d", "item")
    for v in "xyzw":
        s.add_variable(v, "item")
    s.add_function("f", ("item",), "item")
    s.add_function("g", ("item", "item"), "item")
    s.add_predicate("P", ("item",))
    s.add_predicate("Q", ("item",))
    s.add_predicate("S", ("item", "item"))
    s.add_predicate("R", ())
    return s


def rand_term(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.55:
        pool = ["x", "y", "z", "w", "c", "d"]
        name = pool[rng.integers(len(pool))]
        return Var(name) if name in "xyzw" else Const(name)
    if r < 0.8:
        return App("f", (rand_term(rng, depth - 1),))
    return App("g", (rand_term(rng, depth - 1), rand_term(rng, depth - 1)))


def rand_formula(rng, depth, pool):
    """A formula over ``small_sig``; quantifiers bind names from
    ``pool``, each at most once on a path, and may carry a guard."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        k = rng.integers(5)
        if k == 0:
            return Atom("P", (rand_term(rng, 1),))
        if k == 1:
            return Atom("Q", (rand_term(rng, 1),))
        if k == 2:
            return Atom("S", (rand_term(rng, 1), rand_term(rng, 1)))
        if k == 3:
            return Atom("R", ())
        return Eq(rand_term(rng, 1), rand_term(rng, 1))
    if r < 0.4:
        return Not(rand_formula(rng, depth - 1, pool))
    if r < 0.5 and len(pool) >= 2:
        take = 2 if rng.random() < 0.3 else 1
        names = pool[:take + 1]
        groups = ((tuple(names[:take]),) if take > 1 or rng.random() < 0.7
                  else ((names[0],), (names[1],)))
        used = {v for g in groups for v in g}
        guard = None
        if rng.random() < 0.4:
            a, b = sorted(used)[0], pool[0]
            guard = Guard("<", ((1.0, Var(a)), (-1.0, Var(b))), ((0.5, None),))
        body = rand_formula(rng, depth - 1, [v for v in pool if v not in used])
        return Quant("forall" if rng.random() < 0.5 else "exists",
                     groups, guard, body)
    op = ["and", "or", "implies", "iff"][rng.integers(4)]
    return Bin(op, rand_formula(rng, depth - 1, pool),
               rand_formula(rng, depth - 1, pool))


def never_fires(name):
    """A guard that no instance of the variable ``name`` passes."""
    v = Var(name)
    return Guard("<", ((1.0, v),), ((1.0, v),))


def rand_vacant_quant(rng, kind, depth, pool):
    """A ``kind`` quantifier over the first one or two names of ``pool``
    (one group) whose guard never fires, on a random body that may
    quantify the rest and leave any name free."""
    names = tuple(pool[:2 if rng.random() < 0.3 else 1])
    return Quant(kind, (names,), never_fires(names[0]),
                 rand_formula(rng, depth, pool[len(names):]))


def rand_repeated(rng, depth, pool):
    """A formula that grounds one random atom, and the network term
    ``f(..)`` or ``g(..)`` inside it, several times: the atom beside a
    second atom on the term, and again in the body of a quantifier over
    the atom's variables (a diagonal group when it has two, sometimes),
    whose guard, sometimes, reads the term. The atom's variables stay
    free outside the quantifier."""
    def op():
        return ["and", "or", "implies", "iff"][rng.integers(4)]

    term = (App("f", (rand_term(rng, 1),)) if rng.random() < 0.5
            else App("g", (rand_term(rng, 1), rand_term(rng, 1))))
    other = rand_term(rng, 1)
    atom = [Atom("P", (term,)), Atom("Q", (term,)), Atom("S", (term, other)),
            Atom("S", (other, term))][rng.integers(4)]
    names = list(free_vars(atom)) or pool[:1]
    if len(names) > 1 and rng.random() < 0.5:
        groups = (tuple(names[:2]),) + tuple((v,) for v in names[2:])
    else:
        groups = tuple((v,) for v in names)
    guard = None
    if rng.random() < 0.5:
        guard = Guard("<", ((1.0, term),), ((0.5, None),))
    rest = [v for v in pool if v not in names]
    body = Bin(op(), atom, rand_formula(rng, depth - 1, rest))
    quant = Quant("forall" if rng.random() < 0.5 else "exists", groups,
                  guard, body)
    return Bin(op(), Bin(op(), atom, Atom("P", (term,))), quant)


# -- hypothesis strategies ----------------------------------------------------
#
# Each draw picks a node kind by index, the simplest kinds first, so a
# failing formula shrinks toward variables, atoms and shallow trees.

NAMES = ("x", "y", "z", "w")


@st.composite
def terms(draw, depth):
    """A term over ``small_sig``: a variable, a constant, or ``f``/``g``
    applied to terms of depth ``depth - 1``."""
    kinds = ["var", "const"] + (["f", "g"] if depth > 0 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return Var(draw(st.sampled_from(NAMES)))
    if kind == "const":
        return Const(draw(st.sampled_from("cd")))
    if kind == "f":
        return App("f", (draw(terms(depth - 1)),))
    return App("g", (draw(terms(depth - 1)), draw(terms(depth - 1))))


@st.composite
def guards(draw, bound):
    """A guard ``a + k*b <op> c``: ``a`` is a variable of ``bound`` or
    ``f`` of it, ``b`` (sometimes left out) any variable, bound here, by
    an enclosing quantifier or free, so that the guard can span a
    variable that the body lacks."""
    a = Var(draw(st.sampled_from(sorted(bound))))
    if draw(st.booleans()):
        a = App("f", (a,))
    lhs = ((1.0, a),)
    if draw(st.booleans()):
        lhs += ((draw(st.sampled_from([-1.0, 1.0])),
                 Var(draw(st.sampled_from(NAMES)))),)
    rhs = ((draw(st.sampled_from([0.5, 0.25, 1.0, 0.0])), None),)
    return Guard(draw(st.sampled_from(sorted(COMPARISONS))), lhs, rhs)


@st.composite
def guarded_quants(draw, depth, pool, guarded=None):
    """A quantifier binding one or two names of ``pool``: one group, a
    diagonal group of two, or two plain groups; its guard is drawn when
    ``guarded`` is None, always when True. The body quantifies only the
    rest of ``pool``."""
    take = draw(st.integers(1, min(2, len(pool))))
    names = tuple(pool[:take])
    groups = (names,)
    if take == 2 and draw(st.booleans()):
        groups = ((names[0],), (names[1],))
    if guarded is None:
        guarded = draw(st.booleans())
    guard = draw(guards(set(names))) if guarded else None
    body = draw(formulas(depth - 1, [v for v in pool if v not in names]))
    return Quant(draw(st.sampled_from(["forall", "exists"])), groups, guard,
                 body)


@st.composite
def formulas(draw, depth, pool):
    """A formula over ``small_sig`` of depth at most ``depth``;
    quantifiers bind names from ``pool``, each at most once on a path."""
    kinds = ["P", "Q", "S", "R", "eq"]
    if depth > 0:
        kinds += ["not", "bin"] + (["quant"] if pool else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("P", "Q"):
        return Atom(kind, (draw(terms(1)),))
    if kind == "S":
        return Atom("S", (draw(terms(1)), draw(terms(1))))
    if kind == "R":
        return Atom("R", ())
    if kind == "eq":
        return Eq(draw(terms(1)), draw(terms(1)))
    if kind == "not":
        return Not(draw(formulas(depth - 1, pool)))
    if kind == "bin":
        return Bin(draw(st.sampled_from(["and", "or", "implies", "iff"])),
                   draw(formulas(depth - 1, pool)),
                   draw(formulas(depth - 1, pool)))
    return draw(guarded_quants(depth, pool))
