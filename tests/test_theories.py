"""The bundled theory corpus parses and builds."""

from pathlib import Path

import numpy as np
import pytest

from reallogic.assemble import load_theory
from reallogic.demos import smoker_facts
from reallogic.parser import parse_theory_file
from reallogic.training import satisfiability, truth_value

THEORY_DIR = Path(__file__).parent.parent / "src" / "reallogic" / "theories"
THEORIES = sorted(THEORY_DIR.glob("*.rl"))

AXIOM_COUNTS = {
    "addition_multi": 1,
    "addition_single": 1,
    "binary": 2,
    "clustering": 4,
    "multiclass": 3,
    "multilabel": 6,
    "refute": 1,
    "regression": 1,
    "smokers": 119,
}

QUERY_COUNTS = {"multilabel": 3, "smokers": 2}  # the others declare none


def test_corpus_is_complete():
    assert sorted(p.stem for p in THEORIES) == sorted(AXIOM_COUNTS)


@pytest.mark.parametrize("path", THEORIES, ids=lambda p: p.stem)
def test_theory_parses_clean(path):
    doc = parse_theory_file(path)
    assert doc.diagnostics == []
    assert len(doc.axioms) == AXIOM_COUNTS[path.stem]


@pytest.mark.parametrize("path", THEORIES, ids=lambda p: p.stem)
def test_theory_builds_and_evaluates(path):
    th = load_theory(path, seed=0)
    sat = float(satisfiability(th).data)
    assert 0.0 <= sat <= 1.0
    assert len(th.queries) == QUERY_COUNTS.get(path.stem, 0)
    for q in th.queries:
        assert 0.0 <= truth_value(th, q.formula, p=q.p) <= 1.0


def test_smokers_fact_axioms_match_fact_sets():
    doc = parse_theory_file(THEORY_DIR / "smokers.rl")
    grouped = {}
    for ax in doc.axioms:
        grouped.setdefault(ax.label, []).append(ax.formula)

    def atoms(label, negated):
        fs = grouped[label]
        assert all((type(f).__name__ == "Not") == negated for f in fs)
        return [tuple(t.name for t in (f.body if negated else f).args)
                for f in fs]

    # x and y are declared over the same people, which are the people the
    # built theory grounds x with
    decls = {s.name: s.source[1] for s in doc.statements
             if hasattr(s, "source") and s.source[0] == "consts"}
    people = decls["x"]
    assert decls["y"] == people
    assert smoker_facts(load_theory(THEORY_DIR / "smokers.rl", seed=0)) \
        == people

    # every unordered pair of people is listed exactly once, as a
    # friendship or as a negated pair
    pairs = [frozenset(p) for p in atoms("friends", False)
             + atoms("non-friends", True)]
    n = len(people)
    assert len(set(pairs)) == len(pairs) == n * (n - 1) // 2
    assert all(len(p) == 2 and p <= set(people) for p in pairs)

    smokers = [a for (a,) in atoms("smokers", False)]
    assert [a for (a,) in atoms("non-smokers", True)] == \
        [u for u in people if u not in smokers]
    cancer = [a for (a,) in atoms("cancer", False)]
    no_cancer = [a for (a,) in atoms("no cancer", True)]
    assert set(cancer).isdisjoint(no_cancer)
    assert set(cancer + no_cancer) <= set(people)


def test_smokers_annotations():
    doc = parse_theory_file(THEORY_DIR / "smokers.rl")
    by_label = {ax.label: ax for ax in doc.axioms}
    assert by_label["anti-reflexive"].p["forall"] == 6
    assert by_label["symmetric"].p["forall"] == 6
    assert by_label["smoking propagates"].p.get("forall") is None


def test_multilabel_has_no_negative_facts():
    # the design point: only positive facts plus the two exclusions
    doc = parse_theory_file(THEORY_DIR / "multilabel.rl")
    bodies = [type(ax.formula.body).__name__ for ax in doc.axioms]
    assert bodies.count("Not") == 2
    assert bodies.count("Atom") == 4
