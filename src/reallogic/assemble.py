"""Turn a parsed theory document into a runnable Theory.

Declarations become groundings in a fresh GroundingEnv, config lines
select the fuzzy operators, and data references load CSVs relative to
the theory file (or are overridden by caller-supplied arrays).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from reallogic.datasets import DataError, load_csv
from reallogic.fuzzy import CONFIG_KEYS, FuzzyConfig
from reallogic.logic import EvalError, GroundingEnv, where
from reallogic.nn import MlpSpec, ParamStore
from reallogic.parser import (
    Axiom, ConfigDecl, ConstDecl, DomainDecl, Query, SymbolDecl, TheoryDoc,
    VarDecl, parse_theory_file,
)
from reallogic.training import Theory


class TheoryError(ValueError):
    pass


def euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(((a - b) ** 2).sum(axis=-1, keepdims=True))


BUILTINS = {"euclidean": euclidean}


def build_theory(doc: TheoryDoc, seed: int = 0, data: dict = None,
                 tags: dict = None) -> Theory:
    """Ground every declaration and collect the axioms and queries.

    ``data`` maps variable names to instance arrays, overriding inline
    and file-backed declarations (demos use it to bind train splits).
    ``tags`` maps ``fuzzy.CONFIG_KEYS`` keys to operator text, applied
    in order after the theory's own ``config`` lines, so they win.
    """
    doc.raise_on_errors()
    data = data or {}
    cfg = FuzzyConfig()
    for c in doc.configs:
        try:
            cfg = cfg.with_tag(c.key, c.value)
        except ValueError as e:
            raise TheoryError(f"{where(c.span)}{e}") from None
    for key, value in (tags or {}).items():
        cfg = cfg.with_tag(key, value)
    store = ParamStore(seed)
    env = GroundingEnv(doc.sig, store, cfg)

    axioms, queries = [], []
    for s in doc.statements:
        try:
            if isinstance(s, (DomainDecl, ConfigDecl)):
                continue
            elif isinstance(s, ConstDecl):
                init = None if s.init is None else np.array(s.init, dtype=float)
                env.add_const(s.name, init, trainable=s.trainable,
                              lo=s.lo, hi=s.hi)
            elif isinstance(s, VarDecl):
                if s.name in data:
                    env.add_var_data(s.name, data[s.name])
                elif s.source[0] == "inline":
                    env.add_var_data(s.name, np.array(s.source[1], dtype=float))
                elif s.source[0] == "consts":
                    env.add_var_consts(s.name, s.source[1])
                else:
                    env.add_var_data(s.name, _load_ref(s))
            elif isinstance(s, SymbolDecl):
                kind, *args = s.impl
                if kind == "builtin":
                    if args[0] not in BUILTINS:
                        raise TheoryError(f"{where(s.span)}unknown builtin "
                                          f"{args[0]!r}")
                    env.add_builtin(s.name, BUILTINS[args[0]])
                elif kind == "scalar":
                    env.add_scalar(s.name, *args)
                elif kind == "select":
                    env.add_select(s.name, MlpSpec(*args))
                else:
                    env.add_mlp(s.name, MlpSpec(*args))
            elif isinstance(s, Axiom):  # a Query too
                for kind, p in s.p.items():  # a family without p rejects it
                    try:
                        getattr(cfg, CONFIG_KEYS[kind]).with_p(p)
                    except ValueError as e:
                        raise TheoryError(f"{where(s.span)}@{kind}(p={p:g}): "
                                          f"{e}") from None
                (queries if isinstance(s, Query) else axioms).append(s)
            else:
                raise TheoryError(f"unknown statement {s!r}")
        except (EvalError, ValueError) as e:
            if isinstance(e, TheoryError):
                raise
            name = getattr(s, "name", getattr(s, "label", "?"))
            raise TheoryError(f"{where(s.span)}{name}: {e}") from None
    try:
        return Theory(tuple(axioms), env, tuple(queries))
    except ValueError as e:
        raise TheoryError(str(e)) from None


def _load_ref(decl: VarDecl) -> np.ndarray:
    """The rows of ``decl``'s CSV; a relative path is read from the
    directory of the theory file that declares it."""
    path = Path(decl.source[1])
    if not path.is_absolute():
        theory = Path(decl.span[0])
        if not theory.exists():
            raise TheoryError(f"{where(decl.span)}{decl.name}: data file "
                              f"{decl.source[1]!r} needs a file-based theory "
                              "or an explicit binding")
        path = theory.parent / path
    try:
        ds = load_csv(path, decl.source[2])
    except (OSError, DataError) as e:
        raise TheoryError(f"{where(decl.span)}{decl.name}: {e}") from None
    return ds.rows


def load_theory(path, seed: int = 0, data: dict = None,
                tags: dict = None) -> Theory:
    return build_theory(parse_theory_file(path), seed=seed, data=data,
                        tags=tags)
