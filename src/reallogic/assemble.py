"""Turn a parsed theory document into a runnable Theory.

Declarations become groundings in a fresh GroundingEnv, config lines
select the fuzzy operators, and data references load CSVs relative to
the theory file (or are overridden by caller-supplied arrays).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from reallogic.datasets import DataError, load_csv
from reallogic.fuzzy import FuzzyConfig
from reallogic.logic import EvalError, GroundingEnv, where
from reallogic.nn import MlpSpec, ParamStore
from reallogic.parser import (
    Axiom, ConfigDecl, ConstDecl, DomainDecl, FuncDecl, PredDecl, TheoryDoc,
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
    """Ground every declaration and collect the axioms.

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

    axioms = []
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
                    env.add_var_data(s.name, _load_ref(doc, s))
            elif isinstance(s, FuncDecl):
                if s.impl[0] == "builtin":
                    if s.impl[1] not in BUILTINS:
                        raise TheoryError(f"{where(s.span)}unknown builtin "
                                          f"{s.impl[1]!r}")
                    env.add_func_builtin(s.name, BUILTINS[s.impl[1]])
                else:
                    env.add_func_mlp(s.name, MlpSpec(*s.impl[1:]))
            elif isinstance(s, PredDecl):
                if s.impl[0] == "scalar":
                    env.add_pred_scalar(s.name, s.impl[1])
                elif s.impl[0] == "select":
                    env.add_pred_select(s.name, MlpSpec(*s.impl[1:]))
                else:
                    env.add_pred_mlp(s.name, MlpSpec(*s.impl[1:]))
            elif isinstance(s, Axiom):
                axioms.append(s)
            else:
                raise TheoryError(f"unknown statement {s!r}")
        except (EvalError, ValueError) as e:
            if isinstance(e, TheoryError):
                raise
            name = getattr(s, "name", getattr(s, "label", "?"))
            raise TheoryError(f"{where(s.span)}{name}: {e}") from None
    try:
        return Theory(tuple(axioms), env)
    except ValueError as e:
        raise TheoryError(str(e)) from None


def _load_ref(doc: TheoryDoc, decl: VarDecl) -> np.ndarray:
    path = Path(decl.source[1])
    if not path.is_absolute():
        base = Path(doc.path).parent if Path(doc.path).exists() else None
        if base is None:
            raise TheoryError(f"{where(decl.span)}{decl.name}: data file "
                              f"{decl.source[1]!r} needs a file-based theory "
                              "or an explicit binding")
        path = base / path
    try:
        ds = load_csv(path, decl.source[2])
    except (OSError, DataError) as e:
        raise TheoryError(f"{where(decl.span)}{decl.name}: {e}") from None
    return ds.rows


def load_theory(path, seed: int = 0, data: dict = None,
                tags: dict = None) -> Theory:
    return build_theory(parse_theory_file(path), seed=seed, data=data,
                        tags=tags)
