"""Every module-level function and class in ``src/reallogic``, public
or private, and every public method of a public class, has a caller
outside the tests: some code under ``src/``, ``tools/`` or
``perfbench/`` (its tests excluded) names it, other than its own
definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "reallogic"

# kept although only tests call it: the only way to give a predicate
# exact truths
EXEMPT_METHODS = {"GroundingEnv.add_callable"}


def _sources():
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def _names(node) -> set:
    """Identifiers that ``node`` refers to: names, attributes, imported
    names, and strings naming an attribute (``getattr``-style)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            out.add(n.value)
    return out


def _uncalled(private: bool) -> list:
    """The module-level functions and classes of ``src/reallogic`` whose
    names start with ``_`` (``private``) or do not, that no other
    top-level statement names."""
    defined = []   # (path, top-level node)
    used = []      # (path, top-level node, names it refers to)
    for path in _sources():
        for node in ast.parse(path.read_text()).body:
            used.append((path, node, _names(node)))
            if path.parent == PACKAGE and isinstance(
                    node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") == private:
                defined.append((path, node))
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in defined
        if not any(node.name in names for p, n, names in used
                   if (p, n) != (path, node))
    ]


def test_every_public_definition_has_a_caller_outside_the_tests():
    unused = _uncalled(private=False)
    assert not unused, unused


def test_every_private_helper_has_a_caller_outside_the_tests():
    unused = _uncalled(private=True)
    assert not unused, unused


def test_every_public_method_has_a_caller_outside_the_tests():
    methods = []   # (path, class, method)
    used = []      # (node, names it refers to), classes split by member
    for path in _sources():
        for node in ast.parse(path.read_text()).body:
            parts = node.body if isinstance(node, ast.ClassDef) else [node]
            used += [(n, _names(n)) for n in parts]
            if path.parent == PACKAGE and isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                methods += [(path, node, m) for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_")]
    unused = [
        f"{path.name}:{m.lineno} {cls.name}.{m.name}"
        for path, cls, m in methods
        if f"{cls.name}.{m.name}" not in EXEMPT_METHODS
        and not any(m.name in names for n, names in used if n is not m)
    ]
    assert not unused, unused
