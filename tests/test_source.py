"""Source hygiene: no module of the package or of its tests defines one
top-level function or class name twice, so no definition is silently
shadowed by a later one."""

import ast
from collections import Counter
from pathlib import Path

import graphsep

PACKAGE = Path(graphsep.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def test_no_module_defines_a_name_twice():
    paths = sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
    assert len(paths) > 10  # the globs found the package and the tests
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    twice = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        counts = Counter(node.name for node in tree.body if isinstance(node, defs))
        names = sorted(name for name, count in counts.items() if count > 1)
        if names:
            twice[path.name] = names
    assert twice == {}
