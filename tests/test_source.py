"""Source hygiene: no module of the package or of its tests defines one
top-level function or class name twice, so no definition is silently
shadowed by a later one, and the core modules that load a state file,
decide it and run every command import nothing of the inspection layer."""

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


def test_loading_and_deciding_import_no_state_layer():
    # a state file loads to data, and every verdict reads a closed form, a
    # GraphSpec or raw amplitudes: no core module imports the inspection
    # layer, so none of them can build a state, a group or a tensor
    for name in ("amplitudes.py", "cli.py", "graphs.py", "separability.py", "statefile.py"):
        imported = set()  # the package modules named by "from . import x" and "from .x import y", or absolutely
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)):
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("graphsep")):
                module = node.module if node.level else node.module.partition(".")[2]
                imported |= {module} if module else {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[2] for alias in node.names if alias.name.startswith("graphsep.")}
        assert imported, name  # the walk sees the module's relative imports
        assert imported.isdisjoint({"pauli", "states", "stabilizer", "tensor"}), (name, sorted(imported))
