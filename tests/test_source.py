"""Source hygiene: no module of the package or of its tests defines one
top-level function or class name twice, so no definition is silently
shadowed by a later one, the core modules that load a state file,
decide it and run every command import nothing of the inspection layer,
and none of the modules a command runs is larger than the parse budget."""

import ast
import tokenize
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
    for name in ("amplitudes.py", "bounds.py", "cli.py", "commands.py", "graphs.py", "separability.py", "statefile.py"):
        imported = set()  # the package modules named by "from . import x" and "from .x import y", or absolutely
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)):
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("graphsep")):
                module = node.module if node.level else node.module.partition(".")[2]
                imported |= {module} if module else {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[2] for alias in node.names if alias.name.startswith("graphsep.")}
        # the walk sees the module's relative imports; bounds, which the others import, reads only the stdlib
        assert bool(imported) == (name != "bounds.py"), (name, sorted(imported))
        assert imported.isdisjoint({"pauli", "states", "stabilizer", "tensor"}), (name, sorted(imported))


# Tokens (tokenize's, less comments and blank lines) of the largest module a
# command may run.  A CLI process compiles every module it runs from source
# when it has no cached bytecode, and the largest parse sets its peak RSS, at
# about 0.43 KiB per token on Python 3.11: docstrings count one token each.
PARSE_BUDGET = 1500


def test_modules_a_command_runs_fit_the_parse_budget():
    sizes = {}
    for name in ("__init__", "cli", "commands", "separability", "bounds", "graphs", "statefile", "amplitudes"):
        with open(PACKAGE / f"{name}.py", encoding="utf-8") as source:
            sizes[name] = sum(1 for token in tokenize.generate_tokens(source.readline)
                              if token.type not in (tokenize.COMMENT, tokenize.NL))
    assert sizes["graphs"] > 1000  # the count sees a module's code
    assert {name: size for name, size in sizes.items() if size > PARSE_BUDGET} == {}
