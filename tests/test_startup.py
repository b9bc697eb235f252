"""Start-up contract: integer commands load no numpy, and the lazy namespace
still resolves every public name.  Each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphsep
from graphsep.cli import main

SRC = Path(graphsep.__file__).resolve().parents[1]  # the tree this process imports

# runs main(argv), then reports its exit code and whether numpy got loaded
CHILD_MAIN = """
import json, sys
from graphsep.cli import main
rc = main(sys.argv[1:])
sys.stderr.write(json.dumps([rc, "numpy" in sys.modules]) + "\\n")
"""


def fresh_python(code, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60, check=False
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "55"],
        ["bounds", "--n", "2"],
        ["bounds", "--n", "2100"],
        ["sweep", "--family", "cg", "--n", "12", "--k", "3", "--p-steps", "11"],
        ["sweep", "--family", "ghz", "--n", "30", "--k", "2", "--p-steps", "5"],
        ["appendix", "--n", "10"],
        ["graph", "--n", "5"],
    ],
)
def test_integer_commands_load_no_numpy(capsys, argv):
    child = fresh_python(CHILD_MAIN, *argv)
    *err_lines, report = child.stderr.splitlines(keepends=True)
    rc, numpy_loaded = json.loads(report)
    assert not numpy_loaded
    # the same output as main in this process, where numpy is loaded
    assert rc == main(argv)
    captured = capsys.readouterr()
    assert (child.stdout, "".join(err_lines)) == (captured.out, captured.err)


def test_tracer_import_sequence_registers_every_layer():
    child = fresh_python(
        "import sys, graphsep.cli, graphsep.pauli\n"
        "layers = ('cli', 'statefile', 'states', 'tensor', 'stabilizer', 'separability')\n"
        "print([layer for layer in layers if f'graphsep.{layer}' not in sys.modules])"
    )
    assert (child.returncode, child.stdout) == (0, "[]\n")


def test_every_public_name_is_its_home_object():
    child = fresh_python(
        "import importlib, graphsep\n"
        "homes = {n: importlib.import_module(f'graphsep.{m}') for n, m in graphsep._HOME.items()}\n"
        "assert len(graphsep.__all__) == len(homes) == 53  # every public name\n"
        "print(len([n for n in graphsep.__all__ if getattr(graphsep, n) is not getattr(homes[n], n)]))\n"
        "from graphsep import *\n"
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "0\n", "")
