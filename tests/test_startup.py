"""Start-up contract: the CLI runs with numpy refused and never loads
dataclasses or argparse (every command, detect on family, graph and
raw-amplitude files alike), each command runs the body of only the
graphsep modules its path reads, a library call that needs numpy names
the extra that installs it, and the lazy namespace still resolves every
public name.  Each check runs in a fresh interpreter."""

import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import warnings

import pytest

import graphsep
from graphsep.cli import main

SRC = Path(graphsep.__file__).resolve().parents[1]  # the tree this process imports

# a sys.meta_path finder that refuses numpy and its submodules, as if it
# were not installed
REFUSE_NUMPY = """
import sys
class RefuseNumpy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}")
sys.meta_path.insert(0, RefuseNumpy)
"""

# with numpy refused, runs main(argv), then reports its exit code, whether
# numpy still cannot be imported, which of numpy, dataclasses, inspect,
# argparse, gettext and locale got loaded, and the graphsep modules whose
# body has run; each warning is one "Category: message" line on stderr
CHILD_MAIN = REFUSE_NUMPY + """
import importlib.util, json, warnings
from graphsep.cli import main
warnings.showwarning = lambda message, category, *rest: sys.stderr.write(f"{category.__name__}: {message}\\n")
rc = main(sys.argv[1:])
try:
    import numpy
    refused = False
except ImportError:
    refused = True
loaded = [m for m in ("numpy", "dataclasses", "inspect", "argparse", "gettext", "locale") if m in sys.modules]
ran = sorted(k for k, m in sys.modules.items() if k.startswith("graphsep.") and type(m) is not importlib.util._LazyModule)
sys.stderr.write(json.dumps([rc, refused, loaded, ran]) + "\\n")
"""

# the graphsep modules whose body each command runs (README, "Start-up");
# no command runs the inspection layer: states, pauli, stabilizer or tensor
TABLES = ("cli", "separability")  # bounds, sweep, appendix, graph, norms
SETTINGS = (*TABLES, "graphs")
FAMILY_FILE = (*TABLES, "statefile")
GRAPH_FILE = (*FAMILY_FILE, "graphs")  # the count reads the GraphSpec: no state, no group
RAW_FILE = (*FAMILY_FILE, "amplitudes")


def fresh_python(code, *argv, **streams):
    """Run code in a fresh interpreter on this tree, with stdout
    block-buffered as in a plain shell; stdout and stderr are captured
    unless streams gives them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, text=True, timeout=60, check=False, **streams)


def _detect(doc, k, *extra):
    """detect argv on a state file that holds doc (written by the test)."""
    return ["detect", "--state-file", doc, "--k", str(k), *extra]


# a family file is decided from n and p alone, at any n, and its
# errors come before any state is built
FAMILY_FILES = [
    _detect({"family": family, "n": n, **noise}, n - 2, *fmt)
    for family in ("cg", "ghz", "w")
    for n in (5, 1000)
    for noise in ({}, {"p": 0.1})
    for fmt in ((), ("--format", "json"))
]
# one-qubit files, with the modules each runs: statefile refuses a family
# file itself, with no state built, and a graph file's GraphSpec refuses it
ERROR_FILES = [
    *((_detect({"family": family, "n": 1}, 2), FAMILY_FILE) for family in ("cg", "ghz", "w", "cluster")),
    (_detect({"family": "graph", "n": 1, "edges": []}, 2), GRAPH_FILE),
]


def _graph_doc(n, share, seed):
    """A graph file keeping each vertex pair with probability share (seeded)."""
    rng = random.Random(seed)
    edges = [[a, b] for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < share]
    return {"family": "graph", "n": n, "edges": edges}


# graph files are decided from the bit-sliced count of their graph, with no
# group built, and refused above the count limit; cluster files from their
# closed form, at any n.  Each with the modules it runs.
COUNTED_FILES = [
    *((_detect({**_graph_doc(n, share, n), **noise}, 3), GRAPH_FILE) for n in (8, 20) for share in (4 / n, 0.5)
      for noise in ({}, {"p": 0.1})),
    *((_detect({"family": "cluster", "n": 20, **noise}, 4, *fmt), FAMILY_FILE)
      for noise in ({}, {"p": 0.1}, {"p": 1}) for fmt in ((), ("--format", "json"))),
    (_detect({"family": "cluster", "n": 27}, 2), FAMILY_FILE),
    (_detect({"family": "cluster", "n": 5000, "p": 0.1}, 2), FAMILY_FILE),
    (_detect(_graph_doc(27, 0.2, 27), 2), GRAPH_FILE),
    (_detect({"family": "cluster", "n": 1000, "p": 0.1}, 2), FAMILY_FILE),
    (_detect({"family": "graph", "n": 5000, "edges": [[a, a + 1] for a in range(1, 5000)], "p": 0.1}, 2), GRAPH_FILE),
]


def _raw_doc(n, seed, scale=1.0):
    """A raw-amplitude file of a seeded random complex state, its norm scale."""
    rng = random.Random(seed)
    pairs = [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(1 << n)]
    norm = math.sqrt(math.fsum(re * re + im * im for re, im in pairs)) / scale
    return {"n": n, "amplitudes": [[re / norm, im / norm] for re, im in pairs]}


# raw amplitudes are decided by the pure-Python kernel up to the dense
# limit, and refused past it
RAW_FILES = [
    _detect(_raw_doc(3, 3), 2),
    _detect(_raw_doc(10, 10), 3),
    _detect(_raw_doc(10, 10), 2, "--format", "json"),
    _detect(_raw_doc(5, 5, scale=1 + 1e-7), 2),  # renormalized, with a warning
    _detect(_raw_doc(11, 11), 2),
]


COMMANDS = [
    (["bounds", "--n", "55"], TABLES),
    (["bounds", "--n", "2"], TABLES),
    (["bounds", "--n", "2100"], TABLES),
    (["sweep", "--family", "cg", "--n", "12", "--k", "3", "--p-steps", "11"], TABLES),
    (["sweep", "--family", "ghz", "--n", "30", "--k", "2", "--p-steps", "5"], TABLES),
    (["appendix", "--n", "10"], TABLES),
    (["graph", "--n", "5"], TABLES),
    *((argv, FAMILY_FILE) for argv in FAMILY_FILES),
    *ERROR_FILES,
    (["sweep", "--family", "w", "--n", "1000", "--k", "998", "--p-steps", "5"], TABLES),
    *COUNTED_FILES,
    (["norms"], TABLES),
    (["norms", "--families", "cg,cluster,ghz,w", "--n-min", "2", "--n-max", "20"], TABLES),
    (["norms", "--families", "cluster", "--n-min", "1000", "--n-max", "1000"], TABLES),
    (["sweep", "--family", "cluster", "--n", "1000", "--k", "998", "--p-steps", "5"], TABLES),
    *((["settings", "--n", str(n), *noise], SETTINGS) for n in (3, 10, 18) for noise in ((), ("--noise",))),
    *((argv, RAW_FILE) for argv in RAW_FILES),
    # one past the chain count's cap: exit 2 with no count built
    (["norms", "--families", "cluster", "--n-min", "100001", "--n-max", "100001"], TABLES),
]


@pytest.mark.parametrize("argv, runs", COMMANDS, ids=[f"argv{i}" for i in range(len(COMMANDS))])
def test_integer_commands_load_no_numpy(capsys, tmp_path, argv, runs):
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / "state.json"
            path.write_text(json.dumps(arg))
            argv = [*argv[:i], str(path), *argv[i + 1:]]
    child = fresh_python(CHILD_MAIN, *argv)
    *err_lines, report = child.stderr.splitlines(keepends=True)
    rc, refused, loaded, ran = json.loads(report)
    assert refused  # numpy cannot be imported in the child
    assert loaded == []  # no numpy, no dataclasses (nor inspect, which it brings), no argparse (nor gettext, locale)
    assert ran == sorted(f"graphsep.{module}" for module in runs)
    # the same output as main in this process, where numpy can be imported
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert rc == main(argv)
    captured = capsys.readouterr()
    warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    assert (child.stdout, "".join(err_lines)) == (captured.out, warned + captured.err)


# sets a 1 GiB address-space limit, then runs main(argv) and exits with its code
CHILD_LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from graphsep.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("n", [300_000_000, 10 ** 20])
@pytest.mark.parametrize("edges", [[], [[1, 2], [2, 3]]])
def test_huge_graph_file_refused_before_any_n_sized_allocation(tmp_path, n, edges):
    # a graph keeps its edges, not n-bit masks, so the count's qubit
    # limit refuses it before anything of size n is built
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"family": "graph", "n": n, "edges": edges}))
    child = fresh_python(CHILD_LIMITED, "detect", "--state-file", str(path), "--k", "2")
    want = f"graphsep: error: stabilizer count over 2^{n} generator subsets exceeds the 26-qubit limit\n"
    assert (child.returncode, child.stdout, child.stderr) == (2, "", want)


# runs main on each argv in turn and reports, after each, its exit code and
# whether graphsep.states is still the lazy module that no attribute read has
# run; then builds a state (with no numpy) and reports the same for it
CHILD_STATES = """
import importlib.util, json, sys
from graphsep.cli import main
import graphsep
report = []
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    report.append([rc, type(sys.modules["graphsep.states"]) is importlib.util._LazyModule])
graphsep.ghz_state(3)
report.append([None, type(sys.modules["graphsep.states"]) is importlib.util._LazyModule])
sys.stderr.write(json.dumps(report) + "\\n")
"""


def test_family_files_and_norms_do_not_run_states(tmp_path):
    # a family is decided from separability.FAMILIES alone, and statefile
    # refuses a one-qubit family file itself; only a state build runs states.py
    argvs = []
    for i, doc in enumerate(
        {"family": family, "n": n, **noise}
        for family in ("cg", "ghz", "w", "cluster")
        for n in (5, 40)
        for noise in ({}, {"p": 0.1}, {"p": 1})
    ):
        path = tmp_path / f"state{i}.json"
        path.write_text(json.dumps(doc))
        argvs.append(["detect", "--state-file", str(path), "--k", "3"])
    argvs += [["norms"], ["norms", "--families", "cluster,w", "--n-min", "30", "--n-max", "31"]]
    argvs.append(["graph", "--n", "5"])  # edges written as text, no GraphSpec
    for n in (3, 26):  # a graph file is counted from its GraphSpec, with no state
        path = tmp_path / f"graph{n}.json"
        path.write_text(json.dumps({"family": "graph", "n": n, "edges": [[a, a + 1] for a in range(1, n)]}))
        argvs.append(["detect", "--state-file", str(path), "--k", "2"])
    for family in ("cg", "ghz", "w", "cluster"):  # one-qubit files, refused on load
        path = tmp_path / f"{family}1.json"
        path.write_text(json.dumps({"family": family, "n": 1}))
        argvs.append(["detect", "--state-file", str(path), "--k", "2"])
    child = fresh_python(CHILD_STATES, json.dumps(argvs))
    report = json.loads(child.stderr.splitlines()[-1])
    # the state built last does run states: the check can see it
    assert report == [[0, True]] * (len(argvs) - 4) + [[1, True]] * 4 + [[None, False]]


# runs main(argv), then reports its exit code and the graphsep modules whose body has run
CHILD_MODULES = """
import importlib.util, json, sys
from graphsep.cli import main
rc = main(sys.argv[1:])
ran = sorted(k for k, m in sys.modules.items() if k.startswith("graphsep.") and type(m) is not importlib.util._LazyModule)
sys.stderr.write(json.dumps([rc, ran]) + "\\n")
"""


def test_unwritable_out_exits_2_without_running_a_lazy_module(tmp_path):
    # every size limit raises separability.LimitError, so mapping an error
    # to its exit code reads no lazy module
    path = tmp_path / "missing" / "x.csv"
    child = fresh_python(CHILD_MODULES, "sweep", "--family", "cg", "--n", "4", "--k", "2", "--out", str(path))
    *err, report = child.stderr.splitlines()
    assert (child.stdout, err) == ("", [f"graphsep: error: [Errno 2] No such file or directory: '{path}'"])
    assert json.loads(report) == [2, ["graphsep.cli", "graphsep.separability"]]


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
        "assert len(graphsep.__all__) == len(homes) == 43  # every public name\n"
        "print(len([n for n in graphsep.__all__ if getattr(graphsep, n) is not getattr(homes[n], n)]))\n"
        "from graphsep import *\n"
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "0\n", "")


def test_numpy_calls_without_numpy_name_the_extra():
    # a library call that reads numpy, made where numpy cannot be imported,
    # raises one line that names the extra
    child = fresh_python(
        REFUSE_NUMPY
        + "import graphsep\n"
        "for call in (lambda: graphsep.full_tensor(graphsep.w_state(3)), lambda: graphsep.PureState(1, [1, 0])):\n"
        "    try:\n"
        "        call()\n"
        "    except ImportError as exc:\n"
        "        print(repr(str(exc)))\n"
    )
    want = repr("this call needs numpy: install graphsep[tensor]") + "\n"
    assert (child.returncode, child.stdout, child.stderr) == (0, want * 2, "")


def test_readme_lists_every_public_name():
    # the README's layout table: one row per home module, its public names in backticks
    rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| (.+) \|$", (SRC.parent / "README.md").read_text(encoding="utf-8"), re.M)
    listed = {home: sorted(re.findall(r"`(\w+)`", names)) for home, names in rows}
    assert listed == {home: sorted(names.split()) for home, names in graphsep._EXPORTS.items()}


@pytest.mark.parametrize(
    "argv",
    [
        ["norms", "--format", "json", "--families", "cg", "--n-min", "2", "--n-max", "40"],
        ["settings", "--n", "10"],
        ["bounds", "--n", "60"],
    ],
)
def test_closed_stdout_exits_1_quietly(argv):
    # the reader is gone before the child writes anything: exit 1, as
    # Python itself does on a broken pipe, with nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = fresh_python("import sys\nfrom graphsep.cli import main\nsys.exit(main())", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (1, "")
