"""Start-up contract: the CLI runs with numpy refused and never loads
dataclasses, argparse or typing (every command, detect on family, graph
and raw-amplitude files alike), each command runs the body of only the
graphsep modules its path reads, the process entry freezes the start-up
heap while main leaves the collector and fd 1 alone, a library call that
needs numpy names the extra that installs it, and the lazy namespace
still resolves every public name, with threads waiting for a home
module's body.  Each check runs in a fresh interpreter."""

import ast
import gc
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
import graphsep, json, warnings
from graphsep.cli import main
warnings.showwarning = lambda message, category, *rest: sys.stderr.write(f"{category.__name__}: {message}\\n")
rc = main(sys.argv[1:])
try:
    import numpy
    refused = False
except ImportError:
    refused = True
loaded = [m for m in ("numpy", "dataclasses", "inspect", "argparse", "gettext", "locale") if m in sys.modules]
ran = sorted(k for k, m in sys.modules.items() if k.startswith("graphsep.") and type(m) is not graphsep._LazyModule)
sys.stderr.write(json.dumps([rc, refused, loaded, ran]) + "\\n")
"""

# the graphsep modules whose body each command runs (README, "Start-up");
# no command runs the inspection layer: states, pauli, stabilizer or tensor
TABLES = ("cli", "commands", "separability", "bounds")  # bounds, sweep, appendix, graph, norms
SETTINGS = (*TABLES, "graphs")
FAMILY_FILE = (*TABLES, "statefile")
GRAPH_FILE = (*FAMILY_FILE, "graphs")  # the count reads the GraphSpec: no state, no group
RAW_FILE = (*FAMILY_FILE, "amplitudes")


def fresh_python(code, *argv, mode=("-c",), **streams):
    """Run code in a fresh interpreter on this tree, with stdout
    block-buffered as in a plain shell; stdout and stderr are captured
    unless streams gives them.  mode holds the interpreter's options,
    the last of them -c (code is source) or -m (code is a module name)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, *mode, code, *argv], env=env, text=True, timeout=60, check=False, **streams)


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


# runs main on each argv in turn, then reports the exit codes and whether
# typing got loaded
CHILD_TYPING = """
import json, sys
from graphsep.cli import main
rcs = []
for argv in json.loads(sys.argv[1]):
    rcs.append(main(argv))
sys.stderr.write(json.dumps([rcs, "typing" in sys.modules]) + "\\n")
"""


def test_no_command_loads_typing(tmp_path):
    # with -S, so that site's own imports (a .pth file may bring typing)
    # cannot hide one of the program's
    argvs = [argv for argv, _ in COMMANDS if not any(isinstance(arg, dict) for arg in argv)]
    for i, doc in enumerate([{"family": "cg", "n": 5, "p": 0.1}, _graph_doc(8, 0.5, 8), _raw_doc(4, 4)]):
        path = tmp_path / f"state{i}.json"
        path.write_text(json.dumps(doc))
        argvs += [_detect(str(path), 2), _detect(str(path), 2, "--format", "json")]
    argvs += [["norms", "--format", "json"], ["--help"], ["sweep", "--help"], ["bounds"]]
    child = fresh_python(CHILD_TYPING, json.dumps(argvs), mode=("-S", "-c"))
    rcs, typing_loaded = json.loads(child.stderr.splitlines()[-1])
    assert (len(rcs), typing_loaded) == (len(argvs), False)


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
import json, sys
from graphsep.cli import main
import graphsep
report = []
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    report.append([rc, type(sys.modules["graphsep.states"]) is graphsep._LazyModule])
graphsep.ghz_state(3)
report.append([None, type(sys.modules["graphsep.states"]) is graphsep._LazyModule])
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
import graphsep, json, sys
from graphsep.cli import main
rc = main(sys.argv[1:])
ran = sorted(k for k, m in sys.modules.items() if k.startswith("graphsep.") and type(m) is not graphsep._LazyModule)
sys.stderr.write(json.dumps([rc, ran]) + "\\n")
"""


def test_unwritable_out_exits_2_without_running_a_lazy_module(tmp_path):
    # every size limit raises bounds.LimitError, so mapping an error
    # to its exit code reads no lazy module
    path = tmp_path / "missing" / "x.csv"
    child = fresh_python(CHILD_MODULES, "sweep", "--family", "cg", "--n", "4", "--k", "2", "--out", str(path))
    *err, report = child.stderr.splitlines()
    assert (child.stdout, err) == ("", [f"graphsep: error: [Errno 2] No such file or directory: '{path}'"])
    assert json.loads(report) == [2, ["graphsep.bounds", "graphsep.cli", "graphsep.commands", "graphsep.separability"]]


# runs graphsep.cli as python -m does (runpy, as __main__), then reports its
# exit code, how many times each graphsep file was compiled (an audit hook),
# whether graphsep.cli entered sys.modules and how many objects are frozen
CHILD_AS_MAIN = """
import collections, gc, json, os, runpy, sys
compiled = collections.Counter()
def count_compiles(event, args):
    if event == "compile" and isinstance(args[1], str) and os.path.basename(os.path.dirname(args[1])) == "graphsep":
        compiled[os.path.basename(args[1])] += 1
sys.addaudithook(count_compiles)
sys.argv = ["graphsep", *sys.argv[1:]]
try:
    runpy.run_module("graphsep.cli", run_name="__main__", alter_sys=True)
    rc = 0
except SystemExit as exc:
    rc = exc.code
sys.stderr.write(json.dumps([rc, compiled, "graphsep.cli" in sys.modules, gc.get_freeze_count()]) + "\\n")
"""


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["bounds", "--n", "40"], TABLES),
        (_detect(_graph_doc(8, 0.5, 8), 3), GRAPH_FILE),
        (_detect(_raw_doc(4, 4), 2), RAW_FILE),
    ],
    ids=["bounds", "graph-file", "raw-file"],
)
def test_run_as_main_compiles_each_module_once(monkeypatch, tmp_path, argv, runs):
    # with no cached bytecode (the benchmark's children write none), every
    # module a command runs is compiled from source: once each, and the
    # module run as __main__ is never imported again as graphsep.cli
    cache = tmp_path / "pycache"
    cache.mkdir()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(cache))
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / "state.json"
            path.write_text(json.dumps(arg))
            argv = [*argv[:i], str(path), *argv[i + 1:]]
    child = fresh_python(CHILD_AS_MAIN, *argv)
    rc, compiled, imported, _ = json.loads(child.stderr.splitlines()[-1])
    assert (rc, imported) == (0, False)
    assert compiled == {f"{module}.py": 1 for module in ("__init__", *runs)}
    assert child.stdout and list(cache.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "40"],
        _detect(_graph_doc(8, 0.5, 8), 3),
        ["sweep", "--family", "cg", "--n", "12", "--k", "3", "--p-steps", "11"],
        ["bounds", "--n", "2", "--k-min", "3"],  # exit 1
        ["sweep", "--family", "cg", "--n", "4", "--k", "2", "--p-steps", "100002"],  # exit 2
    ],
    ids=["bounds", "graph-file", "sweep", "usage-error", "limit"],
)
def test_process_entry_freezes_the_start_up_heap(capsys, tmp_path, argv):
    # the __main__ block freezes what start-up and the imports built, and
    # the command writes and exits as main does in this process
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / "state.json"
            path.write_text(json.dumps(arg))
            argv = [*argv[:i], str(path), *argv[i + 1:]]
    child = fresh_python(CHILD_AS_MAIN, *argv)
    *err_lines, report = child.stderr.splitlines(keepends=True)
    rc, _, _, frozen = json.loads(report)
    assert frozen > 0
    assert (rc, child.stdout, "".join(err_lines)) == (main(argv), *capsys.readouterr())


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_alone(capsys, enabled):
    # main is a library function: it neither freezes nor switches the collector
    assert gc.get_freeze_count() == 0
    if not enabled:
        gc.disable()
    try:
        assert [main(argv) for argv in (["bounds", "--n", "40"], ["graph", "--n", "4"], ["bounds"])] == [0, 0, 1]
        assert (gc.get_freeze_count(), gc.isenabled()) == (0, enabled)
    finally:
        gc.enable()


def test_console_script_is_the_main_block_entry():
    # `graphsep` and `python -m graphsep.cli` run the same process entry
    scripts = re.findall(r'^graphsep = "graphsep\.cli:(\w+)"$', (SRC.parent / "pyproject.toml").read_text(), re.M)
    tree = ast.parse((SRC / "graphsep" / "cli.py").read_text(encoding="utf-8"))
    main_block = [node.body for node in tree.body
                  if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(scripts) == len(main_block) == 1
    assert [ast.unparse(statement) for statement in main_block[0]] == [f"{scripts[0]}()"]


def test_sweep_to_file_through_the_process_entry_writes_every_row(tmp_path):
    # frozen objects are never finalized, so the file must be closed by main itself
    path = tmp_path / "sweep.csv"
    child = fresh_python("graphsep.cli", "sweep", "--family", "cg", "--n", "10", "--k", "2", "--p-steps", "100001",
                         "--out", str(path), mode=("-m",))
    assert (child.returncode, child.stdout, child.stderr) == (0, "", "")
    assert len(path.read_text(encoding="utf-8").splitlines()) == 100_004


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
    # Python itself does on a broken pipe, with nothing on stderr, from
    # the process entry, called or run by python -m
    for code, mode in (("from graphsep.cli import run\nrun()", ("-c",)), ("graphsep.cli", ("-m",))):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = fresh_python(code, *argv, mode=mode, stdout=write_end)
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (1, "")


# with stdout a pipe whose reader has gone, runs main in this process, then
# reports its exit code and whether fd 1 is still that pipe
CHILD_CLOSED = """
import json, os, sys
from graphsep.cli import main
before = os.fstat(1)
rc = main(sys.argv[1:])
after = os.fstat(1)
sys.stderr.write(json.dumps([rc, (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)]) + "\\n")
os._exit(0)  # the flush at shutdown would find the broken pipe
"""


def test_main_on_a_closed_stdout_leaves_fd_1_alone():
    # main is a library function: on a broken pipe it returns 1, and only
    # the process entry points fd 1 elsewhere
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = fresh_python(CHILD_CLOSED, "bounds", "--n", "60", stdout=write_end)
    finally:
        os.close(write_end)
    assert json.loads(child.stderr.splitlines()[-1]) == [1, True]


# eight threads read one public name at once, with the interpreter
# switching threads every microsecond; reports what each raised and
# whether any thread is still running
CHILD_THREADS = """
import json, sys, threading
import graphsep
sys.setswitchinterval(1e-6)
barrier, failed = threading.Barrier(8), []
def call():
    barrier.wait()
    try:
        graphsep.ghz_group(3)
    except Exception as exc:
        failed.append(repr(exc))
threads = [threading.Thread(target=call, daemon=True) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
sys.stderr.write(json.dumps([failed, any(thread.is_alive() for thread in threads)]) + "\\n")
"""


def test_threads_wait_for_a_home_module_body_to_run():
    # the first read runs the body of graphsep.stabilizer (and the modules
    # it imports); the other seven wait for it, and none reads it half run
    child = fresh_python(CHILD_THREADS)
    assert json.loads(child.stderr.splitlines()[-1]) == [[], False]
