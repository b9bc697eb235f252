"""State-file parsing, validation and the amplitude round trip."""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from graphsep import LimitError, PureState, full_tensor, load_state_file, states, tensor, tensor_norm, write_amplitude_file
from graphsep.cli import main
from graphsep.statefile import StateFileError, dumps_amplitudes, loads_state
from graphsep.graphs import complete_graph
from graphsep.states import cluster_state, ghz_state, graph_state, noisy_mixture, w_state

from oracle import FAMILY_STATES, untagged


def test_family_file_pure():
    loaded = loads_state('{"family": "cg", "n": 4}')
    assert loaded.n == 4
    assert loaded.family == "cg"
    assert loaded.p is None
    assert loaded.source == "cg"


def test_a_file_that_is_not_utf8_is_a_state_file_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'# caf\xff\n{"family": "cg", "n": 5}\n')
    reason = "'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"
    with pytest.raises(StateFileError, match=f"^{re.escape(f'cannot read {path}: {reason}')}$"):
        load_state_file(path)


@pytest.mark.parametrize(
    "name, error", [("missing.json", FileNotFoundError), ("", IsADirectoryError)], ids=["missing", "directory"]
)
def test_a_path_that_cannot_be_read_is_a_state_file_error(tmp_path, name, error):
    # as for a file that is not UTF-8, a library caller gets the error the CLI prints
    path = tmp_path / name
    with pytest.raises(error) as reason:
        open(path, encoding="utf-8")
    with pytest.raises(StateFileError, match=f"^{re.escape(f'cannot read {path}: {reason.value}')}$"):
        load_state_file(path)


def test_family_file_with_noise():
    loaded = loads_state('{"family": "ghz", "n": 3, "p": 0.25}')
    assert loaded.p == 0.25 and loaded.source == "ghz"
    weights = sorted(w for w, _ in noisy_mixture(FAMILY_STATES[loaded.source](loaded.n), loaded.p).terms)
    assert weights == pytest.approx([0.25, 0.75])


def test_graph_family_with_edges():
    loaded = loads_state('{"family": "graph", "n": 3, "edges": [[1, 2], [2, 3]]}')
    chain = cluster_state(3)
    assert np.allclose(graph_state(loaded.source).amplitudes, chain.amplitudes)


def test_comment_lines_are_stripped():
    text = "# a comment\n" + '{"family": "w", "n": 3}' + "\n# trailing\n"
    assert loads_state(text).family == "w"


def test_raw_amplitude_file():
    amps = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
    loaded = loads_state(json.dumps({"n": 3, "amplitudes": amps}))
    assert loaded.family is None
    assert loaded.source == (1.0,) + (0.0,) * 7 and all(type(a) is complex for a in loaded.source)
    state = PureState(loaded.n, loaded.source)
    assert state.amplitudes[0] == 1.0


def test_raw_amplitudes_renormalized_with_warning():
    off = 1.0 + 5e-7
    amps = [[off, 0.0]] + [[0.0, 0.0]] * 3
    with pytest.warns(UserWarning, match="renormalizing"):
        loaded = loads_state(json.dumps({"n": 2, "amplitudes": amps}))
    assert abs(PureState(loaded.n, loaded.source).amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_renormalizing_warning_names_the_callers_line(tmp_path):
    # the first stack frame outside statefile, through either reader
    text = json.dumps({"n": 2, "amplitudes": [[1.0 + 5e-7, 0.0]] + [[0.0, 0.0]] * 3})
    path = tmp_path / "off.json"
    path.write_text(text)
    for read, arg in ((loads_state, text), (load_state_file, path)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            read(arg)
        (w,) = caught
        assert (w.category, w.filename) == (UserWarning, __file__)


def test_raw_amplitudes_too_far_off_rejected():
    amps = [[1.1, 0.0]] + [[0.0, 0.0]] * 3
    with pytest.raises(StateFileError):
        loads_state(json.dumps({"n": 2, "amplitudes": amps}))


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"family": "cg"}',
        '{"n": 3}',
        '{"family": "cg", "n": 3, "amplitudes": []}',
        '{"family": "bogus", "n": 3}',
        '{"family": "cg", "n": 3, "edges": [[1, 2]]}',
        '{"family": "graph", "n": 3}',
        '{"family": "graph", "n": 3, "edges": [[1, 2, 3]]}',
        '{"family": "cg", "n": 0}',
        '{"family": "cg", "n": 3, "p": 1.5}',
        '{"family": "cg", "n": 3, "extra": 1}',
        '{"n": 2, "amplitudes": [[1, 0]]}',
        '{"n": 1, "amplitudes": [[1, 0], "x"]}',
        '{"n": 1, "amplitudes": [[NaN, 0], [0, 0]]}',
        '{"n": 1, "amplitudes": [[1, 0], [0, 0]], "edges": []}',
        '{"n": 1, "amplitudes": [[1, 0], [0, 0]], "p": 0.1}',
        '{"family": "graph", "n": 3, "edges": {"1": 2}}',
    ],
)
def test_malformed_files_rejected(text):
    with pytest.raises(StateFileError):
        loads_state(text)


@pytest.mark.parametrize(
    "text,field",
    [
        ('{"family": "cg", "n": 5, "family": "w"}', "family"),  # was decided as W
        ('{"family": "graph", "n": 3, "edges": [[1, 2], [2, 3]], "edges": []}', "edges"),  # was edgeless
        ('{"family": "cg", "n": 5, "n": 5}', "n"),  # the same value twice
        ('{"family": "cg", "n": 5, "p": 0.1, "p": 0.2, "n": 6}', "p"),  # the first name given twice
        ('{"n": 1, "amplitudes": [[1, 0], [0, 0]],\n# a comment\n"amplitudes": [[0, 0], [1, 0]]}', "amplitudes"),
    ],
)
def test_a_repeated_field_is_refused(text, field):
    # json.loads keeps the last value of a repeated name; a state file may not repeat one
    with pytest.raises(StateFileError, match=f"^repeated field '{field}'$"):
        loads_state(text)


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"n": 2, "amplitudes": [[1, 0]]}, "'amplitudes' must list exactly 2^2 entries"),
        # 2^n in decimal would pass Python's 4300-digit conversion limit, and 1 << n would take 125 GB
        ({"n": 20000, "amplitudes": [[1, 0]]}, "'amplitudes' must list exactly 2^20000 entries"),
        ({"n": 10 ** 12, "amplitudes": [[1, 0]]}, "'amplitudes' must list exactly 2^1000000000000 entries"),
    ],
)
def test_amplitude_count_message(doc, message, tmp_path, capsys):
    with pytest.raises(StateFileError, match=f"^{re.escape(message)}$"):
        loads_state(json.dumps(doc))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    assert main(["detect", "--state-file", str(path), "--k", "2"]) == 1
    assert capsys.readouterr() == ("", f"graphsep: error: {message}\n")


@pytest.mark.parametrize(
    "build", [lambda: graph_state(complete_graph(4)), lambda: ghz_state(3), lambda: w_state(5)]
)
def test_amplitude_round_trip_preserves_norm(build, tmp_path):
    state = build()
    path = tmp_path / "state.json"
    write_amplitude_file(path, state)
    loaded = load_state_file(path)
    original = tensor_norm(full_tensor(untagged(state)))
    reloaded = tensor_norm(full_tensor(PureState(loaded.n, loaded.source)))  # an amplitude file carries no tag
    assert reloaded == pytest.approx(original, abs=1e-12)


def test_round_trip_header_documents_bit_order(tmp_path):
    path = tmp_path / "state.json"
    write_amplitude_file(path, ghz_state(2))
    first = path.read_text().splitlines()[0]
    assert first.startswith("#") and "most significant" in first


def test_w_file_is_decided_without_building_it(monkeypatch, tmp_path, capsys):
    raw = tmp_path / "raw11.json"
    write_amplitude_file(raw, w_state(11))

    def unbuildable(n):
        raise AssertionError(f"w_state({n}) was called")

    monkeypatch.setattr(states, "w_state", unbuildable)
    loaded = loads_state('{"family": "w", "n": 25, "p": 0.1}')
    assert (loaded.n, loaded.family, loaded.p) == (25, "w", 0.1)
    path = tmp_path / "w25.json"
    path.write_text('{"family": "w", "n": 25}')
    assert main(["detect", "--state-file", str(path), "--k", "23"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("verdict=NonKSeparable\n") and captured.err == ""
    # the dense limit guards the dense sweep, which only raw amplitudes take
    want = "dense sweep over 3^11 words exceeds the 10-qubit limit"
    assert main(["detect", "--state-file", str(raw), "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"graphsep: error: {want}\n"


def test_tagged_families_skip_the_dense_limit():
    n = tensor.DENSE_LIMIT + 2
    for family in ("cg", "ghz", "cluster"):
        loaded = loads_state(json.dumps({"family": family, "n": n, "p": 0.1}))
        assert len(full_tensor(noisy_mixture(FAMILY_STATES[loaded.source](n), loaded.p))) > 0
    # a W file loads (detect reads its closed form); its amplitudes, untagged, do not pass
    assert loads_state(json.dumps({"family": "w", "n": n})).n == n
    loaded = loads_state(dumps_amplitudes(w_state(tensor.DENSE_LIMIT + 1)))
    with pytest.raises(LimitError):
        full_tensor(PureState(loaded.n, loaded.source))


@pytest.mark.parametrize("family", ["cg", "ghz", "w", "cluster"])
def test_one_qubit_family_refused_on_load(family):
    # one message that names the family (statefile imports no state constructor: test_source.py)
    with pytest.raises(StateFileError, match=f"^family '{family}' needs at least 2 qubits$"):
        loads_state(json.dumps({"family": family, "n": 1, "p": 0.1}))


@pytest.mark.parametrize(
    "field,doc",
    [
        ("n", {"family": "cg", "n": True}),
        ("p", {"family": "cg", "n": 4, "p": True}),
        ("p", {"family": "cg", "n": 4, "p": False}),
        ("edge", {"family": "graph", "n": 3, "edges": [[True, 2], [2, 3]]}),
        ("amplitude", {"n": 1, "amplitudes": [[True, 0], [0, 0]]}),
        ("amplitude", {"n": 1, "amplitudes": [[1, 0], [0, False]]}),
    ],
)
def test_json_booleans_are_not_numbers(field, doc, tmp_path, capsys):
    # true and false load as bool, an int subclass: p = true was p = 1, [true, 2] the edge (1, 2)
    with pytest.raises(StateFileError):
        loads_state(json.dumps(doc))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    assert main(["detect", "--state-file", str(path), "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("graphsep: error: ") and captured.err.count("\n") == 1


def test_loading_a_tagged_state_allocates_no_amplitudes():
    edges = [[a, b] for a in range(1, 35) for b in range(a + 1, 35) if (a * b) % 3 == 0]
    for doc in ({"family": "graph", "n": 34, "edges": edges, "p": 0.1}, {"family": "cg", "n": 30}):
        text = json.dumps(doc)
        tracemalloc.start()
        try:
            loaded = loads_state(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.n == doc["n"]
        assert peak < 1 << 20


def test_loading_a_large_complete_graph_stays_small():
    # a cg file keeps its family name and builds no graph: the 44,850
    # edge tuples of K_300 once took 9 MB at peak
    tracemalloc.start()
    try:
        loaded = loads_state('{"family": "cg", "n": 300, "p": 0.1}')
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.n == 300 and loaded.p == 0.1
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "text,message",
    [
        # p is compared exactly, and shown abbreviated
        (
            '{"family": "cg", "n": 3, "p": 1%s}' % ("0" * 400),
            "'p' must be a number in [0, 1], got 100000000000000000...0000000000000000000",
        ),
        # past Python's 4300-digit limit json.loads itself refuses the integer
        ('{"family": "cg", "n": 3, "p": 1%s}' % ("0" * 4999), "not valid JSON: Exceeds the limit (4300 digits)"),
        ('{"family": "cg", "n": 1%s}' % ("0" * 4999), "not valid JSON: Exceeds the limit (4300 digits)"),
        # an amplitude part past the float range names its entry
        (
            '{"n": 1, "amplitudes": [[1, 0], [0, 1%s]]}' % ("0" * 400),
            "amplitude 1 has a part past the float range: [0, 100000000000000000...0000000000000000000]",
        ),
    ],
    ids=["p-401-digits", "p-5000-digits", "n-5000-digits", "amplitude-401-digits"],
)
def test_huge_json_integers_are_input_errors(text, message, tmp_path, capsys):
    with pytest.raises(StateFileError, match=f"^{re.escape(message)}"):
        loads_state(text)
    path = tmp_path / "state.json"
    path.write_text(text)
    assert main(["detect", "--state-file", str(path), "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"graphsep: error: {message}")
    assert captured.err.count("\n") == 1 and len(captured.err) < 300


@pytest.mark.parametrize(
    "edges,message",
    [
        ([[1, 1]], "self-loop at vertex 1"),
        ([[1, 2], [2, 1]], "duplicate edge (1, 2)"),
        ([[1, 4]], "edge (1, 4) outside 1..3"),
        ([[0, 2]], "edge (0, 2) outside 1..3"),
    ],
)
def test_graph_spec_errors_are_state_file_errors(edges, message):
    with pytest.raises(StateFileError, match=f"^{re.escape(message)}$"):
        loads_state(json.dumps({"family": "graph", "n": 3, "edges": edges}))
