"""Command-line behavior: formats, exit codes, determinism."""

import collections.abc
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import sys
import tracemalloc
import typing
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

import graphsep
from graphsep import (
    LimitError,
    amplitudes,
    chain_graph,
    full_tensor,
    full_weight_count,
    ghz_state,
    graphs,
    measurement_settings,
    noise_products,
    noisy_mixture,
    separability,
    stabilizer,
    stabilizer_group,
    tensor,
    write_amplitude_file,
)
from graphsep import cli
from graphsep.cli import MAX_PARTS, MAX_ROWS, main

from oracle import (
    brute_k_sep_bound,
    chain_string_counts,
    combinations_cg_pattern,
    exact_noise_norm_sq,
    exact_noise_products,
    exact_noise_threshold,
    exact_verdict,
    key_words,
    untagged,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norms_default_is_full_table(capsys):
    code, out, _ = run(capsys, "norms")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "family,n,norm_sq,norm"
    assert len(lines) == 29
    # family-major, n ascending
    assert lines[1].startswith("cg,2,") and lines[8].startswith("ghz,2,")
    assert "w,3,3.66666666667,1.91485421551" in lines


def test_norms_deterministic(capsys):
    _, first, _ = run(capsys, "norms", "--families", "cg,w", "--n-max", "6")
    _, second, _ = run(capsys, "norms", "--families", "cg,w", "--n-max", "6")
    assert first == second


def test_norms_json(capsys):
    code, out, _ = run(capsys, "norms", "--families", "w", "--n-min", "2", "--n-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {
            "family": "w",
            "n": 2,
            "norm_sq": pytest.approx(3.0, abs=1e-9),
            "norm": pytest.approx(math.sqrt(3), abs=1e-9),
        }
    ]


def test_norms_json_is_the_text_of_json_dumps(capsys):
    # the rows are written from a template, byte for byte what json.dumps
    # of one dict per row gives, W's non-integer norms included
    families = ["cg", "ghz", "w", "cluster"]
    code, out, err = run(capsys, "norms", "--families", ",".join(families), "--n-min", "2", "--n-max", "300",
                         "--format", "json")
    payload = [
        {"family": fam, "n": n, "norm_sq": norm_sq, "norm": math.sqrt(norm_sq)}
        for fam, n, norm_sq in separability.norm_table(families, 2, 300)
    ]
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, indent=2) + "\n"
    for family in families:  # one row: no comma after the only object
        _, out, _ = run(capsys, "norms", "--families", family, "--n-min", "7", "--n-max", "7", "--format", "json")
        norm_sq = separability.norm_table([family], 7, 7)[0][2]
        want = [{"family": family, "n": 7, "norm_sq": norm_sq, "norm": math.sqrt(norm_sq)}]
        assert out == json.dumps(want, indent=2) + "\n"


def test_norms_bad_family_exits_1(capsys):
    code, _, err = run(capsys, "norms", "--families", "bogus")
    assert code == 1
    assert "unknown family" in err
    for raw in (",", " , ,", ""):
        assert run(capsys, "norms", "--families", raw) == (1, "", "graphsep: error: no families given\n")


def test_norms_resource_limit_exits_2(capsys, tmp_path):
    # W rows are a closed form now, past the dense limit too
    code, out, err = run(capsys, "norms", "--families", "w", "--n-min", "11", "--n-max", "11")
    assert (code, out, err) == (0, f"family,n,norm_sq,norm\nw,11,{51 / 11:.12g},{math.sqrt(51 / 11):.12g}\n", "")
    assert out.splitlines()[1].startswith("w,11,4.63636363636,")
    # the limit stays on the dense sweep, which only raw amplitudes take
    path = tmp_path / "raw11.json"
    write_amplitude_file(path, ghz_state(11))
    code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert code == 2 and out == ""
    assert err == "graphsep: error: dense sweep over 3^11 words exceeds the 10-qubit limit\n"
    with pytest.raises(LimitError) as caught:  # the library's refusal is a RuntimeError too
        amplitudes._pure_norm_sq(11, None)
    assert isinstance(caught.value, RuntimeError) and f"graphsep: error: {caught.value}\n" == err
    # cluster rows are a closed form too, past the walk limit, and an unknown name is still refused
    code, out, err = run(capsys, "norms", "--families", "cluster", "--n-min", "27", "--n-max", "27")
    b = chain_string_counts(27)[27]
    assert (code, out, err) == (0, f"family,n,norm_sq,norm\ncluster,27,{b},{math.sqrt(b):.12g}\n", "")
    code, out, err = run(capsys, "norms", "--families", "cluster,bogus", "--n-min", "27", "--n-max", "27")
    assert (code, out) == (1, "")
    assert err == "graphsep: error: unknown family 'bogus'; expected one of ('cg', 'ghz', 'w', 'cluster')\n"


def _exact_norm_sq(family, n):
    if family == "cluster":
        return full_weight_count(stabilizer_group(chain_graph(n)))
    return 2 ** (n - 1) + 1 - n % 2  # cg and GHZ


def test_norms_json_norm_sq_is_the_exact_count(capsys):
    code, out, _ = run(capsys, "norms", "--families", "cg,ghz,cluster", "--n-min", "2", "--n-max", "12",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 33
    for row in payload:
        want = _exact_norm_sq(row["family"], row["n"])
        assert row["norm_sq"] == want
        assert row["norm"] == math.sqrt(want)


def test_norms_text_rows_are_the_exact_values(capsys):
    code, out, _ = run(capsys, "norms", "--families", "cg,ghz,cluster", "--n-min", "2", "--n-max", "18")
    assert code == 0
    want = [
        f"{family},{n},{want},{math.sqrt(want):.12g}"
        for family in ("cg", "ghz", "cluster")
        for n in range(2, 19)
        for want in [_exact_norm_sq(family, n)]
    ]
    assert out.splitlines() == ["family,n,norm_sq,norm", *want]
    code, out, _ = run(capsys, "norms", "--families", "w", "--n-min", "2", "--n-max", "10", "--format", "json")
    assert code == 0
    for row in json.loads(out):
        assert row["norm_sq"] == float(Fraction(5) - Fraction(4, row["n"]))  # correctly rounded
        assert row["norm"] == math.sqrt(row["norm_sq"])
    # and at any n, the cluster rows against the oracle's string count
    code, out, _ = run(capsys, "norms", "--families", "w", "--n-min", "999", "--n-max", "1000")
    want = [f"w,{n},{5 - 4 / n:.12g},{math.sqrt(5 - 4 / n):.12g}" for n in (999, 1000)]
    assert (code, out.splitlines()[1:]) == (0, want)
    counts = chain_string_counts(1000)
    for n in (30, 1000):
        code, out, _ = run(capsys, "norms", "--families", "cluster", "--n-min", str(n), "--n-max", str(n))
        assert (code, out.splitlines()[1:]) == (0, [f"cluster,{n},{float(counts[n]):.12g},{math.sqrt(counts[n]):.12g}"])


def test_bounds_n7(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "7")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,k,bound,partition"
    assert lines[1] == "7,2,6.92820323028,2|5"
    assert lines[2] == "7,3,5.19615242271,1|2|4"
    assert lines[3] == "7,4,3.46410161514,1|1|2|3"


def test_bounds_n6_all_k(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "6", "--k-min", "2", "--k-max", "6")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    bounds = [float(r[2]) for r in rows]
    assert code == 0
    assert bounds == pytest.approx([math.sqrt(27), math.sqrt(12), 2.0, math.sqrt(3), 1.0], abs=1e-9)


def test_bounds_single_row(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "3", "--k-min", "3", "--k-max", "3")
    assert code == 0
    assert out.strip().splitlines()[1] == "3,3,1,1|1|1"


def test_bounds_bad_range_exits_1(capsys):
    assert run(capsys, "bounds", "--n", "2")[0] == 1
    assert run(capsys, "bounds", "--n", "5", "--k-min", "4", "--k-max", "3")[0] == 1


def test_bounds_beyond_float_range_rows(capsys):
    code, out, err = run(capsys, "bounds", "--n", "1100", "--k-max", "3")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    want = [(2, "2|1098", 3 * (2 ** 1097 + 1)), (3, "2|4|1094", 3 * 9 * (2 ** 1093 + 1))]
    assert len(rows) == len(want)
    for (n, k, bound, label), (want_k, want_label, want_sq) in zip(rows, want):
        assert (int(n), int(k), label) == (1100, want_k, want_label)
        assert 2 * math.log(float(bound)) == pytest.approx(math.log(want_sq), rel=1e-12)


def test_bounds_many_blocks_rows(capsys):
    code, out, err = run(capsys, "bounds", "--n", "1000", "--k-min", "999")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,bound,partition"
    assert lines[1] == "1000,999,1.73205080757," + "|".join(["1"] * 998 + ["2"])
    assert lines[2] == "1000,1000,1," + "|".join(["1"] * 1000)
    assert len(lines) == 3


def test_bounds_failing_row_leaves_stdout_empty(capsys):
    # the k=2 bound of n=2100 passes 2^1024, after no row has been printed
    code, out, err = run(capsys, "bounds", "--n", "2100", "--k-max", "2")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("graphsep: error: ")
    assert "Traceback" not in err


def test_sweep_beyond_float_range_is_one_line_error(capsys):
    code, out, err = run(capsys, "sweep", "--family", "cg", "--n", "1100", "--k", "2", "--p-steps", "3")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("graphsep: error: ")
    assert "Traceback" not in err


def test_sweep_cg_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "cg", "--n", "6", "--k", "2", "--p-steps", "11")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "# sweep family=cg n=6 k=2"
    assert lines[1].startswith("# threshold_p=0.09561913")
    assert lines[2] == "p,norm_sq,bound_sq,xi,verdict"
    assert len(lines) == 14
    first = lines[3].split(",")
    assert first[0] == "0"
    assert float(first[3]) == pytest.approx(33 / 27, abs=1e-9)
    assert first[4] == "NonKSeparable"
    # verdict flips at the first grid point above the threshold
    assert lines[4].split(",")[4] == "Inconclusive"


def test_sweep_full_separability_xi(capsys):
    _, out, _ = run(capsys, "sweep", "--family", "cg", "--n", "6", "--k", "6", "--p-steps", "11")
    row = out.strip().splitlines()[3].split(",")
    assert float(row[3]) == pytest.approx(33.0, abs=1e-9)


def test_sweep_to_file_deterministic(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--family", "ghz", "--n", "4", "--k", "2",
                       "--p-steps", "5", "--out", str(out_path))
    assert code == 0 and out == ""
    first = out_path.read_text()
    run(capsys, "sweep", "--family", "ghz", "--n", "4", "--k", "2",
        "--p-steps", "5", "--out", str(out_path))
    assert out_path.read_text() == first
    assert first.splitlines()[2] == "p,norm_sq,bound_sq,xi,verdict"


@lru_cache(maxsize=None)
def _ghz_entries(n):
    base = full_tensor(untagged(ghz_state(n))).entries
    ones = full_tensor(untagged(noisy_mixture(ghz_state(n), 1.0))).entries
    return base, ones


def _per_key_ghz_products(n, family):
    """(B, C, O, 1) of the GHZ and noise tensors, summed entry by entry over
    both supports: the squared norm of (1-p) base + p ones, key by key, is
    the quadratic with these coefficients."""
    base, ones = _ghz_entries(n)
    keys = base.keys() | ones.keys()
    sums = [math.fsum(a.get(key, 0.0) * b.get(key, 0.0) for key in keys)
            for a, b in ((base, base), (base, ones), (ones, ones))]
    assert all(abs(v - round(v)) < 1e-9 for v in sums)
    return (*(round(v) for v in sums), 1)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 4), (6, 2), (7, 7), (8, 2)])
def test_ghz_sweep_quadratic_numerator_matches_per_key_sum(capsys, monkeypatch, n, k):
    argv = ("sweep", "--family", "ghz", "--n", str(n), "--k", str(k), "--p-steps", "101")
    _, quadratic, _ = run(capsys, *argv)
    monkeypatch.setattr(separability, "_products", _per_key_ghz_products)
    _, per_key, _ = run(capsys, *argv)
    assert quadratic == per_key


@pytest.mark.parametrize("n", range(12, 31))
def test_ghz_sweep_beyond_dense_limit_matches_closed_form(capsys, n):
    s = 1 - n % 2
    for k in (2, 3, n):
        _, d = brute_k_sep_bound(n, k)
        code, out, err = run(capsys, "sweep", "--family", "ghz", "--n", str(n), "--k", str(k), "--p-steps", "11")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == f"# sweep family=ghz n={n} k={k}"
        thr = lines[1].removeprefix("# threshold_p=")
        want = exact_noise_threshold(2 ** (n - 1) + s, s, 1, d)
        assert float(thr) == pytest.approx(float(want), rel=1e-11, abs=1e-12)
        rows = [line.split(",") for line in lines[3:]]
        assert len(rows) == 11
        for i, (p, norm_sq, bound_sq, xi, verdict) in enumerate(rows):
            q = Fraction(i, 10)
            exact = (1 - q) ** 2 * (2 ** (n - 1) + s) + 2 * q * (1 - q) * s + q * q
            assert float(p) == float(q)
            assert float(norm_sq) == pytest.approx(float(exact), rel=1e-11)
            assert float(bound_sq) == pytest.approx(d, rel=1e-11)
            assert float(xi) == pytest.approx(float(exact / d), rel=1e-11)
            assert verdict == ("NonKSeparable" if exact > d else "Inconclusive")


def test_detect_ghz_beyond_dense_limit(capsys, tmp_path):
    path = tmp_path / "ghz12.json"
    path.write_text('{"family": "ghz", "n": 12, "p": 0.1}')
    code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert code == 0 and err == ""
    norm_sq = 0.81 * 2049 + 2 * 0.1 * 0.9 + 0.01
    lines = out.splitlines()
    assert lines[:2] == ["n=12", "k=2"]
    assert float(lines[2].removeprefix("norm=")) == pytest.approx(math.sqrt(norm_sq), rel=1e-11)
    # the k=2 bound splits off a 2-block: 3 * (2^9 + 1)
    assert lines[3:] == [f"bound={math.sqrt(3 * 513):.12g}", "partition=2|10", "verdict=NonKSeparable"]


def test_detect_json_xi_uses_exact_bound(capsys, tmp_path):
    # norm 3 against bound sqrt(3): the rounded root squared gave 3.0000000000000004
    path = tmp_path / "cg4.json"
    path.write_text('{"family": "cg", "n": 4}')
    code, out, _ = run(capsys, "detect", "--state-file", str(path), "--k", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm"] == 3.0
    assert payload["xi"] == 3.0


def test_sweep_rejects_bad_flags(capsys):
    # every family has a closed form, so every family is a --family choice; an unknown name is not
    assert run(capsys, "sweep", "--family", "bogus", "--n", "4", "--k", "2")[0] == 1
    code, out, _ = run(capsys, "sweep", "--family", "cluster", "--n", "6", "--k", "3", "--p-steps", "2")
    # B_6 = 12 against the k = 3 bound 12: xi = 1 at p = 0, then |1...1> alone at p = 1
    assert (code, out.splitlines()[3:]) == (0, ["0,12,12,1,Inconclusive", "1,1,12,0.0833333333333,Inconclusive"])
    assert run(capsys, "sweep", "--family", "w", "--n", "4", "--k", "5") == (
        1, "", "graphsep: error: need 2 <= k <= n, got k=5, n=4\n"
    )
    assert run(capsys, "sweep", "--n", "4", "--k", "1") == (1, "", "graphsep: error: need 2 <= k <= n, got k=1, n=4\n")
    assert run(capsys, "sweep", "--family", "w", "--n", "4", "--k", "2")[0] == 0
    assert run(capsys, "sweep", "--family", "cg", "--n", "4", "--k", "9")[0] == 1
    assert run(capsys, "sweep", "--family", "cg", "--n", "4", "--k", "2", "--p-steps", "1")[0] == 1


def test_sweep_unwritable_out_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "f.csv"
    code, out, err = run(capsys, "sweep", "--family", "cg", "--n", "4", "--k", "2", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"graphsep: error: [Errno 2] No such file or directory: '{path}'\n"


def test_detect_cg5(capsys, tmp_path):
    path = tmp_path / "cg5.json"
    path.write_text('{"family": "cg", "n": 5, "p": 0}')
    code, out, _ = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert "norm=4" in lines
    assert "bound=3.46410161514" in lines
    assert "partition=2|3" in lines
    assert "verdict=NonKSeparable" in lines


def test_detect_product_state_never_flagged(capsys, tmp_path):
    path = tmp_path / "raw.json"
    amps = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
    path.write_text(json.dumps({"n": 3, "amplitudes": amps}))
    code, out, _ = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert code == 0
    assert "norm=1" in out
    assert "bound=1.73205080757" in out
    assert "verdict=Inconclusive" in out


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1 (sound bounds outside the paper's class): detect bounds every input by the"
    " paper's at-most-one-2-block rule, so a state that factors over 2-qubit blocks is certified",
)
@pytest.mark.parametrize(
    "doc,k",
    [
        # |Phi+> (x) |Phi+>: amplitude 1/2 on |0000>, |0011>, |1100> and |1111>
        ({"n": 4, "amplitudes": [[0.5, 0] if i in (0, 3, 12, 15) else [0, 0] for i in range(16)]}, 2),
        ({"family": "graph", "n": 4, "edges": [[1, 2], [3, 4]]}, 2),
        ({"family": "graph", "n": 6, "edges": [[1, 2], [3, 4], [5, 6]]}, 3),
    ],
    ids=["raw-bell-pairs", "graph-two-edges", "graph-three-edges"],
)
def test_detect_never_certifies_a_product_of_2_blocks(capsys, tmp_path, doc, k):
    # each state is k-separable at the k asked: a product of k entangled 2-qubit blocks
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "detect", "--state-file", str(path), "--k", str(k))
    assert code == 0
    assert out.splitlines()[-1] == "verdict=Inconclusive"


def test_detect_raw_amplitudes_builds_no_tensor(capsys, tmp_path, monkeypatch):
    # raw amplitudes go to the pure-Python kernel; no tensor and no state is built
    def unbuildable(*args):
        raise AssertionError("a tensor or a state was built")

    path = tmp_path / "raw10.json"
    write_amplitude_file(path, ghz_state(10))
    monkeypatch.setattr(tensor, "full_tensor", unbuildable)
    monkeypatch.setattr(graphsep.pauli, "PureState", unbuildable)
    code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == [
        f"norm={math.sqrt(513):.12g}", "bound=19.6723155729", "partition=2|8", "verdict=NonKSeparable"
    ]


def test_detect_ghz_noise_json(capsys, tmp_path):
    path = tmp_path / "ghz6.json"
    path.write_text('{"family": "ghz", "n": 6, "p": 0.2}')
    code, out, _ = run(capsys, "detect", "--state-file", str(path), "--k", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "k", "norm", "bound", "partition", "xi", "verdict", "p"}
    assert payload["norm"] == pytest.approx(math.sqrt(2 ** 5 * 0.8 ** 2 + 1), abs=1e-9)
    assert payload["bound"] == 1.0
    assert payload["verdict"] == "NonKSeparable"
    assert payload["p"] == 0.2


@pytest.mark.parametrize(
    "doc",
    [
        {"family": "cg", "n": 5, "p": 0.1},
        {"family": "graph", "n": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 4]], "p": 0.1},
        {"n": 3, "amplitudes": [[0.5 ** 0.5, 0]] + [[0, 0]] * 6 + [[0.5 ** 0.5, 0]]},
    ],
    ids=["family", "graph", "raw"],
)
def test_detect_text_is_the_json_row_without_xi_and_p(capsys, tmp_path, doc):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, text, _ = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert code == 0
    code, out, _ = run(capsys, "detect", "--state-file", str(path), "--k", "2", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert list(row) == ["n", "k", "norm", "bound", "partition", "xi", "verdict", "p"]
    assert text.splitlines() == [
        f"{key}={cli._fmt(value) if isinstance(value, float) else value}"
        for key, value in row.items() if key not in ("xi", "p")
    ]


def test_detect_malformed_file_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    code, _, err = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert code == 1 and "error" in err
    code, _, _ = run(capsys, "detect", "--state-file", str(tmp_path / "missing.json"), "--k", "2")
    assert code == 1
    # k outside 2..n, for a family and for raw amplitudes
    path.write_text('{"family": "cg", "n": 5}')
    for k in ("6", "1"):
        want = f"graphsep: error: need 2 <= k <= n, got k={k} for an n=5 state\n"
        assert run(capsys, "detect", "--state-file", str(path), "--k", k) == (1, "", want)
    path.write_text(json.dumps({"n": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    want = "graphsep: error: need 2 <= k <= n, got k=3 for an n=2 state\n"
    assert run(capsys, "detect", "--state-file", str(path), "--k", "3") == (1, "", want)


def test_detect_renormalizing_warns_in_one_line_under_any_filter(capsys, tmp_path):
    # a warning made an error (python -W error) was a traceback and exit 1,
    # and a shown one also printed a source line of statefile
    a = math.sqrt(0.5)
    pairs = [[a, 0], [0, 0], [0, 0], [a, 0]]
    path = tmp_path / "bell.json"
    path.write_text(json.dumps({"n": 2, "amplitudes": pairs}))
    want = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert want[0] == 0 and want[2] == ""
    path.write_text(json.dumps({"n": 2, "amplitudes": [[x * (1 + 2.5e-10), y] for x, y in pairs]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert (code, out) == want[:2]
    assert re.fullmatch(r"graphsep: warning: renormalizing amplitudes \(norm was 1\.00000000025\d*\)\n", err)


def test_detect_repeated_field_exits_1(capsys, tmp_path):
    # a repeated field is an input error, not its last value: this file was decided as W
    path = tmp_path / "twice.json"
    path.write_text('{"family": "cg", "n": 5, "family": "w"}')
    want = "graphsep: error: repeated field 'family'\n"
    assert run(capsys, "detect", "--state-file", str(path), "--k", "2") == (1, "", want)


@pytest.mark.parametrize(
    "amplitudes",
    [
        [[1e200, 0], [0, 0], [0, 0], [0, 0]],  # a part whose square is past the float range
        [[1e308, 1e308], [0, 0], [0, 0], [0, 0]],  # a magnitude past it
        [[1e154, 0], [0, 1e154], [0, 0], [0, 0]],  # squares inside it, their sum past it
    ],
    ids=["square", "magnitude", "sum"],
)
def test_detect_amplitudes_past_the_float_range_exit_1(capsys, tmp_path, amplitudes):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2, "amplitudes": amplitudes}))
    want = "graphsep: error: amplitudes have a norm past the float range, more than 1e-06 from 1\n"
    assert run(capsys, "detect", "--state-file", str(path), "--k", "2") == (1, "", want)


def test_detect_unreadable_files_name_the_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'# caf\xff\n{"family": "cg", "n": 5}\n')
    reason = "'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"
    want = f"graphsep: error: cannot read {path}: {reason}\n"
    assert run(capsys, "detect", "--state-file", str(path), "--k", "2") == (1, "", want)
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "detect", "--state-file", str(missing), "--k", "2")
    assert (code, out) == (1, "") and err.startswith(f"graphsep: error: cannot read {missing}: ")


@pytest.mark.parametrize(
    "argv, what, value, limit",
    [
        (["norms", "--n-min", "2", "--n-max", "9" * 4300], "norms row count", 4 * (10 ** 4300 - 2), MAX_ROWS),
        (["bounds", "--n", "9" * 4300], "bounds part count", (10 ** 4300 + 1) * (10 ** 4300 - 2) // 2, MAX_PARTS),
    ],
    ids=["norms", "bounds"],
)
def test_a_count_past_the_int_to_str_limit_exits_2(capsys, argv, what, value, limit):
    # argv takes an int of 4,300 digits, but the count made from it has more: the
    # message names it by its size, not by the int-to-str error of str(count)
    want = f"graphsep: error: {what} <{value.bit_length()}-bit int> is above the limit of {limit}\n"
    assert run(capsys, *argv) == (2, "", want)


def test_an_input_error_cuts_a_long_number(capsys, tmp_path):
    # a message cuts a number past 40 characters in the middle, as reprlib
    # does (one past 4096 bits it names by its size)
    nines, cut = "9" * 100, "9" * 18 + "..." + "9" * 19
    cg5, raw = tmp_path / "cg5.json", tmp_path / "raw.json"
    cg5.write_text('{"family": "cg", "n": 5}')
    raw.write_text(f'{{"n": {nines}, "amplitudes": []}}')
    for argv, message in [
        (["bounds", "--n", "5", "--k-max", nines], f"need 2 <= k-min <= k-max <= n, got 2..{cut} for n=5"),
        (["detect", "--state-file", str(cg5), "--k", nines], f"need 2 <= k <= n, got k={cut} for an n=5 state"),
        (["detect", "--state-file", str(raw), "--k", "2"], f"'amplitudes' must list exactly 2^{cut} entries"),
    ]:
        assert run(capsys, *argv) == (1, "", f"graphsep: error: {message}\n")


def test_sweep_refuses_a_family_size_before_k(capsys):
    want = "graphsep: error: family 'cg' needs at least 2 qubits, got n=1\n"
    assert run(capsys, "sweep", "--n", "1", "--k", "2") == (1, "", want)


def _defined_functions(module):
    """Every function and method defined in module, reached through staticmethod,
    classmethod, property, cached_property and __wrapped__ (lru_cache); a named
    tuple's generated __new__ belongs to no module of the package."""
    for obj in list(vars(module).values()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        for member in vars(obj).values() if isinstance(obj, type) else [obj]:
            for attr in ("__func__", "fget", "func"):
                member = getattr(member, attr, member)
            member = inspect.unwrap(member)
            if inspect.isfunction(member) and member.__module__ == module.__name__:
                yield member


def test_streamed_commands_annotations_resolve():
    for func in (cli.cmd_settings, cli.cmd_graph, graphs.measurement_settings):
        assert typing.get_origin(typing.get_type_hints(func)["return"]) is collections.abc.Iterator
    # and so does every annotation of every function and method of the package
    modules = [graphsep, *(importlib.import_module(f"graphsep.{m.name}") for m in pkgutil.iter_modules(graphsep.__path__))]
    funcs = [func for module in modules for func in _defined_functions(module)]
    for func in funcs:
        typing.get_type_hints(func)
    pauli = sys.modules["graphsep.pauli"]
    for cached in (pauli._base3_table, pauli.PureState.amplitudes.fget, stabilizer.product_sign):
        assert inspect.unwrap(cached) in funcs


@pytest.mark.parametrize(
    "exc,message",
    [(MemoryError(), "out of memory"), (MemoryError("Unable to allocate 8.00 GiB"), "Unable to allocate 8.00 GiB")],
)
def test_memory_error_is_one_line_exit_2(capsys, monkeypatch, exc, message):
    # Python's own MemoryError has no message; the line still names the cause
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "k_sep_bound", fail)
    assert run(capsys, "bounds", "--n", "7") == (2, "", f"graphsep: error: {message}\n")


def test_library_runtime_error_is_one_line_exit_1(capsys, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise RuntimeError("stabilizer product has non-real phase")

    monkeypatch.setattr(graphs, "full_weight_count", fail)  # the count, read for a graph's B
    path = tmp_path / "path4.json"
    path.write_text(json.dumps({"family": "graph", "n": 4, "edges": _path_edges(4)}))
    code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert (code, out) == (1, "")
    assert err == "graphsep: error: stabilizer product has non-real phase\n"
    assert "Traceback" not in err


def test_settings_listing(capsys):
    code, out, _ = run(capsys, "settings", "--family", "cg", "--n", "3", "--noise")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines == ["XZZ", "ZXZ", "ZZX", "XXX", "ZZZ", "# count=5"]
    _, out, _ = run(capsys, "settings", "--family", "cg", "--n", "4")
    assert len(out.strip().splitlines()) == 10  # 9 words plus the count line
    _, out, _ = run(capsys, "settings", "--family", "cg", "--n", "6", "--noise")
    assert out.strip().splitlines()[-1] == "# count=34"


def test_settings_above_the_cap_exits_2(capsys):
    for n in (23, 40):
        code, out, err = run(capsys, "settings", "--n", str(n))
        assert code == 2 and out == ""
        assert err == f"graphsep: error: pattern of 2^{n - 1} words exceeds the 22-qubit limit\n"
        with pytest.raises(LimitError) as caught:
            measurement_settings(n)
        assert isinstance(caught.value, RuntimeError) and f"graphsep: error: {caught.value}\n" == err


def _path_edges(n):
    return [[a, a + 1] for a in range(1, n)]


def test_detect_beyond_the_walk_limit(capsys, tmp_path):
    path = tmp_path / "path27.json"
    path.write_text(json.dumps({"family": "graph", "n": 27, "edges": _path_edges(27)}))
    code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert code == 2 and out == ""
    assert err == "graphsep: error: stabilizer count over 2^27 generator subsets exceeds the 26-qubit limit\n"
    with pytest.raises(LimitError) as caught:  # refused before the group is built
        noise_products(27, chain_graph(27))
    assert isinstance(caught.value, RuntimeError) and f"graphsep: error: {caught.value}\n" == err
    # at p = 1 the state is |1...1>, whose products need no count
    path.write_text(json.dumps({"family": "graph", "n": 27, "edges": _path_edges(27), "p": 1}))
    code, out, _ = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert code == 0
    assert "norm=1\n" in out and "verdict=Inconclusive" in out
    # the same chain by name, and the complete graph, have their closed forms, so they need no walk at all
    for family, b, d, partition, verdict in (
        ("cluster", 112827, 3 * (2 ** 27 + 1), "2|28", "Inconclusive"),
        ("cg", 2 ** 29 + 1, 3 * (2 ** 27 + 1), "2|28", "NonKSeparable"),
    ):
        path.write_text(json.dumps({"family": family, "n": 30}))
        code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", "2")
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == [
            f"norm={math.sqrt(b):.12g}", f"bound={math.sqrt(d):.12g}", f"partition={partition}", f"verdict={verdict}",
        ]


@pytest.mark.parametrize("n,noise", [(27, {}), (5000, {"p": 0.1}), (5000, {"p": 0.0})])
def test_detect_refuses_before_building_the_group(capsys, tmp_path, monkeypatch, n, noise):
    monkeypatch.setattr(stabilizer, "stabilizer_group", None)  # building a group would now raise TypeError
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"family": "graph", "n": n, "edges": _path_edges(n), **noise}))
    code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert (code, out) == (2, "")
    assert err == f"graphsep: error: stabilizer count over 2^{n} generator subsets exceeds the 26-qubit limit\n"


def test_detect_at_p1_builds_no_group(capsys, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a StabilizerGroup was built")

    monkeypatch.setattr(stabilizer.StabilizerGroup, "__init__", fail)
    path = tmp_path / "state.json"
    for doc, k in (
        ({"family": "cluster", "n": 5000, "p": 1}, 4999),
        ({"family": "graph", "n": 8, "edges": [[1, 2], [2, 3], [3, 1], [4, 8], [5, 6]], "p": 1}, 3),
    ):
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", str(k))
        assert (code, err) == (0, "")
        assert "norm=1\n" in out and out.endswith("verdict=Inconclusive\n")
    # a name is still checked at p = 1
    with pytest.raises(ValueError, match="bogus"):
        separability.xi_noise(5, 2, 1.0, "bogus")
    # and the patch does stop a group
    with pytest.raises(AssertionError):
        stabilizer_group(chain_graph(3))


def test_cluster_count_is_not_built_where_it_cannot_matter(capsys, tmp_path, monkeypatch):
    def fail(n):
        raise AssertionError(f"the chain count at n={n} was built")

    monkeypatch.setattr(separability, "_chain_count", fail)
    # threshold_p reads the bound before the products, and here the bound leaves the float range
    code, out, err = run(capsys, "sweep", "--family", "cluster", "--n", "300000", "--k", "2")
    assert (code, out, err) == (1, "", "graphsep: error: result out of floating-point range (math range error)\n")
    with pytest.raises(OverflowError):
        separability.threshold_p(300000, 2, "cluster")
    # xi_noise reads the bound before the products too, so detect at p < 1 refuses before the count
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps({"family": "cluster", "n": 300000, "p": 0.5}))
    code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", "2")
    assert (code, out, err) == (1, "", "graphsep: error: result out of floating-point range (math range error)\n")
    with pytest.raises(OverflowError):
        separability.xi_noise(300000, 2, 0.5, "cluster")
    # but checks the family name before k
    with pytest.raises(ValueError, match=re.escape("unknown family 'bogus'")):
        separability.xi_noise(5, 1, 0.5, "bogus")
    # at p = 1 the state is |1...1> alone: no products for any source, but a name is still checked
    n = 10 ** 6
    path.write_text(json.dumps({"family": "cluster", "n": n, "p": 1}))
    code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", str(n))
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == "norm=1" and out.endswith("verdict=Inconclusive\n")
    assert separability.xi_noise(n, n, 1.0, "cluster").numerator == 1.0
    want = "unknown family 'bogus'; expected one of ('cg', 'ghz', 'w', 'cluster')"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        separability.xi_noise(5, 2, 1.0, "bogus")
    # and the patch does stop a count
    with pytest.raises(AssertionError):
        separability.noise_products(5, "cluster")


def test_chain_count_is_built_at_its_cap_and_refused_one_past_it(capsys):
    cap = separability.CHAIN_LIMIT
    separability._chain_count.cache_clear()
    # at the cap the count is built: B_n = B_(n-1) + B_(n-3) from 3, 4, 5, checked modulo a prime
    prime, (a, b, c) = (1 << 61) - 1, (3, 4, 5)
    for _ in range(cap - 4):
        a, b, c = b, c, (c + a) % prime
    count = separability.noise_products(cap, "cluster")[0]
    assert count % prime == c and count.bit_length() > 1024
    code, out, err = run(capsys, "norms", "--families", "cluster", "--n-min", str(cap), "--n-max", str(cap))
    assert (code, out) == (1, "") and err.startswith("graphsep: error: result out of floating-point range (")
    # one past it the count is refused before its loop: exit 2, after k where k is read
    want = f"cluster count over {cap + 1} qubits exceeds the {cap}-qubit limit"
    with pytest.raises(LimitError, match=f"^{want}$"):
        separability.noise_products(cap + 1, "cluster")
    with pytest.raises(LimitError, match=f"^{want}$"):
        separability.threshold_p(cap + 1, cap, "cluster")
    for argv in (
        ("norms", "--families", "cluster", "--n-min", str(cap + 1), "--n-max", str(cap + 1)),
        ("sweep", "--family", "cluster", "--n", str(cap + 1), "--k", str(cap), "--p-steps", "2"),
    ):
        assert run(capsys, *argv) == (2, "", f"graphsep: error: {want}\n")


def test_huge_n_refuses_at_start_up(capsys, tmp_path, monkeypatch):
    # the bound's root is past the float range: bounds, sweep and detect at
    # p = 1 refuse before any block norm or product is built
    def fail(*args):
        raise AssertionError("a block norm was built")

    monkeypatch.setattr(separability, "cg_norm_sq", fail)
    n = str(10 ** 11)
    path = tmp_path / "cg.json"
    path.write_text(json.dumps({"family": "cg", "n": 10 ** 11, "p": 1}))
    for argv in (
        ("bounds", "--n", n, "--k-max", "2"),
        ("sweep", "--family", "cg", "--n", n, "--k", "2"),
        ("detect", "--state-file", str(path), "--k", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "graphsep: error: result out of floating-point range (math range error)\n")


@pytest.mark.parametrize("n", [30, 1000])
def test_cluster_sweep_matches_the_oracle(capsys, n):
    for k in (2, 3, n - 3, n - 2, n - 1, n):
        _, d = brute_k_sep_bound(n, k)
        code, out, err = run(capsys, "sweep", "--family", "cluster", "--n", str(n), "--k", str(k), "--p-steps", "11")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        b, c, o = exact_noise_products("cluster", n)
        want = exact_noise_threshold(b, c, o, d)
        assert lines[1] == f"# threshold_p={'NA' if want is None else format(float(want), '.12g')}"
        rows = []
        for p in (i / 10 for i in range(11)):
            x = exact_noise_norm_sq("cluster", n, p)
            rows.append(f"{p:.12g},{float(x):.12g},{float(d):.12g},{float(x / d):.12g},{exact_verdict(x, d)}")
        assert lines[3:] == rows


@pytest.mark.parametrize("family,p", [("cg", 0.1), ("cg", None), ("ghz", 0.1), ("ghz", None)])
def test_detect_closed_forms_at_any_n(capsys, tmp_path, family, p):
    n = 1000
    doc = {"family": family, "n": n} if p is None else {"family": family, "n": n, "p": p}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", "2", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    q, c = Fraction(p or 0), (1 - n % 2) * (family == "ghz")
    exact = (1 - q) ** 2 * (2 ** (n - 1) + 1) + 2 * q * (1 - q) * c + q * q
    d = brute_k_sep_bound(n, 2)[1]
    assert (payload["norm"], payload["xi"]) == (math.sqrt(float(exact)), float(exact / d))
    assert payload["verdict"] == ("NonKSeparable" if exact > d else "Inconclusive")


def test_detect_large_graph_refused_before_allocating(capsys, tmp_path):
    edges = [[a, b] for a in range(1, 35) for b in range(a + 1, 35) if (a * b) % 3 == 0]
    path = tmp_path / "graph34.json"
    path.write_text(json.dumps({"family": "graph", "n": 34, "edges": edges}))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "detect", "--state-file", str(path), "--k", "2")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "graphsep: error: stabilizer count over 2^34 generator subsets exceeds the 26-qubit limit\n"
    assert peak < 1 << 20
    # the noise term alone needs no walk
    path.write_text(json.dumps({"family": "graph", "n": 34, "edges": edges, "p": 1}))
    code, out, _ = run(capsys, "detect", "--state-file", str(path), "--k", "34")
    assert code == 0
    assert "norm=1\n" in out and "verdict=Inconclusive" in out


def test_settings_unsupported_family_exits_1(capsys):
    assert run(capsys, "settings", "--family", "ghz", "--n", "3")[0] == 1


def test_appendix_n10(capsys):
    code, out, _ = run(capsys, "appendix", "--n", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:5] == ["C(10,1) = 10", "C(10,3) = 120", "C(10,5) = 252",
                         "C(10,7) = 120", "C(10,9) = 10"]
    assert "sum = 513" in lines
    assert lines[-1] == "OK"


def test_appendix_n21_and_n2(capsys):
    _, out, _ = run(capsys, "appendix", "--n", "21")
    assert "sum = 1048576" in out
    _, out, _ = run(capsys, "appendix", "--n", "2")
    assert "sum = 3" in out


@pytest.mark.parametrize("n", ["1", "0"])
def test_appendix_below_two_qubits_is_one_line_exit_1(capsys, n):
    assert run(capsys, "appendix", "--n", n) == (1, "", "graphsep: error: count needs n >= 2\n")


def test_graph_dot_output(capsys):
    code, out, _ = run(capsys, "graph", "--n", "3")
    assert code == 0
    assert out.splitlines()[0] == "graph complete_3 {"
    assert out.count("--") == 3
    _, out, _ = run(capsys, "graph", "--n", "5")
    assert out.count("--") == 10
    _, out, _ = run(capsys, "graph", "--n", "8")
    assert out.count("--") == 28


def test_unknown_flags_exit_1(capsys):
    assert run(capsys, "norms", "--bogus")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize("n", [54, 60])
def test_sweep_product_state_is_not_certified(capsys, n):
    # at p = 1 the state is |1...1>: squared norm 1, equal to the k = n bound
    code, out, _ = run(capsys, "sweep", "--family", "cg", "--n", str(n), "--k", str(n), "--p-steps", "2")
    assert code == 0
    assert out.splitlines()[-1] == "1,1,1,1,Inconclusive"


@pytest.mark.parametrize("family", ["cg", "ghz"])
def test_sweep_at_the_float_range_edge(capsys, family):
    # -a1 = 2(B - C) reaches 2^1024 at n = 1024; every row still fits a float
    code, out, err = run(capsys, "sweep", "--family", family, "--n", "1024", "--k", "2", "--p-steps", "2")
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("1,1,")


def test_detect_json_xi_is_the_exact_ratio(capsys, tmp_path):
    # cluster n = 6 has squared norm 12, equal to the k = 3 bound_sq
    for doc, want in (('{"family": "cluster", "n": 6}', 1.0), ('{"family": "cg", "n": 4}', 3.0)):
        path = tmp_path / "state.json"
        path.write_text(doc)
        code, out, _ = run(capsys, "detect", "--state-file", str(path), "--k", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["xi"] == want


def test_sweep_refuses_too_many_steps_before_any_row(capsys):
    code, out, err = run(capsys, "sweep", "--family", "cg", "--n", "4", "--k", "2",
                         "--p-steps", str(MAX_ROWS + 1))
    assert code == 2 and out == ""
    assert err == f"graphsep: error: p-steps {MAX_ROWS + 1} is above the limit of {MAX_ROWS}\n"
    assert run(capsys, "sweep", "--help")[1].count(str(MAX_ROWS)) == 1
    args = cli.parse_args(["sweep", "--n", "4", "--k", "2", "--p-steps", str(MAX_ROWS + 1)])
    with pytest.raises(LimitError) as caught:
        args.func(args)
    assert isinstance(caught.value, RuntimeError) and f"graphsep: error: {caught.value}\n" == err


def _fail(*args, **kwargs):
    raise ValueError("injected failure")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["norms"], "_fmt"),
        (["detect", "--state-file", "STATE", "--k", "2"], "_fmt"),
        (["bounds", "--n", "7"], "_fmt"),
        (["sweep", "--n", "6", "--k", "2"], "_fmt"),
        (["settings", "--n", "6", "--noise"], "cg_norm_sq"),
    ],
    ids=["norms", "detect", "bounds", "sweep", "settings"],
)
def test_a_command_that_fails_late_writes_nothing(capsys, monkeypatch, tmp_path, argv, name):
    # each fails after lines it would once have printed (settings: before its listing,
    # whose count line is made when it is called): still one stderr line, stdout empty
    path = tmp_path / "cg5.json"
    path.write_text('{"family": "cg", "n": 5}')
    argv = [str(path) if arg == "STATE" else arg for arg in argv]
    monkeypatch.setattr(cli, name, _fail)
    assert run(capsys, *argv) == (1, "", "graphsep: error: injected failure\n")


@pytest.mark.parametrize(
    "argv, error, code",
    [
        (["settings", "--n", "1"], "pattern needs n >= 2", 1),
        (["settings", "--n", "23"], "pattern of 2^22 words exceeds the 22-qubit limit", 2),
        (["graph", "--n", "1"], "graph needs at least 2 vertices", 1),
        (["graph", "--n", "2049"], "graph n 2049 is above the limit of 2048", 2),
    ],
    ids=["settings-below", "settings-above", "graph-below", "graph-above"],
)
def test_a_streamed_command_refuses_when_called_and_writes_nothing(capsys, argv, error, code):
    # settings and graph write their output as it is made, so every refusal comes from the call itself
    args = cli.parse_args(argv)
    with pytest.raises(LimitError if code == 2 else ValueError, match=f"^{re.escape(error)}$"):
        args.func(args)
    assert run(capsys, *argv) == (code, "", f"graphsep: error: {error}\n")


@pytest.mark.parametrize(
    "argv", [["settings", "--n", "20", "--noise"], ["graph", "--n", "2048"]], ids=["settings", "graph"]
)
def test_a_streamed_listing_is_not_held_whole(monkeypatch, argv):
    # 11 MB and 33 MB of output: the peak is one block of it, not the listing
    with open(os.devnull, "w", encoding="ascii") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        assert main([argv[0], "--n", "4"]) == 0  # the command's modules load before the trace
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 4 << 20


@pytest.mark.parametrize("noise", (False, True))
def test_settings_listing_is_the_oracle_pattern(capsysbinary, noise):
    for n in range(2, 15):
        words = key_words(combinations_cg_pattern(n), n) + ["Z" * n] * noise
        assert main(["settings", "--n", str(n), *["--noise"] * noise]) == 0
        lines = [*words, f"# count={len(words)}"]
        assert capsysbinary.readouterr() == ("".join(f"{line}\n" for line in lines).encode(), b"")


def test_graph_listing_is_every_combination(capsys):
    for n in range(2, 61):
        vertices = range(1, n + 1)
        lines = [f"graph complete_{n} {{", *(f"  {v};" for v in vertices)]
        lines += [*(f"  {a} -- {b};" for a, b in combinations(vertices, 2)), "}"]
        assert run(capsys, "graph", "--n", str(n)) == (0, "".join(f"{line}\n" for line in lines), "")


def test_appendix_that_fails_late_writes_nothing(capsys):
    # C(2200, 1099) has 660 digits: the terms below it format, that one does not
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "appendix", "--n", "2200")
    finally:
        sys.set_int_max_str_digits(saved)
    assert (code, out) == (1, "")
    assert err.startswith("graphsep: error: Exceeds the limit (640 digits)") and err.count("\n") == 1


def test_appendix_mismatch_is_one_line_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "permutation_terms", lambda n: [(1, n)])
    assert run(capsys, "appendix", "--n", "4") == (
        1, "", "graphsep: error: appendix sum 5 differs from the closed form 9\n"
    )


@pytest.mark.parametrize(
    "command, last, owner, name, message",
    [
        (
            "appendix --n {}",
            cli.APPENDIX_MAX_N,
            cli,
            "permutation_terms",
            f"appendix n {cli.APPENDIX_MAX_N + 1} is above the limit of {cli.APPENDIX_MAX_N}",
        ),
        (
            "graph --n {}",
            cli.GRAPH_MAX_N,
            cli,
            "chain",
            f"graph n {cli.GRAPH_MAX_N + 1} is above the limit of {cli.GRAPH_MAX_N}",
        ),
        (
            "norms --families w --n-min 2 --n-max {}",
            MAX_ROWS + 1,
            cli,
            "norm_table",
            f"norms row count {MAX_ROWS + 1} is above the limit of {MAX_ROWS}",
        ),
    ],
    ids=["appendix", "graph", "norms"],
)
def test_size_limits_refuse_before_any_work(capsys, monkeypatch, command, last, owner, name, message):
    calls = []
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or [])
    code, _, _ = run(capsys, *command.format(last).split())  # at the limit the work starts
    assert calls and code in (0, 1)  # (the appendix's empty sum is its mismatch)
    calls.clear()
    assert run(capsys, *command.format(last + 1).split()) == (2, "", f"graphsep: error: {message}\n")
    assert calls == []  # past it, nothing ran


def _parts_argv(command, k, tmp_path):
    """argv of a command whose partitions have k blocks (n = k)."""
    if command == "bounds":
        return ["bounds", "--n", str(k), "--k-min", str(k)]
    if command == "sweep":
        return ["sweep", "--family", "w", "--n", str(k), "--k", str(k), "--p-steps", "2"]
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps({"family": "cluster", "n": k, "p": 1}))
    return ["detect", "--state-file", str(path), "--k", str(k)]


@pytest.mark.parametrize("command", ["bounds", "sweep", "detect"])
def test_partitions_of_max_parts_blocks_and_no_more(capsys, monkeypatch, tmp_path, command):
    # at the limit the partition of MAX_PARTS blocks is built and labelled
    label = "|".join(["1"] * MAX_PARTS)
    line = {"bounds": f"{MAX_PARTS},{MAX_PARTS},1,{label}", "sweep": "1,1,1,1,Inconclusive", "detect": f"partition={label}"}
    code, out, err = run(capsys, *_parts_argv(command, MAX_PARTS, tmp_path))
    assert (code, err) == (0, "")
    assert line[command] in out.splitlines()
    # one block past it, exit 2 before any bound is built
    calls = []
    for module in (separability, cli):
        monkeypatch.setattr(module, "k_sep_bound", lambda *args: calls.append(args))
    code, out, err = run(capsys, *_parts_argv(command, MAX_PARTS + 1, tmp_path))
    what = "bounds part count" if command == "bounds" else "k"
    assert (code, out, err) == (2, "", f"graphsep: error: {what} {MAX_PARTS + 1} is above the limit of {MAX_PARTS}\n")
    assert calls == []


def test_bounds_limits_the_parts_summed_over_its_rows(capsys):
    # two rows of 500,000 and 500,001 blocks: each under the limit, their sum one past it
    half = MAX_PARTS // 2
    code, out, err = run(capsys, "bounds", "--n", str(half + 1), "--k-min", str(half))
    assert (code, out) == (2, "")
    assert err == f"graphsep: error: bounds part count {MAX_PARTS + 1} is above the limit of {MAX_PARTS}\n"


def test_sweep_rows_come_before_the_threshold_solve(capsys, monkeypatch):
    # the p = 0 row of cg at n = 10^6 leaves the float range: exit 1 with no root solve
    def fail(*args):
        raise AssertionError("the threshold was solved")

    monkeypatch.setattr(cli, "threshold_p", fail)
    code, out, err = run(capsys, "sweep", "--family", "cg", "--n", "1000000", "--k", "999999")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("graphsep: error: result out of floating-point range (")
