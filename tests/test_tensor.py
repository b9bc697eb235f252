"""Full-tensor sweeps, norms, support sizes and the norm table."""

import contextlib
import io
import itertools
import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphsep import (
    CorrelationTensor,
    GraphSpec,
    LimitError,
    MixedEnsemble,
    PureState,
    all_ones_state,
    amplitudes,
    cg_nonzero_pattern,
    chain_graph,
    complete_graph,
    full_tensor,
    full_weight_count,
    full_weight_support,
    ghz_group,
    ghz_state,
    graph_state,
    graphs,
    k_sep_bound,
    measurement_settings,
    noise_products,
    noisy_mixture,
    norm_table,
    pack_index,
    pauli,
    pure_ensemble,
    separability,
    stabilizer,
    states,
    stabilizer_group,
    tensor,
    tensor_norm,
    tensor_norm_sq,
    w_state,
    xi_noise,
)
from graphsep.cli import main
from graphsep.bounds import INCONCLUSIVE, cg_norm_sq
from graphsep.separability import FAMILIES
from graphsep.stabilizer import all_ones_group

from oracle import (
    FAMILY_STATES,
    apply_local_unitaries,
    brute_k_sep_bound,
    chain_string_counts,
    dense_full_tensor,
    dp_bound_sq,
    exact_noise_norm_sq,
    exact_state_terms,
    exact_tensor_norm_sq,
    exact_verdict,
    key_words,
    kron_states,
    random_state,
    random_unitary,
    untagged,
)


def test_g3_tensor_entries():
    t = full_tensor(untagged(graph_state(complete_graph(3))))
    entries = dict(t.items())
    assert len(entries) == 4
    assert entries[(1, 1, 1)] == pytest.approx(-1.0, abs=1e-9)
    for idx in ((1, 3, 3), (3, 1, 3), (3, 3, 1)):
        assert entries[idx] == pytest.approx(1.0, abs=1e-9)
    assert t.value((3, 3, 3)) == 0.0


def test_zero_state_tensor():
    state = PureState(1, np.array([1.0, 0.0], dtype=complex))
    t = full_tensor(state)
    assert dict(t.items()) == {(3,): pytest.approx(1.0)}


def test_noisy_cg4_tensor():
    t = full_tensor(untagged(noisy_mixture(graph_state(complete_graph(4)), 0.5)))
    assert len(t) == 10
    values = dict(t.items())
    assert values[(3, 3, 3, 3)] == pytest.approx(0.5, abs=1e-12)
    assert all(abs(v) == pytest.approx(0.5, abs=1e-12) for v in values.values())


def test_tensor_norm_reference_values():
    assert tensor_norm(full_tensor(untagged(graph_state(complete_graph(7))))) == pytest.approx(8.0, abs=1e-9)
    plus3 = PureState(3, np.full(8, 8 ** -0.5, dtype=complex))
    t = full_tensor(plus3)
    assert dict(t.items()) == {(1, 1, 1): pytest.approx(1.0)}
    assert tensor_norm(t) == pytest.approx(1.0, abs=1e-12)
    assert tensor_norm(full_tensor(w_state(8))) == pytest.approx(
        math.sqrt(9 / 2), abs=1e-9
    )


def test_support_sizes():
    assert len(full_tensor(noisy_mixture(graph_state(complete_graph(6)), 0.25))) == 34
    assert len(full_tensor(noisy_mixture(graph_state(complete_graph(5)), 0.25))) == 17
    assert len(full_tensor(graph_state(complete_graph(4)))) == 9


def test_fast_path_matches_dense():
    for n in (2, 3, 4, 5, 6):
        for p in (0.0, 0.3, 0.8):
            ens = noisy_mixture(graph_state(complete_graph(n)), p)
            fast = full_tensor(ens)
            dense = full_tensor(untagged(ens))
            assert fast.entries.keys() == dense.entries.keys()
            for key, val in fast.entries.items():
                assert val == pytest.approx(dense.entries[key], abs=1e-9)


@st.composite
def noisy_random_graphs(draw, n_max=8, probabilities=st.floats(0.0, 1.0)):
    n = draw(st.integers(2, n_max))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    p = draw(probabilities)
    return GraphSpec(n, tuple(e for e, on in zip(pairs, chosen) if on)), p


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(noisy_random_graphs())
def test_support_path_matches_dense_on_random_graphs(case):
    spec, p = case
    # entries are (1-p)s + p t with s, t in {-1, 0, 1}; one within rounding
    # of the zero_tol cut-off may be kept by one path and dropped by the other
    assume(all(abs(v - 1e-9) > 1e-12 for v in (p, 1 - p, abs(1 - 2 * p))))
    ens = noisy_mixture(graph_state(spec), p)
    fast = full_tensor(ens)
    dense = full_tensor(untagged(ens))
    assert fast.keys.tolist() == dense.keys.tolist()
    assert np.abs(fast.values - dense.values).max(initial=0.0) <= 1e-9
    # dense values carry rounding from 2^(-n/2) amplitudes (1.0000000000000002 for |+>^3)
    assert tensor_norm(fast) == pytest.approx(tensor_norm(dense), rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 8), st.floats(0.0, 1.0))
def test_support_path_matches_dense_on_noisy_ghz(n, p):
    # entries are (1-p)s + p t with s, t in {-1, 0, 1}; see the random-graph property
    assume(all(abs(v - 1e-9) > 1e-12 for v in (p, 1 - p, abs(1 - 2 * p))))
    for state in (ghz_state(n), noisy_mixture(ghz_state(n), p)):
        fast = full_tensor(state)
        dense = full_tensor(untagged(state))
        assert fast.keys.tolist() == dense.keys.tolist()
        assert np.abs(fast.values - dense.values).max(initial=0.0) <= 1e-9
        assert tensor_norm(fast) == pytest.approx(tensor_norm(dense), rel=1e-12)


# noise weights at and next to the endpoints, where one member's weight
# nears zero, and full_tensor zero_tol values that keep everything, keep
# all but rounding dust, drop the (1-p) entries at p = 0.8, and equal both
# weights at p = 0.5 (an entry equal to zero_tol is dropped)
EDGE_P = (0.0, 1e-12, 0.5, 1 - 1e-12, 1.0)
TOLS = (0.0, 1e-9, 0.3, 0.5)


def _exact_entries(group, p):
    """Packed key -> Fraction entry of the state g stabilizes, mixed with
    |1...1> at the exact weight p (None: unmixed), from full_weight_support."""
    q = Fraction(p or 0)
    base = full_weight_support(group)
    entries = {key: (1 - q) * int(sign) for key, sign in zip(base.keys.tolist(), base.values.tolist())}
    all_z = pack_index((3,) * group.n)
    entries[all_z] = entries.get(all_z, 0) + q * (-1) ** group.n
    return entries


def _detect_json(doc, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["detect", "--state-file", path, "--k", str(k), "--format", "json"]) == 0
    return json.loads(out.getvalue())


def _check_squared_norm(state, p, tol, source, doc=None):
    """The squared norm detect reads, the exact quadratic of noise_products(n,
    source), against the state's full tensor on three counts:

    * it equals the Fraction sum of squares of the exact entries;
    * detect on the state file doc (at every k) prints the Fraction verdict
      of the oracle, the correctly rounded xi and the root of the rounded
      squared norm; without a doc, xi_noise on source does;
    * full_tensor(ens, tol) keeps exactly the entries above tol, and its
      float norm is the exact one over those entries, to rounding.
    """
    n = state.n
    entries = _exact_entries(state.stabilizer, p)
    b, c, o, den = noise_products(n, source)
    q = Fraction(p or 0)
    exact = ((1 - q) ** 2 * b + 2 * q * (1 - q) * c + q * q * o) / den
    assert exact == sum(v * v for v in entries.values())
    for k in range(2, n + 1):
        d = dp_bound_sq(n, k)
        if doc is None:
            res = xi_noise(n, k, p or 0.0, source)
            assert (res.verdict, res.xi, res.numerator) == (exact_verdict(exact, d), float(exact / d), float(exact))
        else:
            payload = _detect_json(doc, k)
            got = (payload["verdict"], payload["xi"], payload["norm"])
            assert got == (exact_verdict(exact, d), float(exact / d), math.sqrt(float(exact))), (doc, k)
    t = full_tensor(state if p is None else noisy_mixture(state, p), tol)
    kept = {key: v for key, v in entries.items() if abs(v) > tol}
    assert t.keys.tolist() == sorted(kept)
    assert tensor_norm_sq(t) == pytest.approx(float(sum(v * v for v in kept.values())), rel=1e-15)


# These two keep their names from when a float Gram sum gave the squared
# norm; detect now reads the exact noise quadratic, checked here on the same inputs.
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(noisy_random_graphs(12, st.sampled_from(EDGE_P) | st.floats(0.0, 1.0)), st.sampled_from(TOLS), st.booleans())
def test_ensemble_norm_sq_is_the_full_tensor_norm_on_random_graphs(case, tol, pure):
    spec, p = case
    p = None if pure else p
    doc = {"family": "graph", "n": spec.n, "edges": [list(e) for e in spec.edges]}
    if p is not None:
        doc["p"] = p
    _check_squared_norm(graph_state(spec), p, tol, stabilizer_group(spec), doc)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("p", (None, *EDGE_P, 0.1, 0.8))
def test_ensemble_norm_sq_is_the_full_tensor_norm_on_families(p, tol):
    for n in (2, 3, 4, 7, 8):
        for family in ("cg", "ghz", "cluster"):
            state = FAMILY_STATES[family](n)
            doc = {"family": family, "n": n} if p is None else {"family": family, "n": n, "p": p}
            _check_squared_norm(state, p, tol, family, doc)
        _check_squared_norm(all_ones_state(n), p, tol, all_ones_group(n))


@pytest.mark.parametrize("p", (None, *EDGE_P, 0.1))
def test_detect_decides_w_files_exactly(p):
    # the Fraction oracle's verdict, correctly rounded xi and the root of the
    # rounded squared norm, at every k; no dense sweep, so at n = 1000 too
    for n in (*range(2, 11), 1000):
        exact = exact_noise_norm_sq("w", n, p or 0.0)
        doc = {"family": "w", "n": n} if p is None else {"family": "w", "n": n, "p": p}
        ks = range(2, n + 1) if n <= 10 else (2, 3, n - 3, n - 2, n - 1, n)
        bounds = {k: dp_bound_sq(n, k) if n <= 10 else brute_k_sep_bound(n, k)[1] for k in ks}
        for k, d in bounds.items():
            payload = _detect_json(doc, k)
            got = (payload["verdict"], payload["xi"], payload["norm"])
            assert got == (exact_verdict(exact, d), float(exact / d), math.sqrt(float(exact))), (doc, k)


@pytest.mark.parametrize("p", (None, *EDGE_P, 0.1))
def test_detect_decides_cluster_files_exactly(p):
    # past the walk limit: the oracle's string count in Fractions, the same three fields as for W
    for n in (30, 1000):
        exact = exact_noise_norm_sq("cluster", n, p or 0.0)
        doc = {"family": "cluster", "n": n} if p is None else {"family": "cluster", "n": n, "p": p}
        ks = range(2, n + 1) if n <= 30 else (2, 3, n - 3, n - 2, n - 1, n)
        for k in ks:
            d = dp_bound_sq(n, k) if n <= 30 else brute_k_sep_bound(n, k)[1]
            payload = _detect_json(doc, k)
            got = (payload["verdict"], payload["xi"], payload["norm"])
            assert got == (exact_verdict(exact, d), float(exact / d), math.sqrt(float(exact))), (doc, k)


def test_noise_products_values():
    # GHZ at even n holds +Z^n too: C = 1, and the quadratic at p = 0.1 is exact
    assert noise_products(6, ghz_group(6)) == (2 ** 5 + 1, 1, 1, 1)
    res = xi_noise(6, 6, 0.1, ghz_group(6))
    q = Fraction(0.1)
    assert res.numerator == float((1 - q) ** 2 * 33 + 2 * q * (1 - q) + q * q)
    # |1...1>: one entry, shared with the noise, so B = C = O = 1 without a walk
    for n in (1, 2, 5, 40):
        assert noise_products(n, all_ones_group(n)) == (1, 1, 1, 1)
    # the chain's counts 3, 4, 5, 8 and Z^n outside every graph-state group
    assert [noise_products(n, stabilizer_group(chain_graph(n))) for n in (2, 3, 4, 5)] == [
        (3, 0, 1, 1), (4, 0, 1, 1), (5, 0, 1, 1), (8, 0, 1, 1)
    ]
    # W over the denominator n: 5 - 4/n, C = (-1)^(n+1), O = 1
    assert [noise_products(n, "w") for n in (2, 3, 1000)] == [(6, -2, 2, 2), (11, 3, 3, 3), (4996, -1000, 1000, 1000)]
    # the cluster chain by name: the same counts with no group, at any n
    assert [noise_products(n, "cluster") for n in (2, 3, 4, 5, 30)] == [
        (3, 0, 1, 1), (4, 0, 1, 1), (5, 0, 1, 1), (8, 0, 1, 1), (112827, 0, 1, 1)
    ]
    with pytest.raises(ValueError):
        noise_products(3, "bogus")


@pytest.mark.parametrize("n", range(2, 27))
def test_cluster_closed_form_is_the_chain_count(n):
    # the bit-sliced count of the chain's group, up to the walk limit
    assert noise_products(n, "cluster") == (full_weight_count(stabilizer_group(chain_graph(n))), 0, 1, 1)


def test_cluster_closed_form_is_the_string_count():
    # an independent count: 0/1 strings in which every 0 has exactly one neighbouring 1
    counts = chain_string_counts(1199)
    assert counts[30] == 112827
    assert [noise_products(n, "cluster")[0] for n in range(2, 1200)] == counts[2:]


def test_group_products_count_in_small_memory():
    group = stabilizer_group(complete_graph(22))
    tracemalloc.start()
    try:
        value = noise_products(22, group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == (2 ** 21 + 1, 0, 1, 1)
    # the amplitudes alone would take 64 MiB, the full tensor's keys and values
    # 32 MiB; the count's 4 * 22 slices of 2^14 bits take 176 KiB
    assert peak < 384 << 10


def test_full_tensor_refuses_a_large_support_before_allocating():
    state = graph_state(complete_graph(23))
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match="the 22-qubit limit"):
            full_tensor(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the 2^22 sorted keys and signs alone would take 64 MiB


def test_family_states_carry_their_group():
    # each registered family tags its states with its named group, W with none
    for n in (2, 5, 9):
        groups = {
            "cg": stabilizer_group(complete_graph(n)),
            "ghz": ghz_group(n),
            "w": None,
            "cluster": stabilizer_group(chain_graph(n)),
        }
        assert groups.keys() == FAMILIES.keys() == FAMILY_STATES.keys()
        for family, group in groups.items():
            tag = FAMILY_STATES[family](n).stabilizer
            assert tag is None if group is None else tag.generators == group.generators, (family, n)
    # the noise term is tagged too: its only identity-free element is -Z on each qubit
    for n in (1, 2, 5):
        t = full_tensor(all_ones_state(n))
        assert dict(t.items()) == {(3,) * n: (-1.0) ** n}


def test_stabilizer_tag_is_not_a_constructor_argument():
    amps = np.zeros(4, dtype=complex)
    amps[[0, 3]] = 2 ** -0.5
    with pytest.raises(TypeError):
        PureState(2, amps, stabilizer=ghz_group(2))
    assert PureState(2, amps).stabilizer is None


def test_the_state_picks_the_path(monkeypatch):
    # a tagged ensemble never sweeps densely, and its untagged copy never walks
    ens = noisy_mixture(ghz_state(4), 0.3)
    monkeypatch.setattr(tensor, "_dense_arrays", None)  # any dense sweep would now raise TypeError
    fast = full_tensor(ens)
    monkeypatch.undo()
    monkeypatch.setattr(stabilizer, "full_weight_support", None)
    dense = full_tensor(untagged(ens))
    assert fast.keys.tolist() == dense.keys.tolist()
    with pytest.raises(TypeError):
        full_tensor(ens)


def test_dense_limit_enforced():
    # the dense sweep runs at DENSE_LIMIT qubits and refuses one more
    rng = np.random.default_rng(12)
    n = tensor.DENSE_LIMIT
    state = PureState(n, random_state(n, rng))
    tracemalloc.start()
    try:
        full_tensor(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * 4 ** n  # rho, and temporaries of at most half its size
    want = f"dense sweep over 3^{n + 1} words exceeds the {n}-qubit limit"
    with pytest.raises(LimitError, match=f"^{re.escape(want)}$"):
        full_tensor(PureState(n + 1, random_state(n + 1, rng)))
    # graph-tagged states bypass the dense limit through the support path
    big = graph_state(complete_graph(12))
    t = full_tensor(big)
    assert len(t) == 2 ** 11 + 1
    with pytest.raises(LimitError):
        full_tensor(untagged(big))


def test_dense_limit_env_override(monkeypatch):
    # GRAPHSEP_DENSE_LIMIT is gone: setting it moves the limit neither down nor up
    rng = np.random.default_rng(12)
    monkeypatch.setenv("GRAPHSEP_DENSE_LIMIT", "3")
    full_tensor(PureState(4, random_state(4, rng)))
    n = tensor.DENSE_LIMIT + 1
    monkeypatch.setenv("GRAPHSEP_DENSE_LIMIT", str(n))
    with pytest.raises(LimitError):
        full_tensor(PureState(n, random_state(n, rng)))


def test_tensor_reads_the_limit_of_the_kernel():
    # one limit, kept beside the amplitude kernel: the dense sweep imports it
    assert tensor.dense_limit is amplitudes.dense_limit
    assert tensor.DENSE_LIMIT == amplitudes.DENSE_LIMIT == 10


def test_tensor_reexports_the_tables_of_the_core_for_the_tracer():
    # the norm table and the settings live in the stdlib core; the benchmark's tracer reads them on tensor
    assert tensor.norm_table is separability.norm_table
    assert tensor.measurement_settings is graphs.measurement_settings


def _margin(norm_sq, n):
    """The rounding margin detect subtracts from a float squared norm."""
    return norm_sq - amplitudes._lower_bound(norm_sq, n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_pure_kernel_matches_dense_sweep_and_exact_norm(n, real, seed):
    # the amplitude kernel, the numpy dense sweep and the exact squared norm
    # of the very floats given agree within detect's margin; the exact
    # oracle walks all 3^n words in Python ints, so it runs up to n = 7
    rng = np.random.default_rng(seed)
    amps = random_state(n, rng)
    if real:
        amps = amps.real / np.linalg.norm(amps.real)
    state = PureState(n, amps)
    got = amplitudes._pure_norm_sq(n, amps.tolist())
    assert abs(got - tensor_norm_sq(full_tensor(state))) <= _margin(got, n)
    if n <= 7:
        assert abs(got - exact_tensor_norm_sq(pure_ensemble(state).terms, n)) <= _margin(got, n)


@pytest.mark.parametrize("n", range(2, 11))
def test_pure_kernel_meets_every_family_closed_form(n):
    # raw amplitudes of the cg, GHZ, W and cluster states against B / D of noise_products
    for family, products in FAMILIES.items():
        b, _, _, d = products(n)
        got = amplitudes._pure_norm_sq(n, FAMILY_STATES[family](n).amplitudes.tolist())
        assert abs(got - Fraction(b, d)) <= _margin(got, n), family


def test_pure_kernel_refuses_past_the_dense_limit_before_reading():
    want = "dense sweep over 3^11 words exceeds the 10-qubit limit"
    with pytest.raises(LimitError, match=f"^{re.escape(want)}$"):
        amplitudes._pure_norm_sq(11, None)  # None: not one amplitude is read
    assert amplitudes._pure_norm_sq(3, all_ones_state(3).amplitudes.tolist()) == 1.0


@pytest.mark.parametrize("n", range(2, 11, 2))
def test_pure_kernel_is_exact_on_dyadic_amplitudes(n):
    # at even n a graph state's amplitudes are exactly +-2^(-n/2), so every
    # product, pairwise sum and part is a float with no rounding, and the
    # kernel returns the full-weight count itself
    rng = np.random.default_rng(n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(6):
        spec = GraphSpec(n, [e for e, on in zip(pairs, rng.random(len(pairs)) < 0.5) if on])
        assert amplitudes._pure_norm_sq(n, graph_state(spec).amplitudes.tolist()) == full_weight_count(spec)


def test_pure_kernel_holds_no_list_of_all_parts():
    amps = random_state(10, np.random.default_rng(10)).tolist()
    tracemalloc.start()
    try:
        amplitudes._pure_norm_sq(10, amps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2 * 3^10 parts held at once would take over 2 MiB; the lists along
    # one path of the recursion take about a quarter of a MiB
    assert peak < 1 << 20


def test_matches_dense_oracle_on_random_mixture():
    rng = np.random.default_rng(77)
    terms = ((0.6, PureState(3, random_state(3, rng))), (0.4, PureState(3, random_state(3, rng))))
    ens = MixedEnsemble(terms)
    mine = {idx: v for idx, v in full_tensor(ens).items()}
    want = dense_full_tensor(terms, 3)
    assert set(mine) == set(want)
    for idx, v in want.items():
        assert mine[idx] == pytest.approx(v, abs=1e-10)


def _random_member(n, rng, real):
    amps = random_state(n, rng)
    if real:
        amps = amps.real / np.linalg.norm(amps.real)
    return PureState(n, amps)


def _assert_matches_oracle(t, terms, n):
    want = {pack_index(idx): v for idx, v in dense_full_tensor(terms, n).items()}
    assert set(t.entries) == set(want)
    for key, v in want.items():
        assert abs(t.entries[key] - v) <= 1e-12
    assert list(t.entries) == sorted(want)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_dense_path_matches_matrix_oracle(n, real):
    rng = np.random.default_rng([n, real])
    members = int(rng.integers(1, 4))
    weights = rng.uniform(0.2, 1.0, size=members)
    weights /= weights.sum()
    terms = tuple((float(w), _random_member(n, rng, real)) for w in weights)
    _assert_matches_oracle(full_tensor(MixedEnsemble(terms)), terms, n)


def _at_the_bound(n, k, rng):
    """Raw amplitudes of a k-separable state whose squared norm is bound_sq:
    one complete graph state per block of k_sep_bound(n, k), under random
    local unitaries."""
    blocks = [graph_state(complete_graph(m)) if m > 1 else PureState(1, [1, 0]) for m in k_sep_bound(n, k).parts]
    state = blocks[0]
    for block in blocks[1:]:
        state = kron_states(state, block)
    return PureState(n, apply_local_unitaries(state.amplitudes, [random_unitary(rng) for _ in range(n)]))


def _off_norm(state, rng):
    """state's amplitudes scaled off norm 1 by up to 1e-7, normalized again by PureState (its warning ignored)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return PureState(state.n, state.amplitudes * (1 + rng.uniform(-1e-7, 1e-7)))


@pytest.mark.parametrize("members", [1, 2, 4, 8])
@pytest.mark.parametrize("n", range(1, 7))
def test_many_member_mixtures_stay_within_detects_margin(n, members):
    # the dense sweep sums the members one after another; on random
    # mixtures, and on copies of a state at the bound, each member off norm
    # 1 and the weights off sum 1 by up to 1e-7 before the rule, its squared
    # norm is within detect's margin of the exact one of the state, and
    # detect never certifies a mixture whose exact squared norm is at most bound_sq
    rng = np.random.default_rng([n, members])
    weights = rng.uniform(0.2, 1.0, size=members)
    weights *= (1 + rng.uniform(-1e-7, 1e-7)) / weights.sum()
    cases = [[_off_norm(_random_member(n, rng, real), rng) for _ in weights] for real in (False, True)]
    cases += [[_off_norm(_at_the_bound(n, k, rng), rng)] * members for k in range(2, n + 1)]
    for states in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the weights' sum is renormalized with a warning
            ens = MixedEnsemble(tuple(zip(weights.tolist(), states)))
        got = tensor_norm_sq(full_tensor(ens))
        exact = exact_tensor_norm_sq(exact_state_terms(ens.terms), n)
        assert abs(got - exact) <= _margin(got, n)
        for k in range(2, n + 1):
            if exact <= k_sep_bound(n, k).bound_sq:
                assert amplitudes.detect(got, n, k).verdict == INCONCLUSIVE, (k, got, exact)


def test_dense_path_drops_exact_zeros():
    # (|000> + |011>)/sqrt(2) mixed with |101>: most of the 27 words vanish exactly
    amps = np.zeros(8, dtype=complex)
    amps[[0, 3]] = 2 ** -0.5
    other = np.zeros(8, dtype=complex)
    other[5] = 1.0
    terms = ((0.5, PureState(3, amps)), (0.5, PureState(3, other)))
    t = full_tensor(MixedEnsemble(terms))
    _assert_matches_oracle(t, terms, 3)
    assert 0 < len(t) < 27
    # |000> and |100> in equal parts: of the diagonal words only ZZZ is
    # identity-free, and it cancels exactly, so even zero_tol=0 keeps nothing
    zero, one = (PureState(3, np.eye(8, dtype=complex)[i]) for i in (0, 4))
    assert len(full_tensor(MixedEnsemble(((0.5, zero), (0.5, one))), 0.0)) == 0
    # on the dense path and the stabilizer path alike; NaN would compare false and keep nothing
    for state, bad in itertools.product((zero, ghz_state(3)), (-1, float("nan"))):
        with pytest.raises(ValueError, match="^zero_tol must be nonnegative$"):
            full_tensor(state, zero_tol=bad)


def test_measurement_settings():
    # one block per (X count, top half) of pattern_halves, then all-Y at even n and all-Z for noise
    assert list(measurement_settings(3, noise=True)) == [b"XZZ\n", b"ZXZ\n", b"ZZX\n", b"XXX\n", b"ZZZ\n"]
    assert list(measurement_settings(4, noise=True)) == [
        b"XZZZ\n", b"ZXZZ\n", b"ZZXZ\nZZZX\n", b"XXXZ\nXXZX\n", b"XZXX\n", b"ZXXX\n", b"YYYY\n", b"ZZZZ\n"
    ]
    assert len(b"".join(measurement_settings(4, noise=True))) == 10 * 5
    assert len(b"".join(measurement_settings(6, noise=True))) == 34 * 7
    assert b"".join(measurement_settings(4)).count(b"\n") == 9
    with pytest.raises(ValueError, match="^pattern needs n >= 2$"):
        measurement_settings(1)
    for n in (23, 40):
        with pytest.raises(LimitError, match=f"^pattern of 2\\^{n - 1} words exceeds the 22-qubit limit$") as caught:
            measurement_settings(n)
        assert isinstance(caught.value, RuntimeError)


@pytest.mark.parametrize("n", range(2, 17))
@pytest.mark.parametrize("noise", (False, True))
def test_measurement_settings_are_the_cg_pattern_words(capsysbinary, n, noise):
    # the rows come from the pattern's X masks; the keys decode to the same words
    want = key_words(cg_nonzero_pattern(n), n) + ["Z" * n] * noise
    listing = b"".join(measurement_settings(n, noise))
    assert listing.decode("ascii").split("\n") == [*want, ""]
    # the CLI writes the blocks as they are and counts them from the closed form 2^(n-1) + s_n
    assert len(want) == cg_norm_sq(n) + noise
    assert main(["settings", "--n", str(n), *["--noise"] * noise]) == 0
    assert capsysbinary.readouterr() == (listing + f"# count={len(want)}\n".encode(), b"")


def test_norm_table_reference_subset():
    rows = {(f, n): norm_sq for f, n, norm_sq in norm_table(["cg", "ghz", "w", "cluster"], 2, 5)}
    assert rows[("cg", 4)] == 9.0
    assert rows[("ghz", 4)] == 9.0
    assert rows[("w", 3)] == pytest.approx(11 / 3, abs=1e-12)
    assert rows[("w", 5)] == pytest.approx(21 / 5, abs=1e-12)
    assert rows[("cluster", 4)] == 5.0
    assert rows[("cluster", 2)] == 3.0


def test_norm_table_support_path_rows():
    # closed form 2^(n-1) + s with s = 1 only at even n, exact at every n
    rows = norm_table(["cg"], 2, 12)
    assert [norm_sq for _, _, norm_sq in rows] == [2 ** (n - 1) + 1 - n % 2 for n in range(2, 13)]
    (row,) = norm_table(["w"], 6, 6)
    assert row[2] == pytest.approx(13 / 3, abs=1e-12)
    (cluster12,) = norm_table(["cluster"], 12, 12)
    assert cluster12[2] == len(full_weight_support(stabilizer_group(chain_graph(12))))


def test_norm_table_rows_are_the_squared_norms():
    for family in FAMILIES:
        for _, n, norm_sq in norm_table([family], 2, 6):
            group = FAMILY_STATES[family](n).stabilizer
            if group is not None:
                assert norm_sq == len(full_weight_support(group))
            assert norm_sq == pytest.approx(tensor_norm_sq(full_tensor(untagged(FAMILY_STATES[family](n)))), rel=1e-12)


def test_norm_table_builds_no_tagged_state(monkeypatch):
    # every amplitude vector, deferred or given, is checked once as it is built
    built = []
    monkeypatch.setattr(pauli, "_checked_amplitudes", lambda n, amplitudes: built.append(n))
    rows = norm_table(["cg", "ghz", "w", "cluster"], 2, 20)
    assert rows[-1] == ("cluster", 20, float(full_weight_count(stabilizer_group(chain_graph(20)))))
    # the closed forms need no group either: cg and GHZ at any n
    assert norm_table(["cg", "ghz"], 1000, 1000) == [("cg", 1000, float(2 ** 999 + 1)), ("ghz", 1000, float(2 ** 999 + 1))]
    assert built == []
    # and the patch does see a build: reading a family state's amplitudes
    FAMILY_STATES["cluster"](6).amplitudes
    assert built == [6]


def test_norm_table_builds_no_w_state(monkeypatch):
    built = []
    monkeypatch.setattr(states, "w_state", lambda n: built.append(n))
    rows = norm_table(["w"], 2, 12) + norm_table(["w"], 1000, 1000)
    assert rows == [("w", n, float(Fraction(5) - Fraction(4, n))) for n in (*range(2, 13), 1000)]
    assert built == []
    # the W state itself, untagged, still takes the dense sweep and its limit
    want = "dense sweep over 3^11 words exceeds the 10-qubit limit"
    with pytest.raises(LimitError, match=re.escape(want)):
        full_tensor(w_state(11))


def test_norm_table_errors():
    with pytest.raises(ValueError):
        norm_table(["cg"], 1, 4)
    with pytest.raises(ValueError):
        norm_table(["cg"], 5, 4)
    with pytest.raises(ValueError):
        norm_table(["bogus"], 2, 4)


def test_norm_multiplicative_over_products():
    rng = np.random.default_rng(42)
    for _ in range(10):
        na = int(rng.integers(1, 4))
        nb = int(rng.integers(1, 4))
        a = PureState(na, random_state(na, rng))
        b = PureState(nb, random_state(nb, rng))
        prod_norm = tensor_norm(full_tensor(kron_states(a, b)))
        split = tensor_norm(full_tensor(a)) * tensor_norm(full_tensor(b))
        assert prod_norm == pytest.approx(split, abs=1e-9)


def test_norm_convex_under_mixing():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = PureState(n, random_state(n, rng))
        b = PureState(n, random_state(n, rng))
        w = float(rng.uniform(0.05, 0.95))
        mixed = tensor_norm(full_tensor(MixedEnsemble(((w, a), (1 - w, b))), zero_tol=0.0))
        assert mixed <= w * tensor_norm(full_tensor(a)) + (1 - w) * tensor_norm(full_tensor(b)) + 1e-9


def test_noise_norm_identity():
    # squared norm of the noisy complete-graph state: (2^(n-1)+s)(1-p)^2 + p^2
    for n in range(2, 7):
        a = 2 ** (n - 1) + (1 if n % 2 == 0 else 0)
        for p in np.linspace(0.0, 1.0, 11):
            ens = noisy_mixture(graph_state(complete_graph(n)), float(p))
            norm_sq = tensor_norm(full_tensor(untagged(ens))) ** 2
            assert norm_sq == pytest.approx(a * (1 - p) ** 2 + p * p, abs=1e-9)


def test_w_norm_closed_form():
    # squared W norm is 5 - 4/n
    for n in range(2, 10):
        norm = tensor_norm(full_tensor(w_state(n)))
        assert norm * norm == pytest.approx(5 - 4 / n, abs=1e-9)


def test_cluster_norm_recurrence_observation():
    # support counts of the chain satisfy a_n = a_(n-1) + a_(n-3)
    counts = {n: full_weight_count(stabilizer_group(chain_graph(n))) for n in range(2, 21)}
    assert [counts[n] for n in range(2, 9)] == [3, 4, 5, 8, 12, 17, 25]
    for n in range(5, 21):
        assert counts[n] == counts[n - 1] + counts[n - 3]
    for n in range(2, 15):
        assert counts[n] == len(full_weight_support(stabilizer_group(chain_graph(n))))


def test_entries_kept_at_full_precision():
    ens = noisy_mixture(graph_state(complete_graph(3)), 1e-7)
    t = full_tensor(untagged(ens), zero_tol=1e-9)
    # the all-Z entry is -p: tiny but above tolerance, stored unsnapped
    assert t.value((3, 3, 3)) == pytest.approx(-1e-7, rel=1e-6)
    assert t.value((1, 3, 3)) == pytest.approx(1 - 1e-7, rel=1e-12)


def test_correlation_tensor_value_lookup():
    t = CorrelationTensor(2, np.array([0]), np.array([0.5]))
    assert t.value((1, 1)) == 0.5
    assert t.value((2, 2)) == 0.0
    # an index of another length names no entry: (1,) once packed to T_XXX
    for tensor, idx in ((t, (1,)), (t, (1, 1, 1)), (full_tensor(ghz_state(3)), (1,))):
        with pytest.raises(ValueError, match=f"^index has {len(idx)} entries, not {tensor.n}$"):
            tensor.value(idx)
