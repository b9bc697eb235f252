"""Partition bounds, verdicts and the noise-ratio functions."""

import cmath
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsep import (
    INCONCLUSIVE,
    NON_K_SEPARABLE,
    GraphSpec,
    LimitError,
    MixedEnsemble,
    PureState,
    admissible_partitions,
    all_ones_state,
    chain_graph,
    complete_graph,
    amplitudes,
    bounds,
    detect,
    full_tensor,
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
    separability,
    statefile,
    stabilizer_group,
    tensor_norm_sq,
    threshold_p,
    w_state,
    xi_noise,
)
from graphsep.bounds import PartitionBound, cg_norm_sq, sqrt_int
from graphsep.cli import main
from graphsep.commands import MAX_PARTS, MAX_ROWS
from graphsep.stabilizer import all_ones_group

from oracle import (
    basis_group,
    brute_admissible_partitions,
    brute_k_sep_bound,
    dp_bound_sq,
    exact_noise_norm_sq,
    exact_noise_products,
    exact_noise_threshold,
    exact_quadratic_root,
    exact_state_terms,
    exact_tensor_norm_sq,
    exact_verdict,
    grid_bisect_root,
    random_state,
    tensor_dot,
    untagged,
)


def test_admissible_partition_examples():
    assert admissible_partitions(5, 3) == [(1, 1, 3)]
    assert admissible_partitions(4, 2) == [(1, 3)]
    assert admissible_partitions(6, 6) == [(1, 1, 1, 1, 1, 1)]
    with pytest.raises(ValueError):
        admissible_partitions(4, 5)
    with pytest.raises(ValueError):
        admissible_partitions(4, 0)


def test_admissible_partitions_match_brute_force():
    for n in range(2, 16):
        for k in range(1, n + 1):
            assert admissible_partitions(n, k) == brute_admissible_partitions(n, k)


def test_unfiltered_partitions_keep_double_twos():
    assert (2, 2) in admissible_partitions(4, 2, admissible_only=False)
    # the bound skips 2|2 (whose product 9 is larger) for the admissible 1|3
    assert k_sep_bound(4, 2).parts == (1, 3)
    assert k_sep_bound(4, 2).bound == pytest.approx(2.0, abs=1e-12)


def test_part_norm_values():
    # the block bound sqrt(2^(m-1) + s_m)
    assert sqrt_int(cg_norm_sq(1)) == pytest.approx(1.0)
    assert sqrt_int(cg_norm_sq(2)) == pytest.approx(math.sqrt(3), abs=1e-12)
    assert sqrt_int(cg_norm_sq(4)) == pytest.approx(3.0, abs=1e-12)


def test_k_sep_bound_examples():
    pb = k_sep_bound(6, 3)
    assert pb.bound == pytest.approx(math.sqrt(12), abs=1e-9)
    assert pb.parts == (1, 2, 3)
    pb = k_sep_bound(8, 2)
    assert pb.bound == pytest.approx(math.sqrt(99), abs=1e-9)
    assert pb.parts == (2, 6)
    pb = k_sep_bound(9, 4)
    assert pb.bound == pytest.approx(math.sqrt(48), abs=1e-9)
    assert pb.parts == (1, 1, 2, 5)
    with pytest.raises(ValueError):
        k_sep_bound(4, 1)


def test_k_sep_bound_is_cached():
    first = k_sep_bound(12, 5)
    assert k_sep_bound(12, 5) is first
    assert k_sep_bound(12, 6) is not first
    with pytest.raises(ValueError):
        k_sep_bound(12, 13)


def test_the_bound_cache_lets_a_bounds_table_go():
    # each of these partitions holds a tuple of k parts (about 30 KB): an
    # unbounded cache would keep all 901 of them, 24.7 MiB
    k_sep_bound.cache_clear()
    tracemalloc.start()
    try:
        for k in range(3100, 4001):
            k_sep_bound(4000, k)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


@pytest.mark.parametrize("n_min", [2, 3, 4, 1000, 1856])
def test_a_cluster_table_is_one_pass_of_the_chain_count(monkeypatch, n_min):
    # every row is the count read alone, up to the float range's edge at n = 1856
    want = [("cluster", n, separability._chain_count(n) / 1) for n in range(n_min, 1857)]
    monkeypatch.setattr(separability, "_chain_count", None)  # no row counts from B_0 on its own
    assert separability.norm_table(["cluster"], n_min, 1856) == want
    with pytest.raises(OverflowError):
        separability.norm_table(["cluster"], n_min, 1857)


def test_a_cluster_table_over_the_cap_is_refused_before_its_pass(capsys):
    # exit 2 at once, not the float range's exit 1 after the rows below n = 1857
    cap = separability.CHAIN_LIMIT
    assert main(["norms", "--families", "cluster", "--n-min", "2", "--n-max", str(cap + 1)]) == 2
    want = f"graphsep: error: cluster count over {cap + 1} qubits exceeds the {cap}-qubit limit\n"
    assert capsys.readouterr() == ("", want)


def test_a_long_sweep_computes_its_bound_and_count_once(capsys):
    k_sep_bound.cache_clear()
    separability._chain_count.cache_clear()
    assert main(["sweep", "--family", "cluster", "--n", "40", "--k", "3", "--p-steps", str(MAX_ROWS)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3 + MAX_ROWS
    assert k_sep_bound.cache_info().misses == 1 and separability._chain_count.cache_info().misses == 1


def test_k_sep_bound_refuses_past_the_float_range_before_the_product(monkeypatch):
    # bound_sq >= 2^(n - k): from n - k = 2048 on its root is past the float
    # range, and at n = 10^11 the product alone would take gigabytes
    assert k_sep_bound(2049, 2).parts == (2, 2047)

    def fail(*args):
        raise AssertionError("the bound's product was built")

    monkeypatch.setattr(bounds, "cg_norm_sq", fail)
    monkeypatch.setattr(math, "prod", fail)
    for n, k in ((2050, 2), (10 ** 11, 2), (10 ** 11, 10 ** 11 - 2048)):
        with pytest.raises(OverflowError, match="^math range error$"):
            k_sep_bound(n, k)


def test_k_sep_bound_matches_enumeration_oracle():
    for n in range(2, 21):
        for k in range(2, n + 1):
            pb = k_sep_bound(n, k)
            assert (pb.parts, pb.bound_sq) == brute_k_sep_bound(n, k), (n, k)
            assert pb.bound == math.sqrt(pb.bound_sq)


@pytest.mark.parametrize("k", [2, 3])
def test_k_sep_bound_beyond_float_range_matches_oracle(k):
    # 2^1098 and up: the squared bounds do not fit a float, their roots do
    pb = k_sep_bound(1100, k)
    assert (pb.parts, pb.bound_sq) == brute_k_sep_bound(1100, k)
    assert math.log(pb.bound) == pytest.approx(math.log(pb.bound_sq) / 2, rel=1e-15)


@pytest.mark.parametrize("n,k", [(6, 3), (9, 3), (40, 17), (1000, 999), (1000, 1000), (1100, 2), (1100, 3)])
def test_bound_sq_is_exact_block_product(n, k):
    pb = k_sep_bound(n, k)
    assert type(pb.bound_sq) is int
    assert pb.bound_sq == math.prod(2 ** (m - 1) + (1 - m % 2) for m in pb.parts)
    assert sum(pb.parts) == n and len(pb.parts) == k


def test_part_norm_beyond_float_range():
    norm = sqrt_int(cg_norm_sq(1100))
    assert isinstance(norm, float)
    assert math.log(norm) == pytest.approx(1099 * math.log(2) / 2, rel=1e-15)


def test_tie_breaks_are_lexicographic():
    # (8,3): 1|2|5 and 2|3|3 tie at sqrt(48); the lex-smaller wins
    assert k_sep_bound(8, 3).parts == (1, 2, 5)
    assert k_sep_bound(9, 4).parts == (1, 1, 2, 5)


def test_biseparable_bound_values():
    assert k_sep_bound(3, 2).bound == pytest.approx(math.sqrt(3), abs=1e-9)
    assert k_sep_bound(5, 2).bound == pytest.approx(math.sqrt(12), abs=1e-9)
    assert k_sep_bound(7, 2).bound == pytest.approx(math.sqrt(48), abs=1e-9)


@pytest.mark.parametrize("n", range(3, 17))
def test_biseparable_bound_equals_two_sep_bound(n):
    # closed form: split off b = 1 qubit while a 2|2 split is not
    # admissible (n <= 4), else b = 2
    b = 1 if n <= 4 else 2
    assert k_sep_bound(n, 2).bound_sq == (2 ** (b - 1) + 1 - b % 2) * (2 ** (n - b - 1) + 1 - (n - b) % 2)


def test_detect_examples():
    res = detect(33.0, 6, 2)
    assert res.verdict == NON_K_SEPARABLE
    assert (res.n, res.k, res.numerator, res.denominator) == (6, 2, 33.0, 27.0)
    assert res.xi == 33 / 27
    # boundary equality is inconclusive: the criterion needs a strict violation
    boundary = detect(k_sep_bound(6, 2).bound_sq, 6, 2)
    assert boundary.verdict == INCONCLUSIVE
    assert boundary.xi == 1.0
    with pytest.raises(ValueError):
        detect(-0.5, 6, 2)


@pytest.mark.parametrize("norm_sq", [math.nan, math.inf, -math.inf, -1.0])
def test_detect_refuses_a_squared_norm_that_is_not_finite_and_nonnegative(norm_sq):
    message = f"squared norm must be a finite nonnegative number, got {norm_sq}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        detect(norm_sq, 3, 2)


def test_detect_margin_covers_float_rounding():
    # (c|0> + s|1>)^3, with c and s the floats of cos and sin 0.01, has the
    # exact squared norm 1 - 1.6e-17, below the full-separability bound 1,
    # but the dense path rounds it to 1.0000000000000002: only a margin
    # keeps that uncertified
    q = np.array([0.9999500004166653, 0.009999833334166664], dtype=complex)
    state = PureState(3, np.kron(np.kron(q, q), q))
    norm_sq = tensor_norm_sq(full_tensor(state))
    assert exact_tensor_norm_sq(((1.0, state),), 3) < 1 < norm_sq
    assert detect(norm_sq, 3, 3).verdict == INCONCLUSIVE
    # noisy cg3 at p = 0.6000000000000001: 1.8e-16 below the bound, uncertified
    ens = untagged(noisy_mixture(graph_state(complete_graph(3)), 0.6000000000000001))
    norm_sq = tensor_norm_sq(full_tensor(ens))
    assert exact_tensor_norm_sq(ens.terms, 3) < 1
    assert detect(norm_sq, 3, 3).verdict == INCONCLUSIVE
    # the stated margin near 1 is about 3e-14 at n = 3 and 2e-12 at n = 10
    assert detect(1 + 1e-12, 3, 3).verdict == NON_K_SEPARABLE
    assert detect(1 + 1e-13, 10, 10).verdict == INCONCLUSIVE
    assert detect(1 + 1e-11, 10, 10).verdict == NON_K_SEPARABLE


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.data())
def test_detect_never_certifies_a_raw_product_state(n, data):
    # a product of one-qubit pure states is fully separable, so a raw file
    # of it, its norm off by up to 1e-12, is never certified at k = n
    angle = st.floats(0, 2 * math.pi)
    amps = [1]
    for _ in range(n):  # qubit 1 ends in the top bit
        theta, phi = data.draw(angle), data.draw(angle)
        amps = [a * b for a in amps for b in (math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2))]
    scale = 1 + data.draw(st.floats(-1e-12, 1e-12))
    text = json.dumps({"n": n, "amplitudes": [[scale * a.real, scale * a.imag] for a in amps]})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a norm past 1e-12 is renormalized with a warning
        loaded = statefile.loads_state(text)
    assert detect(amplitudes._pure_norm_sq(n, loaded.source), n, n).verdict == INCONCLUSIVE


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.integers(1, 3), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_dense_rounding_stays_within_the_detect_margin(n, members, real, seed):
    # the margin detect subtracts on the dense path (untagged states, the
    # only ones it still serves) bounds the float sum's distance from the
    # exact squared norm of the state the sweep was given, its members off
    # norm 1 and its weights off sum 1 by up to 1e-7 before the rule
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, size=members)
    weights *= (1 + rng.uniform(-1e-7, 1e-7)) / weights.sum()
    terms = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # each norm and the weights' sum are renormalized with a warning
        for w in weights:
            amps = random_state(n, rng)
            if real:
                amps = amps.real / np.linalg.norm(amps.real)
            terms.append((float(w), PureState(n, amps * (1 + rng.uniform(-1e-7, 1e-7)))))
        ens = MixedEnsemble(tuple(terms))
    norm_sq = tensor_norm_sq(full_tensor(ens))
    exact = exact_tensor_norm_sq(exact_state_terms(ens.terms), n)
    margin = norm_sq - amplitudes._lower_bound(norm_sq, n)
    assert abs(norm_sq - exact) <= margin, (float(norm_sq - exact), margin)


def test_library_states_off_norm_do_not_certify_a_product_state():
    # |000> a little off norm, as a state and as a one-term mixture's
    # weight, is normalized before the sweep: not certified at k = 3
    with pytest.warns(UserWarning, match="^renormalizing amplitudes"):
        state = PureState(3, [1 + 4e-10] + [0] * 7)
    with pytest.warns(UserWarning, match="^renormalizing ensemble weights"):
        ens = MixedEnsemble(((1 + 8e-10, PureState(3, [1] + [0] * 7)),))
    for built in (state, ens):
        norm_sq = tensor_norm_sq(full_tensor(built))
        assert norm_sq == 1.0
        assert detect(norm_sq, 3, 3).verdict == INCONCLUSIVE


def test_detect_full_separability_of_noisy_cg6():
    ens = noisy_mixture(graph_state(complete_graph(6)), 0.5)
    norm_sq = tensor_norm_sq(full_tensor(untagged(ens)))
    # 33 - 66 p + 34 p^2 at p = 0.5 is 8.5, far above the full-sep bound 1
    assert norm_sq == pytest.approx(8.5, abs=1e-9)
    assert detect(norm_sq, 6, 6).verdict == NON_K_SEPARABLE


def test_bound_monotone_in_k():
    for n in range(3, 13):
        bounds = [k_sep_bound(n, k).bound for k in range(2, n + 1)]
        for lo, hi in zip(bounds[1:], bounds[:-1]):
            assert lo <= hi + 1e-12


def test_verdict_cascade():
    for n in (4, 6, 9):
        for norm in (1.5, 2.5, 4.0, 10.0):
            flagged = False
            for k in range(2, n + 1):
                outcome = detect(norm * norm, n, k).verdict
                if flagged:
                    assert outcome == NON_K_SEPARABLE
                flagged = flagged or outcome == NON_K_SEPARABLE


def test_xi_noise_cg_values():
    res = xi_noise(6, 2, 0.0)
    assert res.xi == pytest.approx(33 / 27, abs=1e-12)
    assert res.numerator == pytest.approx(33.0, abs=1e-12)
    assert res.denominator == pytest.approx(27.0, abs=1e-9)
    assert xi_noise(6, 6, 0.5).xi == pytest.approx(8.5, abs=1e-12)
    for n in (3, 4, 7):
        assert xi_noise(n, 2, 1.0).numerator == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        xi_noise(6, 2, 1.5)
    # cluster: B_6 = 12, C = 0, so at p = 0.5 the squared norm is (12 + 1) / 4 over the k = 2 bound 27
    res = xi_noise(6, 2, 0.5, family="cluster")
    assert (res.numerator, res.xi) == (13 / 4, 13 / 108)
    with pytest.raises(ValueError):
        xi_noise(6, 2, 0.5, family="bogus")
    # W: 5 - 4/n = 13/3 at n = 6, over the k = 2 bound 27
    assert xi_noise(6, 2, 0.0, family="w").xi == 13 / 81


def test_xi_matches_oracle_detection():
    # xi > 1 exactly when the dense-path norm beats the bound
    for n in range(2, 9):
        base = graph_state(complete_graph(n))
        for p in np.linspace(0.0, 1.0, 21):
            norm_sq = tensor_norm_sq(full_tensor(untagged(noisy_mixture(base, float(p)))))
            for k in range(2, n + 1):
                res = xi_noise(n, k, float(p))
                assert res.numerator == pytest.approx(norm_sq, abs=1e-9)
                assert (res.xi > 1.0) == (detect(norm_sq, n, k).verdict == NON_K_SEPARABLE)


def test_xi_noise_ghz_forms():
    # even n: the GHZ and noise supports share the all-Z word, giving
    # 2^(n-1)(1-p)^2 + 1; odd n matches the complete-graph numerator exactly
    for n in (4, 6):
        for p in (0.0, 0.25, 0.6, 1.0):
            res = xi_noise(n, 2, p, family="ghz")
            assert res.numerator == pytest.approx(2 ** (n - 1) * (1 - p) ** 2 + 1, abs=1e-9)
    for n in (3, 5):
        for p in (0.0, 0.25, 0.6):
            res = xi_noise(n, 2, p, family="ghz")
            assert res.numerator == pytest.approx(xi_noise(n, 2, p).numerator, abs=1e-9)


def test_threshold_cg_reference_values():
    thr = threshold_p(6, 2)
    assert 0.0955 <= thr <= 0.0957
    # closed-form root of 34 p^2 - 66 p + 6 = 0
    assert thr == pytest.approx((66 - math.sqrt(66 ** 2 - 4 * 34 * 6)) / (2 * 34), abs=1e-12)
    assert threshold_p(3, 3) == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(ValueError):
        threshold_p(6, 1)


def test_threshold_large_n_limit():
    # even-n thresholds approach 1 - sqrt(3)/2 from below
    limit = 1 - math.sqrt(3) / 2
    values = [threshold_p(n, 2) for n in (10, 20, 30, 40)]
    assert all(v < limit for v in values)
    assert values == sorted(values)
    assert values[-1] == pytest.approx(limit, abs=1e-4)


def test_threshold_is_crossing_point():
    for n, k in ((5, 2), (6, 3), (7, 7)):
        thr = threshold_p(n, k)
        eps = 1e-6
        assert xi_noise(n, k, thr - eps).xi > 1.0
        assert xi_noise(n, k, thr + eps).xi < 1.0


def test_threshold_ghz_bisection():
    # even n: solve 2^(n-1)(1-p)^2 + 1 = D in closed form and compare
    n, k = 6, 3
    d = k_sep_bound(n, k).bound ** 2
    want = 1 - math.sqrt((d - 1) / 2 ** (n - 1))
    assert threshold_p(n, k, family="ghz") == pytest.approx(want, abs=1e-9)
    # odd n: same quadratic as the complete graph
    assert threshold_p(5, 2, family="ghz") == pytest.approx(threshold_p(5, 2), abs=1e-9)


def test_threshold_ghz_matches_bisection_oracle():
    for n in range(2, 11):
        for k in range(2, n + 1):
            d = k_sep_bound(n, k).bound_sq
            s = 1 - n % 2
            want = grid_bisect_root(lambda p: (1 - p) ** 2 * (2 ** (n - 1) + s) + 2 * p * (1 - p) * s + p * p - d)
            got = threshold_p(n, k, family="ghz")
            assert (got is None) == (want is None), (n, k)
            if want is not None:
                assert got == pytest.approx(want, abs=1e-11), (n, k)


@pytest.mark.parametrize("n", range(2, 11))
def test_ghz_noise_products_are_the_dense_products(n):
    ones = full_tensor(untagged(all_ones_state(n)))
    for family, state in (("ghz", ghz_state(n)), ("cg", graph_state(complete_graph(n))), ("w", w_state(n))):
        base = full_tensor(untagged(state))
        b, c, o, den = separability.noise_products(n, family)
        assert all(type(v) is int for v in (b, c, o, den))
        assert den == (n if family == "w" else 1)
        assert b / den == pytest.approx(tensor_dot(base, base), abs=1e-12)
        assert c / den == pytest.approx(tensor_dot(base, ones), abs=1e-12)
        assert o / den == pytest.approx(tensor_dot(ones, ones), abs=1e-12)


# the noise weights next to and at the endpoints, and two inside
W_P = (0.0, 1e-12, 0.1, 0.5, 1 - 1e-12, 1.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_w_oracle_is_the_exact_tensor_norm(n):
    # the float amplitudes 1/sqrt(n) square to 1/n only within rounding, so
    # the exact norm of the float state lies within rounding of 5 - 4/n
    for p in W_P:
        exact = exact_tensor_norm_sq(noisy_mixture(w_state(n), p).terms, n)
        assert abs(exact - exact_noise_norm_sq("w", n, p)) < 1e-14, p


@pytest.mark.parametrize("n", range(2, 21))
def test_group_products_are_the_closed_forms(n):
    # B by the walk's count, C by one membership solve, O = 1
    assert separability.noise_products(n, stabilizer_group(complete_graph(n))) == separability.noise_products(n, "cg")
    assert separability.noise_products(n, ghz_group(n)) == separability.noise_products(n, "ghz")
    assert separability.noise_products(n, stabilizer_group(chain_graph(n))) == separability.noise_products(n, "cluster")
    assert separability.noise_products(n, chain_graph(n)) == separability.noise_products(n, "cluster")
    assert threshold_p(n, 2, stabilizer_group(complete_graph(n))) == threshold_p(n, 2)
    with pytest.raises(ValueError, match="not"):
        separability.noise_products(n + 1, ghz_group(n))


def test_xi_verdict_is_the_strict_detection_rule():
    # pure noise against full separability: numerator 1 over bound_sq 1, so
    # xi = 1 exactly, inconclusive as norm == bound is
    res = xi_noise(5, 5, 1.0)
    assert res.xi == 1.0
    assert res.verdict == INCONCLUSIVE == detect(1.0, 5, 5).verdict
    assert xi_noise(6, 2, 0.0).verdict == NON_K_SEPARABLE
    assert xi_noise(6, 2, 0.5).verdict == INCONCLUSIVE


@pytest.mark.parametrize("n", [12, 29, 30, 515, 600, 1000])
@pytest.mark.parametrize("family", ["cg", "ghz", "w", "cluster"])
def test_threshold_matches_exact_root_at_large_n(n, family):
    # the discriminant passes 2^1024 from about n = 512 on, while every
    # sweep row still fits a float; k = n puts the root next to 1
    for k in (2, 3, n - 2, n - 1, n):
        want = exact_noise_threshold(*exact_noise_products(family, n), k_sep_bound(n, k).bound_sq)
        got = threshold_p(n, k, family)
        assert (got is None) == (want is None), k
        if want is not None:
            assert got == pytest.approx(float(want), rel=1e-12), k


def test_xi_noise_decides_below_the_bound_exactly():
    # 7e-18 below the bound (relative): the float numerator used to round above it
    assert xi_noise(16, 4, 0.5053231373251493).verdict == INCONCLUSIVE


def _exact_disagreements(family, n, ks, ps):
    """Verdicts of xi_noise that differ from the oracle's Fraction verdict at
    the floats ps.  Also asserts that the fields a sweep prints are the
    correctly rounded exact values (float() of a Fraction is), which makes
    their printed digits those of the exact values too."""
    exact = [(p, exact_noise_norm_sq(family, n, p)) for p in ps]
    disagreements = 0
    for k in ks:
        d = dp_bound_sq(n, k)
        for p, q in exact:
            res = xi_noise(n, k, p, family)
            assert (res.numerator, res.denominator, res.xi) == (float(q), float(d), float(q / d)), (family, n, k, p)
            disagreements += res.verdict != exact_verdict(q, d)
    return disagreements


def test_sweep_verdicts_match_exact_fractions():
    # the 11-step grid is part of the 101-step one: i/10 and 10i/100 round alike
    grid = sorted({i / 10 for i in range(11)} | {i / 100 for i in range(101)})
    disagreements = 0
    for family in ("cg", "ghz", "w", "cluster"):
        for n in range(2, 61):
            disagreements += _exact_disagreements(family, n, range(2, n + 1), grid)
    assert disagreements == 0


def test_near_threshold_verdicts_match_exact_fractions():
    disagreements = 0
    for family in ("cg", "ghz", "w", "cluster"):
        for n in range(2, 40):
            for k in range(2, n + 1):
                t = exact_noise_threshold(*exact_noise_products(family, n), dp_bound_sq(n, k))
                if t is None:  # W certifies only k >= n - 2, cluster only k above about 0.45 n
                    continue
                near = [float(t)]
                for _ in range(2):
                    near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], 1.0)]
                disagreements += _exact_disagreements(family, n, [k], [p for p in near if 0 <= p <= 1])
    assert disagreements == 0


@pytest.mark.parametrize("family", ["cg", "ghz", "w", "cluster"])
def test_threshold_within_one_ulp_of_exact_root(family):
    for n in range(2, 61):
        b, c, o = exact_noise_products(family, n)
        for k in range(2, n + 1):
            want = exact_noise_threshold(b, c, o, dp_bound_sq(n, k))
            got = threshold_p(n, k, family)
            if want is None:  # only W below k = n - 2 and cluster at small k certify nothing
                assert got is None and (family == "w" and k < n - 2 or family == "cluster"), (n, k)
            else:
                assert abs(got - float(want)) <= math.ulp(float(want)), (n, k)
        # k = n: the bound is 1, with roots (b-1)/(b+1) and 1 (double at 1 when c = 1)
        if family != "w":
            assert threshold_p(n, n, family) == (1.0 if c else float((b - 1) / (b + 1)))


@pytest.mark.parametrize("n", range(2, 7))
def test_threshold_on_diagonal_groups(n):
    # a basis state |b> has B = O = 1 and C = +-1.  With C = 1 (b of the
    # parity of n, as |1...1> and |00> are) the equation is the constant
    # 1 = bound_sq, with no p term; with C = -1 it is (1 - 2p)^2 = bound_sq.
    # Either way the norm meets the bound only at k = n, from p = 0 on, and
    # no p certifies: the state stops violating at 0 (k = n) or never did
    assert threshold_p(4, 2, all_ones_group(4)) is None
    for b in range(1 << n):
        group = basis_group(n, b)
        for k in range(2, n + 1):
            assert threshold_p(n, k, group) == (0.0 if k == n else None), (b, k)
            for p in (0.0, 0.5, 1.0):
                assert xi_noise(n, k, p, group).verdict == INCONCLUSIVE, (b, k, p)


def test_partition_label_joins_the_parts():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 400))
        pb = k_sep_bound(n, int(rng.integers(2, n + 1)))
        assert pb.partition_label() == "|".join(map(str, pb.parts))
    # MAX_PARTS blocks of one to four sizes, uncached so the test holds none of them
    for spare in (0, 5, 1700):
        pb = k_sep_bound.__wrapped__(MAX_PARTS + spare, MAX_PARTS)
        assert pb.partition_label() == "|".join(map(str, pb.parts))
    # any parts, in any order
    parts = tuple(rng.integers(1, 5, size=50).tolist())
    assert PartitionBound(sum(parts), 50, parts, 0.0, 0).partition_label() == "|".join(map(str, parts))


def test_first_root_is_correctly_rounded():
    # some of these roots lie so close to a rounding tie that only the bit
    # marking an inexact scaled root makes them round the right way
    for a2 in range(1, 13):
        for a1 in range(-40, 13):
            for a0 in range(-12, 13):
                want = exact_quadratic_root(a2, a1, a0)
                got = separability._first_root(a2, a1, a0)
                assert got == (None if want is None else float(want)), (a2, a1, a0)


HUGE = 10 ** 5000  # 16,610 bits: str() of it raises Python's 4,300-digit int-to-str error


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: GraphSpec(HUGE, [(0, 1)]), ValueError),
        (lambda: graphs.check_count_limit(GraphSpec(HUGE, [])), LimitError),
        (lambda: measurement_settings(HUGE), LimitError),
        (lambda: full_weight_support(GraphSpec(HUGE, [])), LimitError),
        (lambda: amplitudes.dense_limit(HUGE), LimitError),
        (lambda: noise_products(HUGE, "cluster"), LimitError),
        (lambda: k_sep_bound(HUGE, HUGE + 1), ValueError),
        (lambda: noise_products(3, GraphSpec(HUGE, [])), ValueError),
        (lambda: norm_table(["cg"], HUGE, 2), ValueError),
        (lambda: admissible_partitions(HUGE, HUGE + 1), ValueError),
        (lambda: noise_products(-HUGE, "cg"), ValueError),
    ],
    ids=["graph-spec", "count-limit", "settings", "support", "dense-limit", "cluster-count", "k-sep-bound",
         "source-size", "norm-table", "partitions", "family-size"],
)
def test_a_huge_n_is_named_by_its_size_in_each_error(call, error):
    # each message writes n through bounds._short, not str(), so the call raises its own error
    with pytest.raises(error, match=re.escape("<16610-bit int>")):
        call()


def test_an_integer_of_another_type_reads_as_its_str_in_an_error():
    # _short writes a numpy int or a bool as str() does, not as its repr (np.int64(5))
    with pytest.raises(ValueError, match=f"^{re.escape('need 2 <= k <= n, got k=7, n=5')}$"):
        k_sep_bound(np.int64(5), 7)
    with pytest.raises(ValueError, match=f"^{re.escape('edge (1, True) has a non-integer vertex')}$"):
        GraphSpec(3, [(np.int64(1), True)])
