"""Partition bounds, verdicts and the noise-ratio functions."""

import math

import numpy as np
import pytest

from graphsep import (
    INCONCLUSIVE,
    NON_K_SEPARABLE,
    admissible_partitions,
    all_ones_state,
    biseparable_bound,
    complete_graph,
    detect,
    full_tensor,
    ghz_state,
    graph_state,
    k_sep_bound,
    noisy_mixture,
    part_norm,
    separability,
    tensor_norm,
    threshold_p,
    xi_noise,
)

from oracle import (
    brute_admissible_partitions,
    brute_k_sep_bound,
    exact_noise_threshold,
    grid_bisect_root,
    tensor_dot,
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
    unfiltered = k_sep_bound(4, 2, admissible_only=False)
    assert unfiltered.parts == (2, 2)
    assert unfiltered.bound == pytest.approx(3.0, abs=1e-12)
    assert k_sep_bound(4, 2).bound == pytest.approx(2.0, abs=1e-12)


def test_part_norm_values():
    assert part_norm(1) == pytest.approx(1.0)
    assert part_norm(2) == pytest.approx(math.sqrt(3), abs=1e-12)
    assert part_norm(4) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        part_norm(0)


def test_k_sep_bound_examples():
    pb = k_sep_bound(6, 3)
    assert pb.bound == pytest.approx(math.sqrt(12), abs=1e-9)
    assert pb.parts == (1, 2, 3)
    assert pb.per_part_s == (0, 1, 0)
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
    assert k_sep_bound(12, 5, admissible_only=False) is not first
    with pytest.raises(ValueError):
        k_sep_bound(12, 13)


@pytest.mark.parametrize("admissible_only", [True, False])
def test_k_sep_bound_matches_enumeration_oracle(admissible_only):
    for n in range(2, 21):
        for k in range(2, n + 1):
            pb = k_sep_bound(n, k, admissible_only)
            assert (pb.parts, pb.bound_sq) == brute_k_sep_bound(n, k, admissible_only), (n, k)
            assert pb.bound == math.sqrt(pb.bound_sq)


@pytest.mark.parametrize("k", [2, 3])
def test_k_sep_bound_beyond_float_range_matches_oracle(k):
    # 2^1098 and up: the squared bounds do not fit a float, their roots do
    pb = k_sep_bound(1100, k)
    assert (pb.parts, pb.bound_sq) == brute_k_sep_bound(1100, k)
    assert math.log(pb.bound) == pytest.approx(math.log(pb.bound_sq) / 2, rel=1e-15)


@pytest.mark.parametrize("n,k", [(6, 3), (9, 3), (40, 17), (1000, 999), (1000, 1000), (1100, 2), (1100, 3)])
def test_bound_sq_is_exact_block_product(n, k):
    for admissible_only in (True, False):
        pb = k_sep_bound(n, k, admissible_only)
        assert type(pb.bound_sq) is int
        assert pb.bound_sq == math.prod(2 ** (m - 1) + (1 - m % 2) for m in pb.parts)
        assert sum(pb.parts) == n and len(pb.parts) == k
        assert pb.per_part_s == tuple(1 - m % 2 for m in pb.parts)


def test_part_norm_beyond_float_range():
    norm = part_norm(1100)
    assert isinstance(norm, float)
    assert math.log(norm) == pytest.approx(1099 * math.log(2) / 2, rel=1e-15)


def test_tie_breaks_are_lexicographic():
    # (8,3): 1|2|5 and 2|3|3 tie at sqrt(48); the lex-smaller wins
    assert k_sep_bound(8, 3).parts == (1, 2, 5)
    assert k_sep_bound(9, 4).parts == (1, 1, 2, 5)


def test_biseparable_bound_values():
    assert biseparable_bound(3) == pytest.approx(math.sqrt(3), abs=1e-9)
    assert biseparable_bound(5) == pytest.approx(math.sqrt(12), abs=1e-9)
    assert biseparable_bound(7) == pytest.approx(math.sqrt(48), abs=1e-9)
    with pytest.raises(ValueError):
        biseparable_bound(2)


@pytest.mark.parametrize("n", range(3, 17))
def test_biseparable_bound_equals_two_sep_bound(n):
    assert biseparable_bound(n) == pytest.approx(k_sep_bound(n, 2).bound, abs=1e-12)


def test_detect_examples():
    verdict = detect(math.sqrt(33), 6, 2)
    assert verdict.outcome == NON_K_SEPARABLE
    assert verdict.bound == pytest.approx(math.sqrt(27), abs=1e-9)
    # boundary equality is inconclusive: the criterion needs a strict violation
    boundary = detect(k_sep_bound(6, 2).bound, 6, 2)
    assert boundary.outcome == INCONCLUSIVE
    with pytest.raises(ValueError):
        detect(-0.5, 6, 2)


def test_detect_full_separability_of_noisy_cg6():
    ens = noisy_mixture(graph_state(complete_graph(6)), 0.5)
    norm = tensor_norm(full_tensor(ens, method="dense"))
    # 33 - 66 p + 34 p^2 at p = 0.5 is 8.5, far above the full-sep bound 1
    assert norm * norm == pytest.approx(8.5, abs=1e-9)
    assert detect(norm, 6, 6).outcome == NON_K_SEPARABLE


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
                outcome = detect(norm, n, k).outcome
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
    with pytest.raises(ValueError):
        xi_noise(6, 2, 0.5, family="w")


def test_xi_matches_oracle_detection():
    # xi > 1 exactly when the dense-path norm beats the bound
    for n in range(2, 9):
        base = graph_state(complete_graph(n))
        for p in np.linspace(0.0, 1.0, 21):
            norm = tensor_norm(full_tensor(noisy_mixture(base, float(p)), method="dense"))
            for k in range(2, n + 1):
                res = xi_noise(n, k, float(p))
                assert res.numerator == pytest.approx(norm * norm, abs=1e-9)
                assert (res.xi > 1.0) == (detect(norm, n, k).outcome == NON_K_SEPARABLE)


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
            want = grid_bisect_root(lambda p: separability._ghz_numerator(n, p) - d)
            got = threshold_p(n, k, family="ghz")
            assert (got is None) == (want is None), (n, k)
            if want is not None:
                assert got == pytest.approx(want, abs=1e-11), (n, k)


@pytest.mark.parametrize("n", range(2, 11))
def test_ghz_noise_products_are_the_dense_products(n):
    base = full_tensor(ghz_state(n), method="dense")
    ones = full_tensor(all_ones_state(n), method="dense")
    b, c, o = separability._ghz_noise_products(n)
    assert all(type(v) is int for v in (b, c, o))
    assert b == pytest.approx(tensor_dot(base, base), abs=1e-9)
    assert c == pytest.approx(tensor_dot(base, ones), abs=1e-9)
    assert o == pytest.approx(tensor_dot(ones, ones), abs=1e-9)


def test_xi_verdict_is_the_strict_detection_rule():
    # pure noise against full separability: numerator 1 over bound_sq 1, so
    # xi = 1 exactly, inconclusive as norm == bound is
    res = xi_noise(5, 5, 1.0)
    assert res.xi == 1.0
    assert res.verdict == INCONCLUSIVE == detect(1.0, 5, 5).outcome
    assert xi_noise(6, 2, 0.0).verdict == NON_K_SEPARABLE
    assert xi_noise(6, 2, 0.5).verdict == INCONCLUSIVE


@pytest.mark.parametrize("n", [12, 29, 30, 515, 600, 1000])
@pytest.mark.parametrize("family", ["cg", "ghz"])
def test_threshold_matches_exact_root_at_large_n(n, family):
    # the discriminant passes 2^1024 from about n = 512 on, while every
    # sweep row still fits a float; k = n puts the root next to 1
    s = 1 - n % 2 if family == "ghz" else 0
    for k in (2, 3, n):
        want = exact_noise_threshold(2 ** (n - 1) + (1 - n % 2), s, 1, k_sep_bound(n, k).bound_sq)
        assert threshold_p(n, k, family) == pytest.approx(float(want), rel=1e-12), k
