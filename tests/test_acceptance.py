"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values are exact radicals or integers pinned below; every
computed quantity comes either from the dense sweep, the stabilizer
enumeration, or the independent matrix oracle as stated.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from graphsep import (
    GraphSpec,
    MixedEnsemble,
    PauliString,
    PureState,
    chain_graph,
    complete_graph,
    detect,
    expectation,
    full_tensor,
    full_weight_support,
    ghz_state,
    graph_state,
    k_sep_bound,
    noisy_mixture,
    stabilizer_group,
    tensor_norm,
    threshold_p,
    w_state,
)
from graphsep.separability import NON_K_SEPARABLE, cg_norm_sq, sqrt_int

from oracle import (
    all_full_indices,
    kron_states,
    permutation_count,
    random_state,
    stabilizer_expectation,
    star_graph,
    untagged,
)

P_GRID_21 = [i / 20 for i in range(21)]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{status}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)


# reference squared tensor norms per family and qubit count
NORM_SQ_TABLE = {
    "cg": {2: 3, 3: 4, 4: 9, 5: 16, 6: 33, 7: 64, 8: 129},
    "ghz": {2: 3, 3: 4, 4: 9, 5: 16, 6: 33, 7: 64, 8: 129},
    "w": {
        2: Fraction(3),
        3: Fraction(11, 3),
        4: Fraction(4),
        5: Fraction(21, 5),
        6: Fraction(13, 3),
        7: Fraction(31, 7),
        8: Fraction(9, 2),
    },
    "cluster": {2: 3, 3: 4, 4: 5, 5: 8, 6: 12, 7: 17, 8: 25},
}

STATE_BUILDERS = {
    "cg": lambda n: graph_state(complete_graph(n)),
    "ghz": ghz_state,
    "w": w_state,
    "cluster": lambda n: graph_state(chain_graph(n)),
}

# (n, k, reference bound rounded to 4 decimals); the 2e-4 tolerance
# absorbs the rounding, including one entry a last digit off sqrt(12)
BOUND_TABLE = [
    (3, 2, 1.7320),
    (3, 3, 1.0),
    (4, 2, 2.0),
    (4, 3, 1.7320),
    (4, 4, 1.0),
    (5, 2, 3.4641),
    (5, 3, 2.0),
    (5, 4, 1.7320),
    (6, 2, 5.1961),
    (6, 3, 3.4640),
    (6, 4, 2.0),
    (7, 2, 6.9282),
    (7, 3, 5.1961),
    (7, 4, 3.4641),
    (8, 2, 9.9498),
    (8, 3, 6.9282),
    (8, 4, 5.1961),
    (9, 2, 13.8564),
    (9, 4, 6.9282),
]


def test_criterion_1_norm_table_dense_path():
    started = time.perf_counter()
    failures = []
    for family, column in NORM_SQ_TABLE.items():
        for n, norm_sq in column.items():
            norm = tensor_norm(full_tensor(untagged(STATE_BUILDERS[family](n))))
            if abs(norm - math.sqrt(norm_sq)) > 1e-9:
                failures.append((family, n, norm))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _report(1, "tensor-norm table, dense path, 28 values", ok, f"{elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_2_complete_graph_closed_form():
    dense_ok = all(
        abs(
            tensor_norm(full_tensor(untagged(graph_state(complete_graph(n)))))
            - sqrt_int(cg_norm_sq(n))
        )
        <= 1e-9
        for n in range(2, 11)
    )
    support_ok = all(
        len(full_weight_support(stabilizer_group(complete_graph(n))))
        == 2 ** (n - 1) + (1 if n % 2 == 0 else 0)
        for n in range(2, 21)
    )
    _report(2, "closed-form norm: dense to n=10, stabilizer counts to n=20", dense_ok and support_ok)
    assert dense_ok
    assert support_ok


def test_criterion_3_permutation_count_identities():
    ok = permutation_count(10) == 513 and permutation_count(21) == 1_048_576
    _report(3, "permutation-count identities at n=10 and n=21", ok)
    assert permutation_count(10) == 513
    assert permutation_count(21) == 1_048_576


def test_criterion_4_bounds_table():
    failures = []
    for n, k, reference in BOUND_TABLE:
        bound = k_sep_bound(n, k).bound
        if abs(bound - reference) > 2e-4:
            failures.append((n, k, bound, reference))
    # (9, 3) stays out of the reference list: a 1|2|6 split gives
    # sqrt(99) ~ 9.9498, but the at-most-one-2 rule also admits 2|3|4,
    # whose product sqrt(108) is larger and is the bound returned
    divergent = k_sep_bound(9, 3)
    documented = (
        divergent.parts == (2, 3, 4) and abs(divergent.bound - math.sqrt(108)) <= 1e-9
    )
    ok = not failures and documented
    _report(4, "bounds table, 19 reference values within 2e-4", ok,
            f"(9,3) admissible max {divergent.bound:.4f} via 2|3|4 recorded separately")
    assert not failures, failures
    assert documented


def test_criterion_5_noise_norm_identity():
    worst = 0.0
    for n in range(2, 9):
        a = 2 ** (n - 1) + (1 if n % 2 == 0 else 0)
        base = graph_state(complete_graph(n))
        for p in P_GRID_21:
            norm_sq = tensor_norm(full_tensor(untagged(noisy_mixture(base, p)))) ** 2
            want = a * (1 - 2 * p) + (a + 1) * p * p
            worst = max(worst, abs(norm_sq - want))
    ok = worst <= 1e-9
    _report(5, "noisy-state squared norm equals (2^(n-1)+s)(1-2p)+(2^(n-1)+s+1)p^2", ok,
            f"max dev {worst:.2e}")
    assert ok


def test_criterion_6_thresholds():
    closed = threshold_p(6, 2)
    in_window = 0.0955 <= closed <= 0.0957

    # bisection on the dense-path squared norm against the squared bound
    bound_sq = k_sep_bound(6, 2).bound ** 2
    base = graph_state(complete_graph(6))

    def excess(p: float) -> float:
        return tensor_norm(full_tensor(untagged(noisy_mixture(base, p)))) ** 2 - bound_sq

    lo, hi = 0.0, 0.5
    assert excess(lo) > 0 > excess(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    bisected = 0.5 * (lo + hi)
    agree = abs(bisected - closed) <= 1e-9

    large_n = [threshold_p(n, 2) for n in (10, 12, 14)]
    large_ok = all(0.12 <= v <= 0.14 for v in large_n)

    ok = in_window and agree and large_ok
    _report(6, "detection thresholds", ok,
            f"p*(6,2)={closed:.6f}, bisected {bisected:.6f}, large-n {[round(v, 4) for v in large_n]}")
    assert in_window
    assert agree
    assert large_ok


def test_criterion_7_measurement_settings_count():
    failures = []
    for n in range(3, 9):
        want = 2 ** (n - 1) + (1 if n % 2 == 0 else 0) + 1
        base = graph_state(complete_graph(n))
        for p in (0.1, 0.5, 0.9):
            got = len(full_tensor(noisy_mixture(base, p)))
            if got != want:
                failures.append((n, p, got, want))
    _report(7, "noisy-state support size is 2^(n-1)+s+1", not failures)
    assert not failures, failures


def _random_graph(n, rng):
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    return GraphSpec(n, tuple(e for e in pairs if rng.random() < 0.5))


def test_criterion_8_property_suites():
    rng = np.random.default_rng(20240817)
    letters = np.array(list("IXYZ"))

    # stabilizer path vs dense path, every identity-free word
    specs = []
    for n in range(2, 9):
        specs += [complete_graph(n), chain_graph(n), star_graph(n)]
    specs += [_random_graph(n, rng) for n in (4, 5, 6, 7, 8)]
    equiv_ok = True
    for spec in specs:
        grp = stabilizer_group(spec)
        state = graph_state(spec)
        for idx in all_full_indices(spec.n):
            word = PauliString("".join("XYZ"[i - 1] for i in idx))
            if abs(stabilizer_expectation(grp, word) - expectation(state, word)) > 1e-9:
                equiv_ok = False
        for _ in range(100):
            word = PauliString("".join(rng.choice(letters, size=spec.n)))
            if abs(stabilizer_expectation(grp, word) - expectation(state, word)) > 1e-9:
                equiv_ok = False

    mult_ok = True
    for _ in range(50):
        na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = PureState(na, random_state(na, rng))
        b = PureState(nb, random_state(nb, rng))
        lhs = tensor_norm(full_tensor(kron_states(a, b)))
        rhs = tensor_norm(full_tensor(a)) * tensor_norm(full_tensor(b))
        if abs(lhs - rhs) > 1e-9:
            mult_ok = False

    convex_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = PureState(n, random_state(n, rng))
        b = PureState(n, random_state(n, rng))
        w = float(rng.uniform(0.05, 0.95))
        mixed = tensor_norm(full_tensor(MixedEnsemble(((w, a), (1 - w, b))), zero_tol=0.0))
        if mixed > w * tensor_norm(full_tensor(a)) + (1 - w) * tensor_norm(full_tensor(b)) + 1e-9:
            convex_ok = False

    mono_ok = True
    for n in range(3, 13):
        bounds = [k_sep_bound(n, k).bound for k in range(2, n + 1)]
        if any(lo > hi + 1e-12 for lo, hi in zip(bounds[1:], bounds[:-1])):
            mono_ok = False

    cascade_ok = True
    for n in (4, 6, 9, 12):
        for norm in (1.2, 2.0, 3.5, 6.0, 20.0):
            flagged = False
            for k in range(2, n + 1):
                hit = detect(norm * norm, n, k).verdict == NON_K_SEPARABLE
                if flagged and not hit:
                    cascade_ok = False
                flagged = flagged or hit

    ok = equiv_ok and mult_ok and convex_ok and mono_ok and cascade_ok
    _report(8, "property suites (oracle equivalence, multiplicativity, convexity, "
               "monotonicity, cascade)", ok)
    assert equiv_ok
    assert mult_ok
    assert convex_ok
    assert mono_ok
    assert cascade_ok


def test_criterion_9_ghz_noise_documented_discrepancy():
    worst_form = 0.0
    worst_gap = 0.0
    for n in (2, 4, 6, 8):
        base = ghz_state(n)
        for p in P_GRID_21:
            norm_sq = tensor_norm(full_tensor(untagged(noisy_mixture(base, p)))) ** 2
            even_form = 2 ** (n - 1) * (1 - p) ** 2 + 1
            worst_form = max(worst_form, abs(norm_sq - even_form))
            a = 2 ** (n - 1) + 1
            cg_form = a * (1 - 2 * p) + (a + 1) * p * p
            # divergence from the complete-graph numerator: exactly 2p(1-p)
            worst_gap = max(worst_gap, abs((norm_sq - cg_form) - 2 * p * (1 - p)))
    ok = worst_form <= 1e-9 and worst_gap <= 1e-9
    _report(9, "GHZ-noise squared norm is 2^(n-1)(1-p)^2+1 at even n; "
               "recorded +2p(1-p) offset from the complete-graph form", ok,
            f"max form dev {worst_form:.2e}, max offset dev {worst_gap:.2e}")
    assert ok
