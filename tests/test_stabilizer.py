"""Stabilizer engine against the dense path and the closed-form counts."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsep import (
    GraphSpec,
    PauliString,
    StabilizerGroup,
    cg_nonzero_pattern,
    chain_graph,
    complete_graph,
    expectation,
    full_tensor,
    full_weight_count,
    full_weight_support,
    ghz_group,
    ghz_nonzero_pattern,
    ghz_state,
    graph_state,
    noise_products,
    pack_index,
    stabilizer_group,
)
from graphsep import stabilizer
from graphsep.pauli import packed_keys
from graphsep.graphs import COUNT_LIMIT, PATTERN_LIMIT
from graphsep.stabilizer import all_ones_group
from graphsep.bounds import LimitError, cg_norm_sq, permutation_terms, sqrt_int

from oracle import (
    all_full_indices,
    apply_local_unitaries,
    basis_group,
    combinations_cg_pattern,
    combinations_ghz_pattern,
    dense_expectation,
    dense_full_tensor,
    generator_words,
    gray_code_support,
    key_words,
    permutation_count,
    stabilizer_expectation,
    star_graph,
    untagged,
)


def random_graph(n, rng):
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    return GraphSpec(n, tuple(e for e in pairs if rng.random() < 0.5))


def test_generators_of_reference_graphs():
    assert generator_words(stabilizer_group(complete_graph(3))) == ["+XZZ", "+ZXZ", "+ZZX"]
    assert generator_words(stabilizer_group(chain_graph(3))) == ["+XZI", "+ZXZ", "+IZX"]
    assert generator_words(stabilizer_group(GraphSpec(2, ()))) == ["+XI", "+IX"]


def test_group_validation():
    # X1 and Y1 anticommute
    with pytest.raises(ValueError, match="^generators must pairwise commute$"):
        StabilizerGroup(2, ((0b10, 0b00, 1), (0b10, 0b10, 1)))
    # X1 and Z1 anticommute: a carrier against a Z-only generator
    with pytest.raises(ValueError, match="^generators must pairwise commute$"):
        StabilizerGroup(2, ((0b10, 0b00, 1), (0b00, 0b10, 1)))
    # dependent rows
    with pytest.raises(ValueError, match="^generators must be independent over GF\\(2\\)$"):
        StabilizerGroup(2, ((0b10, 0b00, 1), (0b10, 0b00, 1)))
    # Z1Z2, Z2Z3 and Z1Z3: dependent Z-only rows, the third reduced by both others
    with pytest.raises(ValueError, match="^generators must be independent over GF\\(2\\)$"):
        StabilizerGroup(3, ((0b000, 0b110, 1), (0b000, 0b011, 1), (0b000, 0b101, -1)))
    with pytest.raises(ValueError, match="^generator sign must be \\+-1, got 2$"):
        StabilizerGroup(2, ((0b10, 0b00, 1), (0b01, 0b00, 2)))
    with pytest.raises(ValueError, match="^need exactly 2 generators, got 1$"):
        StabilizerGroup(2, ((0b10, 0b00, 1),))
    with pytest.raises(ValueError, match="^generator mask wider than qubit count$"):
        StabilizerGroup(2, ((0b100, 0b00, 1), (0b01, 0b00, 1)))
    with pytest.raises(ValueError, match="^generator mask wider than qubit count$"):
        StabilizerGroup(2, ((0b10, 0b00, 1), (0b00, 0b101, 1)))


def _recombined_group(group, rng):
    """A group with the element masks of group, from new generators: generator k times a random
    subset of the ones before it, so products put Ys in, then a random sign on each."""
    n = group.n
    combos = [1 << k | int(rng.integers(0, 1 << k)) for k in range(n)]
    gens = [group.product_sign(combo) for combo in combos]
    return StabilizerGroup(n, tuple((x, z, int(s)) for (x, z, _), s in zip(gens, rng.choice((-1, 1), size=n))))


def _assert_member_combo_is_brute_force(group, rng):
    # every combo's masks are the XOR of its generators' masks, no phase rule needed
    members = {}
    for combo in range(1 << group.n):
        x = z = 0
        for k, (gx, gz, _) in enumerate(group.generators):
            if combo >> k & 1:
                x, z = x ^ gx, z ^ gz
        members[x, z] = combo
    assert len(members) == 1 << group.n  # independent: each combo has its own masks
    for (x, z), combo in members.items():
        assert group.member_combo(x, z) == combo, (group, x, z)
    # negative masks too: no member, and no endless reduction
    for x, z in rng.integers(-(1 << group.n), 1 << group.n, size=(64, 2)).tolist():
        if (x, z) not in members:
            assert group.member_combo(x, z) is None, (group, x, z)
    # masks wider than n: z bit n read as x bit 0 would make (x ^ 1, z | 2^n) the member (x, z)
    for x, z in members:
        if x & 1:
            assert group.member_combo(x ^ 1, z | 1 << group.n) is None, (group, x, z)
    for x, z in rng.integers(0, 4 << group.n, size=(64, 2)).tolist():
        if (x | z) >> group.n:
            assert group.member_combo(x, z) is None, (group, x, z)


@pytest.mark.parametrize("n", range(2, 9))
def test_member_combo_matches_brute_force(n):
    rng = np.random.default_rng(6000 + n)
    groups = [basis_group(n, int(b)) for b in rng.integers(0, 1 << n, size=3)]
    groups += [_mixed_diagonal_group(n, rng) for _ in range(3)]
    groups += [_recombined_group(stabilizer_group(random_graph(n, rng)), rng) for _ in range(8)]
    groups += [ghz_group(n), _recombined_group(ghz_group(n), rng)]
    for group in groups:
        _assert_member_combo_is_brute_force(group, rng)
    # the recombined groups carry Ys and minus signs
    gens = [g for group in groups for g in group.generators]
    assert any(x & z for x, z, _ in gens) and any(s == -1 for _, _, s in gens)


def test_product_sign_refuses_a_combo_outside_the_generators():
    group = ghz_group(3)
    assert group.product_sign(0b111) == (0b111, 0b101, -1)  # XXX ZZI IZZ = -YXY, the last combo in range
    for combo in (1 << 3, (1 << 3) + 1, -1):
        with pytest.raises(ValueError, match=f"^combo {combo} is outside \\[0, 2\\^3\\)$"):
            group.product_sign(combo)
        with pytest.raises(ValueError, match=f"^combo {combo} is outside \\[0, 2\\^3\\)$"):
            stabilizer.product_sign(complete_graph(3), combo)


def test_k3_expectations():
    grp = stabilizer_group(complete_graph(3))
    assert stabilizer_expectation(grp, PauliString("XZZ")) == 1
    assert stabilizer_expectation(grp, PauliString("XXX")) == -1
    assert stabilizer_expectation(grp, PauliString("ZZZ")) == 0
    with pytest.raises(ValueError):
        stabilizer_expectation(grp, PauliString("ZZ"))


def test_k3_support_entries():
    sup = full_weight_support(stabilizer_group(complete_graph(3)))
    assert dict(zip(key_words(sup.keys, 3), sup.values.tolist())) == {
        "XZZ": 1,
        "ZXZ": 1,
        "ZZX": 1,
        "XXX": -1,
    }


def test_k2_support_entries():
    sup = full_weight_support(stabilizer_group(complete_graph(2)))
    assert dict(zip(key_words(sup.keys, 2), sup.values.tolist())) == {"XZ": 1, "ZX": 1, "YY": 1}


def test_k6_support_count():
    assert len(full_weight_support(stabilizer_group(complete_graph(6)))) == 33


@pytest.mark.parametrize("n", range(2, 7))
def test_stabilizer_matches_dense_on_reference_graphs(n):
    rng = np.random.default_rng(1000 + n)
    specs = [complete_graph(n), chain_graph(n), star_graph(n), random_graph(n, rng)]
    letters = np.array(list("IXYZ"))
    for spec in specs:
        grp = stabilizer_group(spec)
        state = graph_state(spec)
        for idx in all_full_indices(n):
            ops = "".join("XYZ"[i - 1] for i in idx)
            assert stabilizer_expectation(grp, PauliString(ops)) == pytest.approx(
                expectation(state, PauliString(ops)), abs=1e-9
            )
        for _ in range(30):
            ops = "".join(rng.choice(letters, size=n))
            assert stabilizer_expectation(grp, PauliString(ops)) == pytest.approx(
                expectation(state, PauliString(ops)), abs=1e-9
            )


def test_group_closure_signs_against_dense():
    # products of generator pairs must sit in the group with the right sign
    rng = np.random.default_rng(8)
    for n in (3, 4, 5, 6):
        spec = random_graph(n, rng)
        grp = stabilizer_group(spec)
        state = graph_state(spec)
        for _ in range(10):
            combo = int(rng.integers(1, 1 << n))
            x, z, sign = grp.product_sign(combo)
            letters = []
            for a in range(n):
                bit = 1 << (n - 1 - a)
                letters.append("IZXY"[(2 if x & bit else 0) + (1 if z & bit else 0)])
            ops = "".join(letters)
            assert dense_expectation(state.amplitudes, ops) == pytest.approx(sign, abs=1e-9)


def test_cg_pattern_small_cases():
    assert key_words(cg_nonzero_pattern(3), 3) == ["XZZ", "ZXZ", "ZZX", "XXX"]
    assert key_words(cg_nonzero_pattern(2), 2) == ["XZ", "ZX", "YY"]
    assert cg_nonzero_pattern(4).dtype == np.int64 and len(cg_nonzero_pattern(4)) == 9


@pytest.mark.parametrize("n", range(2, 13))
def test_cg_pattern_equals_support_index_set(n):
    pattern = cg_nonzero_pattern(n)
    support = full_weight_support(stabilizer_group(complete_graph(n)))
    assert sorted(pattern.tolist()) == support.keys.tolist()
    assert pattern.tolist() == combinations_cg_pattern(n)  # the settings listing order


def test_ghz_pattern_small_cases():
    assert key_words(ghz_nonzero_pattern(2), 2) == ["XX", "YY", "ZZ"]
    assert key_words(ghz_nonzero_pattern(3), 3) == ["XXX", "YYX", "YXY", "XYY"]
    assert ghz_nonzero_pattern(4).dtype == np.int64 and len(ghz_nonzero_pattern(4)) == 9


@pytest.mark.parametrize("n", range(2, 15))
def test_ghz_pattern_keeps_the_combinations_order(n):
    assert ghz_nonzero_pattern(n).tolist() == combinations_ghz_pattern(n)


def test_ghz_pattern_refuses_above_the_limit_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match=f"the {PATTERN_LIMIT}-qubit limit"):
            ghz_nonzero_pattern(PATTERN_LIMIT + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the 2^23 masks alone would take 64 MiB


@pytest.mark.parametrize("n", range(2, 7))
def test_ghz_pattern_matches_dense_support(n):
    state = ghz_state(n)
    dense = dense_full_tensor(((1.0, state),), n)
    assert sorted(pack_index(idx) for idx in dense) == sorted(ghz_nonzero_pattern(n).tolist())


@pytest.mark.parametrize("n", range(2, 13))
def test_ghz_group_support_is_ghz_pattern(n):
    support = full_weight_support(ghz_group(n))
    assert support.keys.tolist() == sorted(ghz_nonzero_pattern(n).tolist())
    if n <= 8:
        dense = full_tensor(untagged(ghz_state(n)))
        assert support.keys.tolist() == dense.keys.tolist()
        assert np.allclose(support.values, dense.values, rtol=0, atol=1e-9)


def _assert_matches_gray_code_walker(group):
    support = full_weight_support(group)
    want = gray_code_support(group)
    keys = support.keys.tolist()
    assert keys == sorted(want)  # same key set, ascending
    assert support.values.tolist() == [want[key] for key in keys]


@pytest.mark.parametrize("n", range(2, 17))
def test_support_matches_gray_code_walker_on_random_graphs(n):
    rng = np.random.default_rng(3000 + n)
    _assert_matches_gray_code_walker(stabilizer_group(random_graph(n, rng)))
    if n == 16:
        # more subsets than one chunk holds, so several chunks ran
        assert n > stabilizer._SUBSET_BITS + 1


@pytest.mark.parametrize("n", range(2, 12))
def test_support_matches_gray_code_walker_on_ghz_groups(n):
    _assert_matches_gray_code_walker(ghz_group(n))


def test_support_matches_gray_code_walker_with_negative_signs():
    rng = np.random.default_rng(31)
    # n = 15 and 16 put the last generator in a later chunk than the first
    for n in (*range(2, 11), 15, 16):
        for _ in range(3):
            signs = rng.choice((-1, 1), size=n)
            signs[[0, -1]] = -1
            graph_gens = stabilizer_group(random_graph(n, rng)).generators
            gens = [(x, z, int(s)) for (x, z, _), s in zip(graph_gens, signs)]
            _assert_matches_gray_code_walker(StabilizerGroup(n, gens))


def test_product_sign_reads_a_graph_as_its_group():
    rng = np.random.default_rng(41)
    assert StabilizerGroup.product_sign is stabilizer.product_sign  # one rule, bound as the method
    for n in (2, 3, 7, 15, 16):
        spec = random_graph(n, rng)
        group = stabilizer_group(spec)
        for combo in rng.integers(0, 1 << n, size=64).tolist():
            assert stabilizer.product_sign(spec, combo) == group.product_sign(combo), (spec, combo)


@pytest.mark.parametrize("n", range(2, 17))
def test_full_weight_support_reads_a_graph_as_its_group(n):
    # n = 15 and 16 take more subsets than one chunk of the walk
    spec = random_graph(n, np.random.default_rng(4000 + n))
    mine, want = full_weight_support(spec), full_weight_support(stabilizer_group(spec))
    assert mine.keys.tolist() == want.keys.tolist()
    assert mine.values.tolist() == want.values.tolist()


def test_cg_norm_closed_values():
    assert sqrt_int(cg_norm_sq(5)) == pytest.approx(4.0, abs=1e-12)
    assert sqrt_int(cg_norm_sq(8)) == pytest.approx(math.sqrt(129), abs=1e-12)
    assert sqrt_int(cg_norm_sq(2)) == pytest.approx(math.sqrt(3), abs=1e-12)


def test_permutation_count_values():
    assert permutation_count(3) == 4
    assert permutation_count(10) == 513
    assert permutation_count(21) == 1_048_576
    assert permutation_terms(10) == [(1, 10), (3, 120), (5, 252), (7, 120), (9, 10)]


@pytest.mark.parametrize("n", range(2, 41))
def test_permutation_count_closed_form(n):
    assert permutation_count(n) == 2 ** (n - 1) + (1 if n % 2 == 0 else 0)


@pytest.mark.parametrize("n", range(2, 11))
def test_support_count_identity(n):
    assert len(full_weight_support(stabilizer_group(complete_graph(n)))) == permutation_count(n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 14), st.randoms(use_true_random=False))
def test_count_equals_support_length_on_random_graphs(n, rnd):
    group = stabilizer_group(random_graph(n, rnd))
    assert full_weight_count(group) == len(full_weight_support(group))


@pytest.mark.parametrize("n", [*range(2, 19), 21, 22])
def test_count_equals_support_length_across_chunks(n):
    # above n = 14 the count takes several chunks, and the high generators flip whole slices
    rng = np.random.default_rng(4000 + n)
    graphs = [stabilizer_group(spec) for spec in (random_graph(n, rng), chain_graph(n), complete_graph(n))]
    twins = [_hadamard_twin(group, int(rng.integers(1, 1 << n))) for group in graphs]
    for group in (*graphs, *twins, ghz_group(n)):
        assert not group.diagonal
        count = full_weight_count(group)
        assert count == len(full_weight_support(group))  # the walk, with its phase check
        if n <= 16:
            assert count == len(gray_code_support(group))
    # local Cliffords keep weights; the complete graph and GHZ have the closed form
    assert [full_weight_count(group) for group in twins] == [full_weight_count(group) for group in graphs]
    assert full_weight_count(graphs[2]) == full_weight_count(ghz_group(n)) == cg_norm_sq(n)


def _mixed_diagonal_group(n, rng):
    """Random independent Z-only generators (products of single-qubit Z) with random signs."""
    while True:
        masks = [int(m) for m in rng.integers(1, 1 << n, size=n)]
        try:
            return StabilizerGroup(n, tuple((0, m, int(s)) for m, s in zip(masks, rng.choice((-1, 1), size=n))))
        except ValueError:  # dependent masks: draw again
            continue


def _assert_shortcut_matches_walk(group):
    assert group.diagonal
    ((x, z, signs),) = stabilizer._walk(group)  # n <= 14: a single chunk
    support = full_weight_support(group)
    assert support.keys.tolist() == packed_keys(x, z, group.n).tolist() == [3 ** group.n - 1]
    assert support.values.tolist() == signs.tolist()
    assert full_weight_count(group) == 1
    return support.values[0]


@pytest.mark.parametrize("n", range(1, 11))
def test_diagonal_shortcut_matches_walk_on_basis_states(n):
    for b in range(1 << n):
        assert _assert_shortcut_matches_walk(basis_group(n, b)) == (-1) ** b.bit_count()
    rng = np.random.default_rng(500 + n)
    for _ in range(5):
        _assert_shortcut_matches_walk(_mixed_diagonal_group(n, rng))


def test_all_ones_support_needs_no_walk(monkeypatch):
    monkeypatch.setattr(stabilizer, "_walk", None)  # any walk would now raise TypeError
    start = time.perf_counter()
    support = full_weight_support(all_ones_group(30))
    assert time.perf_counter() - start < 0.5
    assert key_words(support.keys, 30) == ["Z" * 30]
    assert support.values.tolist() == [(-1.0) ** 30]
    assert full_weight_count(all_ones_group(30)) == 1


def test_walk_and_pattern_refuse_above_their_limits():
    want = f"^stabilizer count over 2\\^{COUNT_LIMIT + 1} generator subsets exceeds the {COUNT_LIMIT}-qubit limit$"
    with pytest.raises(LimitError, match=want) as caught:
        full_weight_count(stabilizer_group(complete_graph(COUNT_LIMIT + 1)))
    assert isinstance(caught.value, RuntimeError)  # a library caller catching RuntimeError still does
    for n in (PATTERN_LIMIT + 1, COUNT_LIMIT + 1):
        with pytest.raises(LimitError, match=f"the {PATTERN_LIMIT}-qubit limit"):
            full_weight_support(stabilizer_group(complete_graph(n)))
    with pytest.raises(LimitError, match=f"the {PATTERN_LIMIT}-qubit limit"):
        cg_nonzero_pattern(PATTERN_LIMIT + 1)


HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def _hadamard_twin(spec, mask):
    """The group of spec's graph state after H on the qubits of mask: their
    x and z bits swap, and each Y on them flips the generator's sign (HYH = -Y).
    The generators are the graph's, each after the first times the one before,
    which span the same group and put Ys on adjacent vertices."""
    group = stabilizer_group(spec)
    gens = [group.generators[0], *(group.product_sign(3 << k) for k in range(spec.n - 1))]
    twin = [
        ((x & ~mask) | (z & mask), (z & ~mask) | (x & mask), s * (-1) ** (x & z & mask).bit_count())
        for x, z, s in gens
    ]
    return StabilizerGroup(spec.n, twin)


def _check_products(n, group, amps):
    # C against the dense <Z^n>, B against the Gray-code walk: no membership solve
    zn = dense_expectation(amps, "Z" * n)
    assert abs(zn - round(zn)) < 1e-9
    b, c, o, d = noise_products(n, group)
    assert (b, c, o, d) == (len(gray_code_support(group)), (-1) ** n * round(zn), 1, 1)
    assert group.zn_sign == round(zn)
    return c


def test_zn_sign_and_count_on_groups_that_are_not_graphs():
    rng = np.random.default_rng(25)
    seen = set()
    for n in range(2, 9):
        specs = [GraphSpec(n, ()), complete_graph(n), chain_graph(n), *(random_graph(n, rng) for _ in range(6))]
        for spec in specs:
            for mask in {0, (1 << n) - 1, (1 << n) - 2, *(int(m) for m in rng.integers(0, 1 << n, 3))}:
                group = _hadamard_twin(spec, mask)
                unitaries = [HADAMARD if mask >> (n - a) & 1 else np.eye(2) for a in range(1, n + 1)]
                amps = apply_local_unitaries(graph_state(spec).amplitudes, unitaries)
                seen.add(_check_products(n, group, amps))
        _check_products(n, ghz_group(n), ghz_state(n).amplitudes)
        for b in (0, 1, (1 << n) - 1, int(rng.integers(0, 1 << n))):
            amps = np.zeros(1 << n, dtype=complex)
            amps[b] = 1
            seen.add(_check_products(n, basis_group(n, b), amps))
    assert seen == {-1, 0, 1}
    # a diagonal group is never counted, so its size is no limit
    assert noise_products(40, all_ones_group(40)) == (1, 1, 1, 1)
