"""State constructors: amplitudes, noise mixtures, norm invariances."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from graphsep import (
    CorrelationTensor,
    GraphSpec,
    PauliString,
    PureState,
    chain_graph,
    cluster_state,
    complete_graph,
    full_tensor,
    ghz_state,
    graph_state,
    k_sep_bound,
    noisy_mixture,
    stabilizer_group,
    tensor_norm,
    w_state,
    xi_noise,
)
from graphsep.statefile import loads_state
from graphsep.states import all_ones_state

from oracle import apply_local_unitaries, is_all_ones, permute_qubits, random_unitary, star_graph, untagged


def test_g3_amplitudes_explicit():
    g3 = graph_state(complete_graph(3))
    want = np.array([1, 1, 1, -1, 1, -1, -1, -1], dtype=complex) / math.sqrt(8)
    assert np.allclose(g3.amplitudes, want, atol=1e-12)


def test_complete_graph_two_qubits():
    g2 = graph_state(complete_graph(2))
    want = np.array([1, 1, 1, -1], dtype=complex) / 2
    assert np.allclose(g2.amplitudes, want, atol=1e-12)


def test_edgeless_graph_is_plus_product():
    state = graph_state(GraphSpec(2, ()))
    assert np.allclose(state.amplitudes, np.full(4, 0.5), atol=1e-12)


def test_graph_state_amplitude_modulus():
    rng = np.random.default_rng(31)
    for n in (3, 4, 5, 6):
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        keep = [e for e in pairs if rng.random() < 0.5]
        state = graph_state(GraphSpec(n, tuple(keep)))
        assert np.allclose(np.abs(state.amplitudes), 2.0 ** (-n / 2), atol=1e-12)


def test_graph_spec_validation():
    with pytest.raises(ValueError):
        GraphSpec(3, ((1, 1),))
    with pytest.raises(ValueError):
        GraphSpec(3, ((1, 4),))
    with pytest.raises(ValueError):
        GraphSpec(3, ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        GraphSpec(1, ())


def test_graph_spec_keeps_sorted_edges_and_builds_masks_on_first_read():
    huge = GraphSpec(10 ** 20, [(2, 1), (1, 3)])
    assert huge.edges == ((1, 2), (1, 3)) and "masks" not in vars(huge)
    spec = GraphSpec(3, [(3, 2), (2, 1)])
    assert spec == GraphSpec(3, [(1, 2), (2, 3)]) and hash(spec) == hash(GraphSpec(3, [(1, 2), (2, 3)]))
    assert spec.masks == (0b010, 0b101, 0b010)
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
        GraphSpec(3, ((1, 2), (2, 1)))


@pytest.mark.parametrize("edge", [(1, 2.5), (1.0, 2), (1, "2"), (None, 2), (True, 2), (1, False)])
def test_graph_spec_refuses_a_non_integer_vertex_at_construction(edge):
    # the vertex would otherwise fail only when masks is first read; a bool is an int
    # subclass, but (True, 2) is no edge (1, 2)
    with pytest.raises(ValueError, match=rf"^edge {re.escape(repr(edge))} has a non-integer vertex$"):
        GraphSpec(3, [(2, 3), edge])


@pytest.mark.parametrize("edge", [5, (1, 2, 3), (1,), None])
def test_graph_spec_refuses_an_edge_that_is_not_a_pair(edge):
    with pytest.raises(ValueError, match=rf"^edge {re.escape(repr(edge))} is not a pair of vertices$"):
        GraphSpec(3, [(2, 3), edge])


def test_graph_spec_keeps_integer_vertices_as_python_ints():
    spec = GraphSpec(3, [(np.int64(3), np.int32(1)), (np.uint8(1), 2)])
    assert spec.edges == ((1, 2), (1, 3)) and spec == GraphSpec(3, [(1, 2), (1, 3)])
    assert {type(v) for edge in spec.edges for v in edge} == {int}
    assert spec.masks == (0b011, 0b100, 0b100)


def test_plain_classes_keep_their_repr_equality_and_hash():
    # no class is a dataclass any more: each keeps the repr, equality and
    # hash it had as one, and the result records are named tuples
    spec = GraphSpec(3, [(2, 3), (1, 2)])
    assert repr(spec) == "GraphSpec(n=3, edges=((1, 2), (2, 3)))" and spec != GraphSpec(4, [(1, 2), (2, 3)])
    assert spec != ((1, 2), (2, 3)) and {spec, GraphSpec(3, [(1, 2), (2, 3)])} == {spec}
    assert PauliString("XZ") == PauliString("XZ") != PauliString("ZX")
    assert hash(PauliString("XZ")) == hash(PauliString("XZ")) and repr(PauliString("XZ")) == "PauliString(ops='XZ')"
    # a loaded file compares by identity, so files that differ only in their
    # source differ, and it prints by its provenance
    first, second = loads_state('{"family": "cg", "n": 3, "p": 0.5}'), loads_state('{"family": "cg", "n": 3, "p": 0.5}')
    raw = '{"n": 1, "amplitudes": [[%s, 0], [%s, 0]]}'
    graph = '{"family": "graph", "n": 3, "edges": %s}'
    assert first == first != second and len({first, second}) == 2 and first != loads_state('{"family": "ghz", "n": 3}')
    assert loads_state(raw % (1, 0)) != loads_state(raw % (0, 1))
    assert loads_state(graph % "[[1, 2]]") != loads_state(graph % "[[2, 3], [1, 3]]")
    assert repr(first) == repr(second) == "LoadedState(n=3, family='cg', p=0.5)"
    # groups, states, ensembles and tensors compare by identity
    group = stabilizer_group(spec)
    assert group == group != stabilizer_group(spec)
    assert repr(group) == f"StabilizerGroup(n=3, generators={group.generators!r})"
    state = ghz_state(3)
    assert state == state != ghz_state(3) and repr(state) == "PureState(n=3)"
    ensemble = noisy_mixture(state, 0.5)
    assert ensemble != noisy_mixture(state, 0.5)
    assert repr(ensemble) == "MixedEnsemble(terms=((0.5, PureState(n=3)), (0.5, PureState(n=3))))"
    tensor = CorrelationTensor(2, [0, 4], [0.5, -1.0])
    assert tensor != CorrelationTensor(2, [0, 4], [0.5, -1.0])
    assert repr(tensor) == "CorrelationTensor(n=2, keys=array([0, 4]), values=array([ 0.5, -1. ]))"
    bound = k_sep_bound(6, 2)
    assert bound == (6, 2, (2, 4), math.sqrt(27), 27) and bound._replace(k=3).k == 3
    assert repr(bound) == f"PartitionBound(n=6, k=2, parts=(2, 4), bound={math.sqrt(27)!r}, bound_sq=27)"
    assert xi_noise(6, 2, 0.0).verdict == xi_noise(6, 2, 0.0)[-1] == "NonKSeparable"


def test_graph_builders():
    assert len(complete_graph(8).edges) == 28
    assert chain_graph(5).edges == ((1, 2), (2, 3), (3, 4), (4, 5))
    assert star_graph(4).edges == ((1, 2), (1, 3), (1, 4))


def test_ghz_state_amplitudes():
    for n in (2, 3, 6):
        state = ghz_state(n)
        nz = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
        assert list(nz) == [0, (1 << n) - 1]
        assert np.allclose(state.amplitudes[nz], 1 / math.sqrt(2), atol=1e-12)
    with pytest.raises(ValueError, match=r"^GHZ group needs n >= 2$"):  # ghz_group checks the size
        ghz_state(1)


def test_w_state_amplitudes():
    for n in (2, 3, 5):
        state = w_state(n)
        nz = sorted(np.flatnonzero(np.abs(state.amplitudes) > 1e-12))
        assert nz == [1 << a for a in range(n)]
        assert np.allclose(state.amplitudes[nz], 1 / math.sqrt(n), atol=1e-12)
    with pytest.raises(ValueError):
        w_state(1)


def test_cluster_state_is_chain_graph_state():
    state = cluster_state(4)
    assert state.stabilizer.generators == stabilizer_group(chain_graph(4)).generators
    assert np.allclose(np.abs(state.amplitudes), 0.25, atol=1e-12)
    with pytest.raises(ValueError, match="^graph needs at least 2 vertices$"):  # GraphSpec checks the size
        cluster_state(1)


def product_form_cluster(n: int) -> PureState:
    # 2^(-n/2) prod_a (|0>_a Z_(a+1) + |1>_a): amplitude sign is
    # (-1)^(sum over a of (1 - b_a) b_(a+1))
    amps = np.empty(1 << n, dtype=complex)
    for b in range(1 << n):
        bits = [(b >> (n - 1 - a)) & 1 for a in range(n)]
        exponent = sum((1 - bits[a]) * bits[a + 1] for a in range(n - 1))
        amps[b] = (-1.0) ** exponent * 2.0 ** (-n / 2)
    return PureState(n, amps)


def test_cluster_norm_matches_product_form_definition():
    # the chain-graph realization differs from the product form only by
    # single-qubit Z's, so their tensor norms must coincide
    for n in (2, 3, 4, 5):
        chain_norm = tensor_norm(full_tensor(untagged(cluster_state(n))))
        product_norm = tensor_norm(full_tensor(product_form_cluster(n)))
        assert chain_norm == pytest.approx(product_norm, abs=1e-9)


def test_noisy_mixture_terms():
    base = graph_state(complete_graph(3))
    ens = noisy_mixture(base, 0.2)
    assert len(ens.terms) == 2
    (w0, s0), (w1, s1) = ens.terms
    assert (w0, w1) == (0.8, 0.2)
    assert s0 is base
    assert is_all_ones(s1)


def test_noisy_mixture_endpoints_degenerate():
    base = graph_state(complete_graph(3))
    at_zero = noisy_mixture(base, 0.0)
    assert len(at_zero.terms) == 1 and at_zero.terms[0][1] is base
    at_one = noisy_mixture(base, 1.0)
    assert len(at_one.terms) == 1 and is_all_ones(at_one.terms[0][1])
    with pytest.raises(ValueError):
        noisy_mixture(base, 1.5)
    with pytest.raises(ValueError):
        noisy_mixture(base, -0.1)


def test_all_ones_state():
    state = all_ones_state(3)
    assert state.amplitudes[-1] == 1.0
    assert is_all_ones(state)
    assert not is_all_ones(ghz_state(2))


def test_norm_invariant_under_local_unitaries():
    rng = np.random.default_rng(97)
    for build in (lambda: graph_state(complete_graph(4)), lambda: w_state(4), lambda: ghz_state(3)):
        state = build()
        base_norm = tensor_norm(full_tensor(untagged(state)))
        rotated_amps = apply_local_unitaries(
            state.amplitudes, [random_unitary(rng) for _ in range(state.n)]
        )
        rotated = PureState(state.n, rotated_amps)
        assert tensor_norm(full_tensor(rotated)) == pytest.approx(
            base_norm, abs=1e-9
        )


def test_w_norm_invariant_under_relabeling():
    rng = np.random.default_rng(3)
    state = w_state(5)
    base = tensor_norm(full_tensor(state))
    perm = list(rng.permutation(5))
    shuffled = PureState(5, permute_qubits(state.amplitudes, perm))
    assert tensor_norm(full_tensor(shuffled)) == pytest.approx(base, abs=1e-12)


def test_tagged_states_defer_their_amplitudes():
    tracemalloc.start()
    try:
        states = [graph_state(complete_graph(24)), ghz_state(24), cluster_state(24), all_ones_state(24)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 2^24 amplitudes would take 256 MiB each
    assert all(state.stabilizer is not None for state in states)
    small = ghz_state(3)
    amps = small.amplitudes
    assert amps is small.amplitudes and not amps.flags.writeable
