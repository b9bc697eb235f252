"""Graphs and their full-weight count: local complementation, the group-free
noise products of a graph, and its refusals."""

import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsep import (
    GraphSpec,
    LimitError,
    StabilizerGroup,
    chain_graph,
    cluster_state,
    complete_graph,
    full_tensor,
    full_weight_count,
    full_weight_support,
    ghz_group,
    graph_state,
    graphs,
    noise_products,
    stabilizer,
    stabilizer_group,
    threshold_p,
    xi_noise,
)
from graphsep.cli import main
from graphsep.stabilizer import all_ones_group

from oracle import FAMILY_STATES, gray_code_support


def random_graph(n, rng, share=0.5):
    return GraphSpec(n, [pair for pair in combinations(range(1, n + 1), 2) if rng.random() < share])


def local_complement(spec, v):
    """spec with the edges among the neighbours of v complemented."""
    around = sorted({b for a, b in spec.edges if a == v} | {a for a, b in spec.edges if b == v})
    return GraphSpec(spec.n, set(spec.edges) ^ set(combinations(around, 2)))


def test_local_complement_of_a_star_is_complete():
    star = GraphSpec(4, [(1, 2), (1, 3), (1, 4)])
    assert local_complement(star, 1) == complete_graph(4)
    assert local_complement(local_complement(star, 1), 1) == star
    assert local_complement(star, 2) == star  # a leaf has one neighbour: no pair to flip


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 12), st.sampled_from((0.2, 0.5, 0.8)), st.randoms(use_true_random=False))
def test_local_complementation_keeps_the_count(n, share, rnd):
    # local complementation is a local Clifford on the graph state, and local
    # Cliffords keep the weight of every Pauli word (Hein et al., quant-ph/0602096)
    spec = random_graph(n, rnd, share)
    count = full_weight_count(spec)
    assert count == len(gray_code_support(stabilizer_group(spec)))
    for v in range(1, n + 1):
        assert full_weight_count(local_complement(spec, v)) == count


def test_generators_are_those_of_the_group():
    spec = GraphSpec(4, [(1, 2), (2, 3), (1, 4)])
    assert spec.generators == ((0b1000, 0b0101, 1), (0b0100, 0b1010, 1), (0b0010, 0b0100, 1), (0b0001, 0b1000, 1))
    assert stabilizer_group(spec).generators == spec.generators
    assert not spec.diagonal


def test_one_count_and_one_pattern_order():
    # the count lives in graphs alone, and stabilizer reads the pattern order back from it
    assert graphs.full_weight_count is full_weight_count
    assert "full_weight_count" not in vars(stabilizer)
    assert stabilizer.pattern_halves is graphs.pattern_halves
    assert stabilizer.PATTERN_LIMIT == graphs.PATTERN_LIMIT


def _named_and_random_graphs(n_max, seed):
    rng = random.Random(seed)
    for n in range(2, n_max + 1):
        yield from (GraphSpec(n, ()), complete_graph(n), chain_graph(n))
        yield from (random_graph(n, rng, share) for share in (0.2, 0.5, 0.8))


def test_graph_products_equal_the_groups():
    for spec in _named_and_random_graphs(16, 16):
        assert noise_products(spec.n, spec) == noise_products(spec.n, stabilizer_group(spec))
    assert noise_products(5, GraphSpec(5, ())) == (1, 0, 1, 1)  # |+>^5: X^5 alone


def test_graph_files_are_decided_with_no_group(capsys, tmp_path, monkeypatch):
    specs = [chain_graph(26), random_graph(20, random.Random(20), 0.3), GraphSpec(9, ()), complete_graph(12)]
    # what the group gives, worked out before groups are stopped
    want = {(i, p): xi_noise(spec.n, 2, p, stabilizer_group(spec)) for i, spec in enumerate(specs) for p in (0.0, 0.1)}
    thresholds = [threshold_p(spec.n, 2, stabilizer_group(spec)) for spec in specs]

    def fail(*args, **kwargs):
        raise AssertionError("a StabilizerGroup was built")

    monkeypatch.setattr(StabilizerGroup, "__init__", fail)
    path = tmp_path / "graph.json"
    for i, spec in enumerate(specs):
        assert threshold_p(spec.n, 2, spec) == thresholds[i]
        for p in (0.0, 0.1):
            assert xi_noise(spec.n, 2, p, spec) == want[i, p]
            path.write_text(json.dumps({"family": "graph", "n": spec.n, "edges": spec.edges, "p": p}))
            assert main(["detect", "--state-file", str(path), "--k", "2"]) == 0
            out = capsys.readouterr().out
            assert out.endswith(f"verdict={want[i, p].verdict}\n")
    with pytest.raises(AssertionError):  # and the patch does stop a group
        stabilizer_group(chain_graph(3))


def test_graph_states_build_no_group(monkeypatch):
    specs = [complete_graph(6), chain_graph(7), random_graph(8, random.Random(8)), GraphSpec(4, ())]
    # what the groups give, worked out before groups are stopped
    want = {spec: (full_weight_support(stabilizer_group(spec)), noise_products(spec.n, stabilizer_group(spec)))
            for spec in specs}

    def fail(*args, **kwargs):
        raise AssertionError("a StabilizerGroup was built")

    monkeypatch.setattr(StabilizerGroup, "__init__", fail)
    built = [graph_state(spec) for spec in specs]
    assert all(state.stabilizer is spec for state, spec in zip(built, specs))  # tagged with the graph itself
    built += [cluster_state(7), FAMILY_STATES["cg"](6), FAMILY_STATES["cluster"](7)]
    for state in built:
        support, products = want[state.stabilizer]  # a KeyError unless the tag equals the graph
        t = full_tensor(state)
        assert (t.keys.tolist(), t.values.tolist()) == (support.keys.tolist(), support.values.tolist())
        assert noise_products(state.n, state.stabilizer) == products
    with pytest.raises(AssertionError):  # and the patch does stop a group
        stabilizer_group(chain_graph(3))


def test_graph_refusals_keep_their_order():
    over = chain_graph(27)
    count = re.escape("stabilizer count over 2^27 generator subsets exceeds the 26-qubit limit")
    # the source's n first, then a graph's count limit, then the bound's k, in xi_noise and threshold_p alike
    for refuse in (lambda n, k, source: xi_noise(n, k, 0.1, source), threshold_p):
        with pytest.raises(ValueError, match="^source has 27 qubits, not 28$"):
            refuse(28, 1, over)
        with pytest.raises(LimitError, match=f"^{count}$"):
            refuse(27, 1, over)
        with pytest.raises(ValueError, match="need 2 <= k <= n"):
            refuse(26, 1, chain_graph(26))
        # a group is checked as a graph is: a non-diagonal one over the limit too
        with pytest.raises(LimitError, match=f"^{count}$"):
            refuse(27, 1, ghz_group(27))
        with pytest.raises(ValueError, match="need 2 <= k <= n"):  # a diagonal group is never counted
            refuse(40, 1, all_ones_group(40))
    with pytest.raises(LimitError, match=f"^{count}$"):
        noise_products(27, over)
    # at p = 1 the state is |1...1>: the source's n is checked, its count is neither limited nor built
    assert xi_noise(27, 2, 1.0, over).numerator == 1.0
    for p in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match="^source has 6 qubits, not 5$"):
            xi_noise(5, 2, p, complete_graph(6))
    # no family has fewer than 2 qubits (n = 0 was a negative shift, n = -3 gave W (-19, -3, -3, -3))
    for n, family in ((0, "cg"), (1, "w"), (-3, "w")):
        with pytest.raises(ValueError, match=f"^family '{family}' needs at least 2 qubits, got n={n}$"):
            noise_products(n, family)


def _refusal(call) -> tuple:
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


_COUNT_27 = "stabilizer count over 2^27 generator subsets exceeds the 26-qubit limit"
_COUNT_2050 = "stabilizer count over 2^2050 generator subsets exceeds the 26-qubit limit"
_UNKNOWN = (ValueError, "unknown family 'bogus'; expected one of ('cg', 'ghz', 'w', 'cluster')")

# (n, k, source, the refusal below p = 1, the refusal at p = 1 when the count limit was it)
_BAD_INPUTS = {
    "unknown-name": (5, 2, lambda: "bogus", _UNKNOWN),
    "unknown-name-bad-k": (5, 1, lambda: "bogus", _UNKNOWN),
    "name-n1": (1, 2, lambda: "cg", (ValueError, "family 'cg' needs at least 2 qubits, got n=1")),
    "name-n0-bad-k": (0, 5, lambda: "w", (ValueError, "family 'w' needs at least 2 qubits, got n=0")),
    "graph-other-n": (5, 1, lambda: complete_graph(6), (ValueError, "source has 6 qubits, not 5")),
    "group-other-n": (5, 2, lambda: ghz_group(4), (ValueError, "source has 4 qubits, not 5")),
    "graph-over-count": (27, 1, lambda: chain_graph(27), (LimitError, _COUNT_27),
                         (ValueError, "need 2 <= k <= n, got k=1, n=27")),
    "group-over-count": (27, 28, lambda: ghz_group(27), (LimitError, _COUNT_27),
                         (ValueError, "need 2 <= k <= n, got k=28, n=27")),
    "diagonal-group": (40, 1, lambda: all_ones_group(40), (ValueError, "need 2 <= k <= n, got k=1, n=40")),
    "name-bad-k": (5, 6, lambda: "cg", (ValueError, "need 2 <= k <= n, got k=6, n=5")),
    "graph-bad-k": (5, 1, lambda: chain_graph(5), (ValueError, "need 2 <= k <= n, got k=1, n=5")),
    "group-bad-k": (3, 4, lambda: stabilizer_group(complete_graph(3)), (ValueError, "need 2 <= k <= n, got k=4, n=3")),
    "name-past-float-range": (2050, 2, lambda: "cluster", (OverflowError, "math range error")),
    "graph-past-float-range": (2050, 2, lambda: chain_graph(2050), (LimitError, _COUNT_2050),
                               (OverflowError, "math range error")),
}


@pytest.mark.parametrize("case", _BAD_INPUTS)
def test_xi_noise_and_threshold_p_refuse_alike(case):
    # one order for both: the source (name and n, or n and count limit), then k, then the products
    n, k, source, want, *at_p1 = _BAD_INPUTS[case]
    source = source()
    assert _refusal(lambda: threshold_p(n, k, source)) == want
    assert _refusal(lambda: xi_noise(n, k, 0.5, source)) == want
    # at p = 1 the state is |1...1>, whose products need no count: the next check refuses
    assert _refusal(lambda: xi_noise(n, k, 1.0, source)) == (at_p1[0] if at_p1 else want)


def test_count_refuses_a_huge_graph_before_its_generators():
    spec = GraphSpec(10 ** 20, [(1, 2)])
    with pytest.raises(LimitError, match=r"^stabilizer count over 2\^100000000000000000000 generator"):
        full_weight_count(spec)
    assert "masks" not in vars(spec) and "generators" not in vars(spec)


@pytest.mark.parametrize(
    "edge, message",
    [
        ((10 ** 5000, 2), "edge (<16610-bit int>, 2) outside 1..3"),
        ((2, 2 ** 4096), "edge (2, <4097-bit int>) outside 1..3"),
        ((2 ** 4095, 1), f"edge ({str(2 ** 4095)[:18]}...{str(2 ** 4095)[-19:]}, 1) outside 1..3"),
        ((10 ** 5000, 10 ** 5000), "self-loop at vertex <16610-bit int>"),
        (("x", 10 ** 5000), "edge ('x', <16610-bit int>) has a non-integer vertex"),
        ((1, 2, 10 ** 5000), "edge (1, 2, <16610-bit int>) is not a pair of vertices"),
    ],
)
def test_graph_spec_names_a_huge_vertex_by_its_size(edge, message):
    # repr of an int past Python's 4,300-digit int-to-str limit would raise that limit's
    # error in place of the edge's message; up to 4096 bits reprlib shortens the digits
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GraphSpec(3, [edge])
