"""Graphs, and constructors for graph, GHZ, W and cluster states plus colored-noise mixtures.

GraphSpec is a simple graph on vertices 1..n, kept as its sorted edge
pairs, with one neighbour bitmask per vertex built when first read;
complete_graph and chain_graph build the two named ones.  Graph states
are built by applying a controlled-Z along every edge of a graph to
|+>^n: the sign of basis state b flips once per edge with both ends set
in b, and that parity is built one vertex at a time.  The cluster state is realized as the linear-chain graph
state, which is local-unitary equivalent to the usual product-form
definition and therefore has the same correlation-tensor norm.

Graph, cluster, GHZ and |1...1> states are stabilizer states.  Their
constructors tag the result with its StabilizerGroup (PureState.stabilizer),
which sends full_tensor down the stabilizer path and lets detect read the
exact noise quadratic (separability.noise_products); W states and raw
amplitudes carry no tag.  Every constructor defers its amplitudes
(PureState.deferred): a call costs at most the O(n^2) group, and the
2^n amplitudes are built only if something reads them (the dense path,
expectation, write_amplitude_file).  separability.FAMILIES names the
constructor of each named family.
"""

from __future__ import annotations

import math
import reprlib
from functools import cached_property, partial
from itertools import pairwise
from operator import index

# lazy modules (graphsep/__init__.py), run only when a state or a group is built
from . import pauli, stabilizer


class GraphSpec:
    """Simple undirected graph on vertices 1..n (no loops, no multi-edges).

    Built from any iterable of (a, b) edges whose vertices are of any int
    type (operator.index; a non-pair edge or any other vertex is refused
    here with ValueError), and kept as the sorted pairs (a, b) of Python
    ints, a < b, checked in O(|E| log |E|) time and O(|E|) memory (a
    duplicate is found next to its twin once sorted): nothing of size n
    is built, so a graph file with a huge n and few edges is refused by
    the count's qubit limit, not by memory.
    Two specs are equal, and hash alike, when their (n, edges) are.
    masks, one neighbour bitmask per vertex (qubit 1 at the top bit), is
    built on first read.
    """

    def __init__(self, n: int, edges):
        if n < 2:
            raise ValueError("graph needs at least 2 vertices")
        pairs = []
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError):  # not iterable, or not two items
                raise ValueError(f"edge {reprlib.repr(edge)} is not a pair of vertices") from None
            try:
                a, b = index(a), index(b)
            except TypeError:
                raise ValueError(f"edge {reprlib.repr(edge)} has a non-integer vertex") from None
            if a == b:
                raise ValueError(f"self-loop at vertex {reprlib.repr(a)}")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge {reprlib.repr(edge)} outside 1..{n}")
            pairs.append((a, b) if a < b else (b, a))
        pairs.sort()  # linear when the edges come in order, as from complete_graph
        for pair, following in pairwise(pairs):
            if pair == following:
                raise ValueError(f"duplicate edge {pair}")
        self.n = n
        self.edges = tuple(pairs)  # the edges (a, b), a < b, in ascending order

    def __repr__(self) -> str:
        return f"GraphSpec(n={self.n!r}, edges={self.edges!r})"

    def __eq__(self, other):
        return (self.n, self.edges) == (other.n, other.edges) if type(other) is GraphSpec else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    @cached_property
    def masks(self) -> tuple:
        """One neighbour bitmask per vertex, vertex 1 first; vertex b is bit n - b."""
        n, masks = self.n, [0] * self.n
        for a, b in self.edges:
            masks[a - 1] |= 1 << (n - b)
            masks[b - 1] |= 1 << (n - a)
        return tuple(masks)


def complete_graph(n: int) -> GraphSpec:
    """All n(n-1)/2 edges between n vertices."""
    return GraphSpec(n, ((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)))


def chain_graph(n: int) -> GraphSpec:
    """Linear chain 1-2-...-n."""
    return GraphSpec(n, ((a, a + 1) for a in range(1, n)))


def _graph_amplitudes(spec: GraphSpec):
    """The 2^n amplitudes of graph_state(spec).

    The sign parity of b is the sum over vertices a of bit_a(b) times
    popcount(b & later(a)), later(a) being a's neighbours after a.  Taking
    the vertices from n down to 1, the parity table over qubits a..n is
    the table over qubits a+1..n (bit a clear), followed by that table
    XOR the popcount term (bit a set): one step per vertex, not per edge.
    The table index holds qubits a+1..n only, so masking it with all of
    a's neighbours keeps just the later ones.
    """
    np = pauli.require_numpy()

    n = spec.n
    flips = np.zeros(1, dtype=np.uint8)
    for a in range(n, 0, -1):
        rest = np.arange(flips.size, dtype=np.int64)
        flips = np.concatenate([flips, flips ^ (np.bitwise_count(rest & spec.masks[a - 1]) & 1)])
    return ((1.0 - 2.0 * flips) * 2.0 ** (-n / 2.0)).astype(np.complex128)


def _basis_amplitudes(n: int, weights: dict):
    np = pauli.require_numpy()

    amps = np.zeros(1 << n, dtype=np.complex128)
    for index, value in weights.items():
        amps[index] = value
    return amps


def graph_state(spec: GraphSpec) -> pauli.PureState:
    """CZ-along-every-edge applied to |+>^n; all amplitudes are +-2^(-n/2)."""
    return pauli.PureState.deferred(spec.n, partial(_graph_amplitudes, spec), stabilizer.stabilizer_group(spec))


def ghz_state(n: int) -> pauli.PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError("GHZ state needs n >= 2")
    half = 1.0 / math.sqrt(2.0)
    return pauli.PureState.deferred(n, partial(_basis_amplitudes, n, {0: half, -1: half}), stabilizer.ghz_group(n))


def w_state(n: int) -> pauli.PureState:
    """Equal superposition of the n single-excitation basis states; untagged."""
    if n < 2:
        raise ValueError("W state needs n >= 2")
    weights = {1 << a: 1.0 / math.sqrt(n) for a in range(n)}
    return pauli.PureState.deferred(n, partial(_basis_amplitudes, n, weights), None)


def cluster_state(n: int) -> pauli.PureState:
    """Linear cluster state, constructed as the chain graph state."""
    if n < 2:
        raise ValueError("cluster state needs n >= 2")
    return graph_state(chain_graph(n))


def all_ones_state(n: int) -> pauli.PureState:
    """The product state |1>^n."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return pauli.PureState.deferred(n, partial(_basis_amplitudes, n, {-1: 1.0}), stabilizer.all_ones_group(n))


def noisy_mixture(base: pauli.PureState, p: float) -> pauli.MixedEnsemble:
    """Mix a base state with the colored product noise |1><1|^n at weight p.

    Returns {(1-p, base), (p, |1...1>)}; the p = 0 and p = 1 endpoints
    collapse to the corresponding single-term ensemble.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability must be in [0, 1], got {p}")
    if p == 0.0:
        return pauli.MixedEnsemble(((1.0, base),))
    if p == 1.0:
        return pauli.MixedEnsemble(((1.0, all_ones_state(base.n)),))
    return pauli.MixedEnsemble(((1.0 - p, base), (p, all_ones_state(base.n))))

