"""Constructors for graph, GHZ, W and cluster states plus colored-noise mixtures.

The graphs themselves (GraphSpec, complete_graph, chain_graph) live in
graphs, whose count decides a graph file without this module.  Graph
states are built by applying a controlled-Z along every edge of a graph
to |+>^n: the sign of basis state b flips once per edge with both ends
set in b, and that parity is built one vertex at a time.  The cluster
state is realized as the linear-chain graph state, which is
local-unitary equivalent to the usual product-form definition and
therefore has the same correlation-tensor norm.

Graph, cluster, GHZ and |1...1> states are stabilizer states, tagged
with a stabilizer source (PureState.stabilizer): a graph or cluster
state with its graphs.GraphSpec itself (no StabilizerGroup is built),
GHZ and |1...1> states with their groups.  The tag sends full_tensor
down the stabilizer path and gives separability.noise_products its
exact quadratic; W states and raw amplitudes carry none.  Every
constructor defers its 2^n amplitudes (PureState.deferred) until
something reads them (the dense path, expectation,
write_amplitude_file), so a call costs at most a group's O(n^2) check.
Each named family of separability.FAMILIES has its constructor here.
"""

from __future__ import annotations

import math
from functools import partial

# lazy modules (graphsep/__init__.py), run only when a graph, a state or a
# group is built
from . import graphs, pauli, stabilizer


def _graph_amplitudes(spec: graphs.GraphSpec):
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


def graph_state(spec: graphs.GraphSpec) -> pauli.PureState:
    """CZ-along-every-edge applied to |+>^n, tagged with spec; all amplitudes are +-2^(-n/2)."""
    return pauli.PureState.deferred(spec.n, partial(_graph_amplitudes, spec), spec)


def ghz_state(n: int) -> pauli.PureState:
    """(|0...0> + |1...1>)/sqrt(2); ghz_group refuses n < 2."""
    half = 1.0 / math.sqrt(2.0)
    return pauli.PureState.deferred(n, partial(_basis_amplitudes, n, {0: half, -1: half}), stabilizer.ghz_group(n))


def w_state(n: int) -> pauli.PureState:
    """Equal superposition of the n single-excitation basis states; untagged."""
    if n < 2:
        raise ValueError("W state needs n >= 2")
    weights = {1 << a: 1.0 / math.sqrt(n) for a in range(n)}
    return pauli.PureState.deferred(n, partial(_basis_amplitudes, n, weights), None)


def cluster_state(n: int) -> pauli.PureState:
    """Linear cluster state, constructed as the chain graph state (GraphSpec refuses n < 2)."""
    return graph_state(graphs.chain_graph(n))


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

