"""Full correlation tensors and the standard tensor norm: the numpy inspection layer.

The full tensor of an n-qubit state holds the expectation values of all
3^n identity-free Pauli words.  It is stored sparsely, as a
CorrelationTensor (pauli.py): the sorted base-3 packed keys of its
nonzero entries plus their values (two numpy arrays), because for the
states handled here only O(2^(n-1)) entries are nonzero.

Two evaluation paths exist, and the state picks one.  The stabilizer
shortcut is taken when every ensemble member carries a stabilizer-source
tag (graphsep.states: the GraphSpec of a graph or cluster state, the
group of a GHZ or |1...1> state): each member's signed group elements
come from one vectorized walk of its source, merged by key.  Untagged
states (W, raw amplitudes) sweep densely.  The dense path (at most
DENSE_LIMIT = 10 qubits, a fixed limit that lives in graphsep.amplitudes
beside the amplitude kernel and is imported here) evaluates T_w = tr(rho w)
for all 3^n words at once: it takes the density matrix rho to the Pauli
basis in place, one qubit at a time, in O(n 4^n) vectorized work.
The dense reference of a tagged state is its untagged copy,
PureState(n, state.amplitudes).

The criterion needs only the squared norm, which the CLI reads from the
stdlib core (separability, amplitudes), so no command runs this module.
full_tensor is the library's inspection tool and the reference of the
raw-amplitude kernel (amplitudes._pure_norm_sq); it reads numpy, which
only the tensor extra installs (pauli.require_numpy).
"""

from __future__ import annotations

import math

# lazy modules (graphsep/__init__.py), read only by full_tensor
from . import pauli, stabilizer
from .amplitudes import DENSE_LIMIT, dense_limit  # callers read the limit as tensor.DENSE_LIMIT too
# perfbench/trace_op.py's TARGETS looks these two up here, as it does dense_limit
from .graphs import measurement_settings
from .separability import norm_table


def _dense_arrays(terms, n: int, zero_tol: float) -> tuple:
    """Every identity-free expectation tr(rho w) of a mixture, by one basis change per qubit.

    rho = sum_w w |a_w><a_w| is one complex array with each qubit's row
    and column bit on adjacent axes, so its slots (rho00, rho01, rho10,
    rho11) share an axis of length 4.  Qubit by qubit they become, in
    place, (unused, X, Y, Z) = (-, rho01 + rho10, i (rho01 - rho10),
    rho00 - rho11).  Slots 1-3 of every qubit then list the 3^n words in
    C order, qubit 1 first, so each word's packed key is its flat index.
    Returns the keys and values above zero_tol, in key order.
    """
    np = pauli.require_numpy()

    def outer(w, a):  # w |a><a|
        return w * a.reshape((2, 1) * n) * a.conj().reshape((1, 2) * n)

    (w, st), *rest = terms
    rho = outer(w, st.amplitudes)
    for w, st in rest:  # member after member, so one term of 4^n is alive beside rho
        rho += outer(w, st.amplitudes)
    for q in range(n):
        r00, r01, r10, r11 = rho.reshape(4 ** q, 4, -1).swapaxes(0, 1)
        np.subtract(r00, r11, out=r11)  # Z
        np.subtract(r01, r10, out=r00)
        np.add(r01, r10, out=r01)  # X
        np.multiply(r00, 1j, out=r10)  # Y
    vals = rho.reshape((4,) * n)[(slice(1, 4),) * n].ravel()
    residue = np.abs(vals.imag).max()
    if residue > pauli.IMAG_TOL:
        raise RuntimeError(f"expectation has imaginary residue {residue}")
    keep = np.flatnonzero(np.abs(vals.real) > zero_tol)
    return keep, vals.real[keep]


def full_tensor(ens, zero_tol: float = 1e-9) -> pauli.CorrelationTensor:
    """Full correlation tensor of an ensemble (or a bare pure state).

    The state picks the path: the stabilizer shortcut when every member
    is tagged with a stabilizer source (full_weight_support reads a
    GraphSpec or a group alike), the dense sweep otherwise.  Each refuses with
    separability.LimitError above its qubit limit: the sweep above
    DENSE_LIMIT (10), the shortcut's walk above graphs.PATTERN_LIMIT.
    Entries whose magnitude is not above zero_tol are dropped.
    """
    if isinstance(ens, pauli.PureState):
        ens = pauli.pure_ensemble(ens)
    if not zero_tol >= 0:
        raise ValueError("zero_tol must be nonnegative")
    n = ens.n
    if all(st.stabilizer is not None for _, st in ens.terms):
        np = pauli.require_numpy()

        supports = [stabilizer.full_weight_support(st.stabilizer) for _, st in ens.terms]
        # members in order, so each key sums its terms as a sequential loop would
        keys, inverse = np.unique(np.concatenate([s.keys for s in supports]), return_inverse=True)
        weighted = np.concatenate([w * s.values for (w, _), s in zip(ens.terms, supports)])
        acc = np.bincount(inverse, weights=weighted, minlength=len(keys))
        keep = np.abs(acc) > zero_tol
        return pauli.CorrelationTensor(n, keys[keep], acc[keep])
    dense_limit(n)
    return pauli.CorrelationTensor(n, *_dense_arrays(ens.terms, n, zero_tol))


def tensor_norm_sq(t: pauli.CorrelationTensor) -> float:
    """Sum of the squared entries, exactly rounded (math.fsum), so it
    depends neither on their order nor on the path that built the tensor."""
    return math.fsum((t.values * t.values).tolist())


def tensor_norm(t: pauli.CorrelationTensor) -> float:
    """Standard (Frobenius) tensor norm: the square root of tensor_norm_sq."""
    return math.sqrt(tensor_norm_sq(t))
