"""Full correlation tensors, the standard tensor norm, and the norm table.

The full tensor of an n-qubit state holds the expectation values of all
3^n identity-free Pauli words.  It is stored sparsely, keyed by base-3
packed index words, because for the states handled here only O(2^(n-1))
entries are nonzero.

Two evaluation paths exist.  The dense path (the ground truth, limited
to small n) evaluates all 3^n words at once: for each bit-flip mask x it
forms the overlap vector conj(a[b ^ x]) * a[b], and one fast
Walsh-Hadamard transform of that vector gives the expectations of every
word with flip mask x.  Over all 2^n masks that is O(n 4^n) vectorized
work, done in chunks of masks.  The stabilizer shortcut is used when
every ensemble member is a tagged graph state or the |1...1> product
state.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import (
    IMAG_TOL,
    PauliString,
    PureState,
    embed,
    pack_index,
    pure_ensemble,
    unpack_index,
)
from .stabilizer import cg_nonzero_pattern, full_weight_support, ghz_nonzero_pattern, stabilizer_group
from .states import (
    GraphSpec,
    chain_graph,
    cluster_state,
    complete_graph,
    ghz_state,
    graph_state,
    is_all_ones,
    w_state,
)

DEFAULT_DENSE_LIMIT = 10
DEFAULT_SUPPORT_LIMIT = 20
DENSE_LIMIT_ENV = "GRAPHSEP_DENSE_LIMIT"

FAMILIES = ("cg", "ghz", "w", "cluster")

# Complex elements per chunk of flip masks in the dense transform, and
# tensor entries per block when the dict is filled.  The dense detect of
# a random 10-qubit state stores all 3^10 entries, so the Python dict
# dominates its memory; chunk temporaries and key/value lists must stay
# small beside it.
_CHUNK_ELEMENTS = 1 << 11
_FILL_BLOCK = 1 << 12


class DenseLimitError(RuntimeError):
    """A dense 3^n sweep was requested beyond the configured qubit limit."""


def dense_limit(override: int | None = None) -> int:
    if override is not None:
        return int(override)
    return int(os.environ.get(DENSE_LIMIT_ENV, DEFAULT_DENSE_LIMIT))


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """Sparse full correlation tensor: base-3 packed index word -> value."""

    n: int
    entries: dict
    zero_tol: float = 1e-9

    def __len__(self) -> int:
        return len(self.entries)

    def value(self, idx) -> float:
        """Entry at a full-index tuple; absent entries are zero."""
        return self.entries.get(pack_index(idx), 0.0)

    def items(self):
        """(index tuple, value) pairs in canonical (packed-key) order."""
        for key in sorted(self.entries):
            yield unpack_index(key, self.n), self.entries[key]


def _support_entries(state: PureState) -> dict | None:
    """Stabilizer-path sparse tensor of a single state, if one applies."""
    if isinstance(state.graph, GraphSpec):
        return dict(full_weight_support(stabilizer_group(state.graph)).entries)
    if is_all_ones(state):
        return {pack_index((3,) * state.n): (-1.0) ** state.n}
    return None


@lru_cache(maxsize=None)
def _base3_table(n: int) -> np.ndarray:
    """T3[m] = sum of 3^p over the set bits p of m, for every n-bit mask m."""
    masks = np.arange(1 << n, dtype=np.int64)
    table = np.zeros(1 << n, dtype=np.int64)
    for p in range(n):
        table += ((masks >> p) & 1) * 3 ** p
    return table


def _walsh_hadamard(f: np.ndarray) -> None:
    """In-place unnormalized Walsh-Hadamard transform along the last axis.

    Afterwards f[..., z] holds sum_b f[..., b] * (-1)^popcount(b & z).
    """
    rows, size = f.shape
    h = 1
    while h < size:
        pairs = f.reshape(rows, size // (2 * h), 2, h)
        lo, hi = pairs[:, :, 0, :], pairs[:, :, 1, :]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h *= 2


def _dense_entries(terms, n: int, zero_tol: float) -> dict:
    """Every identity-free expectation of a mixture, via one transform per flip mask.

    For a flip mask x, f_x[b] = sum_w w * conj(a_w[b ^ x]) * a_w[b]; its
    Walsh-Hadamard transform at z is <X^x Z^z>, and the Hermitian word with
    those masks is i^popcount(x & z) times that.  Words with x | z full are
    identity-free; their packed base-3 key is T3(z) + T3(z & ~x).  Flip
    masks go in chunks, so memory stays at O(chunk + 3^n).
    """
    size = 1 << n
    i_pow = np.array([1.0, 1.0j, -1.0, -1.0j])
    basis = np.arange(size, dtype=np.int64)
    t3 = _base3_table(n)
    acc = np.zeros(3 ** n)
    rows = max(1, _CHUNK_ELEMENTS >> n)
    for start in range(0, size, rows):
        xs = basis[start:start + rows, None]
        f = sum(w * (st.amplitudes[basis ^ xs].conj() * st.amplitudes) for w, st in terms)
        _walsh_hadamard(f)
        row, z = np.nonzero((xs | basis) == size - 1)
        x = xs[row, 0]
        vals = i_pow[np.bitwise_count(x & z) & 3] * f[row, z]
        residue = np.abs(vals.imag).max()
        if residue > IMAG_TOL:
            raise RuntimeError(f"expectation has imaginary residue {residue}")
        acc[t3[z] + t3[z & ~x]] = vals.real
    entries = {}
    for start in range(0, acc.size, _FILL_BLOCK):
        block = acc[start:start + _FILL_BLOCK]
        keep = np.flatnonzero(np.abs(block) > zero_tol)
        entries.update(zip((keep + start).tolist(), block[keep].tolist()))
    return entries


def full_tensor(
    ens,
    zero_tol: float = 1e-9,
    *,
    method: str = "auto",
    limit: int | None = None,
) -> CorrelationTensor:
    """Full correlation tensor of an ensemble (or a bare pure state).

    method "auto" takes the stabilizer shortcut when every member allows
    it and otherwise sweeps densely; "dense" and "support" force a path.
    The dense sweep refuses to run above the configured qubit limit
    (GRAPHSEP_DENSE_LIMIT, default 10).
    """
    if isinstance(ens, PureState):
        ens = pure_ensemble(ens)
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    if method not in ("auto", "dense", "support"):
        raise ValueError(f"unknown method {method!r}")
    n = ens.n

    if method != "dense":
        supports = [_support_entries(st) for _, st in ens.terms]
        if all(s is not None for s in supports):
            acc: dict[int, float] = {}
            for (w, _), sup in zip(ens.terms, supports):
                for key, sign in sup.items():
                    acc[key] = acc.get(key, 0.0) + w * sign
            entries = {k: v for k, v in sorted(acc.items()) if abs(v) > zero_tol}
            return CorrelationTensor(n, entries, zero_tol)
        if method == "support":
            raise ValueError("support path needs graph-tagged or |1...1> members only")

    lim = dense_limit(limit)
    if n > lim:
        raise DenseLimitError(
            f"dense sweep over 3^{n} words exceeds the {lim}-qubit limit "
            f"(raise {DENSE_LIMIT_ENV} to override)"
        )
    entries = _dense_entries(ens.terms, n, zero_tol)
    return CorrelationTensor(n, entries, zero_tol)


def tensor_norm(t: CorrelationTensor) -> float:
    """Standard (Frobenius) tensor norm: sqrt of the sum of squared entries."""
    return math.sqrt(sum(v * v for v in t.entries.values()))


def support_size(t: CorrelationTensor) -> int:
    """Number of stored (nonzero) tensor entries."""
    return len(t.entries)


def measurement_settings(n: int, family: str = "cg", noise: bool = False) -> list[PauliString]:
    """Local observables sufficient to evaluate the criterion on the family.

    For complete-graph states these are the nonzero-pattern words; with
    noise=True the all-Z word needed for the colored-noise term is
    appended.
    """
    if family != "cg":
        raise ValueError(f"measurement settings are only defined for family 'cg', got {family!r}")
    words = [embed(idx) for idx in cg_nonzero_pattern(n).indices()]
    if noise:
        words.append(PauliString("Z" * n))
    return words


def _family_state(family: str, n: int) -> PureState:
    if family == "cg":
        return graph_state(complete_graph(n))
    if family == "ghz":
        return ghz_state(n)
    if family == "w":
        return w_state(n)
    if family == "cluster":
        return cluster_state(n)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _family_norm(family: str, n: int, lim: int, support_limit: int) -> float:
    if n <= lim:
        return tensor_norm(full_tensor(_family_state(family, n), method="dense", limit=lim))
    if family in ("cg", "cluster") and n <= support_limit:
        spec = complete_graph(n) if family == "cg" else chain_graph(n)
        return math.sqrt(len(full_weight_support(stabilizer_group(spec))))
    if family == "ghz" and n <= support_limit:
        return math.sqrt(len(ghz_nonzero_pattern(n)))
    raise DenseLimitError(
        f"family {family!r} at n={n} exceeds the dense limit {lim}"
        + ("" if family == "w" else f" and the support limit {support_limit}")
    )


def norm_table(
    families,
    n_min: int,
    n_max: int,
    *,
    limit: int | None = None,
    support_limit: int = DEFAULT_SUPPORT_LIMIT,
) -> list[tuple[str, int, float]]:
    """(family, n, norm) rows, family-major then n ascending.

    Uses the dense sweep up to the qubit limit and the stabilizer or
    pattern path beyond it (cg, ghz, cluster only).
    """
    fams = list(families)
    for family in fams:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not 2 <= n_min <= n_max:
        raise ValueError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    lim = dense_limit(limit)
    return [
        (family, n, _family_norm(family, n, lim, support_limit))
        for family in fams
        for n in range(n_min, n_max + 1)
    ]
