"""Pauli words and their expectation values on qubit state vectors.

Conventions used throughout the package:

  * A Pauli word is a string over {I, X, Y, Z}, one letter per qubit,
    qubit 1 written first.
  * Basis indices put qubit 1 in the most significant bit:
    |b_1 b_2 ... b_n>  <->  index sum_a b_a * 2**(n - a).
  * Identity-free words are also handled as index tuples over {1, 2, 3}
    with 1 -> X, 2 -> Y, 3 -> Z ("full index"), packed into base-3
    integer keys (pack_index, packed_keys).  CorrelationTensor, the one
    sparse tensor type, stores its entries under these keys.

Expectation values are evaluated with a single O(2^n) pass over the
amplitude vector (bit flips for X/Y, parity signs for Y/Z, counted by
np.bitwise_count); no 2^n x 2^n matrix is ever built, and nothing is
cached per qubit count.

numpy is optional (the tensor extra).  The functions that build or
read arrays, here and in stabilizer, states and tensor, get it from
require_numpy, the one place that imports it; Pauli words, packed
indices and deferred states (whose amplitudes are never read on the
stabilizer path) start without it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from . import amplitudes  # lazy module (graphsep/__init__.py): the normalization rule, run on a state's first check
from .bounds import _short

IMAG_TOL = 1e-9


def require_numpy():
    """The numpy module; without it, an ImportError of one line that names the extra to install."""
    try:
        import numpy
    except ModuleNotFoundError:  # absent; a broken install keeps its own error
        raise ImportError("this call needs numpy: install graphsep[tensor]") from None
    return numpy


# one binary digit per letter, qubit 1 first: the flip (X, Y) and phase (Y, Z) masks
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")


class PauliString:
    """Hermitian tensor product of single-qubit I/X/Y/Z operators; equal and hashed by its letters."""

    def __init__(self, ops: str):
        if not isinstance(ops, str):
            raise TypeError(f"Pauli string must be a str, got {type(ops).__name__}")
        if not ops:
            raise ValueError("Pauli string must act on at least one qubit")
        bad = set(ops) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")
        self.ops = ops

    def __repr__(self) -> str:
        return f"PauliString(ops={self.ops!r})"

    def __eq__(self, other):
        return self.ops == other.ops if type(other) is PauliString else NotImplemented

    def __hash__(self) -> int:
        return hash((self.ops,))

    @property
    def n(self) -> int:
        return len(self.ops)

    def masks(self) -> tuple[int, int, int]:
        """Return (x_mask, z_mask, y_count) with qubit 1 at the top bit.

        x_mask flags bit-flipping letters (X, Y); z_mask flags
        phase-carrying letters (Y, Z).
        """
        return int(self.ops.translate(_X_BITS), 2), int(self.ops.translate(_Z_BITS), 2), self.ops.count("Y")

    def __str__(self) -> str:
        return self.ops


def pack_index(idx: Iterable[int]) -> int:
    """Pack a full-index tuple into a base-3 integer (qubit 1 most significant).

    Packed keys sort exactly like the index tuples, which keeps sparse-map
    iteration canonical.
    """
    packed = 0
    for i in idx:
        if i not in (1, 2, 3):
            raise ValueError(f"full-index entries must be in {{1,2,3}}, got {_short.repr(i)}")
        packed = packed * 3 + (i - 1)
    return packed


@lru_cache(maxsize=None)
def _base3_table(bits: int, start: int = 0):
    """The int64 array T3, T3[m] = sum of 3^(start + p) over the set bits p of m, for every bits-bit mask m."""
    np = require_numpy()

    table = np.zeros(1, dtype=np.int64)
    for p in range(start, start + bits):
        # masks with bit p set follow those without, 3^p higher
        table = np.concatenate([table, table + 3 ** p])
    table.setflags(write=False)
    return table


def packed_keys(x, z, n: int):
    """pack_index of identity-free words given by flip and phase mask arrays, as an int64 array.

    Every word needs x | z to be the full n-bit mask.  Bit p holds qubit
    n - p and base-3 digit p, so X (x only) packs to 0, Y (both) to 1 and
    Z (z only) to 2: the key is T3(z) + T3(z & ~x).  T3 is read from two
    tables of 2^(n/2) entries, one per half of the mask, so the tables
    stay small; keys fit int64 up to n = 39 (3^39 < 2^63).
    """
    h = n // 2
    lo, hi = _base3_table(h), _base3_table(n - h, h)

    def t3(m):
        return lo[m & ((1 << h) - 1)] + hi[m >> h]

    return t3(z) + t3(z & ~x)


class CorrelationTensor:
    """Sparse full correlation tensor: ascending base-3 packed keys and their values.

    keys is a strictly increasing int64 array of packed index words and
    values the float64 entries at those words (both read-only); every
    other entry is zero.  full_tensor returns one, and so does
    full_weight_support (the signed identity-free elements of a
    stabilizer group, values +-1).  Tensors compare by identity.
    """

    def __init__(self, n: int, keys, values):
        np = require_numpy()

        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if keys.ndim != 1 or keys.shape != values.shape:
            raise ValueError("keys and values must be 1-D arrays of one length")
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("keys must be strictly increasing")
        if len(keys) and (keys[0] < 0 or int(keys[-1]) >= 3 ** n):
            raise ValueError(f"keys must lie in [0, 3^{n})")
        keys.setflags(write=False)
        values.setflags(write=False)
        self.n, self.keys, self.values = n, keys, values

    def __repr__(self) -> str:
        return f"CorrelationTensor(n={self.n!r}, keys={self.keys!r}, values={self.values!r})"

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def entries(self) -> dict:
        """Packed key -> value, built on each access, for inspection."""
        return dict(zip(self.keys.tolist(), self.values.tolist()))

    def value(self, idx) -> float:
        """Entry at a full-index tuple of n letters; absent entries are zero."""
        np = require_numpy()

        idx = tuple(idx)
        if len(idx) != self.n:
            raise ValueError(f"index has {len(idx)} entries, not {self.n}")
        key = pack_index(idx)
        i = int(np.searchsorted(self.keys, key))
        if i < len(self.keys) and self.keys[i] == key:
            return float(self.values[i])
        return 0.0

    def items(self):
        """(index tuple, value) pairs in canonical (packed-key) order."""
        for key, v in zip(self.keys.tolist(), self.values.tolist()):
            digits = []  # the inverse of pack_index, lowest digit first
            for _ in range(self.n):
                key, d = divmod(key, 3)
                digits.append(d + 1)
            yield tuple(reversed(digits)), v


def _checked_amplitudes(n: int, values):
    """values as a new read-only complex128 array of 2^n amplitudes, each
    real and imaginary part divided by amplitudes._checked_norm."""
    np = require_numpy()

    amps = np.asarray(values, dtype=np.complex128)
    # no vector reaches 2^64 entries, so a larger n is refused without forming 1 << n
    if amps.shape != (1 << min(n, 64),):
        raise ValueError(f"expected 2^{_short.repr(n)} amplitudes, got {amps.shape}")
    parts = np.ascontiguousarray(amps).view(np.float64)  # a strided vector is copied first
    with np.errstate(over="ignore"):  # a square past the float range is inf, which the rule refuses
        squares = parts * parts
    # .data, a memoryview, reads the squares as Python floats without a list of them
    amps = (parts / amplitudes._checked_norm(squares.data)).view(np.complex128)
    amps.setflags(write=False)
    return amps


class PureState:
    """Normalized n-qubit state vector (qubit 1 = most significant bit).

    Its amplitudes take amplitudes._checked_norm, the rule a state
    file's take, and come out bit for bit as the file reader's.

    ``stabilizer`` is a stabilizer source of the state (graphs) when a
    constructor in graphsep.states knows one: the GraphSpec of a graph
    state, the StabilizerGroup of a GHZ or |1...1> state.  full_tensor
    then takes the stabilizer shortcut.  Not checked against the
    amplitudes, it is set only by those constructors, through
    PureState.deferred, which builds the 2^n amplitudes the first time
    ``amplitudes`` is read (and checks them then), so a
    stabilizer-path caller never allocates them.  States compare by
    identity.
    """

    stabilizer = None
    _amplitudes = None
    _build = None

    def __init__(self, n: int, amplitudes):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self._amplitudes = _checked_amplitudes(n, amplitudes)

    @classmethod
    def deferred(cls, n: int, build, stabilizer) -> PureState:
        """A state tagged with a stabilizer source (or None); build() makes its amplitudes on first read."""
        state = cls.__new__(cls)
        state.n, state.stabilizer, state._build = n, stabilizer, build
        return state

    @property
    def amplitudes(self):
        if self._amplitudes is None:
            self._amplitudes = _checked_amplitudes(self.n, self._build())
        return self._amplitudes

    def __repr__(self) -> str:
        return f"PureState(n={self.n})"


class MixedEnsemble:
    """Convex mixture of pure states, stored as (weight, state) terms, the
    weights divided by amplitudes._checked_norm; ensembles compare by identity."""

    def __init__(self, terms):
        terms = tuple((float(w), st) for w, st in terms)
        if not terms:
            raise ValueError("ensemble needs at least one term")
        if any(w <= 0 for w, _ in terms):
            raise ValueError("all ensemble weights must be positive")
        total = amplitudes._checked_norm([w for w, _ in terms], weights=True)
        n = terms[0][1].n
        if any(st.n != n for _, st in terms):
            raise ValueError("all ensemble members must have the same qubit count")
        self.terms = tuple((w / total, st) for w, st in terms)

    def __repr__(self) -> str:
        return f"MixedEnsemble(terms={self.terms!r})"

    @property
    def n(self) -> int:
        return self.terms[0][1].n


def pure_ensemble(state: PureState) -> MixedEnsemble:
    """Wrap a pure state as the degenerate one-term ensemble."""
    return MixedEnsemble(((1.0, state),))


_I_POW = (1.0, 1.0j, -1.0, -1.0j)


def expectation(state: PureState, p: PauliString) -> float:
    """Expectation value of a Pauli word on a pure state.

    One O(2^n) pass over the amplitudes, nothing cached: the X and Y
    letters flip index bits, and the Y and Z letters sign each basis
    index by the parity of its bits under the phase mask, read with
    np.bitwise_count.  Raises ValueError on qubit-count mismatch; the
    result of a Hermitian word on a normalized state always lands in
    [-1, 1] up to rounding.
    """
    if state.n != p.n:
        raise ValueError(f"state has {state.n} qubits, Pauli word has {p.n}")
    np = require_numpy()

    x_mask, z_mask, y_count = p.masks()
    amps = state.amplitudes
    idx = np.arange(1 << p.n)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & z_mask) & 1)
    val = _I_POW[y_count & 3] * np.vdot(amps[idx ^ x_mask], amps * signs)
    if abs(val.imag) > IMAG_TOL:
        raise RuntimeError(f"expectation has imaginary residue {val.imag}")
    return float(val.real)
