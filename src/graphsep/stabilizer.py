"""Exact stabilizer-side machinery for graph-state correlation tensors.

Pauli words are handled in X/Z mask form: a group element is stored as
``i^t * X^x * Z^z`` with x, z bitmasks (qubit 1 at the top bit) and t the
power of i.  The Hermitian word with a Y wherever both masks are set
equals ``i^y * X^x * Z^z`` with y the number of Y positions, so the sign
of a group element relative to the Hermitian word is ``i^(t - y)``,
asserted to be +-1 throughout.

A stabilizer source (graphs) has n, (x, z, sign) generators, diagonal
and zn_sign: a graphs.GraphSpec, which tags every graph state, or a
StabilizerGroup, which tags GHZ and |1...1> states.  product_sign, the
walk and full_weight_support read either alike, so no graph is checked
into a group; stabilizer_group does that for a caller that needs
member_combo.  The walk (_walk) visits the 2^n generator subsets, 2^14
at a time: O(2^n) work where the dense path would sweep 3^n strings,
and full_weight_support packs and sorts its chunks into a
CorrelationTensor (pauli.py) of +-1 signs.  A diagonal source (a basis
state such as |1...1>) needs no walk: its one identity-free element is
Z^n, signed zn_sign (for a group, one O(n) membership solve).  The
count, which needs no signs and no numpy, and the pattern order live in
graphs; the complete-graph and GHZ key patterns pack the masks of
pattern_halves.  full_weight_support and the key patterns, which keep
every key, refuse more than PATTERN_LIMIT qubits with
separability.LimitError.
numpy (pauli.require_numpy) is read only where arrays are built, so groups
and the count start without it; pauli (the lazy module) runs only for
the walk's tensor and the key patterns.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

# the lazy module (graphsep/__init__.py), run only by the walk and the key patterns
from . import pauli
from .graphs import _SUBSET_BITS, PATTERN_LIMIT, pattern_halves
from .separability import LimitError


def product_sign(source, combo: int) -> tuple[int, int, int]:
    """Multiply the generators of a stabilizer source flagged in combo (bit k: generator k).

    Reads only source.generators, so a graphs.GraphSpec and its
    StabilizerGroup (whose method this is) give the same product: sign
    times the Hermitian Pauli word with masks (x, z), returned as (x, z, sign).
    """
    x = z = t = 0
    for k, (gx, gz, gs) in enumerate(source.generators):
        if combo >> k & 1:
            # Z^z X^gx reorder, the i^y canonical form of the row and i^2 for a minus sign
            t += 2 * (z & gx).bit_count() + (gx & gz).bit_count() + 1 - gs
            x ^= gx
            z ^= gz
    t = (t - (x & z).bit_count()) % 4
    if t % 2:
        raise RuntimeError("stabilizer product has non-real phase")
    return x, z, 1 - t  # t = 0 -> +1, t = 2 -> -1


class StabilizerGroup:
    """n independent, commuting signed Pauli generators on n qubits.

    Each generator is an (x_bits, z_bits, sign) triple.  Construction
    verifies pairwise commutation and GF(2) independence and prepares a
    row-reduced basis for membership solves.  Groups compare by identity.
    """

    def __init__(self, n: int, generators):
        gens = tuple((int(x), int(z), int(s)) for x, z, s in generators)
        if len(gens) != n:
            raise ValueError(f"need exactly {n} generators, got {len(gens)}")
        mask = (1 << n) - 1
        for x, z, s in gens:
            if x & ~mask or z & ~mask:
                raise ValueError("generator mask wider than qubit count")
            if s not in (1, -1):
                raise ValueError(f"generator sign must be +-1, got {s}")
        for (x1, z1, _), (x2, z2, _) in combinations(gens, 2):
            if ((x1 & z2).bit_count() + (x2 & z1).bit_count()) % 2:
                raise ValueError("generators must pairwise commute")
        # echelon basis of the 2n-bit (x|z) vectors, kept sorted by
        # descending leading bit, tracking which original generators
        # combine into each reduced row
        reduced: list[tuple[int, int]] = []
        for k, (x, z, _) in enumerate(gens):
            vec, combo = self._reduce_vector(reduced, (x << n) | z, 1 << k)
            if vec == 0:
                raise ValueError("generators must be independent over GF(2)")
            reduced.append((vec, combo))
            reduced.sort(key=lambda rc: -rc[0])
        self.n, self.generators, self._reduced = n, gens, reduced

    def __repr__(self) -> str:
        return f"StabilizerGroup(n={self.n!r}, generators={self.generators!r})"

    @staticmethod
    def _reduce_vector(reduced: list, vec: int, combo: int) -> tuple[int, int]:
        # rows have distinct leading bits and arrive in descending order,
        # so a single pass clears vec top-down
        for rvec, rcombo in reduced:
            if vec ^ rvec < vec:
                vec ^= rvec
                combo ^= rcombo
        return vec, combo

    def member_combo(self, x: int, z: int) -> int | None:
        """Generator subset (as a bitmask) whose product has masks (x, z)."""
        vec, combo = self._reduce_vector(self._reduced, (x << self.n) | z, 0)
        return combo if vec == 0 else None

    product_sign = product_sign

    @property
    def diagonal(self) -> bool:
        """True when every generator is X-free, so the group is that of a basis state."""
        return not any(x for x, _, _ in self.generators)

    @cached_property
    def zn_sign(self) -> int:
        """+-1 when +-Z^n lies in the group, else 0: one membership solve, checked."""
        full = (1 << self.n) - 1
        combo = self.member_combo(0, full)
        if combo is None:
            return 0
        x, z, sign = self.product_sign(combo)
        if (x, z) != (0, full):
            raise RuntimeError("membership solve produced inconsistent masks")
        return sign


def stabilizer_group(spec) -> StabilizerGroup:
    """The group of the graph state of a graphs.GraphSpec, from its generators: X on vertex a, Z on its neighbors."""
    return StabilizerGroup(spec.n, spec.generators)


def ghz_group(n: int) -> StabilizerGroup:
    """GHZ-state stabilizer generators: X on every qubit, then Z_a Z_(a+1) for a < n."""
    if n < 2:
        raise ValueError("GHZ group needs n >= 2")
    gens = (((1 << n) - 1, 0, 1),) + tuple((0, 3 << (n - 1 - a), 1) for a in range(1, n))
    return StabilizerGroup(n, gens)


def all_ones_group(n: int) -> StabilizerGroup:
    """Stabilizer generators of |1...1>: -Z on each qubit."""
    return StabilizerGroup(n, tuple((0, 1 << (n - a), -1) for a in range(1, n + 1)))


def _walk(source):
    """The walk: per-chunk (x, z, sign) arrays of the identity-free elements of a stabilizer source.

    Subsets S of the generators, multiplied in generator order, split
    into the first b = min(n, 14) generators and the rest.  One numpy
    pass per low generator forms ``i^t * X^x * Z^z`` for all 2^b low
    subsets at once, exactly as product_sign does for one subset; each
    high subset's product H (product_sign(source, high)) then multiplies
    that whole chunk, using Z^z X^hx = (-1)^popcount(z & hx) X^hx Z^z.
    Elements with x | z full are kept (S = 0, the identity, never is),
    and every kept phase is checked to be real.  Memory is O(2^b)
    whatever n.
    """
    n = source.n
    np = pauli.require_numpy()

    full = (1 << n) - 1
    low_bits = min(n, _SUBSET_BITS)
    low = np.arange(1 << low_bits, dtype=np.int64)
    lx = np.zeros_like(low)
    lz = np.zeros_like(low)
    lt = np.zeros_like(low)
    for k, (gx, gz, gs) in enumerate(source.generators[:low_bits]):
        on = (low >> k) & 1
        own = (gx & gz).bit_count() + (2 if gs == -1 else 0)
        lt += on * (2 * np.bitwise_count(lz & gx) + own)
        lx ^= on * gx
        lz ^= on * gz
    for high in range(0, 1 << n, 1 << low_bits):
        hx, hz, hsign = product_sign(source, high)
        keep = ((lx ^ hx) | (lz ^ hz)) == full
        x, zl = lx[keep] ^ hx, lz[keep]
        z = zl ^ hz
        t = lt[keep] + 2 * np.bitwise_count(zl & hx) + (hx & hz).bit_count() + 1 - hsign
        phase = (t - np.bitwise_count(x & z)) & 3
        if (phase & 1).any():
            raise RuntimeError("stabilizer element has non-real phase")
        yield x, z, 1.0 - phase  # phase 0 -> +1, phase 2 -> -1


def full_weight_support(source) -> pauli.CorrelationTensor:
    """All identity-free elements of a stabilizer source's group, as a tensor of their +-1 signs in ascending key order.

    A GraphSpec and its stabilizer_group give the same tensor.  The
    elements come from the walk (see _walk), packed and sorted.  A
    diagonal source (every generator X-free, as for |1...1> or any basis
    state) has Z^n as its only identity-free element, signed zn_sign,
    with no walk.  Any other source above PATTERN_LIMIT qubits raises
    LimitError before walking.
    """
    n = source.n
    if source.diagonal:
        return pauli.CorrelationTensor(n, [pauli.pack_index((3,) * n)], [source.zn_sign])
    if n > PATTERN_LIMIT:
        raise LimitError(f"full-weight support over 2^{n} generator subsets exceeds the {PATTERN_LIMIT}-qubit limit")
    np = pauli.require_numpy()

    chunks = list(_walk(source))
    keys = np.concatenate([pauli.packed_keys(x, z, n) for x, z, _ in chunks])
    order = np.argsort(keys)
    return pauli.CorrelationTensor(n, keys[order], np.concatenate([sign for _, _, sign in chunks])[order])


def _pattern_keys(n: int, parity: int, xz, extra: int):
    """Packed keys (int64) of the words with X and Z mask arrays xz(m, full) for the masks m of pattern_halves,
    then at even n the word of n `extra` letters (a full index: 1 -> X, 2 -> Y, 3 -> Z)."""
    np = pauli.require_numpy()

    halves = pattern_halves(n, parity, lambda group: np.array(group, dtype=np.int64))
    masks = np.concatenate([t << n // 2 | bottoms for t, bottoms in halves])
    keys = pauli.packed_keys(*xz(masks, (1 << n) - 1), n)
    return np.append(keys, pauli.pack_index((extra,) * n)) if n % 2 == 0 else keys


def cg_nonzero_pattern(n: int):
    """Packed keys (an int64 array) of the words where complete-graph-state tensors are nonzero.

    All placements of an odd number of X letters among Z letters, plus the
    all-Y word when n is even, in the order of pattern_halves.
    """
    return _pattern_keys(n, 1, lambda m, full: (m, full & ~m), 2)


def ghz_nonzero_pattern(n: int):
    """Packed keys (an int64 array) of the words where GHZ-state tensors are nonzero.

    All placements of an even number of Y letters among X letters, plus
    the all-Z word when n is even, in the order of pattern_halves.
    """
    return _pattern_keys(n, 0, lambda m, full: (full, m), 3)
