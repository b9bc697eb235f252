"""Exact stabilizer-side machinery for graph-state correlation tensors.

Pauli words are handled in X/Z mask form: a group element is stored as
``i^t * X^x * Z^z`` with x, z bitmasks (qubit 1 at the top bit) and t the
power of i.  The Hermitian word with a Y wherever both masks are set
equals ``i^y * X^x * Z^z`` with y the number of Y positions, so the sign
of a group element relative to the Hermitian word is ``i^(t - y)``,
asserted to be +-1 throughout.  _times is the one product rule, (x, z,
t) times a signed Hermitian word: product_sign folds it over a subset
of generators, and the walk applies it to whole arrays.

A StabilizerGroup checks commutation only for the pairs that can
anticommute, those with an X-carrying generator (so a GHZ or basis-state
group of n generators checks at most n - 1 pairs), and keeps its
GF(2) echelon as a pivot table, row by leading bit of the 2n-bit (x|z)
vector: a vector is reduced by looking its leading bit up until it is
zero or its bit is free, so building the table and member_combo take
one lookup per row met, with no sorting.

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
bounds.LimitError.
numpy (pauli.require_numpy) is read only where arrays are built, so groups
and the count start without it; pauli (the lazy module) runs only for
the walk's tensor and the key patterns.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, product

# the lazy module (graphsep/__init__.py), run only by the walk and the key patterns
from . import pauli
from .bounds import LimitError, _short
from .graphs import _SUBSET_BITS, PATTERN_LIMIT, pattern_halves


def _times(x, z, t, generator, popcount):
    """i^t * X^x * Z^z times a signed Hermitian word (gx, gz, gs), as the (x, z, t) of the product.

    Z^z X^gx = (-1)^popcount(z & gx) X^gx Z^z gives the 2*|z & gx|; the
    word is i^|gx & gz| * X^gx * Z^gz, and i^(1 - gs) is its sign.  The
    one product rule: x, z, t are ints (popcount int.bit_count) or int64
    arrays (np.bitwise_count), and the caller reduces t mod 4.
    """
    gx, gz, gs = generator
    return x ^ gx, z ^ gz, t + 2 * popcount(z & gx) + popcount(gx & gz) + 1 - gs


def product_sign(source, combo: int) -> tuple[int, int, int]:
    """Multiply the generators of a stabilizer source flagged in combo (bit k: generator k).

    Reads only source.generators, so a graphs.GraphSpec and its
    StabilizerGroup (whose method this is) give the same product: sign
    times the Hermitian Pauli word with masks (x, z), returned as (x, z, sign).
    A combo outside [0, 2^n) raises ValueError.
    """
    if not 0 <= combo < 1 << source.n:
        raise ValueError(f"combo {_short.repr(combo)} is outside [0, 2^{_short.repr(source.n)})")
    x = z = t = 0
    for k, generator in enumerate(source.generators):
        if combo >> k & 1:
            x, z, t = _times(x, z, t, generator, int.bit_count)
    t = (t - (x & z).bit_count()) % 4
    if t % 2:
        raise RuntimeError("stabilizer product has non-real phase")
    return x, z, 1 - t  # t = 0 -> +1, t = 2 -> -1


class StabilizerGroup:
    """n independent, commuting signed Pauli generators on n qubits.

    Each generator is an (x_bits, z_bits, sign) triple.  Construction
    checks commutation only where it can fail: X-carrying generators
    against each other and against the Z-only ones (Z-only words always
    commute), so diagonal, set here, is True when no generator carries
    an X.  It also checks GF(2) independence while it fills a pivot
    table: each 2n-bit (x|z) vector, reduced by the rows already there,
    is stored under its leading bit with the generator subset that
    forms it, and member_combo reduces the same way.  Groups compare
    by identity.
    """

    def __init__(self, n: int, generators):
        gens = tuple((int(x), int(z), int(s)) for x, z, s in generators)
        if len(gens) != n:
            raise ValueError(f"need exactly {_short.repr(n)} generators, got {len(gens)}")
        for x, z, s in gens:
            if (x | z) >> n:
                raise ValueError("generator mask wider than qubit count")
            if s not in (1, -1):
                raise ValueError(f"generator sign must be +-1, got {_short.repr(s)}")
        carriers = [(x, z) for x, z, _ in gens if x]
        z_only = [(0, z) for x, z, _ in gens if not x]
        for (x1, z1), (x2, z2) in chain(combinations(carriers, 2), product(carriers, z_only)):
            if ((x1 & z2).bit_count() + (x2 & z1).bit_count()) % 2:
                raise ValueError("generators must pairwise commute")
        pivots: dict[int, tuple[int, int]] = {}
        for k, (x, z, _) in enumerate(gens):
            vec, combo = (x << n) | z, 1 << k
            while vec and (row := pivots.get(vec.bit_length())):
                vec, combo = vec ^ row[0], combo ^ row[1]
            if not vec:
                raise ValueError("generators must be independent over GF(2)")
            pivots[vec.bit_length()] = vec, combo
        self.n, self.generators, self.diagonal, self._pivots = n, gens, not carriers, pivots

    def __repr__(self) -> str:
        return f"StabilizerGroup(n={self.n!r}, generators={self.generators!r})"

    def member_combo(self, x: int, z: int) -> int | None:
        """Generator subset (as a bitmask) whose product has masks (x, z)."""
        if (x | z) >> self.n:  # a negative or wider mask is no member
            return None
        vec, combo = (x << self.n) | z, 0
        while vec and (row := self._pivots.get(vec.bit_length())):
            vec, combo = vec ^ row[0], combo ^ row[1]
        return None if vec else combo

    product_sign = product_sign

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
    into the first b = min(n, 14) generators and the rest.  The 2^b low
    subsets are built by doubling, as product_sign builds one subset:
    those holding generator k follow those without, each times it
    (_times over whole arrays).  Each high subset's product H
    (product_sign(source, high)) then multiplies the low elements whose
    product with it has x | z full, the only ones kept (S = 0, the
    identity, never is), and every kept phase is checked to be real.
    Memory is O(2^b) whatever n.
    """
    n = source.n
    np = pauli.require_numpy()

    full = (1 << n) - 1
    low = [np.zeros(1, dtype=np.int64)] * 3
    for generator in source.generators[: min(n, _SUBSET_BITS)]:
        low = [np.concatenate(pair) for pair in zip(low, _times(*low, generator, np.bitwise_count))]
    lx, lz, lt = low
    for high in range(0, 1 << n, lx.size):
        hx, hz, hsign = product_sign(source, high)
        keep = ((lx ^ hx) | (lz ^ hz)) == full
        x, z, t = _times(lx[keep], lz[keep], lt[keep], (hx, hz, hsign), np.bitwise_count)
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
        raise LimitError(f"full-weight support over 2^{_short.repr(n)} generator subsets"
                         f" exceeds the {PATTERN_LIMIT}-qubit limit")
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
