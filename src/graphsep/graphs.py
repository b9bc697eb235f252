"""Graphs, the full-weight count and the pattern halves, in plain Python ints.

GraphSpec is a simple graph on vertices 1..n, kept as its sorted edge
pairs, with one neighbour bitmask per vertex built when first read;
complete_graph and chain_graph build the two named ones.  Its graph
state is stabilized by one generator per vertex a, X on a and Z on its
neighbours: GraphSpec.generators, (x, z, sign) triples.

A stabilizer source has n, generators, diagonal and zn_sign (+-1 when
+-Z^n is in the group the generators span, else 0): a GraphSpec, whose
zn_sign is 0 as no graph-state element but the identity is X-free, or a
stabilizer.StabilizerGroup.  separability.noise_products reads both
alike, B = full_weight_count(source) bit-sliced over the 2^n generator
subsets and C = (-1)^n zn_sign, and so does the stabilizer walk, so a
graph or its state is decided with no group.
pattern_halves lists the masks of the complete-graph and GHZ patterns,
for measurement_settings (the settings command's words) and stabilizer's
key patterns.  It reads no numpy and no graphsep module but separability.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property, lru_cache
from itertools import chain, pairwise
from operator import index

from .separability import LimitError, _short

# Generators whose subsets form one chunk of the count (2 KiB per slice)
# and of the walk in stabilizer (2^14 int64 lanes, 128 KiB, per temporary).
_SUBSET_BITS = 14

# Largest qubit count the count takes: its 2^26 subsets take about
# 0.06 s on a random 26-vertex graph.
COUNT_LIMIT = 26

# Largest qubit count whose 2^(n-1) words or keys the patterns and
# stabilizer.full_weight_support materialize (n = 22 keys take about 180 MB).
PATTERN_LIMIT = 22


def check_count_limit(source) -> None:
    """Refuse a non-diagonal source's count over 2^n generator subsets above COUNT_LIMIT qubits (LimitError)."""
    n = source.n
    if n > COUNT_LIMIT and not source.diagonal:
        raise LimitError(f"stabilizer count over 2^{_short.repr(n)} generator subsets"
                         f" exceeds the {COUNT_LIMIT}-qubit limit")


class GraphSpec:
    """Simple undirected graph on vertices 1..n (no loops, no multi-edges).

    Built from any iterable of (a, b) edges whose vertices are of any int
    type but bool (operator.index; a non-pair edge or any other vertex,
    True included, is refused with ValueError, named by separability._short),
    and kept as the sorted pairs (a, b) of Python ints, a < b, checked in
    O(|E| log |E|) time and O(|E|) memory (a duplicate is next to its twin
    once sorted): nothing of size n is built, so a huge n with few edges
    is refused by the count's qubit limit, not by memory.  Specs compare
    and hash by (n, edges); masks and generators are built on first read.
    """

    diagonal = False  # every generator has the X of its vertex, so full_weight_count always counts
    zn_sign = 0  # no element but the identity is X-free, so Z^n is not in the group

    def __init__(self, n: int, edges):
        if n < 2:
            raise ValueError("graph needs at least 2 vertices")
        pairs = []
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError):  # not iterable, or not two items
                raise ValueError(f"edge {_short.repr(edge)} is not a pair of vertices") from None
            try:
                if isinstance(a, bool) or isinstance(b, bool):  # int subclasses, but True is no vertex 1
                    raise TypeError
                a, b = index(a), index(b)
            except TypeError:
                raise ValueError(f"edge {_short.repr(edge)} has a non-integer vertex") from None
            if a == b:
                raise ValueError(f"self-loop at vertex {_short.repr(a)}")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge {_short.repr((a, b))} outside 1..{_short.repr(n)}")
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

    @cached_property
    def generators(self) -> tuple:
        """The graph state's stabilizer generators, vertex 1 first: (x, z, sign) = (X on a, Z on its neighbours, +1)."""
        return tuple((1 << (self.n - a), mask, 1) for a, mask in enumerate(self.masks, 1))


def complete_graph(n: int) -> GraphSpec:
    """All n(n-1)/2 edges between n vertices."""
    return GraphSpec(n, ((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)))


def chain_graph(n: int) -> GraphSpec:
    """Linear chain 1-2-...-n."""
    return GraphSpec(n, ((a, a + 1) for a in range(1, n)))


@lru_cache(maxsize=None)
def _subset_bits(b: int) -> tuple:
    """For k < b, the 2^b-bit int whose bit j is bit k of j (0xAA..., 0xCC..., 0xF0F0..., ...)."""
    ones = (1 << (1 << b)) - 1
    return tuple(ones // ((1 << (1 << k)) + 1) << (1 << k) for k in range(b))


def full_weight_count(source) -> int:
    """Number of identity-free elements of the group that source's generators span.

    source is a stabilizer source (see the module docstring), whose
    generators are (x, z, sign) triples with qubit 1 at the top bit: this
    is len(stabilizer.full_weight_support(source)).
    Bit-sliced over chunks of 2^b subsets, b = min(n, 14): bit j of a
    slice stands for the subset whose low generators are the set bits of
    j.  Qubit q's x bit is the XOR of the _subset_bits ints of the low
    generators with x on q (z likewise), and the chunk's high generators
    flip whole slices, so a chunk counts as popcount(AND over q of
    x_q | z_q): O(2^14) memory and n big-int ANDs.  No phase is formed:
    B does not depend on signs, and commuting generators with +-1 signs
    (checked by StabilizerGroup, true of every graph) make every phase
    real.  A diagonal source (every generator X-free, as for a basis
    state) has one (Z^n), with no count; any other above COUNT_LIMIT
    qubits raises LimitError at once, before its generators are read.
    """
    check_count_limit(source)
    if source.diagonal:
        return 1
    n = source.n
    b = min(n, _SUBSET_BITS)
    ones = (1 << (1 << b)) - 1
    xs, zs = [0] * n, [0] * n  # per bit position p of the masks
    for column, (gx, gz, _) in zip(_subset_bits(b), source.generators):
        for p in range(n):
            if gx >> p & 1:
                xs[p] ^= column
            if gz >> p & 1:
                zs[p] ^= column
    # x_q | z_q for each (x flip, z flip) of the high generators, at index 2 * x flip + z flip
    slices = [(x | z, x | (z ^ ones), (x ^ ones) | z, (x ^ ones) | (z ^ ones)) for x, z in zip(xs, zs)]
    high = source.generators[b:]
    hx = hz = count = 0
    for step in range(1 << (n - b)):  # high subsets in Gray-code order: one generator per step
        if step:
            gx, gz, _ = high[(step & -step).bit_length() - 1]
            hx ^= gx
            hz ^= gz
        acc = ones
        for p, flips in enumerate(slices):
            acc &= flips[(hx >> p & 1) << 1 | (hz >> p & 1)]
        count += acc.bit_count()
    return count


def pattern_halves(n: int, parity: int, render):
    """The n-bit masks of popcount parity `parity` in combinations order, as (top half, bottom halves) pairs.

    Combinations order (qubit 1 at the top bit) is popcount ascending,
    then mask descending: within popcount w, top half t (the n - n // 2
    high bits) descending, then the bottom halves of popcount
    w - popcount(t) descending.  render maps each popcount's bottom halves,
    listed once, to the form its caller joins; no 2^n list is built or
    sorted.  ValueError below 2 qubits and LimitError above PATTERN_LIMIT
    come first.
    """
    if n < 2:
        raise ValueError("pattern needs n >= 2")
    if n > PATTERN_LIMIT:
        raise LimitError(f"pattern of 2^{_short.repr(n - 1)} words exceeds the {PATTERN_LIMIT}-qubit limit")
    low, tops = n // 2, range((1 << (n - n // 2)) - 1, -1, -1)
    bottoms = [render([b for b in range((1 << low) - 1, -1, -1) if b.bit_count() == r]) for r in range(low + 1)]
    return ((t, bottoms[w - t.bit_count()])
            for w in range(parity, n + 1, 2) for t in tops if w - low <= t.bit_count() <= w)


def measurement_settings(n: int, noise: bool = False) -> Iterator[bytes]:
    """Local observables sufficient to evaluate the criterion on complete-graph states.

    The words of stabilizer.cg_nonzero_pattern, in its order, each a top
    half joined to a bottom half of pattern_halves, then with noise=True
    the all-Z word of the colored-noise term: an iterator of ASCII
    blocks, one per top half, made as it is read, a newline after each
    word.  Refuses n < 2 and n above PATTERN_LIMIT when called.
    """
    low, xz = n // 2, bytes.maketrans(b"01", b"ZX")

    def word(mask, bits):  # X on the set bits of mask, Z elsewhere, top bit first
        return format(mask, f"0{bits}b").encode().translate(xz)

    halves = pattern_halves(n, 1, lambda group: [word(b, low) + b"\n" for b in group])
    tops = [word(t, n - low) for t in range(1 << (n - low))]
    # each bottom word ends in a newline, so top + top.join(bottoms) is the rows top + bottom, one per bottom
    blocks = (tops[t] + tops[t].join(bottoms) for t, bottoms in halves)
    return chain(blocks, [b"Y" * n + b"\n"] * (1 - n % 2) + [b"Z" * n + b"\n"] * noise)  # all-Y at even n, all-Z for noise
