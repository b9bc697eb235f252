"""Exact stabilizer-side machinery for graph-state correlation tensors.

Pauli words are handled in X/Z mask form: a group element is stored as
``i^t * X^x * Z^z`` with x, z bitmasks (qubit 1 at the top bit) and t the
power of i.  The Hermitian word with a Y wherever both masks are set
equals ``i^y * X^x * Z^z`` with y the number of Y positions, so the sign
of a group element relative to the Hermitian word is ``i^(t - y)``,
asserted to be +-1 throughout.

This gives O(2^n) support enumeration and O(n) expectation lookups where
the dense path would sweep 3^n strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .pauli import PauliString, pack_index, unpack_index
from .states import GraphSpec


@dataclass(frozen=True, eq=False)
class StabilizerGroup:
    """n independent, commuting signed Pauli generators on n qubits.

    Each generator is an (x_bits, z_bits, sign) triple.  Construction
    verifies pairwise commutation and GF(2) independence and prepares a
    row-reduced basis for membership solves.
    """

    n: int
    generators: tuple
    _reduced: list = field(init=False, repr=False)

    def __post_init__(self):
        gens = tuple((int(x), int(z), int(s)) for x, z, s in self.generators)
        if len(gens) != self.n:
            raise ValueError(f"need exactly {self.n} generators, got {len(gens)}")
        mask = (1 << self.n) - 1
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
            vec, combo = self._reduce_vector(reduced, (x << self.n) | z, 1 << k)
            if vec == 0:
                raise ValueError("generators must be independent over GF(2)")
            reduced.append((vec, combo))
            reduced.sort(key=lambda rc: -rc[0])
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_reduced", reduced)

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

    def product_sign(self, combo: int) -> tuple[int, int, int]:
        """Multiply the generators flagged in combo.

        Returns (x, z, sign) where the product equals sign times the
        Hermitian Pauli word with masks (x, z).
        """
        x = z = t = 0
        for k in range(self.n):
            if not (combo >> k) & 1:
                continue
            gx, gz, gs = self.generators[k]
            # Z^z X^gx reorder plus the i^y canonical form of the row
            t += 2 * (z & gx).bit_count() + (gx & gz).bit_count()
            if gs == -1:
                t += 2
            x ^= gx
            z ^= gz
        t = (t - (x & z).bit_count()) % 4
        if t == 0:
            return x, z, 1
        if t == 2:
            return x, z, -1
        raise RuntimeError("stabilizer product has non-real phase")

    def generator_words(self) -> list[str]:
        """Generators rendered as signed Pauli words, for inspection."""
        words = []
        for x, z, s in self.generators:
            letters = []
            for a in range(self.n):
                bit = 1 << (self.n - 1 - a)
                code = (2 if x & bit else 0) + (1 if z & bit else 0)
                letters.append("IZXY"[code])
            words.append(("+" if s == 1 else "-") + "".join(letters))
        return words


@dataclass(frozen=True, eq=False)
class SupportPattern:
    """Set of identity-free index words with signs, keyed base-3 packed.

    Pattern generators that only enumerate index sets store a +1
    placeholder sign; signed entries come from full_weight_support.
    """

    n: int
    entries: dict

    def __len__(self) -> int:
        return len(self.entries)

    def packed_set(self) -> frozenset:
        return frozenset(self.entries)

    def indices(self) -> list[tuple[int, ...]]:
        return [unpack_index(k, self.n) for k in self.entries]

    def words(self) -> list[str]:
        return ["".join("XYZ"[i - 1] for i in idx) for idx in self.indices()]


def stabilizer_group(spec: GraphSpec) -> StabilizerGroup:
    """Graph-state stabilizer generators: X on vertex a, Z on its neighbors."""
    adj = spec.adjacency_masks()
    gens = tuple((1 << (spec.n - a), adj[a - 1], 1) for a in range(1, spec.n + 1))
    return StabilizerGroup(spec.n, gens)


def stabilizer_expectation(g: StabilizerGroup, p: PauliString) -> int:
    """Exact expectation of a Pauli word on the stabilized state: -1, 0 or +1.

    +-1 when +-P lies in the group (GF(2) membership solve plus sign
    accumulation), 0 otherwise.
    """
    if g.n != p.n:
        raise ValueError(f"group has {g.n} qubits, Pauli word has {p.n}")
    x, z, _ = p.masks()
    combo = g.member_combo(x, z)
    if combo is None:
        return 0
    px, pz, sign = g.product_sign(combo)
    if (px, pz) != (x, z):
        raise RuntimeError("membership solve produced inconsistent masks")
    return sign


def full_weight_support(g: StabilizerGroup) -> SupportPattern:
    """All identity-free group elements with their signs.

    Walks the 2^n subset lattice in Gray-code order so each step is a
    single generator multiplication.
    """
    n = g.n
    full = (1 << n) - 1
    entries: dict[int, int] = {}
    x = z = t = 0
    for step in range(1, 1 << n):
        k = (step & -step).bit_length() - 1  # generator toggled by this Gray step
        gx, gz, gs = g.generators[k]
        t += 2 * (z & gx).bit_count() + (gx & gz).bit_count()
        if gs == -1:
            t += 2
        x ^= gx
        z ^= gz
        if (x | z) != full:
            continue
        phase = (t - (x & z).bit_count()) % 4
        if phase & 1:
            raise RuntimeError("stabilizer element has non-real phase")
        idx = 0
        for a in range(n):
            bit = 1 << (n - 1 - a)
            code = (2 if x & bit else 0) + (1 if z & bit else 0)
            idx = idx * 3 + (0, 2, 0, 1)[code]  # X->0, Y->1, Z->2 packed digits
        entries[idx] = 1 if phase == 0 else -1
    return SupportPattern(n, entries)


def cg_nonzero_pattern(n: int) -> SupportPattern:
    """Index set where complete-graph-state tensors are nonzero (signs omitted).

    All placements of an odd number of X letters among Z letters, plus the
    all-Y word when n is even.
    """
    if n < 2:
        raise ValueError("pattern needs n >= 2")
    entries: dict[int, int] = {}
    for x_count in range(1, n + 1, 2):
        for positions in combinations(range(n), x_count):
            idx = [3] * n
            for pos in positions:
                idx[pos] = 1
            entries[pack_index(idx)] = 1
    if n % 2 == 0:
        entries[pack_index((2,) * n)] = 1
    return SupportPattern(n, entries)


def ghz_nonzero_pattern(n: int) -> SupportPattern:
    """Index set where GHZ-state tensors are nonzero (signs omitted).

    All placements of an even number of Y letters among X letters, plus
    the all-Z word when n is even.
    """
    if n < 2:
        raise ValueError("pattern needs n >= 2")
    entries: dict[int, int] = {}
    for y_count in range(0, n + 1, 2):
        for positions in combinations(range(n), y_count):
            idx = [1] * n
            for pos in positions:
                idx[pos] = 2
            entries[pack_index(idx)] = 1
    if n % 2 == 0:
        entries[pack_index((3,) * n)] = 1
    return SupportPattern(n, entries)


def cg_norm_closed(n: int) -> float:
    """Closed-form tensor norm of the n-qubit complete graph state."""
    if n < 2:
        raise ValueError("closed form needs n >= 2")
    return math.sqrt(2 ** (n - 1) + (1 if n % 2 == 0 else 0))


def permutation_terms(n: int) -> list[tuple[int, int]]:
    """(x, C(n, x)) for each odd x: the per-block permutation counts."""
    if n < 2:
        raise ValueError("count needs n >= 2")
    return [(x, math.comb(n, x)) for x in range(1, n + 1, 2)]


def permutation_count(n: int) -> int:
    """Number of nonzero complete-graph tensor entries, exact integer.

    Sum of the odd binomials C(n, x) plus one for the all-Y word at even
    n; always equals 2^(n-1) + s.
    """
    total = sum(c for _, c in permutation_terms(n))
    if n % 2 == 0:
        total += 1
    return total
