"""k-separability bounds and detection for complete-graph-class states.

A k-separable state factors (in every pure decomposition term) into k
tensor blocks; the tensor norm then factors into a product of per-block
norms, each bounded by sqrt(2^(m-1) + s_m) for an m-qubit block.  The
detection bound is the maximum of that product over the admissible
k-partitions of n, where admissible means at most one block of size 2.
A measured norm strictly above the bound certifies non-k-separability;
the criterion is one-sided, so anything else is inconclusive.

Each squared block bound 2^(m-1) + s_m is an integer, so the squared
k-separability bound is an exact integer product, and k_sep_bound finds
its maximum without listing partitions.  An odd block gives exactly
2^(m-1) and an even one 2^(m-1) (1 + 2^(1-m)), so the product is
2^(n-k) prod_even (1 + 2^(1-m)): only the even blocks matter, and the
odd ones hold the spare qubits.

  * Two even blocks a <= b of fixed total give (1 + x)(1 + y) with xy
    fixed, which grows as a shrinks.  So in a best partition every even
    block has its smallest size (one 2 and then 4s; all 2s without the
    at-most-one-2 rule), and the spare qubits go to one odd block, or
    to the last even block when all k blocks are even.
  * An even block uses an odd number m - 1 of qubits beyond its first,
    so the number j of even blocks has the parity of n - k.  Going from
    j to j + 2 even blocks multiplies the product by more than 1, so j
    is the largest count whose smallest blocks fit.

Every other partition has a strictly smaller product, so ties only
differ in how the odd blocks share the spare qubits; putting them all
in one block (the others stay 1) gives the lexicographically smallest
partition.  The work is O(k) integer steps with no search at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .stabilizer import cg_norm_sq, sqrt_int

NON_K_SEPARABLE = "NonKSeparable"
INCONCLUSIVE = "Inconclusive"


def _outcome(value: float, bound: float) -> str:
    """The verdict rule: only a strict violation of the bound certifies anything."""
    return NON_K_SEPARABLE if value > bound else INCONCLUSIVE


@dataclass(frozen=True)
class PartitionBound:
    """Maximizing k-partition of n with its norm bound.

    bound_sq is the exact integer product of 2^(m-1) + s_m over the
    parts; bound is its square root as a float.
    """

    n: int
    k: int
    parts: tuple
    bound: float
    per_part_s: tuple
    bound_sq: int

    def partition_label(self) -> str:
        return "|".join(str(m) for m in self.parts)


@dataclass(frozen=True)
class Verdict:
    """Detection outcome for a measured norm against the k-separability bound."""

    outcome: str
    norm: float
    bound: float
    k: int


@dataclass(frozen=True)
class XiResult:
    """Squared-norm to squared-bound ratio for a noisy family instance."""

    n: int
    k: int
    p: float
    numerator: float
    denominator: float
    xi: float

    @property
    def verdict(self) -> str:
        return _outcome(self.xi, 1.0)


def admissible_partitions(n: int, k: int, admissible_only: bool = True) -> list[tuple]:
    """k-partitions of n with at most one part equal to 2, in lex order.

    admissible_only=False drops the one-block-of-two rule, exposing the
    unfiltered maximum for comparison.
    """
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    found = []
    parts = [1] * (k - 1) + [n - k + 1]
    while True:
        if not admissible_only or parts.count(2) <= 1:
            found.append(tuple(parts))
        # next in lex order: raise the rightmost part that can grow, set the
        # parts after it to the same value and the last one to the rest
        tail = parts[-1]
        for i in range(k - 2, -1, -1):
            tail += parts[i]
            grown = parts[i] + 1
            if tail >= grown * (k - i):
                parts[i:-1] = [grown] * (k - 1 - i)
                parts[-1] = tail - grown * (k - 1 - i)
                break
        else:
            return found


def part_norm(m: int) -> float:
    """Tensor-norm bound of one m-qubit block: sqrt(2^(m-1) + s_m)."""
    if m < 1:
        raise ValueError(f"block size must be >= 1, got {m}")
    return sqrt_int(cg_norm_sq(m))


@lru_cache(maxsize=None)
def k_sep_bound(n: int, k: int, admissible_only: bool = True) -> PartitionBound:
    """Admissible k-partition of n maximizing the product of block norms.

    Exact: the largest integer product of 2^(m-1) + s_m, with ties going
    to the lexicographically smallest partition (see the module
    docstring for why the construction below attains it).  Results are
    cached: noise sweeps and threshold solves ask for the same (n, k) on
    every grid step.
    """
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    spare = n - k  # qubits beyond one per block
    smallest = 4 if admissible_only else 2  # every even block after the first 2
    # the most even blocks whose smallest sizes fit, with the parity of spare
    even = min(k, (spare - 1) // (smallest - 1) + 1) if spare else 0
    even -= (even - spare) % 2
    evens = [2] + [smallest] * (even - 1) if even else []
    left = spare - sum(m - 1 for m in evens)
    if even == k:
        evens[-1] += left
        odds = []
    else:
        odds = [1] * (k - even - 1) + [1 + left]
    parts = tuple(sorted(odds + evens))
    bound_sq = math.prod(cg_norm_sq(m) for m in parts)
    s_flags = tuple(1 - m % 2 for m in parts)
    return PartitionBound(n, k, parts, sqrt_int(bound_sq), s_flags, bound_sq)


def biseparable_bound(n: int) -> float:
    """Closed-form bound for biseparable states: split off b = 1 or 2 qubits.

    b is 1 while ceil(n/2) <= 2 (so n <= 4, where a 2|2 split is not
    admissible) and 2 beyond that; always equals k_sep_bound(n, 2).
    """
    if n < 3:
        raise ValueError(f"biseparable bound needs n >= 3, got {n}")
    b = 1 if math.ceil(n / 2) <= 2 else 2
    return part_norm(b) * part_norm(n - b)


def detect(norm: float, n: int, k: int) -> Verdict:
    """Compare a measured tensor norm against the k-separability bound.

    Only a strict violation certifies anything; equality or less is
    inconclusive (the criterion never certifies separability).
    """
    if norm < 0:
        raise ValueError(f"norm must be nonnegative, got {norm}")
    bound = k_sep_bound(n, k).bound
    return Verdict(_outcome(norm, bound), norm, bound, k)


def _cg_numerator(n: int, p: float) -> float:
    a = cg_norm_sq(n)
    return a * (1.0 - 2.0 * p) + (a + 1) * p * p


def _ghz_noise_products(n: int) -> tuple[int, int, int]:
    """B = base.base, C = base.ones, O = ones.ones over the tensors of the GHZ
    state (base) and of |1...1> (ones), as exact integers.

    GHZ is local-unitary equivalent to the complete-graph state, so B is
    2^(n-1) + s_n; ones is the single all-Z entry (-1)^n, which GHZ has
    as +1 at even n and 0 at odd n.
    """
    return cg_norm_sq(n), 1 - n % 2, 1


def _ghz_numerator(n: int, p: float) -> float:
    # the mixture tensor is (1-p) base + p ones by linearity of the ensemble
    # expectation, so its squared norm is a quadratic in p; the two
    # supports overlap at the all-Z word for even n
    b, c, o = _ghz_noise_products(n)
    return (1.0 - p) ** 2 * b + 2.0 * p * (1.0 - p) * c + p * p * o


def xi_noise(n: int, k: int, p: float, family: str = "cg") -> XiResult:
    """Squared norm of the noisy family state over the squared k-sep bound.

    Both numerators are exact quadratics in p with integer coefficients:
    (2^(n-1)+s)(1-2p) + (2^(n-1)+s+1)p^2 for the complete graph, and
    (1-p)^2 (2^(n-1)+s) + 2p(1-p) s + p^2 for GHZ, whose tensor shares
    the all-Z word with the noise at even n (s = 1 there, else 0).  The
    denominator is the exact integer bound_sq.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability must be in [0, 1], got {p}")
    if family == "cg":
        numerator = _cg_numerator(n, p)
    elif family == "ghz":
        numerator = _ghz_numerator(n, p)
    else:
        raise ValueError(f"family must be 'cg' or 'ghz', got {family!r}")
    denominator = float(k_sep_bound(n, k).bound_sq)
    return XiResult(n, k, p, numerator, denominator, numerator / denominator)


def _first_root(a2, a1, a0) -> float | None:
    """Smallest root of a2 p^2 + a1 p + a0 in [0, 1] (a2 > 0), or None."""
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return None
    root = sqrt_int(disc)  # disc passes 2^1024 from about n = 512 on
    for cand in ((-a1 - root) / (2 * a2), (-a1 + root) / (2 * a2)):
        if -1e-12 <= cand <= 1.0 + 1e-12:
            return min(max(cand, 0.0), 1.0)
    return None


def threshold_p(n: int, k: int, family: str = "cg") -> float | None:
    """Smallest p in [0, 1] where the noisy state stops violating the bound.

    Both numerators are (1-p)^2 B + 2p(1-p) C + p^2 O with integer B, C,
    O: (2^(n-1) + s, 0, 1) for the complete graph, _ghz_noise_products
    for GHZ.  So numerator(p) = bound^2 is solved in closed form, with an
    exact integer discriminant.  None when there is no root in [0, 1].
    """
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    d = k_sep_bound(n, k).bound_sq
    if family == "cg":
        b, c, o = cg_norm_sq(n), 0, 1
    elif family == "ghz":
        b, c, o = _ghz_noise_products(n)
    else:
        raise ValueError(f"family must be 'cg' or 'ghz', got {family!r}")
    return _first_root(b - 2 * c + o, 2 * (c - b), b - d)
