"""k-separability bounds and detection for complete-graph-class states.

A k-separable state factors (in every pure decomposition term) into k
tensor blocks; the tensor norm then factors into a product of per-block
norms, each bounded by sqrt(2^(m-1) + s_m) for an m-qubit block.  The
detection bound is the maximum of that product over the admissible
k-partitions of n, where admissible means at most one block of size 2.
A measured norm strictly above the bound certifies non-k-separability;
the criterion is one-sided, so anything else is inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .states import ghz_state, noisy_mixture
from .tensor import full_tensor, tensor_dot

NON_K_SEPARABLE = "NonKSeparable"
INCONCLUSIVE = "Inconclusive"

_BISECT_TOL = 1e-12


@dataclass(frozen=True)
class PartitionBound:
    """Maximizing k-partition of n with its norm bound."""

    n: int
    k: int
    parts: tuple
    bound: float
    per_part_s: tuple

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


def _partitions_into(n: int, k: int, lo: int = 1):
    """Multisets of k parts >= lo summing to n, as nondecreasing tuples."""
    if k == 1:
        if n >= lo:
            yield (n,)
        return
    for first in range(lo, n // k + 1):
        for rest in _partitions_into(n - first, k - 1, first):
            yield (first,) + rest


def admissible_partitions(n: int, k: int, admissible_only: bool = True) -> list[tuple]:
    """k-partitions of n with at most one part equal to 2, in lex order.

    admissible_only=False drops the one-block-of-two rule, exposing the
    unfiltered maximum for comparison.
    """
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    parts = list(_partitions_into(n, k))
    if admissible_only:
        parts = [p for p in parts if p.count(2) <= 1]
    return parts


def part_norm(m: int) -> float:
    """Tensor-norm bound of one m-qubit block: sqrt(2^(m-1) + s_m)."""
    if m < 1:
        raise ValueError(f"block size must be >= 1, got {m}")
    return math.sqrt(2 ** (m - 1) + (1 if m % 2 == 0 else 0))


@lru_cache(maxsize=None)
def k_sep_bound(n: int, k: int, admissible_only: bool = True) -> PartitionBound:
    """Admissible k-partition of n maximizing the product of block norms.

    Ties go to the lexicographically smallest partition.  Results are
    cached: noise sweeps and threshold solves ask for the same (n, k) on
    every grid step.
    """
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    best_parts = None
    best = -1.0
    for parts in admissible_partitions(n, k, admissible_only):
        bound = math.prod(part_norm(m) for m in parts)
        if bound > best * (1.0 + 1e-12):
            best = bound
            best_parts = parts
    assert best_parts is not None
    s_flags = tuple(1 if m % 2 == 0 else 0 for m in best_parts)
    return PartitionBound(n, k, best_parts, best, s_flags)


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
    outcome = NON_K_SEPARABLE if norm > bound else INCONCLUSIVE
    return Verdict(outcome, norm, bound, k)


def _cg_numerator(n: int, p: float) -> float:
    a = 2 ** (n - 1) + (1 if n % 2 == 0 else 0)
    return a * (1.0 - 2.0 * p) + (a + 1) * p * p


@lru_cache(maxsize=None)
def _ghz_noise_products(n: int) -> tuple[float, float, float]:
    """B = base.base, C = base.ones, O = ones.ones of the dense-path tensors
    of the GHZ state (base) and of |1...1> (ones)."""
    base = full_tensor(ghz_state(n), method="dense")
    ones = full_tensor(noisy_mixture(ghz_state(n), 1.0), method="dense")
    return tensor_dot(base, base), tensor_dot(base, ones), tensor_dot(ones, ones)


def _ghz_numerator(n: int, p: float) -> float:
    # the mixture tensor is (1-p) base + p ones by linearity of the ensemble
    # expectation, so its squared norm is a quadratic in p; the two
    # supports overlap at the all-Z word for even n
    b, c, o = _ghz_noise_products(n)
    return (1.0 - p) ** 2 * b + 2.0 * p * (1.0 - p) * c + p * p * o


def xi_noise(n: int, k: int, p: float, family: str = "cg") -> XiResult:
    """Squared norm of the noisy family state over the squared k-sep bound.

    The complete-graph numerator is the closed form
    (2^(n-1)+s)(1-2p) + (2^(n-1)+s+1)p^2; the GHZ numerator is computed
    from the dense-path tensor of the mixture, which for even n exceeds
    the closed form by 2p(1-p).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability must be in [0, 1], got {p}")
    if family == "cg":
        numerator = _cg_numerator(n, p)
    elif family == "ghz":
        numerator = _ghz_numerator(n, p)
    else:
        raise ValueError(f"family must be 'cg' or 'ghz', got {family!r}")
    denominator = k_sep_bound(n, k).bound ** 2
    return XiResult(n, k, p, numerator, denominator, numerator / denominator)


def threshold_p(n: int, k: int, family: str = "cg") -> float | None:
    """Smallest p in [0, 1] where the noisy state stops violating the bound.

    Solves numerator(p) = bound^2: in closed form for the complete-graph
    quadratic, by bracketing and bisection on the oracle numerator for
    GHZ.  None when there is no root in [0, 1].
    """
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    d = k_sep_bound(n, k).bound ** 2
    if family == "cg":
        a = 2 ** (n - 1) + (1 if n % 2 == 0 else 0)
        # (a+1) p^2 - 2 a p + (a - d) = 0
        disc = d * (a + 1) - a
        if disc < 0:
            return None
        root = math.sqrt(disc)
        for cand in sorted(((a - root) / (a + 1), (a + root) / (a + 1))):
            if -1e-12 <= cand <= 1.0 + 1e-12:
                return min(max(cand, 0.0), 1.0)
        return None
    if family != "ghz":
        raise ValueError(f"family must be 'cg' or 'ghz', got {family!r}")

    def f(p: float) -> float:
        return _ghz_numerator(n, p) - d

    grid = [i / 1024 for i in range(1025)]
    values = [f(p) for p in grid]
    for lo_i in range(1024):
        lo_v, hi_v = values[lo_i], values[lo_i + 1]
        if lo_v == 0.0:
            return grid[lo_i]
        if lo_v * hi_v < 0:
            lo, hi = grid[lo_i], grid[lo_i + 1]
            while hi - lo > _BISECT_TOL:
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
    if values[-1] == 0.0:
        return 1.0
    return None
