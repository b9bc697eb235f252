"""The k-separability bound of the complete-graph class, and the verdict rule.

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
    block has its smallest size (one 2 and then 4s, by the at-most-one-2
    rule), and the spare qubits go to one odd block, or to the last even
    block when all k blocks are even.
  * An even block uses an odd number m - 1 of qubits beyond its first,
    so the number j of even blocks has the parity of n - k.  Going from
    j to j + 2 even blocks multiplies the product by more than 1, so j
    is the largest count whose smallest blocks fit.

Every other partition has a strictly smaller product, so ties only
differ in how the odd blocks share the spare qubits; putting them all
in one block (the others stay 1) gives the lexicographically smallest
partition.  The work is O(k) integer steps with no search at all.

_outcome is the verdict rule, of separability's exact verdicts and of
amplitudes.detect's on a float norm, past its rounding margin.  The
integer closed forms (cg_norm_sq, sqrt_int, permutation_terms),
LimitError (the one error of every size limit) and _short (the one
formatter of a caller's number in a message) live here too.  The module
reads only the standard library, so every graphsep module can import it.
"""

from __future__ import annotations

import math
import reprlib
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import groupby

NON_K_SEPARABLE = "NonKSeparable"
INCONCLUSIVE = "Inconclusive"


class LimitError(RuntimeError):
    """A request beyond a size limit (qubits, words or grid steps), refused before the work."""


# reprlib.repr, but an int past 4096 bits (the int-to-str limit) shows its size, and another integer type its str()
_short = reprlib.Repr()
_short.repr_int = lambda x, level: reprlib.repr(x) if x.bit_length() <= 4096 else f"<{x.bit_length()}-bit int>"
_short.repr_instance = lambda x, level: str(x) if hasattr(x, "__index__") else reprlib.repr(x)


def _outcome(value_sq, bound_sq: int) -> str:
    """The verdict rule: only a strict violation of the squared bound
    certifies anything.  Python compares int and float operands exactly."""
    return NON_K_SEPARABLE if value_sq > bound_sq else INCONCLUSIVE


class PartitionBound(namedtuple("PartitionBound", "n k parts bound bound_sq")):
    """Maximizing k-partition of n with its norm bound.

    bound_sq is the exact integer product of 2^(m-1) + s_m over the
    parts; bound is its square root as a float.
    """

    __slots__ = ()

    def partition_label(self) -> str:
        # one str per run of equal parts, not one per block (up to 10^6 blocks)
        runs = ((str(m), sum(1 for _ in run)) for m, run in groupby(self.parts))
        return "|".join(f"{s}|" * (count - 1) + s for s, count in runs)


class XiResult(namedtuple("XiResult", "n k numerator denominator xi verdict")):
    """A state's squared norm (numerator) over the squared k-separability
    bound (denominator), as floats, with the verdict."""

    __slots__ = ()


def admissible_partitions(n: int, k: int, admissible_only: bool = True) -> list[tuple]:
    """k-partitions of n with at most one part equal to 2, in lex order.

    admissible_only=False drops the one-block-of-two rule and lists every
    k-partition.
    """
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={_short.repr(k)}, n={_short.repr(n)}")
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


def cg_norm_sq(m: int) -> int:
    """2^(m-1) + s_m (s_m = 1 for even m, else 0), an exact integer.

    The squared tensor norm of the m-qubit complete graph state, and so
    the squared norm bound of an m-qubit block in a k-partition.
    """
    return (1 << (m - 1)) + (1 - m % 2)


def sqrt_int(value: int) -> float:
    """sqrt of a nonnegative integer of any size, as a float.

    Integers above 2^100 are shifted down by an even number of bits
    first, so a square beyond the float range (2^1024) still gives its
    root; only a root beyond that range raises OverflowError.
    """
    shift = max(0, (value.bit_length() - 100) // 2)
    return math.ldexp(math.sqrt(value >> (2 * shift)), shift)


def permutation_terms(n: int) -> list[tuple[int, int]]:
    """(x, C(n, x)) for each odd x: the per-block permutation counts."""
    if n < 2:
        raise ValueError("count needs n >= 2")
    return [(x, math.comb(n, x)) for x in range(1, n + 1, 2)]


@lru_cache(maxsize=8)
def k_sep_bound(n: int, k: int) -> PartitionBound:
    """Admissible k-partition of n maximizing the product of block norms.

    Exact: the largest integer product of 2^(m-1) + s_m, with ties going
    to the lexicographically smallest partition (see the module
    docstring for why the construction below attains it).  The last few
    results are cached: noise sweeps and threshold solves ask for the
    same (n, k) on every grid step, and a bounded cache lets a bounds
    table's O(k)-sized partitions go once it moves on.
    """
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={_short.repr(k)}, n={_short.repr(n)}")
    spare = n - k  # qubits beyond one per block
    if spare >= 2 * sys.float_info.max_exp:
        # bound_sq >= 2^spare, so its root is past the float range: refuse before the product
        raise OverflowError("math range error")
    # the most even blocks whose smallest sizes (one 2, then 4s) fit, with the parity of spare
    even = min(k, (spare - 1) // 3 + 1) if spare else 0
    even -= (even - spare) % 2
    evens = [2] + [4] * (even - 1) if even else []
    left = spare - sum(m - 1 for m in evens)
    if even == k:
        evens[-1] += left
        odds = []
    else:
        odds = [1] * (k - even - 1) + [1 + left]
    parts = tuple(sorted(odds + evens))
    bound_sq = math.prod(cg_norm_sq(m) for m in parts)
    return PartitionBound(n, k, parts, sqrt_int(bound_sq), bound_sq)

