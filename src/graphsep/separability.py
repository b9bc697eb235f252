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

Noise is exact too: a state mixed with |1...1> has the squared norm
((1-p)^2 B + 2p(1-p) C + p^2 O) / D with integers B, C, O, D
(noise_products), which xi_noise evaluates exactly at the float p it is
given and threshold_p solves in integers.  FAMILIES is the one table
of the named families (the complete graph, GHZ, W and the cluster
chain), each mapped to its closed form, a function of n; check_family
checks a name against it, and norm_table lists the squared norms B / D
that the norms command prints.  A graph file's graph and any stabilizer
group are read alike (graphs), a graph with no group built.
So sweep verdicts, and detect verdicts on every named family and graph
state, are exact decisions at the given p, and printed fields are
correctly rounded.
Only detect on raw amplitudes (a squared norm summed in floats from the
amplitudes) certifies past a stated worst-case rounding margin.

The integer closed forms (cg_norm_sq, sqrt_int, permutation_terms),
LimitError (the one error of every size limit) and _short (the one
formatter of a caller's number in a message) live here, and importing
the module runs neither numpy nor another graphsep module.
"""

from __future__ import annotations

import math
import reprlib
import sys
from collections.abc import Iterator
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

from . import graphs  # a lazy module (graphsep/__init__.py): runs for a graph or group source

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


class PartitionBound(NamedTuple):
    """Maximizing k-partition of n with its norm bound.

    bound_sq is the exact integer product of 2^(m-1) + s_m over the
    parts; bound is its square root as a float.
    """

    n: int
    k: int
    parts: tuple
    bound: float
    bound_sq: int

    def partition_label(self) -> str:
        # one str per run of equal parts, not one per block (up to 10^6 blocks)
        runs = ((str(m), sum(1 for _ in run)) for m, run in groupby(self.parts))
        return "|".join(f"{s}|" * (count - 1) + s for s, count in runs)


class XiResult(NamedTuple):
    """A state's squared norm (numerator) over the squared k-separability
    bound (denominator), as floats, with the verdict."""

    n: int
    k: int
    numerator: float
    denominator: float
    xi: float
    verdict: str


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


def _lower_bound(norm_sq: float, n: int) -> float:
    """norm_sq minus the rounding margin of detect (see there)."""
    e, r = (n + 8) * 2.0 ** -52, 3 ** (n / 2)
    return norm_sq - e * r * (2 * math.sqrt(norm_sq) + e * r) - 2.0 ** -51 * norm_sq


def detect(norm_sq: float, n: int, k: int) -> XiResult:
    """Compare a squared tensor norm summed in floats with bound_sq.

    Raw amplitudes take this rule; named families and tagged states take
    the exact xi_noise.  Certifies only when a lower bound on the true
    squared norm (of the very floats given) exceeds bound_sq.  xi is
    norm_sq over bound_sq, correctly rounded.

    The margin covers both float sums of the package; u = 2^-53.  The
    CLI's is the amplitude kernel (amplitudes._pure_norm_sq).  Its squared
    norm is |G|^2 for the vector G of the 3^n values sqrt(2^|x|) g_x(u),
    each g a sum of at most 2^n products a[u, v] conj(a[ubar, v]).  A
    complex product is within sqrt(5) u of its value, and a pairwise fold
    of depth at most n adds n u times the sum of the magnitudes.  So each
    g is within e' S_u, e' = (n + 3) u, where
    S_u = sum_v |a[u, v]| |a[ubar, v]| <= |a_u| |a_ubar| (Cauchy-Schwarz
    over v).  Over u, sum |a_u|^2 |a_ubar|^2 <= (sum |a_u|^2)^2 = 1, so
    the error vector E of G has |E| <= e' r with r = 3^(n/2), and
    | |G + E|^2 - |G|^2 | <= |E| (2 |G + E| + |E|) <= e' r (2 sqrt(norm_sq) + e' r).
    Squaring the parts of each g and one fsum add 2u norm_sq.  The dense
    sweep (full_tensor) sums rho over M members in turn (M - 1 roundings,
    each product (w a_r) conj(a_c) within (1 + sqrt(5)) u), then takes
    each tensor entry as a tree of n additions of the 2^n entries
    rho[r, r ^ x] times +-1 or +-i, whose magnitudes sum to at most
    sum_w w sum_r |a_r| |a_(r ^ x)| <= 1.  So its 3^n entries are within
    (n + M + 3) u, at most (n + 8) u for M <= 5 members: the same form
    with e' = (n + 8) u, and squaring and summing add 2u norm_sq.
    _lower_bound doubles the larger of the two, e = 2 (n + 8) u and
    4u norm_sq, which covers the rounding of the margin itself and the
    1e-12 by which a raw file's norm may miss 1.
    """
    if norm_sq < 0:
        raise ValueError(f"squared norm must be nonnegative, got {norm_sq}")
    d = k_sep_bound(n, k).bound_sq
    num, den = norm_sq.as_integer_ratio()
    return XiResult(n, k, norm_sq, float(d), num / (den * d), _outcome(_lower_bound(norm_sq, n), d))


# Largest chain _chain_counts counts: its O(n^2) bit work takes about 0.12-0.17 s
# at 100,000 (2-core VM); the squared norm leaves the float range at n = 1857
CHAIN_LIMIT = 100_000


def _chain_counts(ns: range) -> Iterator[int]:
    """B_n for each n of ns (step 1) of the n-vertex chain (cluster) state, in
    one pass: the subsets S whose element (x = S, z = A S) is full weight, i.e.
    0/1 strings whose every 0 has exactly one neighbouring 1: an optional 0,
    a word that starts with 1 and goes on in tokens 1 and 001, and an
    optional 0.  Such words of length m number f_m = f_(m-1) + f_(m-3)
    (split off the last token), so B_n = f_n + 2 f_(n-1) + f_(n-2) follows
    the same recurrence: 3, 4, 5, 8, 12, 17, ... from n = 2.  Above
    CHAIN_LIMIT it raises LimitError at the first read, before the loop."""
    if ns[-1] > CHAIN_LIMIT:
        raise LimitError(f"cluster count over {_short.repr(ns[-1])} qubits exceeds the {CHAIN_LIMIT}-qubit limit")
    a, b, c = 1, 1, 3  # B_0, B_1, B_2
    for n in range(ns.stop):
        if n >= ns.start:
            yield a
        a, b, c = b, c, c + a


@lru_cache(maxsize=8)
def _chain_count(n: int) -> int:
    """B_n alone (_chain_counts); the last few are cached for the sweep's grid."""
    return next(_chain_counts(range(n, n + 1)))


# family name -> its noise products (B, C, O, D) as a function of n
FAMILIES = {
    "cg": lambda n: (cg_norm_sq(n), 0, 1, 1),
    "ghz": lambda n: (cg_norm_sq(n), 1 - n % 2, 1, 1),
    "w": lambda n: (5 * n - 4, n if n % 2 else -n, n, n),
    "cluster": lambda n: (_chain_count(n), 0, 1, 1),
}


def check_family(name, *others) -> None:
    """Refuse a name that is neither a key of FAMILIES nor one of others (ValueError)."""
    names = (*FAMILIES, *others)
    if name not in names:
        raise ValueError(f"unknown family {name!r}; expected one of {names}")


def norm_table(families, n_min: int, n_max: int) -> list[tuple[str, int, float]]:
    """(family, n, squared norm) rows, family-major then n ascending.

    Each row is the exact B / D of the family's closed form in FAMILIES,
    correctly rounded: no state, group or count is built, at any n.
    """
    fams, ns = list(families), range(n_min, n_max + 1)
    for family in fams:
        check_family(family)
    if not 2 <= n_min <= n_max:
        raise ValueError(f"need 2 <= n_min <= n_max, got {_short.repr(n_min)}..{_short.repr(n_max)}")
    # a cluster range takes its counts from one pass of their recurrence, not each B_n from B_0 (FAMILIES)
    return [(family, n, b / d) for family in fams for n, (b, _, _, d) in zip(ns, map(FAMILIES[family], ns)
            if family != "cluster" else ((count, 0, 1, 1) for count in _chain_counts(ns)))]


def noise_products(n: int, source) -> tuple[int, int, int, int]:
    """Integer products (B, C, O) = base.base, base.ones, ones.ones of the
    tensors of a state (base) and of |1...1> (ones), times a common
    denominator D, so that the mixture (1-p) base + p ones has the squared
    norm ((1-p)^2 B + 2p(1-p) C + p^2 O) / D.

    The one place that picks a count source, checked before the products
    are built.  source is a name of FAMILIES, whose closed form is good at
    any n.  GHZ is local-unitary equivalent to the complete graph state
    (B = 2^(n-1) + s_n for both); ones is the one all-Z entry (-1)^n,
    which no graph state has (its elements have x = S) and GHZ has as 1
    at even n, 0 at odd n.  The W state has Z^n at -1 and the C(n, 2)
    words XX and YY on each qubit pair (Z elsewhere) at 2/n, so
    B = 1 + 8 C(n, 2) / n^2 = 5 - 4/n and C = (-1)^(n+1), over D = n.  Or
    source is a stabilizer source (graphs: a GraphSpec, or a
    StabilizerGroup), with B = full_weight_count, C = (-1)^n zn_sign and
    O = D = 1; a graph builds no group.
    """
    _check_source(n, source)
    return _products(n, source)


def _check_source(n: int, source, count: bool = True) -> None:
    """Refuse an unknown name, a family below 2 qubits or a source of another n
    (ValueError), then, if count, a source over the count limit (graphs.check_count_limit)."""
    if isinstance(source, str):
        check_family(source)
        if n < 2:
            raise ValueError(f"family {source!r} needs at least 2 qubits, got n={_short.repr(n)}")
    elif source.n != n:
        raise ValueError(f"source has {_short.repr(source.n)} qubits, not {_short.repr(n)}")
    elif count:
        graphs.check_count_limit(source)


def _products(n: int, source) -> tuple[int, int, int, int]:
    """noise_products of a source that _check_source has passed."""
    if isinstance(source, str):
        return FAMILIES[source](n)
    return graphs.full_weight_count(source), (-1) ** n * source.zn_sign, 1, 1


def xi_noise(n: int, k: int, p: float, family="cg") -> XiResult:
    """Squared norm of the noisy state over the squared k-sep bound.

    family is any source of noise_products.  Exact at the float p = u/v
    it is given: the squared norm is top / (v^2 D) with an integer top,
    so the verdict is an exact decision at that p and each field is one
    correctly rounded int / int division.  After p, the source is checked,
    then k (k_sep_bound), then the products built; at p = 1 the state is
    |1...1> alone, (1, 1, 1, 1), with no products and no count limit.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability must be in [0, 1], got {p}")
    _check_source(n, family, p < 1.0)
    d = k_sep_bound(n, k).bound_sq
    b, c, o, den = (1, 1, 1, 1) if p == 1.0 else _products(n, family)
    u, v = p.as_integer_ratio()
    top, scale = (v - u) ** 2 * b + 2 * u * (v - u) * c + u * u * o, v * v * den
    return XiResult(n, k, top / scale, float(d), top / (scale * d), _outcome(top, scale * d))


def _first_root(a2: int, a1: int, a0: int) -> float | None:
    """Smallest root of a2 p^2 + a1 p + a0 in [0, 1] (a2 > 0, or a2 = a1 = 0:
    the constant a0, with root 0 when a0 = 0), correctly rounded, or None;
    in integers.  With t = 2^m, root * t has the floor
    q = (-a1 t -+ sqrt(disc t^2)) // 2a2, the square root taken up for -
    and down for +.  A nonzero root exceeds 1/(1 + max(|a1|, a2)), so
    m = bit length + 58 gives q over 54 bits, and setting its lowest bit
    when root * t is not an integer makes q / t round as the root does.
    """
    if a2 == 0:
        return 0.0 if a0 == 0 else None
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return None
    m = max(abs(a1), a2).bit_length() + 58
    t = 1 << m
    scaled = disc << (2 * m)
    root = math.isqrt(scaled)
    exact = root * root == scaled
    for num in (-a1 * t - root - (not exact), -a1 * t + root):
        q, rem = divmod(num, 2 * a2)
        inexact = not exact or rem != 0
        if 0 <= q < t or q == t and not inexact:
            return (q | inexact) / t
    return None


def threshold_p(n: int, k: int, family="cg") -> float | None:
    """Smallest p in [0, 1] where the noisy state stops violating the bound.

    The correctly rounded root of (1-p)^2 B + 2p(1-p) C + p^2 O = D bound_sq
    (noise_products), solved in integers; None if none lies in [0, 1].
    The source is checked, then k (k_sep_bound), then the products built.
    """
    _check_source(n, family)
    d = k_sep_bound(n, k).bound_sq
    b, c, o, den = _products(n, family)
    return _first_root(b - 2 * c + o, 2 * (c - b), b - den * d)
