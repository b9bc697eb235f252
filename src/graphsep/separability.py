"""Exact noise verdicts and the family table, on the bound of graphsep.bounds.

Noise is exact: a state mixed with |1...1> has the squared norm
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
Only detect on raw amplitudes (amplitudes.detect, a squared norm summed in
floats from the amplitudes) certifies past a stated worst-case rounding
margin.

The module reads bounds, and graphs only for a graph or group source;
importing it runs neither numpy nor the inspection layer.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

from . import graphs  # a lazy module (graphsep/__init__.py): runs for a graph or group source
from .bounds import LimitError, XiResult, _outcome, _short, cg_norm_sq, k_sep_bound
# perfbench/trace_op.py's TARGETS looks this up here, as it does k_sep_bound
from .bounds import admissible_partitions


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
