"""Raw amplitudes: the package's one normalization rule (_normalized, of
state files, PureState and mixture weights, with RAW_NORM_TOL), a state
file's list check (_parse_amplitudes), the squared tensor norm from the
amplitudes in plain Python (_pure_norm_sq: 4^n products, no 3^n array)
and the verdict on it (detect, past a stated rounding margin).  The
dense limit lives here too: DENSE_LIMIT, checked by dense_limit, which
tensor imports back for its numpy sweep.  The module reads only the
standard library and bounds, so a raw-amplitude detect runs neither
tensor nor numpy.
"""

from __future__ import annotations

import math
import sys
import warnings
from itertools import chain, repeat
from operator import add, mul, truediv

from .bounds import LimitError, XiResult, _outcome, _short, k_sep_bound

RAW_NORM_TOL = 1e-6

# Largest qubit count of a dense sweep and of the amplitude kernel: 3^n
# words, 4^n products (the kernel takes 0.075-0.10 s at n = 10, in-process
# on a 2-core Xeon VM), and the sweep's rho of 16 * 4^n bytes, 4x more for
# each qubit past this limit.
DENSE_LIMIT = 10


def dense_limit(n: int) -> None:
    """Refuse a dense sweep over 3^n words above DENSE_LIMIT qubits (LimitError)."""
    if n > DENSE_LIMIT:
        raise LimitError(f"dense sweep over 3^{_short.repr(n)} words exceeds the {DENSE_LIMIT}-qubit limit")


def _gather(p: list, half: int, first: int) -> list:
    """Half `first` (0 or 1) of every run of 2*half entries, in order, then the other halves.

    Costs 2*half strided slice copies, of len(p) / (2*half) entries each.
    """
    out, h = [None] * len(p), len(p) >> 1
    for at, s in ((0, first * half), (h, (1 - first) * half)):
        for j in range(half):
            out[at + j:at + h:half] = p[s + j::2 * half]
    return out


def _pure_norm_sq(n: int, amplitudes) -> float:
    """Squared norm of the full correlation tensor of a pure state, from
    its 2^n amplitudes (a sequence of Python complex, qubit 1 at the top
    bit), in pure Python.  Refuses n past the dense limit before it reads
    an amplitude.

    For a flip mask x with complement c, split an index b into its bits
    u on x and v on c, and let ubar be u with every bit of x flipped.
    With g_x(u) = sum_v (-1)^|v| conj(a[ubar, v]) a[u, v], Parseval over
    the 2^|x| phase masks inside x gives sum_(z >= c) <X^x Z^z>^2 =
    2^|x| sum_u |g_x(u)|^2, so the squared norm is
    sum_x 2^|x| sum_u |g_x(u)|^2: 4^n products and no 3^n array.  The
    sign (-1)^|v| is (-1)^|b| times (-1)^|u|, and the second factor
    leaves |g| alone, so the first goes on the amplitudes once (sa).

    The qubits are decided top bit first, in one recursion for all x,
    on lists of one layout: each is a sequence of runs of `run` entries
    over the undecided qubits, and the decided ones index the runs, the
    sum qubits (those of c) directly above the run and the flip qubits
    above those.  A sum qubit halves the run and moves nothing.  A flip
    qubit goes on top (_gather), with the conjugate list taking its
    halves swapped, which pairs u with ubar.  As g_x(ubar) =
    +-conj(g_x(u)), the first flip qubit keeps only the half u = 0 and
    doubles its weight.  Once every qubit is decided, the products
    are summed as they are made, neighbour with neighbour, once per sum
    qubit at the bottom, so each g is a balanced pairwise tree of depth
    |c| over its products in the index order of v.
    Every w |g|^2 goes into one fsum as w re^2 and w im^2 (w a power of
    two), leaf by leaf, so no list of all 3^n parts is held.
    detect states the rounding margin of the result.
    """
    dense_limit(n)
    signs = [1.0]
    for _ in range(n):
        signs += [-s for s in signs]  # (-1)^popcount(b)
    sa = list(map(mul, amplitudes, signs))
    ca = [z.conjugate() for z in amplitudes]

    def decide(a, c, run, sums, w):
        # yields lists of parts; w is 2^|x|, doubled once the ubar half is
        # dropped, so it is 1 until the first flip qubit
        if run == 1:
            g = map(mul, a, c)
            for _ in range(sums):
                g = map(add, g, g)  # one iterator twice: each neighbouring pair
            g = list(g)
            yield [w * z.real * z.real for z in g] + [w * z.imag * z.imag for z in g]
            return
        half = run >> 1
        yield from decide(a, c, half, sums + 1, w)  # a sum qubit
        a, c = _gather(a, half, 0), _gather(c, half, 1)  # a flip qubit: lo against chi, hi against clo
        if w == 1:  # the first one: keep u = 0 only
            h = len(a) >> 1
            a, c, w = a[:h], c[:h], 2 * w
        yield from decide(a, c, half, sums, 2 * w)

    return math.fsum(chain.from_iterable(decide(sa, ca, 1 << n, 0, 1)))


def _normalized(parts: list, weights: bool = False):
    """parts over their norm, part by part, as an iterator: the one
    normalization rule of state files, PureState and MixedEnsemble.

    parts lists floats: a vector's real and imaginary parts in turn, whose
    norm is the root of the fsum of their squares (the same floats from a
    list of Python complex and from a complex128 array), or, if weights,
    a mixture's weights, whose norm is their fsum.  A norm more than
    RAW_NORM_TOL from 1 raises ValueError, and one more than 1e-12 from 1
    warns, naming the first caller outside the package.  detect states
    the residual of the result.
    """
    what, norm = ("ensemble weights", "sum") if weights else ("amplitudes", "norm")
    try:
        total = math.fsum(parts) if weights else math.sqrt(math.fsum(map(mul, parts, parts)))
    except OverflowError:  # finite squares, or weights, whose sum is past the float range
        total = math.inf
    if total == math.inf:  # a square past the float range rounds to inf and raises nothing
        raise ValueError(f"{what} have a {norm} past the float range, more than {RAW_NORM_TOL} from 1")
    if not abs(total - 1.0) <= RAW_NORM_TOL:  # a NaN part fails this too
        raise ValueError(f"{what} have {norm} {total}, more than {RAW_NORM_TOL} from 1")
    if abs(total - 1.0) > 1e-12:
        frame, level = sys._getframe(1), 2  # the warning names the first caller outside the package
        while frame is not None and frame.f_globals.get("__package__") == __package__:
            frame, level = frame.f_back, level + 1
        warnings.warn(f"renormalizing {what} ({norm} was {total})", stacklevel=level)
    return map(truediv, parts, repeat(total))


def _parse_amplitudes(raw, n: int) -> tuple:
    """A state file's 'amplitudes' list as 2^n Python complex, normalized
    by _normalized; a bad list raises ValueError."""
    # no list reaches 2^64 entries, so a larger n is refused without forming 1 << n
    if not isinstance(raw, list) or len(raw) != 1 << min(n, 64):
        raise ValueError(f"'amplitudes' must list exactly 2^{_short.repr(n)} entries")
    parts = []
    for i, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2 and all(type(v) in (int, float) for v in item)):  # no bool
            raise ValueError(f"amplitude {i} is not an [re, im] pair: {_short.repr(item)}")
        try:
            parts += map(float, item)
        except OverflowError:  # an integer part past the float range
            raise ValueError(f"amplitude {i} has a part past the float range: {_short.repr(item)}") from None
    parts = _normalized(parts)
    return tuple(map(complex, parts, parts))


def _lower_bound(norm_sq: float, n: int) -> float:
    """norm_sq minus the rounding margin of detect (see there)."""
    e, r = (n + 8) * 2.0 ** -52, 3 ** (n / 2)
    return norm_sq - e * r * (2 * math.sqrt(norm_sq) + e * r) - 2.0 ** -51 * norm_sq


def detect(norm_sq: float, n: int, k: int) -> XiResult:
    """Compare a squared tensor norm summed in floats with bound_sq.

    Raw amplitudes take this rule; named families and tagged states take
    the exact xi_noise.  Certifies only when a lower bound on the true
    squared norm N of the state exceeds bound_sq.  xi is norm_sq over
    bound_sq, correctly rounded.

    The margin covers both float sums of the package; u = 2^-53.  Each
    sums the tensor of the operator sum_i w_i a_i a_i^+, its weights w
    and members a all given by _normalized: the kernel's a is a state
    file's (one member, w = 1), the dense sweep's (full_tensor) are a
    mixture's.  The state is its exact normalization, sum_i (w_i / W)
    a_i a_i^+ / S_i with W = sum w_i and S_i = |a_i|^2.  The rule's
    divisor is a root (u) of an fsum (u) of squares (u each), and each
    part is divided once (u), so each S_i is within 6u of 1, and W, the
    quotients of one fsum, within 2u (to first order; a square or a
    quotient that underflows errs by at most 2^-1075): delta = 9u bounds
    every |W S_i - 1|.  The exact tensor of the operator then differs
    from the state's by sum_i (w_i / W) (W S_i - 1) T_i, T_i the tensor
    of the pure state a_i / sqrt(S_i), of norm at most 2^(n/2) (a pure
    state's 4^n squared Pauli expectations sum to 2^n): by at most
    delta r, r = 3^(n/2).
    The kernel's squared norm is |G|^2 for the vector G of the 3^n values
    sqrt(2^|x|) g_x(u), each g a sum of at most 2^n products
    a[u, v] conj(a[ubar, v]).  A complex product is within sqrt(5) u of
    its value, and a pairwise fold of depth at most n adds n u times the
    sum of the magnitudes.  So each g is within (n + sqrt(5)) u S_u,
    where S_u = sum_v |a[u, v]| |a[ubar, v]| <= |a_u| |a_ubar|
    (Cauchy-Schwarz over v).  Over u, sum |a_u|^2 |a_ubar|^2 <= S^2, so
    the error vector of G is at most (n + sqrt(5)) u r S <= e' r,
    e' = (n + 3) u.  The dense sweep sums rho over M members in turn
    (M - 1 roundings, each product (w a_r) conj(a_c) within
    (1 + sqrt(5)) u), then takes each tensor entry as a tree of n
    additions of the 2^n entries rho[r, r ^ x] times +-1 or +-i, whose
    magnitudes sum to at most sum_i w_i sum_r |a_r| |a_(r ^ x)| <=
    W max S_i <= 1 + delta.  So its 3^n entries are within
    e' = (n + M + 3) u, and its error vector within e' r.  With
    c = e' + delta, N'' the exact squared length of the float vector and
    N the state's, sqrt(N) >= sqrt(N'') - c r, so
    N >= N'' - 2 c r sqrt(N'') + (c r)^2 (or sqrt(N'') < c r, and
    norm_sq is far below 1, the least bound_sq); squaring and one fsum
    put norm_sq within 2u N'' of N''.  _lower_bound takes e = 2 (n + 8) u,
    at least the kernel's c = (n + 12) u and the sweep's
    c = (n + M + 12) u for M <= n + 4 members, so for any M <= 5.  It
    subtracts (e r)^2 too, which with the (c r)^2 above exceeds the
    rounding of the margin itself (a relative 8u) once c >= 10u, and
    4u norm_sq, for the squaring and summing and its two subtractions.
    """
    if norm_sq < 0:
        raise ValueError(f"squared norm must be nonnegative, got {norm_sq}")
    d = k_sep_bound(n, k).bound_sq
    num, den = norm_sq.as_integer_ratio()
    return XiResult(n, k, norm_sq, float(d), num / (den * d), _outcome(_lower_bound(norm_sq, n), d))
