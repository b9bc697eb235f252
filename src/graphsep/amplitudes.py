"""Raw amplitudes: their check and normalization (_parse_amplitudes),
the squared tensor norm from them in plain Python (_pure_norm_sq: 4^n
products, no 3^n array) and the verdict on it (detect, past a stated
rounding margin).  The dense limit lives here too: DENSE_LIMIT, checked
by dense_limit, which tensor imports back for its numpy sweep.  The
module reads only the standard library and bounds, so a raw-amplitude
detect runs neither tensor nor numpy.
"""

from __future__ import annotations

import math
import sys
import warnings
from itertools import chain
from operator import add, mul

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


def _parse_amplitudes(raw, n: int) -> tuple:
    """A state file's 'amplitudes' list as 2^n normalized Python complex; a bad list raises ValueError."""
    # no list reaches 2^64 entries, so a larger n is refused without forming 1 << n
    if not isinstance(raw, list) or len(raw) != 1 << min(n, 64):
        raise ValueError(f"'amplitudes' must list exactly 2^{_short.repr(n)} entries")
    amps = []
    for i, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2 and all(type(v) in (int, float) for v in item)):  # no bool
            raise ValueError(f"amplitude {i} is not an [re, im] pair: {_short.repr(item)}")
        try:
            amps.append(complex(item[0], item[1]))
        except OverflowError:  # an integer part past the float range
            raise ValueError(f"amplitude {i} has a part past the float range: {_short.repr(item)}") from None
    try:
        nrm = math.sqrt(math.fsum(abs(a) ** 2 for a in amps))
    except OverflowError:  # a finite part whose square, or a sum of squares, is past the float range
        raise ValueError(f"amplitudes have a norm past the float range, more than {RAW_NORM_TOL} from 1") from None
    if not abs(nrm - 1.0) <= RAW_NORM_TOL:  # a NaN part fails this too
        raise ValueError(f"amplitudes have norm {nrm}, more than {RAW_NORM_TOL} from 1")
    if abs(nrm - 1.0) > 1e-12:
        frame, level = sys._getframe(1), 2  # the warning names the first caller outside the package
        while frame is not None and frame.f_globals.get("__package__") == __package__:
            frame, level = frame.f_back, level + 1
        warnings.warn(f"renormalizing amplitudes (norm was {nrm})", stacklevel=level)
    return tuple(a / nrm for a in amps)


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

    The margin covers both float sums of the package; u = 2^-53.  The
    CLI's is _pure_norm_sq on the amplitudes a of _parse_amplitudes, of
    the state a / sqrt(S): S = sum |a_b|^2 is within delta = 11u of 1, as
    the square of their divisor is within 8u of the file's sum |a|^2 (2u
    hypot, squared, then square, fsum, root) and each division adds 2u.
    The kernel's squared norm is |G|^2 for the vector G of the 3^n values
    sqrt(2^|x|) g_x(u), each g a sum of at most 2^n products
    a[u, v] conj(a[ubar, v]).  A complex product is within sqrt(5) u of
    its value, and a pairwise fold of depth at most n adds n u times the
    sum of the magnitudes.  So each g is within e' S_u, e' = (n + 3) u,
    where S_u = sum_v |a[u, v]| |a[ubar, v]| <= |a_u| |a_ubar|
    (Cauchy-Schwarz over v).  Over u, sum |a_u|^2 |a_ubar|^2 <= S^2, so
    the error vector E of G has |E| <= e' r S with r = 3^(n/2).  With
    N' = |G + E|^2 <= r^2 (a pure state's 4^n squared Pauli expectations
    sum to 2^n), sqrt(N) = |G| / S >= sqrt(N') (1 - delta) - e' r, so
    N >= N' - 2 (e' + delta) r sqrt(N'), e' + delta = (n + 14) u.
    Squaring the parts of each g and one fsum add 2u norm_sq.  The dense
    sweep (full_tensor) sums rho over M members in turn (M - 1 roundings,
    each product (w a_r) conj(a_c) within (1 + sqrt(5)) u), then takes
    each tensor entry as a tree of n additions of the 2^n entries
    rho[r, r ^ x] times +-1 or +-i, whose magnitudes sum to at most
    sum_w w sum_r |a_r| |a_(r ^ x)| <= 1.  So its 3^n entries are within
    (n + M + 3) u, at most (n + 8) u for M <= 5 members: e' = (n + 8) u
    and delta = 0, and squaring and summing add 2u norm_sq.  _lower_bound
    takes e = 2 (n + 8) u, (n + 2) u or more above either e' + delta, for
    the rounding of the margin, and 4u norm_sq, for its subtractions too.
    """
    if norm_sq < 0:
        raise ValueError(f"squared norm must be nonnegative, got {norm_sq}")
    d = k_sep_bound(n, k).bound_sq
    num, den = norm_sq.as_integer_ratio()
    return XiResult(n, k, norm_sq, float(d), num / (den * d), _outcome(_lower_bound(norm_sq, n), d))
