"""The squared correlation-tensor norm of a pure state from its amplitudes, in plain Python.

detect on a raw-amplitude file reads its squared norm from _pure_norm_sq,
a kernel that sums 4^n amplitude products with no 3^n array, and the
dense-path qubit limit lives here with it: DENSE_LIMIT, checked by
dense_limit, which tensor imports back for its numpy sweep.  The module
reads only the standard library and bounds (for LimitError), so
a raw-amplitude detect runs neither tensor nor numpy.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import add, mul

from .bounds import LimitError, _short

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
    bounds.detect states the rounding margin of the result.
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
