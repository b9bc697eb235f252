"""The amplitude kernel's summation order, pinned bit for bit against a
plain reference, and the normalization's residual.  detect's rounding
margin assumes each g is a pairwise fold of depth at most n, and a
vector whose sum |a|^2 is within 11u of 1; the kernel tests in
test_tensor.py compare within that margin only, so they would pass a
kernel that sums in another order.  Needs neither numpy nor hypothesis."""

import math
import random
import warnings
from fractions import Fraction

import pytest

from graphsep import amplitudes


def _pairwise(p):
    """Sum p (a power-of-two length) by adding neighbours, level by level."""
    while len(p) > 1:
        p = [p[i] + p[i + 1] for i in range(0, len(p), 2)]
    return p[0]


def _reference_norm_sq(n, a):
    """sum_x 2^|x| sum_u |g_x(u)|^2, where for each flip mask x and each u
    on x, g_x(u) is the pairwise fold, over the bits v off x in index
    order, of (-1)^|b| a[b] conj(a[b ^ x]) with b the index of (u, v)."""
    parts = []
    for x in range(1 << n):
        w = float(1 << x.bit_count())
        for u in range(1 << n):
            if u & ~x:
                continue
            g = _pairwise([
                (-1.0) ** b.bit_count() * (a[b] * a[b ^ x].conjugate())
                for b in range(1 << n) if b & x == u
            ])
            parts += [w * g.real * g.real, w * g.imag * g.imag]
    return math.fsum(parts)


def _state(n, kind, rng):
    """A normalized seeded state of 2^n amplitudes, of the given kind."""
    if kind == "complex":
        amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)]
    elif kind == "real":  # real amplitudes as Python complex
        amps = [complex(rng.gauss(0, 1)) for _ in range(1 << n)]
    elif kind == "float":  # plain Python floats
        amps = [rng.gauss(0, 1) for _ in range(1 << n)]
    else:  # two nonzero entries
        amps = [0j] * (1 << n)
        for b in rng.sample(range(1 << n), 2):
            amps[b] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(math.fsum(abs(z) ** 2 for z in amps))
    return [z / norm for z in amps]


@pytest.mark.parametrize("kind", ["complex", "real", "float", "sparse"])
@pytest.mark.parametrize("n", range(1, 8))
def test_kernel_sums_in_the_reference_order(n, kind):
    rng = random.Random(f"{n}-{kind}")
    for _ in range(3):
        amps = _state(n, kind, rng)
        assert amplitudes._pure_norm_sq(n, amps).hex() == _reference_norm_sq(n, amps).hex()


@pytest.mark.parametrize("kind", ["complex", "real", "float", "sparse"])
@pytest.mark.parametrize("n", range(1, 8))
def test_parsed_amplitudes_are_normalized_within_the_stated_residual(n, kind):
    # every vector that _parse_amplitudes accepts, at any norm within
    # RAW_NORM_TOL of 1 (exactly 1, or off by less than the 1e-12 below
    # which it does not warn, included), comes back with its exact
    # sum |a|^2 within detect's delta = 11u of 1
    rng = random.Random(f"{n}-{kind}-residual")
    tol = amplitudes.RAW_NORM_TOL
    scales = [1.0, 1 + 1e-13, 1 - 9e-13, *(1 + rng.uniform(-0.99, 0.99) * tol for _ in range(20))]
    for scale in scales:
        pairs = [[z.real * scale, z.imag * scale] for z in _state(n, kind, rng)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = amplitudes._parse_amplitudes(pairs, n)
        residual = sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in got) - 1
        assert abs(residual) <= 11 * Fraction(2) ** -53, (scale, float(residual))
