"""Independent brute-force oracles used to pin expected values.

Everything here goes through explicit 2^n x 2^n Kronecker-product
matrices or plain exhaustive enumeration, deliberately sharing no code
with the library's bitmask / stabilizer paths.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from graphsep.pauli import MixedEnsemble, PureState
from graphsep.stabilizer import StabilizerGroup
from graphsep.graphs import GraphSpec, complete_graph
from graphsep.states import cluster_state, ghz_state, graph_state, w_state

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

AXIS_OPS = {1: "X", 2: "Y", 3: "Z"}


def pauli_matrix(ops: str) -> np.ndarray:
    """Dense matrix of a Pauli word, qubit 1 as the leftmost Kron factor."""
    mat = np.eye(1, dtype=complex)
    for op in ops:
        mat = np.kron(mat, PAULI_MATS[op])
    return mat


def dense_expectation(amps: np.ndarray, ops: str) -> float:
    """<psi| P |psi> via the explicit matrix."""
    val = np.vdot(amps, pauli_matrix(ops) @ amps)
    assert abs(val.imag) < 1e-9
    return float(val.real)


def dense_mixture_expectation(terms, ops: str) -> float:
    return sum(w * dense_expectation(st.amplitudes, ops) for w, st in terms)


def all_full_indices(n: int):
    """All identity-free index tuples in lexicographic order."""
    from itertools import product

    return product((1, 2, 3), repeat=n)


def _index_matrix(idx) -> np.ndarray:
    return pauli_matrix("".join(AXIS_OPS[i] for i in idx))


def dense_full_tensor(terms, n: int, tol: float = 1e-9) -> dict:
    """Sparse full tensor {index tuple: value} via matrix expectations.

    A word is split into a head on the first n - h qubits and a tail on
    the last h, with explicit matrices Q and R.  With the amplitudes laid
    out as a 2^(n-h) x 2^h array A, (Q kron R) a is Q A R^T, so only the
    matrices of the halves are built: at n = 8 that is 16 x 16 instead of
    256 x 256 per word.
    """
    h = n // 2
    tails = [(idx, _index_matrix(idx).T) for idx in all_full_indices(h)]
    arrays = [(w, st.amplitudes.reshape(1 << (n - h), 1 << h)) for w, st in terms]
    out = {}
    for head in all_full_indices(n - h):
        q = _index_matrix(head)
        applied = [(w, a, q @ a) for w, a in arrays]
        for tail, r_t in tails:
            val = 0.0
            for w, a, qa in applied:
                e = np.vdot(a, qa @ r_t)
                assert abs(e.imag) < 1e-9
                val += w * float(e.real)
            if abs(val) > tol:
                out[head + tail] = val
    return out


def dense_tensor_norm(terms, n: int) -> float:
    return float(np.sqrt(sum(v * v for v in dense_full_tensor(terms, n, tol=0.0).values())))


def untagged(ens):
    """The same pure state or ensemble, each member rebuilt from its
    amplitudes without its stabilizer tag, so full_tensor sweeps it densely.

    The dense reference for the stabilizer path.
    """
    if isinstance(ens, PureState):
        return PureState(ens.n, ens.amplitudes)
    return MixedEnsemble(tuple((w, PureState(st.n, st.amplitudes)) for w, st in ens.terms))


# family name (a key of separability.FAMILIES) -> its state constructor
FAMILY_STATES = {
    "cg": lambda n: graph_state(complete_graph(n)),
    "ghz": ghz_state,
    "w": w_state,
    "cluster": cluster_state,
}


def kron_states(a: PureState, b: PureState) -> PureState:
    """Tensor product of two pure states (a's qubits come first)."""
    return PureState(a.n + b.n, np.kron(a.amplitudes, b.amplitudes))


def star_graph(n: int) -> GraphSpec:
    """Vertex 1 connected to all others."""
    return GraphSpec(n, ((1, b) for b in range(2, n + 1)))


def basis_group(n: int, b: int):
    """Generators (-1)^(b_a) Z_a of the basis state |b>, qubit 1 at the top bit of b."""
    return StabilizerGroup(n, tuple((0, 1 << (n - a), -1 if b >> (n - a) & 1 else 1) for a in range(1, n + 1)))


def stabilizer_expectation(g, p) -> int:
    """Exact expectation of a Pauli word on the state a StabilizerGroup
    stabilizes: +-1 when +-P lies in the group, 0 otherwise.

    Reads the group's own GF(2) membership solve (member_combo) and sign
    product (product_sign), so the tests that hold it against the dense
    expectation pin those two methods.
    """
    if g.n != p.n:
        raise ValueError(f"group has {g.n} qubits, Pauli word has {p.n}")
    x, z, _ = p.masks()
    combo = g.member_combo(x, z)
    if combo is None:
        return 0
    px, pz, sign = g.product_sign(combo)
    assert (px, pz) == (x, z)
    return sign


def permutation_count(n: int) -> int:
    """Nonzero complete-graph tensor entries, counted as the paper's appendix
    does: the odd binomials C(n, x), plus one for the all-Y word at even n."""
    return sum(math.comb(n, x) for x in range(1, n + 1, 2)) + 1 - n % 2


def generator_words(g) -> list:
    """The generators of a StabilizerGroup as signed Pauli words, qubit 1 first."""
    words = []
    for x, z, s in g.generators:
        letters = []
        for a in range(g.n):
            bit = 1 << (g.n - 1 - a)
            letters.append("IZXY"[(2 if x & bit else 0) + (1 if z & bit else 0)])
        words.append(("+" if s == 1 else "-") + "".join(letters))
    return words


def key_words(keys, n: int) -> list:
    """Pauli words of base-3 packed keys (X, Y, Z -> digits 0, 1, 2, qubit 1 most significant)."""
    words = []
    for key in np.asarray(keys).tolist():
        letters = []
        for _ in range(n):
            key, digit = divmod(key, 3)
            letters.append("XYZ"[digit])
        words.append("".join(reversed(letters)))
    return words


def is_all_ones(state) -> bool:
    """True when the state is exactly |1...1> (up to a 1e-12 tolerance)."""
    amps = state.amplitudes
    return abs(amps[-1] - 1.0) <= 1e-12 and np.count_nonzero(np.abs(amps[:-1]) > 1e-12) == 0


def tensor_dot(a, b) -> float:
    """Sum of a's entries times b's at the same words, exactly rounded.

    The reference for the library's integer GHZ noise products.
    """
    shared = a.entries.keys() & b.entries.keys()
    return math.fsum(a.entries[key] * b.entries[key] for key in shared)


def random_state(n: int, rng) -> np.ndarray:
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


def random_unitary(rng) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_local_unitaries(amps: np.ndarray, unitaries) -> np.ndarray:
    """Apply one 2x2 unitary per qubit to a state vector."""
    n = len(unitaries)
    tensor = amps.reshape((2,) * n)
    for a, u in enumerate(unitaries):
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [a])), 0, a)
    return tensor.reshape(-1)


def permute_qubits(amps: np.ndarray, perm) -> np.ndarray:
    """Relabel qubits: new qubit a holds old qubit perm[a] (0-based)."""
    n = len(perm)
    return amps.reshape((2,) * n).transpose(perm).reshape(-1)


def brute_admissible_partitions(n: int, k: int) -> list:
    """All k-part multisets of n via ordered-composition enumeration plus
    the at-most-one-2 filter; dedup through sorting."""

    def compositions(total, parts):
        if parts == 1:
            if total >= 1:
                yield (total,)
            return
        for first in range(1, total):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    found = {tuple(sorted(comp)) for comp in compositions(n, k)}
    return sorted(p for p in found if p.count(2) <= 1)


def _partitions_into(n: int, k: int):
    """Multisets of k parts >= 1 summing to n, as nondecreasing tuples, in
    lex order.  Depth first over the parts with an explicit stack (smallest
    next part popped first), so the Python stack stays flat for any k."""
    stack = [((), n)]
    while stack:
        prefix, left = stack.pop()
        lo, slots = prefix[-1] if prefix else 1, k - len(prefix)
        if slots == 1:
            if left >= lo:
                yield prefix + (left,)
            continue
        stack.extend((prefix + (first,), left - first) for first in range(left // slots, lo - 1, -1))


def brute_k_sep_bound(n: int, k: int) -> tuple:
    """(parts, bound_sq) of the admissible k-partition of n (at most one
    block of 2) with the largest product of 2^(m-1) + s_m, by listing every
    partition in lex order.

    Products are exact integers and only a strictly larger one replaces
    the best so far, so ties go to the lexicographically smallest
    partition.  The reference for the library's constructed optimum.
    """
    best_parts, best = None, 0
    for parts in _partitions_into(n, k):
        if parts.count(2) > 1:
            continue
        product = 1
        for m in parts:
            product *= 2 ** (m - 1) + (1 if m % 2 == 0 else 0)
        if product > best:
            best_parts, best = parts, product
    return best_parts, best


def grid_bisect_root(f, tol: float = 1e-12):
    """First root of f on [0, 1]: scan a 1025-point grid for a sign change,
    then bisect that cell down to tol.  None when f never changes sign.

    The reference for the library's closed-form threshold solves.
    """
    grid = [i / 1024 for i in range(1025)]
    values = [f(p) for p in grid]
    for lo_i in range(1024):
        lo_v, hi_v = values[lo_i], values[lo_i + 1]
        if lo_v == 0.0:
            return grid[lo_i]
        if lo_v * hi_v < 0:
            lo, hi = grid[lo_i], grid[lo_i + 1]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
    if values[-1] == 0.0:
        return 1.0
    return None


def exact_noise_threshold(b, c, o, d):
    """Smallest root in [0, 1] of (1-p)^2 b + 2p(1-p) c + p^2 o = d, as a
    50-digit Decimal, or None.  The reference for the closed-form solves;
    integers, or Fractions (scaled to integers over their common
    denominator first)."""
    den = math.lcm(*(Fraction(v).denominator for v in (b, c, o, d)))
    b, c, o, d = (int(v * den) for v in (b, c, o, d))
    return exact_quadratic_root(b - 2 * c + o, 2 * (c - b), b - d)


def exact_quadratic_root(a2: int, a1: int, a0: int):
    """Smallest root in [0, 1] of a2 p^2 + a1 p + a0 (a2 > 0), as a 50-digit
    Decimal, or None."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        disc = a1 * a1 - 4 * a2 * a0
        if disc < 0:
            return None
        root = Decimal(disc).sqrt()
        for cand in ((-a1 - root) / (2 * a2), (-a1 + root) / (2 * a2)):
            if 0 <= cand <= 1:
                return +cand
    return None


def _block(m: int) -> int:
    return 2 ** (m - 1) + (1 if m % 2 == 0 else 0)


# n - k -> rows of dp_bound_sq, row j - 1 for j blocks
_DP_ROWS = {}


def dp_bound_sq(n: int, k: int) -> int:
    """Largest product of 2^(m-1) + s_m over the k-partitions of n with at
    most one block of 2, by a dynamic program that adds one block at a time
    (any order of blocks reaches the same maximum).

    Row j holds best[two][e], the largest product of j blocks on j + e
    qubits, two telling whether a block of 2 may still be used.  Row j is
    built from row j - 1 in a loop, so the Python stack stays flat for any
    k, and the rows are kept per n - k for the sweeps that ask again."""
    spare = n - k
    first = {two: [_block(1 + e) if e != 1 or two else 0 for e in range(spare + 1)] for two in (False, True)}
    rows = _DP_ROWS.setdefault(spare, [first])
    while len(rows) < k:
        last = rows[-1]
        rows.append({
            two: [
                max(_block(m) * last[two and m != 2][e - m + 1] for m in range(1, e + 2) if m != 2 or two)
                for e in range(spare + 1)
            ]
            for two in (False, True)
        })
    return rows[k - 1][True][spare]


def chain_string_counts(n_max: int) -> list:
    """counts[n] for n = 0..n_max: the 0/1 strings of length n in which
    every 0 has exactly one neighbouring 1.

    These are the vertex subsets S of the n-vertex chain (1 = in S) whose
    graph-state element (x = S, z = A S) is identity-free, so counts[n]
    is the cluster state's B.  One left-to-right pass: a string's state
    is its last letter and, for a 0, how many 1s it has seen on its left;
    adding a letter settles the last 0 (it needs exactly one 1 in all).
    """
    paths = {(1, 0): 1, (0, 0): 1}  # the strings of length 1 by (last letter, 1s left of a last 0)
    counts = [1, 1]  # the empty string; "1" ("0" has no neighbour)
    for _ in range(2, n_max + 1):
        grown = {}
        for (last, seen), ways in paths.items():
            for letter in (0, 1):
                if last == 0 and seen + letter != 1:
                    continue
                state = (letter, last if letter == 0 else 0)
                grown[state] = grown.get(state, 0) + ways
        paths = grown
        counts.append(sum(ways for (last, seen), ways in paths.items() if last == 1 or seen == 1))
    return counts[:n_max + 1]


def exact_noise_products(family: str, n: int) -> tuple:
    """(B, C, O) of the cg, GHZ, W or cluster state as Fractions:
    B = 2^(n-1) + s_n for cg and GHZ, 5 - 4/n for W (Z^n at -1, the XX and
    YY pairs at 2/n) and the chain's string count for cluster; C the all-Z
    entry it shares with |1...1>, times (-1)^n (GHZ at even n only; -1 for
    W; none for a graph state); O = 1."""
    if family == "w":
        return Fraction(5) - Fraction(4, n), Fraction((-1) ** (n + 1)), Fraction(1)
    if family == "cluster":
        return Fraction(chain_string_counts(n)[n]), Fraction(0), Fraction(1)
    return Fraction(_block(n)), Fraction(1 - n % 2 if family == "ghz" else 0), Fraction(1)


def exact_noise_norm_sq(family: str, n: int, p: float) -> Fraction:
    """Squared tensor norm of the cg, GHZ, W or cluster state mixed with
    |1...1> at weight p, as an exact Fraction of the float p:
    (1-p)^2 B + 2p(1-p) C + p^2 O (exact_noise_products)."""
    q = Fraction(p)
    b, c, o = exact_noise_products(family, n)
    return (1 - q) ** 2 * b + 2 * q * (1 - q) * c + q * q * o


def exact_tensor_norm_sq(terms, n: int) -> Fraction:
    """Squared tensor norm of the mixture sum_i w_i |psi_i><psi_i|, exact
    for the float weights and amplitudes it is given.

    Each amplitude part is an integer over 2^e for one shared e, so each
    <psi|P|psi> = i^y sum_b conj(a_(b ^ x)) a_b (-1)^popcount(b & z) (x the
    flip mask, z the phase mask, y the number of Y letters of the word) is
    a Gaussian integer over 2^(2e), summed word by word in Python ints.
    """
    parts = [Fraction(v) for _, st in terms for a in st.amplitudes.tolist() for v in (a.real, a.imag)]
    e = max(q.denominator for q in parts).bit_length() - 1
    scaled = [[(int(Fraction(a.real) * 2 ** e), int(Fraction(a.imag) * 2 ** e)) for a in st.amplitudes.tolist()]
              for _, st in terms]
    # zero amplitudes add nothing to a sum over b, so each sum runs over the nonzero ones
    nonzero = [[(b, ar, ai) for b, (ar, ai) in enumerate(amps) if ar or ai] for amps in scaled]
    full, total = (1 << n) - 1, Fraction(0)
    for x in range(1 << n):
        for z in range(1 << n):
            if x | z != full:
                continue
            entry = Fraction(0)
            for (w, _), amps, support in zip(terms, scaled, nonzero):
                re = im = 0
                for b, ar, ai in support:
                    fr, fi = amps[b ^ x]
                    sign = -1 if (b & z).bit_count() % 2 else 1
                    re += sign * (fr * ar + fi * ai)
                    im += sign * (fr * ai - fi * ar)
                re, im = {0: (re, im), 1: (-im, re), 2: (-re, -im), 3: (im, -re)}[(x & z).bit_count() % 4]
                assert im == 0  # a Hermitian word has a real expectation
                entry += Fraction(w) * Fraction(re, 4 ** e)
            total += entry * entry
    return total


def exact_state_terms(terms) -> tuple:
    """The terms of a mixture with each weight w_i made w_i / (W S_i), as a
    Fraction, W being the weights' sum and S_i member i's sum |a|^2: through
    exact_tensor_norm_sq, the exact squared norm of the state
    sum_i (w_i / W) a_i a_i^+ / S_i that detect's margin is stated for."""
    total = sum(Fraction(w) for w, _ in terms)
    return tuple(
        (Fraction(w) / (total * sum(Fraction(x) ** 2 for a in st.amplitudes.tolist() for x in (a.real, a.imag))), st)
        for w, st in terms
    )


def exact_verdict(norm_sq, bound_sq: int) -> str:
    """The criterion on exact values: only a strict violation certifies."""
    return "NonKSeparable" if norm_sq > bound_sq else "Inconclusive"


def gray_code_support(g) -> dict:
    """Identity-free elements of a stabilizer group {packed key: sign}, one at a time.

    Walks the 2^n generator subsets in Gray-code order, so each step
    multiplies in a single generator ``i^t X^x Z^z`` of g.generators
    (x, z bitmasks with qubit 1 at the top bit).  The reference for the
    library's vectorized enumeration.
    """
    n = g.n
    full = (1 << n) - 1
    entries = {}
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
    return entries


def combinations_cg_pattern(n: int) -> list:
    """Packed keys of the complete-graph nonzero pattern, in the listing order.

    One word per placement of an odd number of X letters among Z letters
    (itertools.combinations order, qubit 1 first), then the all-Y word
    at even n.  The reference for the library's vectorized pattern.
    """
    keys = []
    for x_count in range(1, n + 1, 2):
        for positions in combinations(range(n), x_count):
            key = 0
            for a in range(n):
                key = key * 3 + (0 if a in positions else 2)  # X -> 0, Z -> 2
            keys.append(key)
    if n % 2 == 0:
        keys.append((3 ** n - 1) // 2)  # Y -> 1 in every digit
    return keys


def combinations_ghz_pattern(n: int) -> list:
    """Packed keys of the GHZ nonzero pattern, in the listing order.

    One word per placement of an even number of Y letters among X letters
    (itertools.combinations order, qubit 1 first), then the all-Z word at
    even n.  The reference for the library's vectorized pattern.
    """
    keys = []
    for y_count in range(0, n + 1, 2):
        for positions in combinations(range(n), y_count):
            key = 0
            for a in range(n):
                key = key * 3 + (1 if a in positions else 0)  # Y -> 1, X -> 0
            keys.append(key)
    if n % 2 == 0:
        keys.append(3 ** n - 1)  # Z -> 2 in every digit
    return keys
