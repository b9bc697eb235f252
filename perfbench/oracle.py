"""Expected outputs computed apart from the program, and the per-op output checks.

Nothing here imports graphsep.  The expected values come from closed
forms, from the benchmark's own numpy code, or from exact integers:

  * complete-graph and GHZ states: norm^2 = 2^(n-1) + s (s = 1 for even n);
  * W states: norm^2 = 5 - 4/n;
  * any graph state: norm^2 = G, the number of vertex subsets S such that
    every vertex outside S has an odd number of neighbours in S (the
    full-weight stabilizer elements), counted with vectorized popcounts;
  * colored noise |1..1> at weight p: graph states give (1-p)^2 G + p^2,
    GHZ gives (1-p)^2 B + 2p(1-p) C + p^2 with C = 1 for even n, else 0;
  * any other state with n <= 10 (random amplitudes, mixtures): the
    full-body sector length from subsystem purities,
    sum_S (-1)^(n-|S|) 2^|S| Tr rho_S^2;
  * k-separability bounds: the largest exact-integer product of
    2^(m-1) + s_m over the k-partitions of n with at most one block of 2.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from workloads import Op, State, random_amplitudes

REL_TOL = 1e-9
NON_K_SEPARABLE = "NonKSeparable"
INCONCLUSIVE = "Inconclusive"


class CheckError(AssertionError):
    """An op's output disagrees with the independently computed expectation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(got: float, want: float, what: str) -> None:
    _require(abs(got - want) <= REL_TOL * max(1.0, abs(want)), f"{what}: got {got!r}, want {want!r}")


def block_count(m: int) -> int:
    """2^(m-1) + s_m: squared norm bound of one m-qubit block."""
    return 2 ** (m - 1) + (1 if m % 2 == 0 else 0)


@lru_cache(maxsize=None)
def best_product(n: int, k: int) -> int:
    """Largest product of block_count(m) over admissible k-partitions of n.

    DP over the number of parts and their total excess over size 1,
    separately for "no block of 2 yet" and "at most one block of 2".
    Exact integers throughout, so ties are ties.
    """
    excess = n - k
    g = [block_count(e + 1) for e in range(excess + 1)]
    none = [0 if x == 1 else g[x] for x in range(excess + 1)]  # 0 = infeasible
    one = list(g)
    for _ in range(k - 1):
        new_none = [max(g[e] * none[x - e] for e in range(x + 1) if e != 1) for x in range(excess + 1)]
        new_one = [
            max(
                max(g[e] * one[x - e] for e in range(x + 1) if e != 1),
                g[1] * none[x - 1] if x >= 1 else 0,
            )
            for x in range(excess + 1)
        ]
        none, one = new_none, new_one
    return one[excess]


def partition_product(parts) -> int:
    return math.prod(block_count(m) for m in parts)


def sqrt_float(value: int) -> float:
    """sqrt of a nonnegative integer of any size, as a float."""
    shift = max(0, (value.bit_length() - 100) // 2)
    return math.ldexp(math.sqrt(value >> (2 * shift)), shift)


@lru_cache(maxsize=None)
def graph_full_weight(n: int, edges: tuple) -> int:
    """Number of full-weight stabilizer elements of the graph state (its norm^2)."""
    nbr = [0] * (n + 1)
    for a, b in edges:
        nbr[a] |= 1 << (n - b)
        nbr[b] |= 1 << (n - a)
    subsets = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(1 << n, dtype=bool)
    for v in range(1, n + 1):
        inside = (subsets >> (n - v)) & 1
        odd = np.bitwise_count(subsets & np.uint32(nbr[v])) & 1
        ok &= (inside | odd).astype(bool)
    return int(np.count_nonzero(ok))


def chain_edges(n: int) -> tuple:
    return tuple((a, a + 1) for a in range(1, n))


def complete_edges(n: int) -> tuple:
    return tuple((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1))


def sector_length(terms, n: int) -> float:
    """Full-body sector length of sum_i w_i |psi_i><psi_i| from subsystem purities."""
    total = 0.0
    for mask in range(1 << n):
        inside = [a for a in range(n) if (mask >> (n - 1 - a)) & 1]
        outside = [a for a in range(n) if not (mask >> (n - 1 - a)) & 1]
        mats = [
            (w, psi.reshape((2,) * n).transpose(inside + outside).reshape(1 << len(inside), -1))
            for w, psi in terms
        ]
        if len(inside) <= len(outside):
            rho = sum(w * (m @ m.conj().T) for w, m in mats)
            purity = float(np.vdot(rho, rho).real)
        else:
            # Tr rho_S^2 = sum_ij w_i w_j ||M_i^dag M_j||_F^2, the smaller matrices
            purity = sum(
                wi * wj * float(np.sum(np.abs(mi.conj().T @ mj) ** 2))
                for wi, mi in mats
                for wj, mj in mats
            )
        total += (-1) ** (n - len(inside)) * 2 ** len(inside) * purity
    return total


def _w_vector(n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[[1 << a for a in range(n)]] = 1.0 / math.sqrt(n)
    return amps


def _ones_vector(n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[-1] = 1.0
    return amps


def family_norm_sq(family: str, n: int) -> float:
    if family in ("cg", "ghz"):
        return float(block_count(n))
    if family == "w":
        return 5.0 - 4.0 / n
    if family == "cluster":
        return float(graph_full_weight(n, chain_edges(n)))
    raise ValueError(f"no closed form for family {family!r}")


def noisy_norm_sq(base: float, cross: float, p: float) -> float:
    """norm^2 of (1-p) rho + p |1..1><1..1| from base = norm^2 of rho and
    cross = the all-Z entry of rho times (-1)^n (the overlap of the two tensors)."""
    return (1 - p) ** 2 * base + 2 * p * (1 - p) * cross + p * p


def ghz_cross(n: int) -> int:
    return 1 if n % 2 == 0 else 0


@lru_cache(maxsize=None)
def expected_norm_sq(state: State) -> float:
    n, p = state.n, state.p
    if state.raw in ("random", "random_real"):
        return sector_length([(1.0, random_amplitudes(state))], n)
    if state.raw == "cg":
        return float(block_count(n))
    if state.family == "w" and p is not None:
        return sector_length([(1.0 - p, _w_vector(n)), (p, _ones_vector(n))], n)
    if state.family == "graph":
        base = float(graph_full_weight(n, state.edges))
    else:
        base = family_norm_sq(state.family, n)
    if p is None:
        return base
    # a graph state's group has no all-Z element, so only GHZ overlaps the noise
    return noisy_norm_sq(base, ghz_cross(n) if state.family == "ghz" else 0, p)


def _options(argv) -> dict:
    """--name value pairs and bare --flags of a CLI argv, without the subcommand."""
    opts, i = {}, 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


def _check_verdict(verdict: str, norm_sq: float, bound_sq: int, what: str) -> None:
    if abs(norm_sq - bound_sq) <= REL_TOL * bound_sq:
        _require(verdict in (NON_K_SEPARABLE, INCONCLUSIVE), f"{what}: verdict {verdict!r}")
        return
    want = NON_K_SEPARABLE if norm_sq > bound_sq else INCONCLUSIVE
    _require(verdict == want, f"{what}: verdict {verdict!r}, want {want!r}")


def _check_partition(label: str, n: int, k: int, best: int, what: str) -> None:
    parts = [int(m) for m in label.split("|")]
    _require(len(parts) == k and sum(parts) == n, f"{what}: partition {label} is not {k} parts of {n}")
    _require(parts.count(2) <= 1, f"{what}: partition {label} has more than one block of 2")
    _require(partition_product(parts) == best, f"{what}: partition {label} product is not the best {best}")


def check_detect(op: Op, text: str) -> None:
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    n, k = op.state.n, int(_options(op.argv)["k"])
    _require(fields.get("n") == str(n) and fields.get("k") == str(k), f"detect header {fields}")
    norm_sq = expected_norm_sq(op.state)
    best = best_product(n, k)
    _close(float(fields["norm"]), math.sqrt(norm_sq), f"{op.state.name} norm")
    _close(float(fields["bound"]), sqrt_float(best), f"{op.state.name} bound")
    _check_partition(fields["partition"], n, k, best, op.state.name)
    _check_verdict(fields["verdict"], norm_sq, best, op.state.name)


def check_bounds(op: Op, text: str) -> None:
    opts = _options(op.argv)
    n = int(opts["n"])
    k_min, k_max = int(opts.get("k-min", 2)), int(opts.get("k-max", n))
    lines = text.splitlines()
    _require(lines[0] == "n,k,bound,partition", f"bounds header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    _require([int(r[1]) for r in rows] == list(range(k_min, k_max + 1)), f"bounds n={n}: k column")
    for row_n, k, bound, label in rows:
        k = int(k)
        _require(int(row_n) == n, f"bounds row n={row_n}")
        best = best_product(n, k)
        _close(float(bound), sqrt_float(best), f"bounds n={n} k={k}")
        _check_partition(label, n, k, best, f"bounds n={n} k={k}")


def _sweep_terms(family: str, n: int) -> tuple[int, int]:
    return block_count(n), ghz_cross(n) if family == "ghz" else 0


def _first_root(family: str, n: int, bound_sq: int) -> float | None:
    """Smallest p in [0, 1] with numerator(p) = bound^2 (numerator is quadratic in p)."""
    base, cross = _sweep_terms(family, n)
    a, b, c = base - 2 * cross + 1, 2 * cross - 2 * base, base - bound_sq
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    root = math.sqrt(disc)
    roots = sorted(((-b - root) / (2 * a), (-b + root) / (2 * a)))
    inside = [r for r in roots if 0.0 <= r <= 1.0]
    return inside[0] if inside else None


def check_sweep(op: Op, text: str) -> None:
    opts = _options(op.argv)
    family, n, k, steps = opts["family"], int(opts["n"]), int(opts["k"]), int(opts["p-steps"])
    best = best_product(n, k)
    bound_sq = float(best)
    lines = text.splitlines()
    _require(lines[0] == f"# sweep family={family} n={n} k={k}", f"sweep header {lines[0]!r}")
    _require(lines[2] == "p,norm_sq,bound_sq,xi,verdict", f"sweep columns {lines[2]!r}")
    rows = [line.split(",") for line in lines[3:]]
    _require(len(rows) == steps, f"sweep has {len(rows)} rows, want {steps}")
    verdicts = []
    for i, (p, num, den, xi, verdict) in enumerate(rows):
        want_p = i / (steps - 1)
        want_num = noisy_norm_sq(*_sweep_terms(family, n), want_p)
        _close(float(p), want_p, f"sweep row {i} p")
        _close(float(num), want_num, f"sweep p={p} norm_sq")
        _close(float(den), bound_sq, f"sweep p={p} bound_sq")
        _close(float(xi), want_num / bound_sq, f"sweep p={p} xi")
        _check_verdict(verdict, want_num, best, f"sweep p={p}")
        verdicts.append((want_p, verdict))
    threshold = lines[1].removeprefix("# threshold_p=")
    root = _first_root(family, n, best)
    if root is None:
        _require(threshold == "NA", f"sweep threshold {threshold}, want NA")
        return
    t = float(threshold)
    _close(noisy_norm_sq(*_sweep_terms(family, n), t) / bound_sq, 1.0, "sweep xi at threshold")
    _close(t, root, "sweep threshold")
    below = [v for p, v in verdicts if p < t]
    above = [v for p, v in verdicts if p > t]
    if below and above:
        _require(below[-1] != above[0], f"sweep verdict does not flip across threshold {t}")


def check_norms(op: Op, text: str) -> None:
    opts = _options(op.argv)
    families = opts.get("families", "cg,ghz,w,cluster").split(",")
    n_min, n_max = int(opts.get("n-min", 2)), int(opts.get("n-max", 8))
    lines = text.splitlines()
    _require(lines[0] == "family,n,norm_sq,norm", f"norms header {lines[0]!r}")
    want_keys = [(f, n) for f in families for n in range(n_min, n_max + 1)]
    rows = [line.split(",") for line in lines[1:]]
    _require([(f, int(n)) for f, n, _, _ in rows] == want_keys, "norms rows out of order or missing")
    for family, n, norm_sq, norm in rows:
        want = family_norm_sq(family, int(n))
        _close(float(norm_sq), want, f"norms {family} n={n} norm_sq")
        _close(float(norm), math.sqrt(want), f"norms {family} n={n} norm")


def check_settings(op: Op, text: str) -> None:
    opts = _options(op.argv)
    n, noise = int(opts["n"]), bool(opts.get("noise"))
    lines = text.splitlines()
    words, count_line = lines[:-1], lines[-1]
    want = block_count(n) + (1 if noise else 0)
    _require(count_line == f"# count={want}", f"settings count line {count_line!r}, want {want}")
    _require(len(words) == want and len(set(words)) == want, f"settings: {len(set(words))} distinct words")
    all_z = 0
    for word in words:
        _require(len(word) == n, f"settings word {word!r} has the wrong length")
        if word == "Y" * n and n % 2 == 0:
            continue
        if word == "Z" * n:
            all_z += 1
            continue
        _require(set(word) <= {"X", "Z"} and word.count("X") % 2 == 1, f"settings word {word!r}")
    _require(all_z == (1 if noise else 0), "settings: all-Z noise word")


def check_appendix(op: Op, text: str) -> None:
    n = op.n
    s = 1 if n % 2 == 0 else 0
    want = [f"C({n},{x}) = {math.comb(n, x)}" for x in range(1, n + 1, 2)]
    if s:
        want.append("all-Y word = 1")
    want += [f"sum = {2 ** (n - 1) + s}", f"closed form 2^{n - 1} + {s} = {2 ** (n - 1) + s}", "OK"]
    _require(text.splitlines() == want, "appendix text")


def check_graph(op: Op, text: str) -> None:
    n = op.n
    want = [f"graph complete_{n} {{"] + [f"  {v};" for v in range(1, n + 1)]
    want += [f"  {a} -- {b};" for a, b in complete_edges(n)] + ["}"]
    _require(text.splitlines() == want, "graph text")


CHECKS = {
    "detect": check_detect,
    "bounds": check_bounds,
    "sweep": check_sweep,
    "norms": check_norms,
    "settings": check_settings,
    "appendix": check_appendix,
    "graph": check_graph,
}


def check(op: Op, text: str) -> None:
    """Raise CheckError unless the op's stdout matches the expectation."""
    if not text.strip():
        raise CheckError(f"{op.command}: empty output")
    try:
        CHECKS[op.command](op, text)
    except (ValueError, KeyError, IndexError) as exc:
        raise CheckError(f"{op.command}: malformed output ({type(exc).__name__}: {exc})") from None
