"""The bodies of the command-line commands: one cmd_* function per command.

Each cmd_* takes the namespace that cli.parse_args builds, raises any
input error, then returns its output lines (str, and settings' bytes
blocks), which cli.main alone writes as it iterates, to stdout unless
--out is given.  settings and graph cannot fail once checked and stream
them; the others return lists: a failure writes none.  detect builds one
row (a dict), which --format json dumps and text writes as key=value
lines without xi and p.  Comment lines start with "#"; numeric fields
carry 12 significant digits.  The size limits (MAX_ROWS, MAX_PARTS,
APPENDIX_MAX_N, GRAPH_MAX_N) raise bounds.LimitError before the work.
detect writes its warning that it renormalized amplitudes as one
"graphsep: warning:" line on stderr, whatever warning filters are set.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Iterator
from itertools import chain

# lazy modules (graphsep/__init__.py), loaded only by the commands that read them
from . import amplitudes, graphs, statefile
from .bounds import LimitError, _short, cg_norm_sq, k_sep_bound, permutation_terms
from .separability import norm_table, threshold_p, xi_noise

MAX_ROWS = 100_001  # rows of a sweep or a norms table, all held before any is written
# blocks of the partitions a command builds and labels: k for sweep and
# detect, k summed over the rows for bounds (one partition per row)
MAX_PARTS = 1_000_000
# the binomials' digits grow with n: appendix --n 4096 takes about 0.7 s at an
# 18 MB peak (2-core VM), far from Python's 4,300-digit int-to-str limit,
# which C(n, n/2) passes near n = 14,290
APPENDIX_MAX_N = 4096
# n(n-1)/2 edge lines: graph --n 2048 writes 2,096,128 of them (33 MB) in
# about 0.3 s at a 15 MB peak (2-core VM)
GRAPH_MAX_N = 2048


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _check_limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise LimitError(f"{what} {_short.repr(value)} is above the limit of {limit}")


def _parse_families(raw: str) -> list[str]:
    # norm_table checks each name (separability.check_family)
    families = [f.strip() for f in raw.split(",") if f.strip()]
    if not families:
        raise ValueError("no families given")
    return families


def cmd_norms(args) -> list[str]:
    families = _parse_families(args.families)
    _check_limit("norms row count", len(families) * (args.n_max - args.n_min + 1), MAX_ROWS)
    rows = norm_table(families, args.n_min, args.n_max)
    if args.format == "json":
        import json

        # the text of json.dumps(rows as dicts, indent=2), one object per
        # row, with no dict per row (json writes a finite float as its repr)
        names = {fam: json.dumps(fam) for fam in families}
        lines = ["["]
        lines += (
            f'  {{\n    "family": {names[fam]},\n    "n": {n},\n'
            f'    "norm_sq": {norm_sq!r},\n    "norm": {math.sqrt(norm_sq)!r}\n  }},'
            for fam, n, norm_sq in rows
        )
        lines[-1] = lines[-1][:-1]  # no comma after the last object
        lines.append("]")
        return lines
    lines = ["family,n,norm_sq,norm"]
    for fam, n, norm_sq in rows:
        lines.append(f"{fam},{n},{_fmt(norm_sq)},{_fmt(math.sqrt(norm_sq))}")
    return lines


def cmd_bounds(args) -> list[str]:
    n = args.n
    if n < 3:
        raise ValueError(f"bounds table needs n >= 3, got {_short.repr(n)}")
    k_min = args.k_min
    k_max = args.k_max if args.k_max is not None else n
    if not 2 <= k_min <= k_max <= n:
        raise ValueError(f"need 2 <= k-min <= k-max <= n, got {_short.repr(k_min)}..{_short.repr(k_max)}"
                         f" for n={_short.repr(n)}")
    _check_limit("bounds part count", (k_min + k_max) * (k_max - k_min + 1) // 2, MAX_PARTS)
    lines = ["n,k,bound,partition"]
    for k in range(k_min, k_max + 1):
        pb = k_sep_bound(n, k)
        lines.append(f"{n},{k},{_fmt(pb.bound)},{pb.partition_label()}")
    return lines


def cmd_sweep(args) -> list[str]:
    if args.p_steps < 2:
        raise ValueError(f"p-steps must be at least 2, got {_short.repr(args.p_steps)}")
    _check_limit("p-steps", args.p_steps, MAX_ROWS)
    _check_limit("k", args.k, MAX_PARTS)
    rows = []
    for i in range(args.p_steps):
        p = i / (args.p_steps - 1)
        res = xi_noise(args.n, args.k, p, args.family)  # reads k_sep_bound first, which checks k
        rows.append(f"{_fmt(p)},{_fmt(res.numerator)},{_fmt(res.denominator)},{_fmt(res.xi)},{res.verdict}")
    # after the rows, so a p = 0 row past the float range is refused before the root solve
    thr = threshold_p(args.n, args.k, args.family)
    return [
        f"# sweep family={args.family} n={args.n} k={args.k}",
        f"# threshold_p={'NA' if thr is None else _fmt(thr)}",
        "p,norm_sq,bound_sq,xi,verdict",
        *rows,
    ]


def cmd_detect(args) -> list[str]:
    with warnings.catch_warnings(record=True) as caught:  # recorded under any filters, -W error too
        warnings.simplefilter("always")
        loaded = statefile.load_state_file(args.state_file)
    for w in caught:  # renormalized amplitudes: one line each, and no source line
        print(f"graphsep: warning: {w.message}", file=sys.stderr)
    n = loaded.n
    if not 2 <= args.k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={_short.repr(args.k)} for an n={_short.repr(n)} state")
    _check_limit("k", args.k, MAX_PARTS)
    if loaded.family is None:  # raw amplitudes: the kernel's float norm, certified past its rounding margin
        res = amplitudes.detect(amplitudes._pure_norm_sq(n, loaded.source), n, args.k)
    else:  # the exact noise quadratic of a family name or a graph (noise_products)
        res = xi_noise(n, args.k, loaded.p or 0.0, loaded.source)
    pb = k_sep_bound(n, args.k)
    row = {"n": n, "k": args.k, "norm": math.sqrt(res.numerator), "bound": pb.bound,
           "partition": pb.partition_label(), "xi": res.xi, "verdict": res.verdict, "p": loaded.p}
    if args.format == "json":
        import json

        return [json.dumps(row, indent=2)]
    return [f"{key}={_fmt(value) if isinstance(value, float) else value}"
            for key, value in row.items() if key not in ("xi", "p")]


def cmd_settings(args) -> Iterator[bytes | str]:
    return chain(graphs.measurement_settings(args.n, args.noise), [f"# count={cg_norm_sq(args.n) + args.noise}"])


def cmd_appendix(args) -> list[str]:
    n = args.n
    _check_limit("appendix n", n, APPENDIX_MAX_N)
    terms, closed = permutation_terms(n), cg_norm_sq(n)
    s = closed - (1 << (n - 1))
    lines = [f"C({n},{x}) = {c}" for x, c in terms]
    if s:
        lines.append("all-Y word = 1")
    total = sum(c for _, c in terms) + s
    if total != closed:
        raise RuntimeError(f"appendix sum {total} differs from the closed form {closed}")
    lines.append(f"sum = {total}")
    lines.append(f"closed form 2^{n - 1} + {s} = {closed}")
    lines.append("OK")
    return lines


def cmd_graph(args) -> Iterator[str]:
    n = args.n
    if n < 2:
        raise ValueError("graph needs at least 2 vertices")
    _check_limit("graph n", n, GRAPH_MAX_N)
    names = list(map(str, range(1, n + 1)))
    edges = (f"  {a} -- " + f";\n  {a} -- ".join(names[a:]) + ";" for a in range(1, n))
    return chain([f"graph complete_{n} {{", "\n".join(f"  {v};" for v in names)], edges, ["}"])

