"""Command-line front end.

COMMANDS is the one spec of the subcommands (norms, bounds, sweep, detect,
settings, appendix, graph): command -> (help line, cmd_* function, {flag:
(type, default, choices, help)}), type None a switch (False unless given),
default ... a flag that must be given.  parse_args reads argv against it,
--help renders it and main calls the cmd_* through it.  Family names are
the keys of separability.FAMILIES.

Each cmd_* raises any input error, then returns its output lines (str,
and settings' bytes blocks), which main alone writes as it iterates, to
stdout unless --out is given.  settings and graph cannot fail once
checked and stream them; the others return lists: a failure writes none.
detect builds one row (a dict), which --format json dumps and text
writes as key=value lines without xi and p.  Comment lines start with
"#"; numeric fields carry 12 significant digits.  Exit codes: 0
success, 1 usage or input error (also a result beyond the float range,
a failed internal check or a stdout closed early), 2 a size limit
(separability.LimitError), out of memory or an output error, each error
one line on stderr.  detect writes its warning that it renormalized
amplitudes as one "graphsep: warning:" line on stderr, whatever warning
filters are set.  Verdicts are payload, never exit status.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import warnings
from collections.abc import Iterator
from itertools import chain
from types import SimpleNamespace

# lazy modules (graphsep/__init__.py), loaded only by the commands that read them
from . import amplitudes, graphs, statefile
from .separability import FAMILIES, LimitError, _short, cg_norm_sq, detect, k_sep_bound
from .separability import norm_table, permutation_terms, threshold_p, xi_noise

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
        res = detect(amplitudes._pure_norm_sq(n, loaded.source), n, args.k)
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


COMMANDS = {
    "norms": ("tensor-norm table per family and qubit count", cmd_norms, {
        "--families": (str, ",".join(FAMILIES), (), "comma list of state families"),
        "--n-min": (int, 2, (), ""), "--n-max": (int, 8, (), ""), "--format": (str, "csv", ("csv", "json"), "")}),
    "bounds": ("k-separability bounds for one qubit count", cmd_bounds, {
        "--n": (int, ..., (), ""), "--k-min": (int, 2, (), ""), "--k-max": (int, None, (), "(default: n)")}),
    "sweep": ("noise sweep of the squared norm against the bound", cmd_sweep, {
        "--family": (str, "cg", tuple(FAMILIES), ""), "--n": (int, ..., (), ""), "--k": (int, ..., (), ""),
        "--p-steps": (int, 11, (), f"grid points on [0, 1], 2 to {MAX_ROWS}"),
        "--out": (str, None, (), "CSV output path (default: stdout)")}),
    "detect": ("verdict for a state file against the k-sep bound", cmd_detect, {
        "--state-file": (str, ..., (), ""), "--k": (int, ..., (), ""),
        "--format": (str, "text", ("text", "json"), "")}),
    "settings": ("local observables sufficient for the criterion", cmd_settings, {
        "--family": (str, "cg", ("cg",), ""), "--n": (int, ..., (), ""),
        "--noise": (None, False, (), "include the all-Z noise observable")}),
    "appendix": ("permutation-count identity check", cmd_appendix, {"--n": (int, ..., (), "")}),
    "graph": ("complete graph as DOT text", cmd_graph, {
        "--n": (int, ..., (), ""), "--format": (str, "dot", ("dot",), "")}),
}
_HELP = {"--help": (None, False, (), "show this help (also -h)")}  # a flag of every command


def _help(name: str | None) -> list[str]:
    """The usage of graphsep (name None) or of one command, from COMMANDS."""
    if name is None:
        return ["usage: graphsep COMMAND [OPTIONS]", "", "commands:",
                *(f"  {c:<10}{t}" for c, (t, _, _) in COMMANDS.items()), "", "COMMAND --help lists its options."]
    text, _, options = COMMANDS[name]
    lines = [f"usage: graphsep {name} [OPTIONS]", "", text, "", "options:"]
    for flag, (kind, default, choices, note) in {**_HELP, **options}.items():
        value = "{" + ",".join(choices) + "}" if choices else flag[2:].upper().replace("-", "_") if kind else ""
        if default is ... or kind and default is not None:
            note = f"{note} ({'required' if default is ... else f'default: {default}'})".lstrip()
        lines.append(f"  {f'{flag} {value}':<28} {note}".rstrip())
    return lines


def parse_args(argv=None) -> SimpleNamespace:
    """Read argv (default sys.argv[1:]) against COMMANDS, as argparse would:
    a flag exact or a unique prefix, its value next (even "-1") or after "=",
    the last repeat winning.  -h or --help gives a func that returns the
    help lines; any other fault raises ValueError, one line."""
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in ("-h", "--h", "--he", "--hel", "--help"):
        return SimpleNamespace(command=None, func=lambda _: _help(None))
    if name not in COMMANDS:
        got = f"unknown command {name!r}" if argv else "no command"
        raise ValueError(f"{got}; expected one of {', '.join(COMMANDS)}")
    _, func, options = COMMANDS[name]
    spec, values, rest = {**_HELP, **options}, {}, iter(argv[1:])
    for arg in rest:
        flag, eq, value = ("--help", "", "") if arg == "-h" else arg.partition("=")
        found = [flag] if flag in spec else [f for f in spec if f.startswith(flag)]
        if len(found) != 1:
            raise ValueError(f"{'ambiguous flag' if found else 'unknown argument'} {arg!r} for {name}; "
                             f"expected one of {', '.join(found or spec)}")
        kind, _, choices, _ = spec[flag := found[0]]
        if (eq and kind is None) or (kind and not eq and (value := next(rest, None)) is None):
            raise ValueError(f"{flag} {'takes no' if eq else 'needs a'} value")
        if flag == "--help":
            return SimpleNamespace(command=name, func=lambda _: _help(name))
        try:
            values[flag] = kind(value) if kind else True
        except ValueError:  # int(value) reads the strings that argparse's type=int reads
            raise ValueError(f"{flag} needs an integer, got {value!r}") from None
        if choices and values[flag] not in choices:
            raise ValueError(f"{flag} must be one of {choices}, got {value!r}")
    if missing := [flag for flag, (_, default, _, _) in options.items() if default is ... and flag not in values]:
        raise ValueError(f"{name} needs {', '.join(missing)}")
    return SimpleNamespace(command=name, func=func, **{
        flag[2:].replace("-", "_"): values.get(flag, default) for flag, (_, default, _, _) in options.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        chunks = args.func(args)
        out_path = getattr(args, "out", None)  # sweep's --out, opened once the rows exist
        with contextlib.nullcontext(sys.stdout) if out_path is None else open(out_path, "w", encoding="utf-8") as out:
            for chunk in chunks:
                if isinstance(chunk, bytes):
                    out.flush()
                    out.buffer.write(chunk)
                else:
                    out.write(chunk + "\n")
        sys.stdout.flush()  # a closed pipe shows up here, not at shutdown
        return 0
    except BrokenPipeError:
        # the reader has gone: as the signal module docs advise, send what is
        # left to devnull, so the flush at shutdown finds no pipe, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OverflowError as exc:
        print(f"graphsep: error: result out of floating-point range ({exc})", file=sys.stderr)
        return 1
    except (LimitError, MemoryError, OSError) as exc:  # Python's own MemoryError carries no message
        print(f"graphsep: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:  # StateFileError, or a failed library consistency check
        print(f"graphsep: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
