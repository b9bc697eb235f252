"""Command-line front end.

COMMANDS is the one spec of the subcommands (norms, bounds, sweep, detect,
settings, appendix, graph): command -> (help line, cmd_* function, {flag:
(type, default, choices, help)}), type None a switch (False unless given),
default ... a flag that must be given.  parse_args reads argv against it,
--help renders it and main calls the cmd_* through it.  The cmd_* bodies
live in graphsep.commands; family names are the keys of
separability.FAMILIES.

main writes what a cmd_* returns as it iterates and returns the exit
code; it neither exits nor touches the garbage collector or stdout's
file descriptor, so a caller can run it in its own process.  run is the
one process entry, of both python -m graphsep.cli and the graphsep
console script.  Exit codes: 0 success, 1 usage or input error (also a
result beyond the float range, a failed internal check or a stdout
closed early), 2 a size limit (bounds.LimitError), out of memory or an
output error, each error one line on stderr.  Verdicts are payload,
never exit status.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
from types import SimpleNamespace

from .bounds import LimitError
from .commands import MAX_ROWS, cmd_appendix, cmd_bounds, cmd_detect, cmd_graph, cmd_norms, cmd_settings, cmd_sweep
from .separability import FAMILIES

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
    except BrokenPipeError:  # the reader has gone: run points the process's stdout elsewhere
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


def run() -> None:
    """Run main as the process and exit with its code.

    gc.freeze moves the start-up heap (the interpreter's, site's and
    this module's imports) to the collector's permanent generation, so
    no collection walks it during the command or at exit; what main
    allocates is still collected.  A gc.collect first would cost most
    of the saving, and os._exit would skip atexit handlers and the
    stdio flush at exit.  Output left in sys.stdout when its reader has
    gone goes to devnull, as the signal module docs advise, so the flush
    at shutdown finds no pipe."""
    gc.freeze()
    rc = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(rc)


if __name__ == "__main__":
    run()
