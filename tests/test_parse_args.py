"""cli.parse_args against an argparse parser built from the same
cli.COMMANDS table: the same fields on every valid argv, and on every
usage error exit 1, nothing on stdout and one "graphsep: error:" line."""

import argparse
import string
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsep import cli
from graphsep.cli import COMMANDS, main


@lru_cache(maxsize=None)
def argparse_oracle() -> argparse.ArgumentParser:
    """argparse's reading of COMMANDS: the independent reference for valid argv."""
    parser = argparse.ArgumentParser(prog="graphsep")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, (kind, default, choices, _) in options.items():
            if kind is None:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag, type=kind, default=None if default is ... else default,
                               required=default is ..., choices=choices or None)
        p.set_defaults(func=func)
    return parser


def _unique_prefixes(flag, flags):
    """The abbreviations of flag that no other flag (nor --help) starts with."""
    others = [f for f in (*flags, "--help") if f != flag]
    return [flag[:i] for i in range(3, len(flag)) if not any(f.startswith(flag[:i]) for f in others)]


@st.composite
def valid_argv(draw):
    """A command, then each of its flags 0 to 2 times (required ones at least
    once), each exact or a unique prefix, its value next or after "=", the
    occurrences shuffled: argparse reads the last of a repeated flag."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[name][2]
    words = []
    for flag, (kind, default, choices, _) in options.items():
        for _ in range(draw(st.integers(1 if default is ... else 0, 2))):
            spelled = draw(st.sampled_from([flag, *_unique_prefixes(flag, options)]))
            if kind is None:
                words.append([spelled])
                continue
            if choices:
                value = draw(st.sampled_from(choices))
            elif kind is int:
                value = str(draw(st.integers(-10 ** 6, 10 ** 6)))  # negative ints included
            else:
                value = draw(st.text(string.ascii_letters + string.digits + "._/=-", min_size=1, max_size=12)
                             .filter(lambda v: not v.startswith("-")))
            words.append([f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value])
    order = draw(st.permutations(words))
    return [name, *(word for occurrence in order for word in occurrence)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(valid_argv())
def test_parse_args_reads_valid_argv_as_argparse_does(argv):
    assert vars(cli.parse_args(argv)) == vars(argparse_oracle().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        [],  # no command
        ["nonsense"],  # unknown command
        ["--bogus"],
        ["norms", "--bogus"],  # unknown flag
        ["norms", "--n", "3"],  # ambiguous: --n-min, --n-max
        ["bounds", "--k", "3", "--n", "5"],  # ambiguous: --k-min, --k-max
        ["sweep", "--n", "4"],  # missing required --k
        ["detect", "--k", "2"],  # missing required --state-file
        ["sweep", "--n", "x", "--k", "2"],  # not an int
        ["bounds", "--n=4.0"],
        ["sweep", "--n", "4", "--k", "2", "--family", "foo"],  # bad choice
        ["norms", "--format=xml"],
        ["settings", "--n", "4", "--noise=1"],  # a switch with a value
        ["bounds", "--n", "4", "extra"],  # extra positional
        ["bounds", "--n"],  # no value
        ["sweep", "--n", "\n1", "--k", "x\ny"],  # still one stderr line
    ],
)
def test_usage_error_is_one_line_and_exit_1(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("graphsep: error: ")
    with pytest.raises(SystemExit):  # argparse refuses each of them too
        argparse_oracle().parse_args(argv)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"], *([name, "-h"] for name in COMMANDS)])
def test_help_lists_the_commands_and_their_flags(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: graphsep ")
    if len(argv) == 1:
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
        assert listed == set(COMMANDS)
    else:
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("  --")}
        assert listed == {"--help", *COMMANDS[argv[0]][2]}
