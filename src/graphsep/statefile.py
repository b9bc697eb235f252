"""Reading and writing state files for the command-line detect path.

A state file is a JSON document, optionally preceded or interleaved with
"#" comment lines.  It either names a state family,

    {"family": "cg", "n": 5, "p": 0.1}
    {"family": "graph", "n": 3, "edges": [[1, 2], [2, 3]]}

or carries raw amplitudes as [re, im] pairs,

    {"n": 2, "amplitudes": [[0.7071, 0], [0, 0], [0, 0], [0.7071, 0]]}

with qubit 1 in the most significant bit of the amplitude index.  Raw
amplitudes may be off normalization by up to 1e-6; they are renormalized
on load with a warning that names the caller's line, not this module's.

Family names are the keys of separability.FAMILIES, plus "graph".  A
field given twice is refused, whatever its values.
Loading checks the whole document and loads it to data, with no state
built and no numpy loaded: a LoadedState keeps its base state's source
(a family name, the graphs.GraphSpec of a graph document, or for raw
amplitudes a tuple of Python complex numbers), which detect hands to
separability.xi_noise or to the amplitude kernel of graphsep.amplitudes.
A caller that wants the state builds it from the source (for raw
amplitudes, pauli.PureState(n, source)).  A one-qubit family file is
refused here, in one message that names the family; GraphSpec checks
a graph's edges.  Every read error is a StateFileError (load_state_file).
The module imports only graphs and separability (the writers'
pauli.PureState is named in their docstrings), so detect runs no
inspection module: xi_noise reads a family's closed form, and counts a
graph's B from the GraphSpec itself.
"""

from __future__ import annotations

import json
import math
import sys
import warnings

from . import graphs  # a lazy module (graphsep/__init__.py): runs when a graph document is read
from .separability import _short, check_family

_KNOWN_KEYS = {"family", "n", "edges", "p", "amplitudes"}

RAW_NORM_TOL = 1e-6


class StateFileError(ValueError):
    """The state file is malformed or inconsistent."""


class LoadedState:
    """Parsed state file: its provenance fields and its base state's source
    (a family name, a GraphSpec or an amplitude tuple).  It compares by
    identity, and its repr reads the provenance fields (n, family, p) only."""

    def __init__(self, n: int, family: str | None, p: float | None, source):
        self.n, self.family, self.p, self.source = n, family, p, source

    def __repr__(self) -> str:
        return f"LoadedState(n={self.n!r}, family={self.family!r}, p={self.p!r})"


def _is_number(value, kinds=(int, float)) -> bool:
    """A JSON number of the given kinds; true and false load as bool, an int subclass, and are not."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _strip_comments(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.lstrip().startswith("#"))


def _fields(pairs: list) -> dict:
    """A JSON object's fields; a name given twice is refused, not read as its last value."""
    doc = {}
    for name, value in pairs:
        if name in doc:
            raise StateFileError(f"repeated field {name!r}")
        doc[name] = value
    return doc


def loads_state(text: str) -> LoadedState:
    """Parse state-file text; see the module docstring for the format."""
    try:
        doc = json.loads(_strip_comments(text), object_pairs_hook=_fields)
    except StateFileError:  # a repeated field (_fields)
        raise
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise StateFileError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise StateFileError("top level must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise StateFileError(f"unknown fields: {sorted(unknown)}")
    if ("family" in doc) == ("amplitudes" in doc):
        raise StateFileError("exactly one of 'family' or 'amplitudes' is required")
    n = doc.get("n")
    if not _is_number(n, int) or n < 1:
        raise StateFileError("'n' must be a positive integer")

    if "amplitudes" in doc:
        if "edges" in doc or "p" in doc:
            raise StateFileError("'edges' and 'p' do not apply to raw amplitudes")
        return LoadedState(n, None, None, _parse_amplitudes(doc["amplitudes"], n))

    family = doc["family"]
    try:
        check_family(family, "graph")
    except ValueError as exc:
        raise StateFileError(str(exc)) from None
    p = doc.get("p")
    if p is not None and (not _is_number(p) or not 0 <= p <= 1):  # exact: no float of a huge int
        raise StateFileError(f"'p' must be a number in [0, 1], got {_short.repr(p)}")
    if family == "graph":
        if "edges" not in doc:
            raise StateFileError("family 'graph' requires an 'edges' list")
        edges = doc["edges"]
        if not isinstance(edges, list):  # a number is not iterable, and a string or an object would iterate as edges
            raise StateFileError("'edges' must be a list of [a, b] pairs")
        try:
            source = graphs.GraphSpec(n, edges)
        except ValueError as exc:  # any bad edge: not a pair of ints, a self-loop, a duplicate or outside 1..n
            raise StateFileError(str(exc)) from None
    else:
        if "edges" in doc:
            raise StateFileError(f"'edges' only applies to family 'graph', not {family!r}")
        if n < 2:
            raise StateFileError(f"family {family!r} needs at least 2 qubits")
        source = family
    return LoadedState(n, family, None if p is None else float(p), source)


def _parse_amplitudes(raw, n: int) -> tuple:
    # no list reaches 2^64 entries, so a larger n is refused without forming 1 << n
    if not isinstance(raw, list) or len(raw) != 1 << min(n, 64):
        raise StateFileError(f"'amplitudes' must list exactly 2^{_short.repr(n)} entries")
    amps = []
    for i, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2 and all(_is_number(v) for v in item)):
            raise StateFileError(f"amplitude {i} is not an [re, im] pair: {_short.repr(item)}")
        try:
            amps.append(complex(item[0], item[1]))
        except OverflowError:  # an integer part past the float range
            raise StateFileError(f"amplitude {i} has a part past the float range: {_short.repr(item)}") from None
    try:
        nrm = math.sqrt(math.fsum(abs(a) ** 2 for a in amps))
    except OverflowError:  # a finite part whose square, or a sum of squares, is past the float range
        raise StateFileError(f"amplitudes have a norm past the float range, more than {RAW_NORM_TOL} from 1") from None
    if not abs(nrm - 1.0) <= RAW_NORM_TOL:  # a NaN part fails this too
        raise StateFileError(f"amplitudes have norm {nrm}, more than {RAW_NORM_TOL} from 1")
    if abs(nrm - 1.0) > 1e-12:
        frame, level = sys._getframe(1), 2  # the warning names the first caller outside this module
        while frame is not None and frame.f_code.co_filename == __file__:
            frame, level = frame.f_back, level + 1
        warnings.warn(f"renormalizing amplitudes (norm was {nrm})", stacklevel=level)
        amps = [a / nrm for a in amps]
    return tuple(amps)


def load_state_file(path) -> LoadedState:
    """Parse a state file; one that cannot be read (an OSError, or not UTF-8) raises StateFileError naming path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from None
    return loads_state(text)


def dumps_amplitudes(state) -> str:
    """Serialize a pure state (a pauli.PureState) as a raw-amplitude state file."""
    pairs = [[float(a.real), float(a.imag)] for a in state.amplitudes]
    body = json.dumps({"n": state.n, "amplitudes": pairs})
    return "# qubit 1 is the most significant bit of the amplitude index\n" + body + "\n"


def write_amplitude_file(path, state) -> None:
    """Write a pure state (a pauli.PureState) to path as a raw-amplitude state file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_amplitudes(state))
