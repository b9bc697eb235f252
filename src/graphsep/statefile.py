"""Reading and writing state files for the command-line detect path.

A state file is a JSON document, optionally preceded or interleaved with
"#" comment lines.  It either names a state family,

    {"family": "cg", "n": 5, "p": 0.1}
    {"family": "graph", "n": 3, "edges": [[1, 2], [2, 3]]}

or carries raw amplitudes as [re, im] pairs,

    {"n": 2, "amplitudes": [[0.7071, 0], [0, 0], [0, 0], [0.7071, 0]]}

with qubit 1 in the most significant bit of the amplitude index.  Raw
amplitudes may be off normalization by up to 1e-6; they are renormalized
on load with a warning.

Loading checks the whole document but builds no state: a LoadedState
builds its ensemble (the group, the amplitudes) the first time it is
read, and at p = 1 it builds only |1...1>, never the base state.  So
loading a family or graph document loads no numpy, and detect decides a
cg, GHZ or W file from n and p alone.  Only raw amplitudes are parsed
into a numpy array on load.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial

# lazy modules (graphsep/__init__.py): pauli is loaded when an ensemble is
# built, and states (numpy-free at import) when a family document is read
from . import pauli, states

_KNOWN_KEYS = {"family", "n", "edges", "p", "amplitudes"}

RAW_NORM_TOL = 1e-6


class StateFileError(ValueError):
    """The state file is malformed or inconsistent."""


@dataclass(frozen=True)
class LoadedState:
    """Parsed state file: its provenance fields, and the ensemble, which
    build() makes the first time it is read."""

    n: int
    family: str | None
    p: float | None
    build: object = field(repr=False, compare=False)

    @cached_property
    def ensemble(self) -> pauli.MixedEnsemble:
        return self.build()


def _is_number(value, kinds=(int, float)) -> bool:
    """A JSON number of the given kinds; true and false load as bool, an int subclass, and are not."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _strip_comments(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.lstrip().startswith("#"))


def loads_state(text: str) -> LoadedState:
    """Parse state-file text; see the module docstring for the format."""
    try:
        doc = json.loads(_strip_comments(text))
    except json.JSONDecodeError as exc:
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
        return LoadedState(n, None, None, partial(pauli.pure_ensemble, _parse_amplitudes(doc["amplitudes"], n)))

    family = doc["family"]
    names = (*states.FAMILIES, "graph")
    if family not in names:
        raise StateFileError(f"unknown family {family!r}; expected one of {names}")
    p = doc.get("p")
    if p is not None and (not _is_number(p) or not 0.0 <= float(p) <= 1.0):
        raise StateFileError(f"'p' must be a number in [0, 1], got {p!r}")
    if family == "graph":
        if "edges" not in doc:
            raise StateFileError("family 'graph' requires an 'edges' list")
        make_base = partial(states.graph_state, states.GraphSpec(n, _parse_edges(doc["edges"])))
    else:
        if "edges" in doc:
            raise StateFileError(f"'edges' only applies to family 'graph', not {family!r}")
        make_base = partial(states.FAMILIES[family], n)
        if n < 2:
            # no family takes one qubit, and each constructor refuses it in
            # its own words before it builds anything or loads numpy
            try:
                make_base()
            except ValueError as exc:
                raise StateFileError(str(exc)) from None
    p = None if p is None else float(p)
    return LoadedState(n, family, p, partial(_ensemble, make_base, n, p))


def _ensemble(make_base, n: int, p: float | None) -> pauli.MixedEnsemble:
    if p == 1.0:  # |1...1> alone: noisy_mixture would discard the base state, so none is built
        return pauli.pure_ensemble(states.all_ones_state(n))
    base = make_base()
    return pauli.pure_ensemble(base) if p is None else states.noisy_mixture(base, p)


def _parse_edges(raw) -> tuple:
    if not isinstance(raw, list):
        raise StateFileError("'edges' must be a list of [a, b] pairs")
    edges = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2 and all(_is_number(v, int) for v in item)):
            raise StateFileError(f"edge {item!r} is not an [a, b] integer pair")
        edges.append((item[0], item[1]))
    return tuple(edges)


def _parse_amplitudes(raw, n: int) -> pauli.PureState:
    if not isinstance(raw, list) or len(raw) != 1 << n:
        raise StateFileError(f"'amplitudes' must list exactly 2^{n} = {1 << n} entries")
    import numpy as np

    amps = np.empty(1 << n, dtype=np.complex128)
    for i, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2 and all(_is_number(v) for v in item)):
            raise StateFileError(f"amplitude {i} is not an [re, im] pair: {item!r}")
        amps[i] = complex(item[0], item[1])
    nrm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    if abs(nrm - 1.0) > RAW_NORM_TOL:
        raise StateFileError(f"amplitudes have norm {nrm}, more than {RAW_NORM_TOL} from 1")
    if abs(nrm - 1.0) > 1e-12:
        warnings.warn(f"renormalizing amplitudes (norm was {nrm})", stacklevel=2)
        amps = amps / nrm
    return pauli.PureState(n, amps)


def load_state_file(path) -> LoadedState:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_state(fh.read())


def dumps_amplitudes(state: pauli.PureState) -> str:
    """Serialize a pure state as a raw-amplitude state file."""
    pairs = [[float(a.real), float(a.imag)] for a in state.amplitudes]
    body = json.dumps({"n": state.n, "amplitudes": pairs})
    return "# qubit 1 is the most significant bit of the amplitude index\n" + body + "\n"


def write_amplitude_file(path, state: pauli.PureState) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_amplitudes(state))
