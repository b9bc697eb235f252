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
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import GraphSpec
from .pauli import MixedEnsemble, PureState, pure_ensemble
from .states import FAMILIES, graph_state, noisy_mixture
from .tensor import check_dense_limit

_KNOWN_KEYS = {"family", "n", "edges", "p", "amplitudes"}

RAW_NORM_TOL = 1e-6


class StateFileError(ValueError):
    """The state file is malformed or inconsistent."""


@dataclass(frozen=True)
class LoadedState:
    """Parsed state file: the ensemble plus its provenance fields."""

    n: int
    ensemble: MixedEnsemble
    family: str | None
    p: float | None


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
        return LoadedState(n, pure_ensemble(_parse_amplitudes(doc["amplitudes"], n)), None, None)

    family = doc["family"]
    names = (*FAMILIES, "graph")
    if family not in names:
        raise StateFileError(f"unknown family {family!r}; expected one of {names}")
    p = doc.get("p")
    if p is not None and (not _is_number(p) or not 0.0 <= float(p) <= 1.0):
        raise StateFileError(f"'p' must be a number in [0, 1], got {p!r}")
    if family == "graph":
        if "edges" not in doc:
            raise StateFileError("family 'graph' requires an 'edges' list")
        edges = _parse_edges(doc["edges"])
        base = graph_state(GraphSpec(n, edges))
    else:
        if "edges" in doc:
            raise StateFileError(f"'edges' only applies to family 'graph', not {family!r}")
        make_state, make_group = FAMILIES[family]
        if make_group is None:
            # only the dense path can take it: refuse before building 2^n amplitudes
            check_dense_limit(n)
        try:
            base = make_state(n)
        except ValueError as exc:
            raise StateFileError(str(exc)) from None

    if p is None:
        return LoadedState(n, pure_ensemble(base), family, None)
    return LoadedState(n, noisy_mixture(base, float(p)), family, float(p))


def _parse_edges(raw) -> tuple:
    if not isinstance(raw, list):
        raise StateFileError("'edges' must be a list of [a, b] pairs")
    edges = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2 and all(_is_number(v, int) for v in item)):
            raise StateFileError(f"edge {item!r} is not an [a, b] integer pair")
        edges.append((item[0], item[1]))
    return tuple(edges)


def _parse_amplitudes(raw, n: int) -> PureState:
    if not isinstance(raw, list) or len(raw) != 1 << n:
        raise StateFileError(f"'amplitudes' must list exactly 2^{n} = {1 << n} entries")
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
    return PureState(n, amps)


def load_state_file(path) -> LoadedState:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_state(fh.read())


def dumps_amplitudes(state: PureState) -> str:
    """Serialize a pure state as a raw-amplitude state file."""
    pairs = [[float(a.real), float(a.imag)] for a in state.amplitudes]
    body = json.dumps({"n": state.n, "amplitudes": pairs})
    return "# qubit 1 is the most significant bit of the amplitude index\n" + body + "\n"


def write_amplitude_file(path, state: PureState) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_amplitudes(state))
