"""Correlation-tensor norms and non-k-separability certification for qubit graph states.

The namespace is lazy, so that the command-line interface starts without
numpy, which a plain install does not bring: the tensor extra
(graphsep[tensor]) adds it for the inspection layer.  Importing graphsep
registers each home module of _EXPORTS as a _LazyModule, whose body runs
on first attribute access, and each public name resolves on first access
(PEP 562), so graphsep.X is graphsep.<home>.X.  One package lock is held
across each body's first run, so a thread that reads a home module
another thread is running waits for the whole body (3.11's
importlib.util.LazyLoader let it read a half-run module).  No module
imports numpy at import time: the functions that build or read arrays
(amplitude arrays, sparse tensors, the walk, the key patterns) get it
from pauli.require_numpy, which without it raises a one-line ImportError
that names the extra.  bounds (the k-separability bound and the integer
closed forms), separability (noise verdicts, thresholds and the family
table), graphs (graphs, the full-weight count, the pattern order and the
settings), amplitudes (raw amplitudes, their norm and detect, and the
dense limit) and commands (the command bodies) never read it, and groups
and settings are plain ints and bytes, so no CLI command needs numpy.

No class is a dataclass (its module brings inspect, ast and dis, about
10 ms of start-up): the result records PartitionBound and XiResult
are collections.namedtuple subclasses (typing.NamedTuple would bring
typing, re and enum into every command), the other classes plain ones.
The modules reach each other through the lazy modules and read them
only inside the functions that need them, so a CLI command runs the body
of only the modules its path reads: cli, commands, separability and
bounds for bounds, sweep, appendix, graph and norms, with graphs for
settings, and statefile for detect, with graphs for a graph file and
amplitudes for raw amplitudes.  No core module (cli, commands,
separability, bounds, graphs, statefile, amplitudes) imports the
inspection layer (pauli, states, stabilizer, tensor), so no command runs
it.  commands has no public name and is registered all the same.
"""

import importlib
import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# home module -> the public names it exports (none for commands, registered all the same)
_EXPORTS = {
    "amplitudes": "detect",
    "bounds": "INCONCLUSIVE LimitError NON_K_SEPARABLE PartitionBound XiResult admissible_partitions k_sep_bound",
    "commands": "",
    "graphs": "GraphSpec chain_graph complete_graph full_weight_count measurement_settings",
    "pauli": "CorrelationTensor MixedEnsemble PauliString PureState expectation pack_index pure_ensemble",
    "separability": "noise_products norm_table threshold_p xi_noise",
    "stabilizer": "StabilizerGroup cg_nonzero_pattern full_weight_support ghz_group ghz_nonzero_pattern"
    " stabilizer_group",
    "statefile": "LoadedState StateFileError load_state_file write_amplitude_file",
    "states": "all_ones_state cluster_state ghz_state graph_state noisy_mixture w_state",
    "tensor": "full_tensor tensor_norm tensor_norm_sq",
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)

_LOAD_LOCK = threading.RLock()


class _LazyModule(types.ModuleType):
    """A home module whose body has not run: the first attribute read
    runs it under _LOAD_LOCK, then makes it a plain module."""

    def __getattribute__(self, attr):
        with _LOAD_LOCK:  # another thread's read waits here until the body has run
            if type(self) is _LazyModule:
                self.__class__ = _Loading
                try:
                    self.__spec__.loader.exec_module(self)
                finally:
                    self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


class _Loading(_LazyModule):
    """A home module whose body is running: the running thread (the
    loader, the body, a module it imports) reads it as it stands, and
    another thread waits on _LOAD_LOCK."""


for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _module = importlib.util.module_from_spec(_spec)
    _module.__class__ = _LazyModule
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
