"""Correlation-tensor norms and non-k-separability certification for qubit graph states.

The namespace is lazy, so that the command-line interface starts
without numpy, which a plain install does not bring: the tensor extra
(graphsep[tensor]) adds it for the inspection layer.  Importing
graphsep registers each home module of _EXPORTS as a lazy module
(importlib.util.LazyLoader) whose body runs on first attribute access,
and each public name resolves on first access (PEP 562), so graphsep.X
is graphsep.<home>.X.  No module imports numpy at import time: the
functions that build or read arrays (amplitude arrays, sparse tensors, the
walk, the key patterns) get it from pauli.require_numpy, which without
it raises a one-line ImportError that names the extra.  separability
(bounds, thresholds and the integer closed forms), graphs (graphs, the
full-weight count, the pattern order and the settings) and amplitudes (the
raw-amplitude norm and the dense limit) never read it, and groups and
settings are plain ints and bytes, so no CLI command needs numpy.

No class is a dataclass (its module brings inspect, ast and dis, about
10 ms of start-up): the result records PartitionBound and XiResult
are named tuples, the other classes plain ones.
The modules reach each other through the lazy modules and read them
only inside the functions that need them, so a CLI command runs the body
of only the modules its path reads: cli and separability for bounds,
sweep, appendix, graph and norms, with graphs for settings, and
statefile for detect, with graphs for a graph file and amplitudes for
raw amplitudes.  No core module (cli, separability, graphs, statefile,
amplitudes) imports the inspection layer (pauli, states, stabilizer,
tensor), so no command runs it.  amplitudes has no public name and is
registered all the same: graphsep.amplitudes._pure_norm_sq is the kernel.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# home module -> the public names it exports (none for amplitudes, registered all the same)
_EXPORTS = {
    "amplitudes": "",
    "graphs": "GraphSpec chain_graph complete_graph full_weight_count measurement_settings",
    "pauli": "CorrelationTensor MixedEnsemble PauliString PureState expectation pack_index pure_ensemble",
    "separability": "INCONCLUSIVE LimitError NON_K_SEPARABLE PartitionBound XiResult admissible_partitions detect"
    " k_sep_bound noise_products norm_table threshold_p xi_noise",
    "stabilizer": "StabilizerGroup cg_nonzero_pattern full_weight_support ghz_group ghz_nonzero_pattern"
    " stabilizer_group",
    "statefile": "LoadedState StateFileError load_state_file write_amplitude_file",
    "states": "all_ones_state cluster_state ghz_state graph_state noisy_mixture w_state",
    "tensor": "full_tensor tensor_norm tensor_norm_sq",
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
