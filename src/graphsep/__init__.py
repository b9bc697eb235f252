"""Correlation-tensor norms and non-k-separability certification for qubit graph states."""

from .pauli import (
    MixedEnsemble,
    PauliString,
    PureState,
    embed,
    ensemble_expectation,
    expectation,
    kron_states,
    pack_index,
    pure_ensemble,
    unpack_index,
)
from .separability import (
    INCONCLUSIVE,
    NON_K_SEPARABLE,
    PartitionBound,
    Verdict,
    XiResult,
    admissible_partitions,
    detect,
    k_sep_bound,
    part_norm,
    threshold_p,
    xi_noise,
)
from .stabilizer import (
    StabilizerGroup,
    SupportLimitError,
    SupportPattern,
    cg_nonzero_pattern,
    cg_norm_closed,
    full_weight_count,
    full_weight_support,
    ghz_group,
    ghz_nonzero_pattern,
    permutation_count,
    stabilizer_expectation,
    stabilizer_group,
)
from .statefile import LoadedState, StateFileError, load_state_file, write_amplitude_file
from .states import (
    GraphSpec,
    all_ones_state,
    chain_graph,
    cluster_state,
    complete_graph,
    ghz_state,
    graph_state,
    noisy_mixture,
    star_graph,
    w_state,
)
from .tensor import (
    CorrelationTensor,
    DenseLimitError,
    ensemble_norm_sq,
    full_tensor,
    measurement_settings,
    norm_table,
    support_size,
    tensor_norm,
    tensor_norm_sq,
)

__version__ = "0.1.0"
