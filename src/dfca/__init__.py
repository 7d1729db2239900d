"""Deterministic simulator for decentralized clustered federated learning.

Clients on a sparse random graph jointly learn k cluster-specific models by
iterating loss-based cluster assignment, local SGD, and gossip-style
neighbor averaging, with no central server.  The same round runs the
centralized IFCA baseline (a server merge) and a no-clustering
decentralized-averaging baseline; an experiment harness adds multi-seed runs
and sweeps.
"""

from .config import ConfigError, ExperimentConfig, load_config
from .core import (
    ClientState,
    RunState,
    DisconnectedGraphError,
    Hyperparams,
    RoundPlan,
    aggregate_batch,
    aggregate_sequential,
    assign_cluster,
    initialize,
    local_update,
    run_experiment,
    run_round,
)
from .datagen import (
    Dataset,
    DEFAULT_SPEC,
    IdxFormatError,
    SyntheticSpec,
    generate_rotated_synthetic,
    load_idx_pair,
    rotate_image,
    rotated_idx_datasets,
    train_test_split,
)
from .metrics import (
    RoundMetrics,
    clustering_accuracy,
    dispersion,
    f_cluster,
    f_global,
    test_accuracy,
)
from .model import (
    DivergenceError,
    MlpModel,
    ModelShape,
    flatten_params,
    forward_loss,
    gradient,
    init_model,
    params_from_bytes,
    params_to_bytes,
    sgd_epochs,
    unflatten_params,
)
from .topology import (
    METROPOLIS,
    MixingMatrix,
    PAPER_UNIFORM,
    PowerIterationError,
    Topology,
    build_mixing_matrix,
    from_edge_list_text,
    generate_erdos_renyi,
    is_connected,
    spectral_gap,
    to_edge_list_text,
)

__version__ = "0.1.0"
