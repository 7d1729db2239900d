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
    Hyperparams,
    RoundPlan,
    aggregate_batch,
    aggregate_sequential,
    assign_cluster,
    initialize,
    local_update,
    run_round,
)
from .datagen import (
    Dataset,
    IdxFormatError,
    SyntheticSpec,
    generate_rotated_synthetic,
    load_idx_pair,
    rotate_image,
    rotated_idx_datasets,
    stack_datasets,
    train_test_split,
)
from .harness import DisconnectedGraphError, run_one_seed
from .metrics import (
    RoundMetrics,
    clustering_accuracy,
    dispersion,
    f_cluster,
    test_accuracy,
)
from .model import (
    DivergenceError,
    MlpModel,
    ModelShape,
    forward_loss,
    gradient,
    init_model,
    sgd_epochs,
    unflatten_params,
)
from .topology import (
    Topology,
    build_mixing_matrix,
    generate_erdos_renyi,
    is_connected,
    spectral_gap,
)

__version__ = "0.1.0"
