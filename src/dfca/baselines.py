"""Comparison algorithms: centralized IFCA and no-clustering decentralized averaging.

IFCA keeps one global model per cluster on a server: clients pick the
best-fitting global model by local loss, train it, and the server replaces
each cluster model with the unweighted mean of the returned updates.  It
shares the assign-and-train and measure steps with the decentralized round;
only the merge differs.  The ``davg`` baseline needs no code of its own:
``algorithm = davg`` runs the decentralized round with a single model slot,
i.e. plain decentralized FedAvg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .core import ClientState, Hyperparams, _assign_and_train, _measure, build_client_data, initialize
from .metrics import RoundMetrics
from .model import ModelShape, flatten_params, init_model
from .seeding import derive_seed

__all__ = [
    "CentralServerState",
    "ifca_round",
    "run_ifca_experiment_states",
]


@dataclass
class CentralServerState:
    """Global per-cluster models held by the coordinating server."""

    models: list[np.ndarray]

    def __post_init__(self) -> None:
        if len({v.shape for v in self.models}) != 1:
            raise ValueError("all server models must have equal length")


def ifca_round(
    server: CentralServerState,
    clients: list[ClientState],
    hp: Hyperparams,
    round_seed: int = 0,
    round_index: int = 0,
) -> tuple[CentralServerState, RoundMetrics]:
    """One centralized round: broadcast, assign, train, average, re-broadcast.

    Each cluster's server model becomes the unweighted mean of the trained
    models of the clients that selected it (unchanged if none did).  The
    round ends with every client holding the new global models, which is
    what the metrics are computed on.
    """
    for c in clients:
        c.models = [v.copy() for v in server.models]
    changed, pre_avg = _assign_and_train(clients, range(len(clients)), hp, round_seed)
    new_models = []
    for j, current in enumerate(server.models):
        returned = [c.models[j] for c in clients if c.assignment == j]
        new_models.append(np.mean(returned, axis=0) if returned else current.copy())
    server = CentralServerState(models=new_models)
    for c in clients:
        c.models = [v.copy() for v in server.models]
    return server, _measure(clients, pre_avg, hp, round_index, changed)


def run_ifca_experiment_states(
    config: ExperimentConfig,
) -> tuple[list[RoundMetrics], list[ClientState], dict]:
    """Full IFCA run on the same data pipeline as the decentralized runs.

    Initial server models reuse the global-initialization stream, so IFCA
    and DFCA-GI start from identical parameters under the same master seed.
    """
    config.validate()
    trains, tests = build_client_data(config)
    shape = ModelShape(dim=config.data_dim, hidden=config.model_hidden, n_classes=config.data_n_classes)
    init_seed = derive_seed(config.seed, "init")
    server = CentralServerState(
        models=[
            flatten_params(init_model(shape, derive_seed(init_seed, "gi", j)))
            for j in range(config.k)
        ]
    )
    clients = initialize(
        k=config.k,
        n=config.n_clients,
        mode="gi",
        model_shape=shape,
        seed=init_seed,
        datasets=trains,
    )
    hp = Hyperparams(gamma=config.gamma, tau=config.tau, batch_size=config.batch_size, test_sets=tests)
    trace: list[RoundMetrics] = []
    for round_index in range(config.T):
        server, measured = ifca_round(
            server,
            clients,
            hp,
            round_seed=derive_seed(config.seed, "round", round_index),
            round_index=round_index,
        )
        trace.append(measured)
    return trace, clients, {"connected": None, "algorithm": "ifca", "test_sets": tests}
