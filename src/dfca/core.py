"""The clustered-training state machine shared by dfca, davg and ifca.

Every round iterates three steps per participating client: pick the cluster
whose model fits the local data best (argmin of the local loss), train that
one model with local SGD, then merge.  Clients send only the model they just
trained but receive and merge models for every cluster, so all k models
propagate even through sparse graphs.

``run_round`` has three merges:

* batch - synchronous per-cluster neighbor averaging with uniform weights
  1/(r+1) over self plus the r reporting neighbors (or mixing-matrix
  weights when a matrix is supplied);
* sequential - a running average that folds neighbor models in one at a
  time in arrival order and telescopes to exactly the batch mean;
* server - centralized IFCA: each cluster model becomes the mean of the
  trained models of the clients that selected it, and every client receives
  the result.  It needs no graph.

The gossip merges are computed in delta form (own + weighted sum of
differences), so averaging identical vectors is exactly the identity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import AGGREGATION_MODES, ExperimentConfig
from .datagen import Dataset, generate_rotated_synthetic, train_test_split
from .metrics import (
    RoundMetrics,
    cluster_average,
    clustering_accuracy,
    dispersion,
    f_cluster,
    test_accuracy,
)
from .model import (
    DivergenceError,
    ModelShape,
    _chunks,
    _layers,
    flatten_params,
    forward_loss,
    init_model,
    sgd_epochs,
    unflatten_params,
)
from .seeding import derive_seed, spawn_rng
from .topology import (
    METROPOLIS,
    MixingMatrix,
    Topology,
    build_mixing_matrix,
    generate_erdos_renyi,
    is_connected,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ClientState",
    "RoundPlan",
    "Hyperparams",
    "DisconnectedGraphError",
    "initialize",
    "assign_cluster",
    "local_update",
    "aggregate_batch",
    "aggregate_sequential",
    "run_round",
    "run_experiment",
]


class DisconnectedGraphError(RuntimeError):
    """Sampled topology is disconnected and the config says abort."""


@dataclass
class ClientState:
    """One client: its k model copies, current assignment, and train data.

    ``outbox`` holds the single (cluster, parameters) pair the client sends
    this round; it is None for clients that did not train.
    """

    client_id: int
    shape: ModelShape
    models: list[np.ndarray]
    assignment: int
    data: Dataset
    outbox: tuple[int, np.ndarray] | None = None

    def __post_init__(self) -> None:
        lengths = {v.shape for v in self.models}
        if len(lengths) != 1:
            raise ValueError("all model vectors must have equal length")
        if not 0 <= self.assignment < len(self.models):
            raise ValueError(f"assignment {self.assignment} out of range")


_PLAN_MODES = (*AGGREGATION_MODES, "server")  # server is set for algorithm = ifca, not configured


@dataclass
class RoundPlan:
    """Everything that varies per round: who participates, how merges are
    ordered, and which aggregation rule applies.

    ``aggregation_mode`` is ``batch``, ``sequential`` or ``server`` (IFCA).
    ``arrival_order`` may pin an explicit sender order per (receiver,
    cluster); any pair not listed gets a seeded permutation derived from
    ``round_seed``.  An explicit order must permute exactly the reporting
    neighbor set.
    """

    participants: tuple[int, ...]
    aggregation_mode: str = "batch"
    round_seed: int = 0
    round_index: int = 0
    arrival_order: dict[tuple[int, int], Sequence[int]] | None = None
    receive_restricted: bool = False

    def __post_init__(self) -> None:
        if self.aggregation_mode not in _PLAN_MODES:
            raise ValueError(
                f"unknown aggregation mode {self.aggregation_mode!r}; expected one of {_PLAN_MODES}"
            )


@dataclass
class Hyperparams:
    """Per-run constants threaded through rounds.

    ``mixing`` selects the merge weights: None for uniform 1/(r+1) over self
    plus the r reporting neighbors, or a mixing matrix.
    """

    gamma: float
    tau: int
    batch_size: int
    test_sets: Sequence[Dataset]
    mixing: MixingMatrix | None = None


def initialize(
    k: int,
    n: int,
    mode: str,
    model_shape: ModelShape,
    seed: int,
    datasets: Sequence[Dataset],
) -> list[ClientState]:
    """Create all client states with globally or locally initialized models.

    ``gi`` draws one seeded model per cluster and gives every client an
    identical copy (zero initial dispersion); ``li`` draws every client's
    models from client-distinct seeds.  Initial assignments are computed by
    :func:`assign_cluster`, not fixed arbitrarily.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    if len(datasets) != n:
        raise ValueError(f"expected {n} datasets, got {len(datasets)}")
    mode = mode.lower()
    if mode not in ("gi", "li"):
        raise ValueError(f"init mode must be 'gi' or 'li', got {mode!r}")
    if mode == "gi":
        shared = [flatten_params(init_model(model_shape, derive_seed(seed, "gi", j))) for j in range(k)]
        model_sets = [[v.copy() for v in shared] for _ in range(n)]
    else:
        model_sets = [
            [flatten_params(init_model(model_shape, derive_seed(seed, "li", i, j))) for j in range(k)]
            for i in range(n)
        ]
    states = [
        ClientState(client_id=i, shape=model_shape, models=model_sets[i], assignment=0, data=datasets[i])
        for i in range(n)
    ]
    for s in states:
        assign_cluster(s)
    return states


def assign_cluster(c: ClientState) -> int:
    """Reassign ``c`` to the cluster whose model has the lowest local loss.

    Ties break toward the lowest cluster index.  Clusters with non-finite
    loss (including models with non-finite parameters) are excluded; if
    every loss is non-finite the previous assignment is kept and the event
    logged.
    """
    losses = np.array([forward_loss(_layers(c.shape, v), c.data) for v in c.models])
    finite = np.isfinite(losses)
    if not finite.any():
        logger.warning(
            "client %d: all %d cluster losses non-finite, keeping assignment %d",
            c.client_id,
            len(c.models),
            c.assignment,
        )
        return c.assignment
    c.assignment = int(np.argmin(np.where(finite, losses, np.inf)))
    return c.assignment


def local_update(
    group: Sequence[ClientState], gamma: float, tau: int, batch_size: int, seeds: Sequence[int]
) -> Sequence[ClientState]:
    """Train each client's assigned model and stage it in the outbox.

    Clients with equal training-set lengths train together, in stacked
    :func:`sgd_epochs` calls of at most ``_CHUNK_ROWS`` minibatch rows;
    client ``group[r]`` shuffles with ``seeds[r]`` and ends bitwise where
    training alone would leave it.  All other model copies are left bitwise
    untouched.  ``gamma=0`` skips training but still stages the (unchanged)
    assigned models for sending.  A model that diverges raises
    :class:`DivergenceError` naming its client and cluster.
    """
    if gamma != 0.0:
        for chunk in _chunks([len(c.data) for c in group], batch_size):
            members = [group[r] for r in chunk]
            block = np.stack([c.models[c.assignment] for c in members])
            try:
                updated = sgd_epochs(
                    unflatten_params(members[0].shape, block), [c.data for c in members],
                    gamma, tau, batch_size, [seeds[r] for r in chunk],
                )
            except DivergenceError as exc:
                c = members[exc.where["row"]]
                raise DivergenceError(client=c.client_id, cluster=c.assignment) from None
            for c, trained in zip(members, flatten_params(updated)):
                c.models[c.assignment] = trained.copy()  # a row view would pin the whole block
    for c in group:
        c.outbox = (c.assignment, c.models[c.assignment])
    return group


def _reporting(states: Sequence[ClientState], t: Topology, i: int, j: int) -> list[int]:
    """Neighbors of ``i`` whose outbox carries a cluster-``j`` model, sorted."""
    return [
        m
        for m in t.neighborhoods[i]
        if states[m].outbox is not None and states[m].outbox[0] == j
    ]


def _receivers(states: Sequence[ClientState], plan: RoundPlan | None) -> Sequence[int]:
    if plan is not None and plan.receive_restricted:
        return plan.participants
    return range(len(states))


def _merge_weights(
    mixing: MixingMatrix | None, i: int, senders: list[int]
) -> tuple[dict[int, float], float, float]:
    """The weight of each reporting sender, the receiver's own weight and the
    batch normalizer: 1.0 each and r+1 when uniform; matrix row weights, the
    remainder and 1.0 with a matrix."""
    if mixing is None:
        return dict.fromkeys(senders, 1.0), 1.0, len(senders) + 1.0
    weights = {m: mixing.weights[i, m] for m in senders}
    return weights, 1.0 - sum(weights.values()), 1.0


def aggregate_batch(
    states: Sequence[ClientState],
    t: Topology,
    mixing: MixingMatrix | None = None,
    plan: RoundPlan | None = None,
) -> Sequence[ClientState]:
    """Synchronous merge: every receiver replaces each cluster model with the
    weighted combination of its own copy and the reporting neighbors' outbox
    values, all computed from pre-round values.

    Without ``mixing``, weights are uniform 1/(r+1); with a mixing matrix,
    neighbor m contributes ``weights[i][m]`` and the receiver keeps the
    remainder.  Empty reporting sets leave the model untouched.
    """
    updates: dict[tuple[int, int], np.ndarray] = {}
    k = len(states[0].models)
    for i in _receivers(states, plan):
        for j in range(k):
            senders = _reporting(states, t, i, j)
            if not senders:
                continue
            own = states[i].models[j]
            weights, _, norm = _merge_weights(mixing, i, senders)
            acc = np.zeros_like(own)
            for m, w in weights.items():
                acc += w * (states[m].outbox[1] - own)
            updates[(i, j)] = own + acc / norm
    for (i, j), value in updates.items():
        states[i].models[j] = value
    return states


def _arrival(plan: RoundPlan, i: int, j: int, senders: list[int]) -> list[int]:
    if plan.arrival_order is not None and (i, j) in plan.arrival_order:
        order = [int(m) for m in plan.arrival_order[(i, j)]]
        if sorted(order) != senders:
            raise ValueError(
                f"arrival order {order} for receiver {i}, cluster {j} "
                f"does not permute the reporting set {senders}"
            )
        return order
    perm = spawn_rng(plan.round_seed, "arrival", i, j).permutation(len(senders))
    return [senders[p] for p in perm]


def aggregate_sequential(
    states: Sequence[ClientState],
    t: Topology,
    plan: RoundPlan,
    mixing: MixingMatrix | None = None,
    _fault_flip_weights: bool = False,
) -> Sequence[ClientState]:
    """Running-average merge: incoming models are folded in one at a time.

    With r values already merged (the receiver's own copy counts as the
    first), the next arrival enters with weight 1/(r+1), which telescopes to
    exactly the batch mean for every arrival order.  With a mixing matrix
    the same cumulative scheme runs on matrix weights instead of counts.
    Incoming values are pre-round outbox snapshots.

    ``_fault_flip_weights`` deliberately swaps the merge factors; it exists
    only so the verification suite can prove this check can fail.
    """
    updates: dict[tuple[int, int], np.ndarray] = {}
    k = len(states[0].models)
    for i in _receivers(states, plan):
        for j in range(k):
            senders = _reporting(states, t, i, j)
            if not senders:
                continue
            value = states[i].models[j]
            weights, weight_sum, _ = _merge_weights(mixing, i, senders)
            for m in _arrival(plan, i, j, senders):
                w = weights[m]
                frac = w / (weight_sum + w)
                if _fault_flip_weights:
                    frac = weight_sum / (weight_sum + w)
                value = value + frac * (states[m].outbox[1] - value)
                weight_sum += w
            updates[(i, j)] = value
    for (i, j), value in updates.items():
        states[i].models[j] = value
    return states


def _server_mean(states: Sequence[ClientState]) -> None:
    """Centralized merge: each cluster model becomes the mean of the trained
    models of the clients that selected it (unchanged if none did), and every
    client receives a copy of the new global models."""
    merged = []
    for j, current in enumerate(states[0].models):
        returned = [s.models[j] for s in states if s.assignment == j]
        merged.append(np.mean(returned, axis=0) if returned else current)
    for s in states:
        s.models = [v.copy() for v in merged]


def run_round(
    states: Sequence[ClientState],
    t: Topology | None,
    plan: RoundPlan,
    hp: Hyperparams,
) -> tuple[Sequence[ClientState], RoundMetrics]:
    """One full round: assign, train, merge, measure.

    All participants train in one :func:`local_update` call.
    Non-participants neither train nor send but (unless the plan restricts
    receiving) still merge incoming models.  The ``server`` merge ignores
    ``t`` and expects every client to start the round with the same models.
    """
    previous = [s.assignment for s in states]
    for s in states:
        s.outbox = None
    for i in plan.participants:
        assign_cluster(states[i])
    changed = sum(1 for s, prev in zip(states, previous) if s.assignment != prev)
    seeds = [derive_seed(plan.round_seed, "sgd", i) for i in plan.participants]
    try:
        local_update([states[i] for i in plan.participants], hp.gamma, hp.tau, hp.batch_size, seeds)
    except DivergenceError as exc:
        raise DivergenceError(round=plan.round_index, **exc.where) from None
    k = len(states[0].models)
    pre_avg = [cluster_average(states, j) for j in range(k)]

    if plan.aggregation_mode == "server":
        _server_mean(states)
    elif plan.aggregation_mode == "sequential":
        aggregate_sequential(states, t, plan, mixing=hp.mixing)
    else:
        aggregate_batch(states, t, mixing=hp.mixing, plan=plan)

    drift = tuple(float(np.linalg.norm(cluster_average(states, j) - pre_avg[j])) for j in range(k))
    truth = [s.data.distribution_id for s in states]
    per_cluster = tuple(f_cluster(states, j) for j in range(k))
    return states, RoundMetrics(
        round=plan.round_index,
        f_global=sum(per_cluster),
        f_cluster=per_cluster,
        disp=tuple(dispersion(states, j) for j in range(k)),
        clustering_accuracy=clustering_accuracy(states, truth),
        test_accuracy=test_accuracy(states, hp.test_sets),
        avg_drift=drift,
        assignments_changed=changed,
    )


def build_topology(config: ExperimentConfig) -> Topology:
    """Sample the configured graph and apply the disconnection policy."""
    topo_seed = (
        config.topology_seed
        if config.topology_seed is not None
        else derive_seed(config.seed, "topology")
    )
    t = generate_erdos_renyi(config.n_clients, config.topology_p, topo_seed)
    if not is_connected(t):
        if config.on_disconnected == "abort":
            raise DisconnectedGraphError(
                f"graph (n={config.n_clients}, p={config.topology_p}, seed={topo_seed}) "
                "is disconnected and on_disconnected=abort"
            )
        logger.warning(
            "graph (n=%d, p=%g, seed=%d) is disconnected; proceeding per config",
            config.n_clients,
            config.topology_p,
            topo_seed,
        )
    return t


def build_client_data(config: ExperimentConfig) -> tuple[list[Dataset], list[Dataset]]:
    """Per-client (train, test) splits; client i draws from cluster i mod k."""
    spec = config.synthetic_spec
    center_seed = derive_seed(config.seed, "centers")
    trains, tests = [], []
    for i in range(config.n_clients):
        full = generate_rotated_synthetic(
            spec,
            k=config.k,
            client_cluster=i % config.k,
            seed=derive_seed(config.seed, "data", i),
            center_seed=center_seed,
        )
        train, test = train_test_split(full, config.data_test_fraction, derive_seed(config.seed, "split", i))
        trains.append(train)
        tests.append(test)
    return trains, tests


def _sample_participants(config: ExperimentConfig, round_index: int) -> tuple[int, ...]:
    n = config.n_clients
    if config.participation_fraction >= 1.0:
        return tuple(range(n))
    count = min(n, max(1, int(round(config.participation_fraction * n))))
    rng = spawn_rng(config.seed, "participation", round_index)
    return tuple(sorted(int(i) for i in rng.choice(n, size=count, replace=False)))


def run_experiment_states(
    config: ExperimentConfig,
) -> tuple[list[RoundMetrics], list[ClientState], dict]:
    """Run a full experiment and also return final states and run info.

    ``algorithm = ifca`` runs the server merge and builds no graph, so its
    ``connected`` is None.
    """
    config.validate()
    centralized = config.algorithm == "ifca"
    t = None if centralized else build_topology(config)
    trains, tests = build_client_data(config)
    shape = ModelShape(dim=config.data_dim, hidden=config.model_hidden, n_classes=config.data_n_classes)
    states = initialize(
        k=config.n_models,
        n=config.n_clients,
        mode=config.init_mode,
        model_shape=shape,
        seed=derive_seed(config.seed, "init"),
        datasets=trains,
    )
    hp = Hyperparams(
        gamma=config.gamma,
        tau=config.tau,
        batch_size=config.batch_size,
        test_sets=tests,
        mixing=build_mixing_matrix(t, METROPOLIS)
        if t is not None and config.mixing_kind == METROPOLIS else None,
    )
    trace: list[RoundMetrics] = []
    for round_index in range(config.T):
        plan = RoundPlan(
            participants=_sample_participants(config, round_index),
            aggregation_mode="server" if centralized else config.aggregation_mode,
            round_seed=derive_seed(config.seed, "round", round_index),
            round_index=round_index,
            receive_restricted=config.restrict_receive_to_participants,
        )
        _, measured = run_round(states, t, plan, hp)
        trace.append(measured)
    info = {"connected": None if t is None else is_connected(t), "test_sets": tests}
    return trace, states, info


def run_experiment(config: ExperimentConfig) -> list[RoundMetrics]:
    """Build topology, data, and states from ``config`` and run T rounds.

    Fully deterministic per config: identical configs produce bitwise
    identical metric traces.
    """
    return run_experiment_states(config)[0]
