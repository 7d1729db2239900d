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
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

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
    MlpModel,
    ModelShape,
    _chunks,
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
    "RunState",
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


class _Row:
    """A :class:`ClientState` field: item ``client_id`` of the run's field of
    the same name."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, c: "ClientState | None", owner: type | None = None):
        return self if c is None else getattr(c.run, self.name)[c.client_id]

    def __set__(self, c: "ClientState", value) -> None:
        getattr(c.run, self.name)[c.client_id] = value


class ClientState:
    """Client ``client_id`` of a run, read and written through the run's
    arrays.  ``outbox`` is the (cluster, parameters) pair the client sends
    this round, None if it did not train; the merges read every outbox
    before they write any model."""

    __slots__ = ("run", "client_id")
    models = _Row()
    assignment = _Row()
    data = _Row()

    def __init__(self, run: "RunState", client_id: int) -> None:
        self.run = run
        self.client_id = client_id

    @property
    def outbox(self) -> tuple[int, np.ndarray] | None:
        j = int(self.run.sent[self.client_id])
        return None if j < 0 else (j, self.models[j])

    @outbox.setter
    def outbox(self, message: tuple[int, np.ndarray] | None) -> None:
        if message is not None:
            self.models[message[0]] = message[1]
        self.run.sent[self.client_id] = -1 if message is None else message[0]


class RunState(Sequence[ClientState]):
    """Every model copy of a run in one ``(N, k, P)`` array, and each
    client's assignment and the cluster it sent this round (-1 for none) as
    ``(N,)`` int arrays.  Item ``i`` is client ``i``'s :class:`ClientState`.
    A float64 ``models`` array is taken without a copy."""

    def __init__(self, shape: ModelShape, models, assignment, data: Sequence[Dataset]) -> None:
        self.shape = shape
        self.models = np.asarray(models, dtype=np.float64)
        n = len(self.models)
        self.assignment = np.array(assignment, dtype=np.intp)
        if self.assignment.shape != (n,) or len(data) != n:
            raise ValueError(f"need {n} assignments and {n} datasets")
        self.data = list(data)
        self.sent = np.full(n, -1, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.models)

    def __getitem__(self, i: int) -> ClientState:
        # A new view per call: views the run kept would form a reference
        # cycle, and each finished run would stay in memory until the cyclic
        # garbage collector happens to run.
        return ClientState(self, range(len(self))[operator.index(i)])

    def copy(self) -> "RunState":
        """Copy of the models, assignments and outboxes; datasets are shared."""
        twin = RunState(self.shape, self.models.copy(), self.assignment, self.data)
        twin.sent[:] = self.sent
        return twin


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
) -> RunState:
    """Create all client states with globally or locally initialized models.

    ``gi`` draws one seeded model per cluster and gives every client an
    identical copy (zero initial dispersion); ``li`` draws every client's
    models from client-distinct seeds.  Initial assignments are computed by
    :func:`assign_cluster`, not fixed arbitrarily.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    mode = mode.lower()
    if mode not in ("gi", "li"):
        raise ValueError(f"init mode must be 'gi' or 'li', got {mode!r}")
    models = np.empty((n, k, model_shape.param_count))
    for i in range(1 if mode == "gi" else n):
        for j in range(k):
            key = ("gi", j) if mode == "gi" else ("li", i, j)
            models[i, j] = init_model(model_shape, derive_seed(seed, *key)).values
    if mode == "gi":
        models[1:] = models[0]
    states = RunState(model_shape, models, np.zeros(n, dtype=np.intp), datasets)
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
    losses = forward_loss(MlpModel(c.run.shape, c.models), c.data)
    finite = np.isfinite(losses)
    if not finite.any():
        logger.warning(
            "client %d: all %d cluster losses non-finite, keeping assignment %d",
            c.client_id,
            len(losses),
            c.assignment,
        )
        return int(c.assignment)
    c.assignment = j = int(np.argmin(np.where(finite, losses, np.inf)))
    return j


def local_update(
    states: RunState, rows: Sequence[int], gamma: float, tau: int, batch_size: int,
    seeds: Sequence[int],
) -> RunState:
    """Train the assigned model of clients ``rows`` and stage it in their
    outboxes.

    Clients with equal training-set lengths train together, in stacked
    :func:`sgd_epochs` calls of at most ``_CHUNK_ROWS`` minibatch rows;
    client ``rows[r]`` shuffles with ``seeds[r]`` and ends bitwise where
    training alone would leave it.  All other model copies are left bitwise
    untouched.  ``gamma=0`` skips training but still stages the (unchanged)
    assigned models for sending.  A model that diverges raises
    :class:`DivergenceError` naming its client and cluster.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = states.assignment[rows]
    if gamma != 0.0:
        for chunk in _chunks([len(states.data[i]) for i in rows], batch_size):
            r, c = rows[chunk], cols[chunk]
            try:
                updated = sgd_epochs(
                    unflatten_params(states.shape, states.models[r, c]),
                    [states.data[i] for i in r], gamma, tau, batch_size, [seeds[p] for p in chunk],
                )
            except DivergenceError as exc:
                p = exc.where["row"]
                raise DivergenceError(client=int(r[p]), cluster=int(c[p])) from None
            states.models[r, c] = updated.values
    states.sent[rows] = cols
    return states


def _slots(
    states: RunState, t: Topology, plan: RoundPlan | None
) -> Iterator[tuple[int, int, list[int]]]:
    """``(receiver, cluster, senders)`` for every receiver and cluster that
    some neighbor sent a model of, with the senders ascending."""
    if plan is not None and plan.receive_restricted:
        receivers = np.asarray(plan.participants, dtype=np.intp)
    else:
        receivers = np.arange(len(states))
    k = states.models.shape[1]
    r, m = np.nonzero(t.adjacency[receivers] & (states.sent >= 0))  # senders ascend per receiver
    slot = r * k + states.sent[m]
    order = np.argsort(slot, kind="stable")
    slot, m = slot[order], m[order]
    firsts = np.flatnonzero(np.diff(slot, prepend=-1))
    for s, senders in zip(slot[firsts].tolist(), np.split(m, firsts[1:])):
        yield int(receivers[s // k]), s % k, senders.tolist()


def _merge_weights(
    mixing: MixingMatrix | None, i: int, senders: list[int]
) -> tuple[Sequence[float], float, float]:
    """The weight of each reporting sender, the receiver's own weight and the
    batch normalizer: 1.0 each and r+1 when uniform; matrix row weights, the
    remainder and 1.0 with a matrix."""
    if mixing is None:
        return [1.0] * len(senders), 1.0, len(senders) + 1.0
    weights = mixing.weights[i, senders]
    return weights, 1.0 - sum(weights), 1.0


def aggregate_batch(
    states: RunState,
    t: Topology,
    mixing: MixingMatrix | None = None,
    plan: RoundPlan | None = None,
) -> RunState:
    """Synchronous merge: every receiver replaces each cluster model with the
    weighted combination of its own copy and the reporting neighbors' outbox
    values, all computed from pre-round values.

    Without ``mixing``, weights are uniform 1/(r+1); with a mixing matrix,
    neighbor m contributes ``weights[i][m]`` and the receiver keeps the
    remainder.  Empty reporting sets leave the model untouched.
    """
    outbox = list(states.models[np.arange(len(states)), states.sent])  # read before any write
    for i, j, senders in _slots(states, t, plan):
        own = states.models[i, j]
        weights, _, norm = _merge_weights(mixing, i, senders)
        acc = np.zeros_like(own)
        for m, w in zip(senders, weights):
            acc += w * (outbox[m] - own)
        own += acc / norm
    return states


def _arrival(plan: RoundPlan, i: int, j: int, senders: list[int]) -> list[int]:
    """Positions in ``senders`` in the order their models arrive."""
    if plan.arrival_order is not None and (i, j) in plan.arrival_order:
        order = [int(m) for m in plan.arrival_order[(i, j)]]
        if sorted(order) != senders:
            raise ValueError(
                f"arrival order {order} for receiver {i}, cluster {j} "
                f"does not permute the reporting set {senders}"
            )
        return [senders.index(m) for m in order]
    return spawn_rng(plan.round_seed, "arrival", i, j).permutation(len(senders)).tolist()


def aggregate_sequential(
    states: RunState,
    t: Topology,
    plan: RoundPlan,
    mixing: MixingMatrix | None = None,
    _fault_flip_weights: bool = False,
) -> RunState:
    """Running-average merge: incoming models are folded in one at a time.

    With r values already merged (the receiver's own copy counts as the
    first), the next arrival enters with weight 1/(r+1), which telescopes to
    exactly the batch mean for every arrival order.  With a mixing matrix
    the same cumulative scheme runs on matrix weights instead of counts.
    Incoming values are pre-round outbox snapshots.

    ``_fault_flip_weights`` deliberately swaps the merge factors; it exists
    only so the verification suite can prove this check can fail.
    """
    outbox = list(states.models[np.arange(len(states)), states.sent])  # read before any write
    for i, j, senders in _slots(states, t, plan):
        value = states.models[i, j]
        weights, weight_sum, _ = _merge_weights(mixing, i, senders)
        for p in _arrival(plan, i, j, senders):
            w = weights[p]
            frac = w / (weight_sum + w)
            if _fault_flip_weights:
                frac = weight_sum / (weight_sum + w)
            value = value + frac * (outbox[senders[p]] - value)
            weight_sum += w
        states.models[i, j] = value
    return states


def _server_mean(states: RunState) -> None:
    """Centralized merge: each cluster model becomes the mean of the trained
    models of the clients that selected it (unchanged if none did), and every
    client receives a copy of the new global models."""
    merged = states.models[0].copy()
    for j in range(len(merged)):
        members = states.assignment == j
        if members.any():
            merged[j] = states.models[members, j].mean(axis=0)
    states.models[:] = merged


def run_round(
    states: RunState,
    t: Topology | None,
    plan: RoundPlan,
    hp: Hyperparams,
) -> tuple[RunState, RoundMetrics]:
    """One full round: assign, train, merge, measure.

    All participants train in one :func:`local_update` call.
    Non-participants neither train nor send but (unless the plan restricts
    receiving) still merge incoming models.  The ``server`` merge ignores
    ``t`` and expects every client to start the round with the same models.
    A cluster loss that is not finite after the merge raises
    :class:`DivergenceError` naming the round and cluster.
    """
    previous = states.assignment.copy()
    states.sent[:] = -1
    for i in plan.participants:
        assign_cluster(states[i])
    changed = int(np.count_nonzero(states.assignment != previous))
    seeds = [derive_seed(plan.round_seed, "sgd", i) for i in plan.participants]
    try:
        local_update(states, plan.participants, hp.gamma, hp.tau, hp.batch_size, seeds)
    except DivergenceError as exc:
        raise exc.at(round=plan.round_index) from None
    k = states.models.shape[1]
    pre_avg = [cluster_average(states, j) for j in range(k)]

    if plan.aggregation_mode == "server":
        _server_mean(states)
    elif plan.aggregation_mode == "sequential":
        aggregate_sequential(states, t, plan, mixing=hp.mixing)
    else:
        aggregate_batch(states, t, mixing=hp.mixing, plan=plan)

    per_cluster = tuple(f_cluster(states, j) for j in range(k))
    for j, loss in enumerate(per_cluster):
        if not np.isfinite(loss):
            raise DivergenceError(
                "loss went non-finite although local SGD left finite parameters",
                round=plan.round_index, cluster=j,
            )
    drift = tuple(float(np.linalg.norm(cluster_average(states, j) - pre_avg[j])) for j in range(k))
    truth = [d.distribution_id for d in states.data]
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
) -> tuple[list[RoundMetrics], RunState, dict]:
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
