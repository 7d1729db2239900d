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


class ClientState:
    """Read-only view of client ``client_id`` of a run; the run's arrays are
    written directly.  ``outbox`` is the (cluster, parameters) pair the
    client sends this round, None if it did not train."""

    __slots__ = ("run", "client_id")

    def __init__(self, run: "RunState", client_id: int) -> None:
        self.run = run
        self.client_id = client_id

    @property
    def models(self) -> np.ndarray:
        return self.run.models[self.client_id]

    @property
    def assignment(self) -> int:
        return int(self.run.assignment[self.client_id])

    @property
    def outbox(self) -> tuple[int, np.ndarray] | None:
        j = int(self.run.sent[self.client_id])
        return None if j < 0 else (j, self.models[j])


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
    _assign_clusters(states, range(n))
    return states


def _assign_clusters(states: RunState, rows: Sequence[int]) -> None:
    """:func:`assign_cluster` for clients ``rows``, their losses computed in
    one stacked :func:`forward_loss` call per chunk of ``_CHUNK_ROWS`` rows
    (``k`` rows per sample); each loss is bitwise the one client's own."""
    rows = np.asarray(rows, dtype=np.intp)
    k = states.models.shape[1]
    losses = np.empty((len(rows), k))
    for chunk in _chunks([k * len(states.data[i]) for i in rows]):
        r = rows[chunk]
        block = MlpModel(states.shape, states.models[r])
        losses[chunk] = forward_loss(block, [states.data[i] for i in r])
    for i, row in zip(rows.tolist(), losses):
        assign_cluster(states[i], row)


def assign_cluster(c: ClientState, losses: np.ndarray | None = None) -> int:
    """Reassign ``c`` to the cluster whose model has the lowest local loss.

    ``losses`` are the client's k cluster losses, computed here when not
    given.  Ties break toward the lowest cluster index.  Clusters with
    non-finite loss (including models with non-finite parameters) are
    excluded; if every loss is non-finite the previous assignment is kept
    and the event logged.
    """
    if losses is None:
        losses = forward_loss(MlpModel(c.run.shape, c.models), c.run.data[c.client_id])
    finite = np.isfinite(losses)
    if not finite.any():
        logger.warning(
            "client %d: all %d cluster losses non-finite, keeping assignment %d",
            c.client_id,
            len(losses),
            c.assignment,
        )
        return c.assignment
    c.run.assignment[c.client_id] = j = int(np.argmin(np.where(finite, losses, np.inf)))
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


def _check_participants(participants: Sequence[int], n: int) -> None:
    """Reject participants that are not distinct clients of an ``n``-client run."""
    seen: set[int] = set()
    for i in participants:
        if not 0 <= i < n:
            raise ValueError(f"participant {i} is not a client of this {n}-client run")
        if i in seen:
            raise ValueError(f"participant {i} is listed more than once")
        seen.add(i)


def _slots(
    states: RunState, t: Topology, plan: RoundPlan | None, mixing: MixingMatrix | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every receiver slot that some neighbor sent a model of: receivers
    ``(S,)``, clusters ``(S,)``, an ``(S, L)`` table of senders ascending,
    padded with -1, and their weights, 0.0 in the padding: the matrix row
    weights, or 1.0 without a matrix."""
    n = len(states)
    for name, size in (("topology", t.n_clients), ("mixing matrix", getattr(mixing, "n", n))):
        if size != n:
            raise ValueError(f"the {name} has {size} clients, the run has {n}")
    if plan is not None and plan.receive_restricted:
        _check_participants(plan.participants, n)
        receivers = np.asarray(plan.participants, dtype=np.intp)
    else:
        receivers = np.arange(n)
    k = states.models.shape[1]
    r, m = np.nonzero(t.adjacency[receivers] & (states.sent >= 0))  # senders ascend per receiver
    slot = r * k + states.sent[m]
    order = np.argsort(slot, kind="stable")
    slot, m = slot[order], m[order]
    firsts = np.flatnonzero(np.diff(slot, prepend=-1))
    counts = np.diff(firsts, append=len(slot))
    position = np.arange(len(slot)) - np.repeat(firsts, counts)
    senders = np.full((len(firsts), counts.max(initial=0)), -1, dtype=np.intp)
    senders[np.repeat(np.arange(len(firsts)), counts), position] = m
    rows, cols, held = receivers[slot[firsts] // k], slot[firsts] % k, senders >= 0
    if mixing is None:
        return rows, cols, senders, held * 1.0
    return rows, cols, senders, np.where(held, mixing.weights[rows[:, None], senders], 0.0)


_FOLD_SLOTS = 64  # receiver slots per pass of the fold; bounds the gathered rows


def _fold(
    states: RunState, rows: np.ndarray, cols: np.ndarray, senders: np.ndarray,
    factors: np.ndarray, norms: np.ndarray | None = None,
) -> None:
    """Merge the senders' outbox models into receiver slots ``(rows, cols)``.

    ``senders`` holds each slot's senders in merge order, padded with -1, and
    ``factors`` one factor per sender.  Without ``norms`` every arrival folds
    into the value, ``v += f * (x - v)``; with them the terms ``f * (x - v)``
    of the pre-merge value add up in ``acc`` and ``v += acc / norm``.  The
    sent rows are copied once, before any write.  Slots run longest first,
    ``_FOLD_SLOTS`` at a time: at each arrival position one gather and three
    in-place operations update the chunk's slots that still have a sender
    there, and the chunk is written back before the next is gathered.
    Elementwise these are the operations of merging one slot and one sender
    at a time, so every value is bitwise the same.
    """
    sending = np.flatnonzero(states.sent >= 0)
    outbox = states.models[sending, states.sent[sending]]  # read before any write
    outbox_row = np.zeros(len(states), dtype=np.intp)
    outbox_row[sending] = np.arange(len(sending))
    held = senders >= 0
    longest_first = np.argsort(-np.count_nonzero(held, axis=1), kind="stable")
    for start in range(0, len(rows), _FOLD_SLOTS):
        s = longest_first[start : start + _FOLD_SLOTS]
        active = np.count_nonzero(held[s], axis=0)  # per position: a prefix of the chunk
        sender, factor = outbox_row[senders[s]], factors[s]
        value = states.models[rows[s], cols[s]]
        acc = value if norms is None else np.zeros_like(value)
        buf = np.empty_like(value)
        for q, a in enumerate(active[active > 0].tolist()):
            d = buf[:a]
            np.take(outbox, sender[:a, q], axis=0, out=d)
            d -= value[:a]
            d *= factor[:a, q, None]
            acc[:a] += d
        if norms is not None:
            acc /= norms[s, None]
            value += acc
        states.models[rows[s], cols[s]] = value


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
    rows, cols, senders, weights = _slots(states, t, plan, mixing)
    norms = np.count_nonzero(senders >= 0, axis=1) + 1.0 if mixing is None else np.ones(len(rows))
    _fold(states, rows, cols, senders, weights, norms)
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
    rows, cols, senders, weights = _slots(states, t, plan, mixing)
    counts = np.count_nonzero(senders >= 0, axis=1)
    order = np.tile(np.arange(senders.shape[1]), (len(rows), 1))  # padding stays in place
    for s, (i, j, r) in enumerate(zip(rows.tolist(), cols.tolist(), counts.tolist())):
        order[s, :r] = _arrival(plan, i, j, senders[s, :r].tolist())
    # np.cumsum adds left to right like the scalar recurrence; a pairwise sum would change bits.
    own = np.ones(len(rows))
    if mixing is not None:
        own -= np.cumsum(np.column_stack([np.zeros(len(rows)), weights]), axis=1)[:, -1]
    arrived = np.take_along_axis(weights, order, axis=1)
    merged = np.cumsum(np.column_stack([own, arrived]), axis=1)  # weight before, after each arrival
    factors = (merged[:, :-1] if _fault_flip_weights else arrived) / merged[:, 1:]
    _fold(states, rows, cols, np.take_along_axis(senders, order, axis=1), factors)
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
    :class:`DivergenceError` naming the round and cluster.  Participants
    must be distinct clients of the run.
    """
    _check_participants(plan.participants, len(states))
    previous = states.assignment.copy()
    states.sent[:] = -1
    _assign_clusters(states, plan.participants)
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


def build_topology(config: ExperimentConfig) -> tuple[Topology, bool]:
    """Sample the configured graph, apply the disconnection policy and return
    the graph with whether it is connected."""
    topo_seed = (
        config.topology_seed
        if config.topology_seed is not None
        else derive_seed(config.seed, "topology")
    )
    t = generate_erdos_renyi(config.n_clients, config.topology_p, topo_seed)
    connected = is_connected(t)
    if not connected:
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
    return t, connected


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
    t, connected = (None, None) if centralized else build_topology(config)
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
    info = {"connected": connected, "test_sets": tests}
    return trace, states, info


def run_experiment(config: ExperimentConfig) -> list[RoundMetrics]:
    """Build topology, data, and states from ``config`` and run T rounds.

    Fully deterministic per config: identical configs produce bitwise
    identical metric traces.
    """
    return run_experiment_states(config)[0]
