"""The clustered-training state machine shared by dfca, davg and ifca.

Every round iterates three steps per participating client: pick the cluster
whose model fits the local data best (argmin of the local loss), train that
one model with local SGD, then merge.  Clients send only the model they just
trained but receive and merge models for every cluster, so all k models
propagate even through sparse graphs.

``run_round`` has three merges:

* batch - synchronous per-cluster neighbor averaging with uniform weights
  1/(r+1) over self plus the r reporting neighbors (or the graph's
  Metropolis weights, ``t.metropolis``, when the plan says so);
* sequential - a running average that folds neighbor models in one at a
  time in arrival order and telescopes to exactly the batch mean;
* server - centralized IFCA: each cluster model becomes the mean of the
  models the round's senders sent for it, and every client receives the
  result.  It needs no graph.

The gossip merges are computed in delta form (own + weighted sum of
differences), so averaging identical vectors is exactly the identity.

This module holds only the round and its state; ``harness.run_one_seed``
turns a config and a seed into a graph, client data, states and a trace.
"""

from __future__ import annotations

import logging
import numbers
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datagen import Dataset, stack_datasets
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
    _check_inputs,
    _chunks,
    forward_loss,
    init_model,
    sgd_epochs,
    unflatten_params,
)
from .seeding import derive_seed, spawn_rng
from .topology import Topology

logger = logging.getLogger(__name__)

__all__ = [
    "ClientState",
    "RunState",
    "RoundPlan",
    "Hyperparams",
    "initialize",
    "assign_cluster",
    "local_update",
    "aggregate_batch",
    "aggregate_sequential",
    "run_round",
]


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
    """Every model copy of a run in one ``(N, k, P)`` array; each client's
    assignment and the cluster it sent this round (-1 for none) as ``(N,)``
    int arrays; and the train and test splits, ``data`` and ``test_sets``,
    as stacked :class:`Dataset` objects whose ``distribution_id`` holds each
    client's true cluster.  Item ``i`` is client ``i``'s :class:`ClientState`.
    A float64 ``models`` array is taken without a copy; one that is not
    ``(N, k >= 1, shape.param_count)``, assignments that are not integers in
    ``[0, k)`` and splits that are not stacks of N clients or do not fit
    ``shape`` are rejected.  Lists of per-client splits are stacked with
    :func:`stack_datasets`, which rejects unequal lengths."""

    def __init__(self, shape: ModelShape, models, assignment, data: Dataset | list[Dataset],
                 test_sets: Dataset | list[Dataset]) -> None:
        self.shape = shape
        self.models = np.asarray(models, dtype=np.float64)
        if self.models.ndim != 3 or self.models.shape[1] < 1 or self.models.shape[2] != shape.param_count:
            raise ValueError(
                f"models of shape {self.models.shape} do not fit {shape}: "
                f"need (N, k >= 1, {shape.param_count})"
            )
        n, k = self.models.shape[:2]
        splits = [d if isinstance(d, Dataset) else stack_datasets(d) for d in (data, test_sets)]
        raw = np.asarray(assignment)
        if raw.shape != (n,) or any(d.labels.shape[:-1] != (n,) for d in splits):
            raise ValueError(f"need {n} assignments, {n} datasets and {n} test splits")
        for d in splits:
            _check_inputs(shape, d.features, d.labels)
        with np.errstate(invalid="ignore"):  # NaN and inf, reported below
            self.assignment = raw.astype(np.intp)
        bad = (self.assignment != raw) | (self.assignment < 0) | (self.assignment >= k)
        for i in np.flatnonzero(bad)[:1]:
            raise ValueError(f"client {i} is assigned cluster {raw[i]}, not an integer in [0, {k})")
        self.data, self.test_sets = splits
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
        twin = RunState(self.shape, self.models.copy(), self.assignment, self.data, self.test_sets)
        twin.sent[:] = self.sent
        return twin


_PLAN_MODES = ("batch", "sequential", "server")  # server is set for algorithm = ifca, not configured


@dataclass(frozen=True)
class RoundPlan:
    """Everything that varies per round: who participates, who receives, and
    the merge rule.  A plan is checked when built and cannot be changed:
    ``participants`` is stored as a tuple of ints, whatever sequence it came in,
    and ``round_seed`` and ``round_index`` as ints; a float is refused.

    ``aggregation_mode`` is ``batch``, ``sequential`` or ``server`` (IFCA).
    ``metropolis`` weighs a gossip merge's senders by the graph's Metropolis
    matrix, ``t.metropolis``, instead of uniform 1/(r+1).
    Local SGD shuffles from one stream per round, ``spawn_rng(round_seed,
    "sgd")`` (see :func:`local_update`).  The sequential merge orders every
    receiver slot's senders from one stream per merge, ``spawn_rng(round_seed,
    "arrival")``, which draws one uniform key per sender of every slot: the
    senders arrive in ascending key order, a uniform random permutation.
    """

    participants: tuple[int, ...]
    aggregation_mode: str = "batch"
    round_seed: int = 0
    round_index: int = 0
    receive_restricted: bool = False
    metropolis: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "participants", tuple(map(operator.index, self.participants)))
        object.__setattr__(self, "round_seed", operator.index(self.round_seed))
        object.__setattr__(self, "round_index", operator.index(self.round_index))
        if self.aggregation_mode not in _PLAN_MODES:
            raise ValueError(
                f"unknown aggregation mode {self.aggregation_mode!r}; expected one of {_PLAN_MODES}"
            )


@dataclass(frozen=True)
class Hyperparams:
    """Per-run local SGD constants, fixed once built: step size, epochs and
    minibatch size, checked when built; no field takes a bool."""

    gamma: float
    tau: int
    batch_size: int

    def __post_init__(self) -> None:
        number = lambda v, kind: isinstance(v, kind) and not isinstance(v, bool)
        for name, ok, rule in (
            ("gamma", number(self.gamma, numbers.Real) and 0.0 <= self.gamma < np.inf,
             "must be finite and >= 0 (a number, not a bool)"),
            ("tau", number(self.tau, numbers.Integral) and self.tau >= 1, "must be an integer >= 1"),
            ("batch_size", number(self.batch_size, numbers.Integral) and self.batch_size >= 1,
             "must be an integer >= 1"),
        ):
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")


def initialize(
    k: int,
    mode: str,
    model_shape: ModelShape,
    seed: int,
    datasets: Dataset | list[Dataset],
    test_sets: Dataset | list[Dataset],
) -> RunState:
    """Create ``len(datasets)`` client states, client ``i`` holding row ``i``
    of the splits ``datasets`` and ``test_sets``, with globally or locally initialized models.

    ``gi`` draws one seeded model per cluster and gives every client an
    identical copy (zero initial dispersion); ``li`` draws every client's
    models from client-distinct seeds.  Initial assignments are chosen from
    the losses of one stacked pass (see :func:`assign_cluster`).
    """
    n = len(datasets)
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and at least one dataset, got k={k} and {n} datasets")
    if mode not in ("gi", "li"):
        raise ValueError(f"init mode must be 'gi' or 'li', got {mode!r}")
    models = np.empty((n, k, model_shape.param_count))
    for i in range(1 if mode == "gi" else n):
        for j in range(k):
            key = ("gi", j) if mode == "gi" else ("li", i, j)
            models[i, j] = init_model(model_shape, derive_seed(seed, *key)).values
    if mode == "gi":
        models[1:] = models[0]
    states = RunState(model_shape, models, np.zeros(n, dtype=np.intp), datasets, test_sets)
    _assign_clusters(states, range(n))
    return states


def _assign_clusters(states: RunState, rows: Sequence[int]) -> None:
    """:func:`assign_cluster` for clients ``rows``, their losses computed in
    one stacked :func:`forward_loss` call per chunk of ``_CHUNK_ROWS`` rows
    (``k`` rows per sample); each loss is bitwise the one client's own."""
    rows = np.asarray(rows, dtype=np.intp)
    k = states.models.shape[1]
    losses = np.empty((len(rows), k))
    for chunk in _chunks(len(rows), k * states.data.labels.shape[-1]):
        r = rows[chunk]
        losses[chunk] = forward_loss(MlpModel(states.shape, states.models[r]), states.data[r])
    for i, row in zip(rows.tolist(), losses):
        assign_cluster(states[i], row)


def assign_cluster(c: ClientState, losses: np.ndarray) -> int:
    """Reassign ``c`` to the cluster whose model has the lowest local loss.

    ``losses`` are the client's k cluster losses, computed by the stacked
    pass of :func:`_assign_clusters`; any other number is rejected.  Ties
    break toward the lowest cluster index.  Clusters with non-finite loss
    (including models with non-finite parameters) are excluded; if every
    loss is non-finite the previous assignment is kept and the event logged.
    """
    if len(losses) != len(c.models):
        raise ValueError(f"client {c.client_id}: {len(losses)} losses for {len(c.models)} clusters")
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


def local_update(states: RunState, plan: RoundPlan, hp: Hyperparams) -> RunState:
    """Train the assigned model of the plan's participants and stage it in
    their outboxes.

    One key table ``spawn_rng(plan.round_seed, "sgd").random((P, tau, n))``
    for training sets of ``n`` samples shuffles every epoch: participant
    ``r`` of P takes ``keys[r]`` (see :func:`sgd_epochs`).  Participants
    train in stacked calls of at most ``_CHUNK_ROWS`` minibatch rows, each
    ending bitwise where training alone on its keys would leave it.  Other
    model copies stay bitwise untouched.  ``hp.gamma=0`` skips training but
    still stages the assigned models.  Participants must be distinct clients
    of the run.  A model that diverges raises :class:`DivergenceError`
    naming the round, client and cluster.
    """
    _check_participants(plan.participants, len(states))
    rows = np.asarray(plan.participants, dtype=np.intp)
    cols = states.assignment[rows]
    if hp.gamma != 0.0:
        n = states.data.labels.shape[-1]
        keys = spawn_rng(plan.round_seed, "sgd").random((len(rows), hp.tau, n))
        for chunk in _chunks(len(rows), min(n, hp.batch_size)):
            r, c = rows[chunk], cols[chunk]
            block = unflatten_params(states.shape, states.models[r, c])
            try:
                updated = sgd_epochs(block, states.data[r], hp.gamma, hp.tau, hp.batch_size, keys[chunk])
            except DivergenceError as exc:
                p = exc.where["row"]
                raise DivergenceError(round=plan.round_index, client=int(r[p]),
                                      cluster=int(c[p])) from None
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
    states: RunState, t: Topology, plan: RoundPlan
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every receiver slot that some neighbor sent a model of: receivers
    ``(S,)``, clusters ``(S,)``, an ``(S, L)`` table of senders ascending,
    padded with -1, and their weights, 0.0 in the padding: the rows of
    ``t.metropolis`` under a Metropolis plan, else 1.0."""
    n = len(states)
    if t.n_clients != n:
        raise ValueError(f"the topology has {t.n_clients} clients, the run has {n}")
    if plan.receive_restricted:
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
    if not plan.metropolis:
        return rows, cols, senders, held * 1.0
    return rows, cols, senders, np.where(held, t.metropolis[rows[:, None], senders], 0.0)


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
    there, and the chunk is written back before the next is gathered.  The
    gather is unchecked: every live sender sent, so its outbox row exists,
    and only the live prefix is gathered.  Where a pass's live factors at a
    position, or its norms, are bitwise one number (uniform weights; norms
    under Metropolis), they scale by that scalar, which gives the same
    products as one factor per row; this is decided once per pass.
    Elementwise these are the operations of merging one slot and one sender
    at a time, so every value is bitwise the same; ``merges-match-per-slot``
    and the committed matrix digests hold those bits.
    """
    sending = np.flatnonzero(states.sent >= 0)
    outbox = states.models[sending, states.sent[sending]]  # read before any write
    outbox_row = np.zeros(len(states), dtype=np.intp)
    outbox_row[sending] = np.arange(len(sending))
    held = senders >= 0
    longest_first = np.argsort(-np.count_nonzero(held, axis=1), kind="stable")
    for start in range(0, len(rows), _FOLD_SLOTS):
        s = longest_first[start : start + _FOLD_SLOTS]
        live = held[s]
        active = np.count_nonzero(live, axis=0)  # per position: a prefix of the chunk
        sender, factor = outbox_row[senders[s]], factors[s]
        shared = (_same_bits(factor) | ~live).all(axis=0)  # per position, decided once per pass
        value = states.models[rows[s], cols[s]]
        acc = value if norms is None else np.zeros_like(value)
        buf = np.empty_like(value)
        for q, a in enumerate(active[active > 0].tolist()):
            d = buf[:a]
            # mode="raise" would buffer ``out``; the live prefix only names rows of the outbox.
            np.take(outbox, sender[:a, q], axis=0, out=d, mode="clip")
            d -= value[:a]
            d *= factor[0, q] if shared[q] else factor[:a, q, None]
            acc[:a] += d
        if norms is not None:
            norm = norms[s]
            acc /= norm[0] if _same_bits(norm).all() else norm[:, None]
            value += acc
        states.models[rows[s], cols[s]] = value


def _same_bits(x: np.ndarray) -> np.ndarray:
    """Where the float64 array ``x`` holds bitwise the value of its first row,
    so that 0.0 and -0.0 stay apart and a NaN matches its own bits."""
    bits = x.view(np.int64)
    return bits == bits[:1]


def aggregate_batch(states: RunState, t: Topology, plan: RoundPlan) -> RunState:
    """Synchronous merge: every receiver replaces each cluster model with the
    weighted combination of its own copy and the reporting neighbors' outbox
    values, all computed from pre-round values.

    Weights are uniform 1/(r+1); under a Metropolis plan, neighbor m
    contributes ``t.metropolis[i, m]`` and the receiver keeps the remainder.
    Empty reporting sets leave the model untouched.
    """
    rows, cols, senders, weights = _slots(states, t, plan)
    norms = np.ones(len(rows)) if plan.metropolis else np.count_nonzero(senders >= 0, axis=1) + 1.0
    _fold(states, rows, cols, senders, weights, norms)
    return states


def _running_fold(
    states: RunState, rows: np.ndarray, cols: np.ndarray, senders: np.ndarray,
    weights: np.ndarray, order: np.ndarray, metropolis: bool,
) -> None:
    """Fold the slot table of :func:`_slots` with each slot's senders taken in
    the positions ``order`` gives, padding last."""
    # np.cumsum adds left to right like the scalar recurrence; a pairwise sum would change bits.
    own = np.ones(len(rows))
    if metropolis:
        own -= np.cumsum(np.column_stack([np.zeros(len(rows)), weights]), axis=1)[:, -1]
    arrived = np.take_along_axis(weights, order, axis=1)
    merged = np.cumsum(np.column_stack([own, arrived]), axis=1)  # weight before, after each arrival
    factors = arrived / merged[:, 1:]
    _fold(states, rows, cols, np.take_along_axis(senders, order, axis=1), factors)


def aggregate_sequential(states: RunState, t: Topology, plan: RoundPlan) -> RunState:
    """Running-average merge: incoming models are folded in one at a time.

    With r values already merged (the receiver's own copy counts as the
    first), the next arrival enters with weight 1/(r+1), which telescopes to
    exactly the batch mean for every arrival order.  Under a Metropolis plan
    the same cumulative scheme runs on the weights of ``t.metropolis``
    instead of counts.  Incoming values are pre-round outbox snapshots.
    """
    rows, cols, senders, weights = _slots(states, t, plan)
    keys = spawn_rng(plan.round_seed, "arrival").random(senders.shape)
    keys[senders < 0] = 2.0  # the padding sorts last and stays in place
    order = np.argsort(keys, axis=1, kind="stable")
    _running_fold(states, rows, cols, senders, weights, order, plan.metropolis)
    return states


def _server_mean(states: RunState) -> None:
    """Centralized merge: each cluster model becomes the mean of the models
    this round's senders sent for it (unchanged if none did), and every
    client receives a copy of the new global models."""
    merged = states.models[0].copy()
    for j in range(len(merged)):
        senders = states.sent == j
        if senders.any():
            merged[j] = states.models[senders, j].mean(axis=0)
    states.models[:] = merged


def run_round(
    states: RunState,
    t: Topology | None,
    plan: RoundPlan,
    hp: Hyperparams,
) -> tuple[RunState, RoundMetrics]:
    """One full round: assign, train, merge, measure.

    All participants train in one :func:`local_update` call, shuffled by
    one stream per round, ``spawn_rng(round_seed, "sgd")``; a model that
    diverges there names the round, client and cluster.  Non-participants
    neither train nor send but (unless the plan restricts receiving) still
    merge incoming models.  ``t`` is None exactly for the ``server`` merge,
    which expects every client to start the round with the same models.  A
    cluster loss that is not finite after the merge raises
    :class:`DivergenceError` naming the round and cluster.  The metrics read
    the clients' test splits and true clusters from ``states``.
    Participants must be distinct clients of the run.
    """
    if (t is None) != (plan.aggregation_mode == "server"):
        need = "takes no topology" if t is not None else "needs a topology"
        raise ValueError(f"a {plan.aggregation_mode} round {need}")
    _check_participants(plan.participants, len(states))
    previous = states.assignment.copy()
    states.sent[:] = -1
    _assign_clusters(states, plan.participants)
    changed = int(np.count_nonzero(states.assignment != previous))
    local_update(states, plan, hp)
    pre_avg = cluster_average(states)

    if plan.aggregation_mode == "server":
        _server_mean(states)
    elif plan.aggregation_mode == "sequential":
        aggregate_sequential(states, t, plan)
    else:
        aggregate_batch(states, t, plan)

    per_cluster = f_cluster(states)
    for j, loss in enumerate(per_cluster):
        if not np.isfinite(loss):
            raise DivergenceError(
                "loss went non-finite although local SGD left finite parameters",
                round=plan.round_index, cluster=j,
            )
    drift = tuple(float(np.linalg.norm(post - pre)) for post, pre in zip(cluster_average(states), pre_avg))
    return states, RoundMetrics(
        round=plan.round_index,
        f_cluster=per_cluster,
        disp=dispersion(states),
        clustering_accuracy=clustering_accuracy(states),
        test_accuracy=test_accuracy(states),
        avg_drift=drift,
        assignments_changed=changed,
    )
