"""Executable property suite behind the ``verify`` CLI command.

Each check builds a small instance, exercises one algorithmic guarantee,
and reports pass/fail.  The whole suite runs in seconds.  Acceptance
criteria 1-4 and 9 run the matching checks, pytest runs every check as its
own case, and the test modules build their client states with the helpers
defined here.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

import numpy as np

from .config import ExperimentConfig
from .core import (
    _FOLD_SLOTS,
    Hyperparams,
    RoundPlan,
    RunState,
    _assign_clusters,
    _running_fold,
    _slots,
    aggregate_batch,
    aggregate_sequential,
    initialize,
    local_update,
    run_round,
)
from .datagen import Dataset, generate_rotated_synthetic, rotate_image, SyntheticSpec
from .harness import run_one_seed
from .metrics import (
    _add,
    cluster_average,
    dispersion,
    f_cluster,
    test_accuracy,
    trace_row,
)
from .model import (
    _CHUNK_ROWS,
    MlpModel,
    ModelShape,
    forward_loss,
    gradient,
    init_model,
    predict,
    sgd_epochs,
    unflatten_params,
)
from .seeding import spawn_rng
from .topology import Topology, build_mixing_matrix, generate_erdos_renyi, is_connected, spectral_gap

__all__ = [
    "CHECKS",
    "CHECK_NAMES",
    "run_verification",
    "random_dataset",
    "random_states",
    "graph_from_edges",
    "fd_gradient",
]


def random_dataset(
    rng: np.random.Generator, n: int, dim: int, n_classes: int, distribution_id: int = 0
) -> Dataset:
    """Standard-normal features with uniform random labels."""
    return Dataset(
        features=rng.standard_normal((n, dim)),
        labels=rng.integers(0, n_classes, size=n),
        distribution_id=distribution_id,
    )


def random_states(
    rng: np.random.Generator, n: int, k: int, shape: ModelShape, n_samples: int = 12
) -> RunState:
    """``n`` clients with random models, a random assignment and a random
    dataset, which is also their test split; client ``i`` is labelled
    distribution ``i % 2``."""
    models, assignment, data = [], [], []
    for i in range(n):
        models.append([rng.standard_normal(shape.param_count) for _ in range(k)])
        assignment.append(int(rng.integers(0, k)))
        data.append(random_dataset(rng, n_samples, shape.dim, shape.n_classes, i % 2))
    return RunState(shape, models, assignment, data, data)


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Topology:
    """The undirected graph on ``n`` clients with the given ``(i, m)`` edges."""
    adj = np.zeros((n, n), dtype=bool)
    for i, m in edges:
        adj[i, m] = adj[m, i] = True
    return Topology(adj)


def check_mixing_stochasticity() -> tuple[bool, str]:
    worst = 0.0
    for seed in range(5):
        w = build_mixing_matrix(generate_erdos_renyi(8, 0.4, seed))
        worst = max(worst, float(np.abs(w.sum(axis=1) - 1.0).max()), float(np.abs(w - w.T).max()))
    return worst <= 1e-12, f"max row-sum/symmetry deviation {worst:.2e}"


def check_spectral_gap() -> tuple[bool, str]:
    complete3 = Topology(~np.eye(3, dtype=bool))
    gap_complete = spectral_gap(build_mixing_matrix(complete3))
    cycle = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    gap_cycle = spectral_gap(build_mixing_matrix(cycle))
    two_plus_two = graph_from_edges(4, [(0, 1), (2, 3)])
    gap_split = spectral_gap(build_mixing_matrix(two_plus_two))
    ok = (
        abs(gap_complete - 1.0) <= 1e-8
        and abs(gap_cycle - 2.0 / 3.0) <= 1e-8
        and gap_split <= 1e-8
    )
    return ok, f"complete={gap_complete:.6f} cycle={gap_cycle:.6f} disconnected={gap_split:.2e}"


def check_er_reproducibility() -> tuple[bool, str]:
    a = generate_erdos_renyi(30, 0.2, 7)
    b = generate_erdos_renyi(30, 0.2, 7)
    return np.array_equal(a.adjacency, b.adjacency), f"{a.n_edges} edges, bitwise repeatable"


def check_rotation_identities() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    img = rng.standard_normal(25)
    once = rotate_image(img, 90)
    four = rotate_image(rotate_image(rotate_image(once, 90), 90), 90)
    twice180 = rotate_image(rotate_image(img, 180), 180)
    spec = SyntheticSpec(n_classes=3, dim=6, samples_per_client=40)
    base = generate_rotated_synthetic(spec, k=4, client_cluster=0, seed=11)
    rot = generate_rotated_synthetic(spec, k=4, client_cluster=1, seed=11)
    undone = rot.features.copy()
    undone[:, 0], undone[:, 1] = rot.features[:, 1], -rot.features[:, 0]
    ok = (
        np.array_equal(four, img)
        and np.array_equal(twice180, img)
        and np.array_equal(undone, base.features)
        and np.array_equal(rot.labels, base.labels)
    )
    return ok, "quarter-turn composition and cluster-rotation inversion are exact"


def check_flat_roundtrip() -> tuple[bool, str]:
    for hidden in (0, 5):
        shape = ModelShape(dim=4, hidden=hidden, n_classes=3)
        m = init_model(shape, seed=hidden)
        vec = m.values
        if not np.array_equal(vec, unflatten_params(shape, vec).values):
            return False, f"unflatten round-trip failed for hidden={hidden}"
    return True, "unflatten round-trips bitwise"


def fd_gradient(m: MlpModel, data: Dataset, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the loss, one coordinate at a time."""
    shape = m.shape
    base = m.values
    out = np.zeros_like(base)
    for idx in range(base.size):
        plus, minus = base.copy(), base.copy()
        plus[idx] += h
        minus[idx] -= h
        out[idx] = (
            forward_loss(unflatten_params(shape, plus), data)
            - forward_loss(unflatten_params(shape, minus), data)
        ) / (2 * h)
    return out


def check_gradient() -> tuple[bool, str]:
    rng = np.random.default_rng(4)
    widths = (0, 3, 4, 5, 6)
    worst = 0.0
    for hidden in widths:
        shape = ModelShape(dim=3, hidden=hidden, n_classes=3)
        m = init_model(shape, seed=10 + hidden)
        data = random_dataset(rng, 9, 3, 3)
        bp = gradient(m, data)
        fd = fd_gradient(m, data)
        denom = np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(np.max(np.abs(bp - fd) / denom)))
    return worst <= 1e-4, (
        f"max relative backprop-vs-finite-difference error {worst:.2e} "
        f"(h=1e-5, bound 1e-4) at hidden widths {widths}"
    )


def check_assignment_descent() -> tuple[bool, str]:
    rng = np.random.default_rng(1)
    shape = ModelShape(dim=4, hidden=3, n_classes=3)
    worst = -np.inf
    trials = 100
    for _ in range(trials):
        k = int(rng.integers(2, 5))
        states = random_states(rng, int(rng.integers(2, 9)), k, shape)
        before = _add(f_cluster(states))
        _assign_clusters(states, range(len(states)))
        worst = max(worst, _add(f_cluster(states)) - before)
    return worst <= 1e-12, (
        f"max post-assignment global-loss change {worst:.2e} over {trials} random states"
    )


def check_local_update_isolation() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    shape = ModelShape(dim=4, hidden=3, n_classes=3)
    states = random_states(rng, 3, 3, shape)
    frozen = states.models.copy()
    plan = RoundPlan((0, 1, 2), round_seed=13)
    local_update(states, plan, Hyperparams(gamma=0.05, tau=2, batch_size=4))
    for i, j in itertools.product(range(len(states)), range(states.models.shape[1])):
        if j != states.assignment[i] and not np.array_equal(frozen[i, j], states.models[i, j]):
            return False, f"client {i}: non-assigned model {j} changed"
    return True, "non-assigned models are bitwise untouched by training"


def _small_graphs() -> Iterator[Topology]:
    """Complete, path, ring, star and two Erdos-Renyi graphs for n = 2..8."""
    for n in range(2, 9):
        yield Topology(~np.eye(n, dtype=bool))
        path = [(i, i + 1) for i in range(n - 1)]
        yield graph_from_edges(n, path)
        if n >= 3:
            yield graph_from_edges(n, path + [(0, n - 1)])
        yield graph_from_edges(n, [(0, m) for m in range(1, n)])
        for p, seed in ((0.3, 1), (0.6, 2)):
            yield generate_erdos_renyi(n, p, seed)


def _reference_slots(
    states: RunState, t: Topology, plan: RoundPlan
) -> Iterator[tuple[int, int, list[int]]]:
    """``(receiver, cluster, senders)`` for every receiver and cluster that
    some neighbor sent a model of, one receiver and one cluster at a time,
    the senders ascending."""
    for i in plan.participants if plan.receive_restricted else range(len(states)):
        for j in range(states.models.shape[1]):
            senders = [m for m in np.flatnonzero(t.adjacency[i]) if states.sent[m] == j]
            if senders:
                yield i, j, senders


def _reference_weights(
    mixing: np.ndarray | None, i: int, senders: list[int]
) -> tuple[list[float], float, float]:
    """The weight of each sender, the receiver's own weight and the batch
    normalizer: 1.0 each and r+1 when uniform; matrix row weights, the
    remainder after adding them left to right, and 1.0 with a matrix."""
    if mixing is None:
        return [1.0] * len(senders), 1.0, len(senders) + 1.0
    weights = [float(mixing[i, m]) for m in senders]
    return weights, 1.0 - _add(weights), 1.0


def _order_tables(
    rng: np.random.Generator, senders: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Arrival orders for the slots of a ``core._slots`` sender table, as
    sender positions: every order of up to five senders, six seeded orders
    of more.  Table ``r`` holds the ``r``-th order of every slot that has
    one: those slots and one order row each, the padding last."""
    counts = np.count_nonzero(senders >= 0, axis=1).tolist()
    orders = [
        list(itertools.permutations(range(c))) if c <= 5 else [rng.permutation(c).tolist() for _ in range(6)]
        for c in counts
    ]
    tables = []
    for r in range(max(map(len, orders), default=0)):
        live = [s for s, o in enumerate(orders) if r < len(o)]
        rows = [[*orders[s][r], *range(counts[s], senders.shape[1])] for s in live]
        tables.append((np.array(live, dtype=np.intp), np.array(rows, dtype=np.intp)))
    return tables


def check_sequential_equals_batch(inject_fault: bool = False) -> tuple[bool, str]:
    """Under both weight rules, uniform counts (no matrix) and Metropolis.

    Every enumerated order runs through the sequential merge's fold, the
    slots that have an ``r``-th order in one call per ``r``; one more
    ``aggregate_sequential`` call per instance takes the orders from the
    seeded key table that ``run_round`` uses.  ``inject_fault`` halves the
    sender weights that the enumerated orders pass to the fold.
    """
    rng = np.random.default_rng(0)
    shape = ModelShape(dim=2, hidden=0, n_classes=2)
    worst, n_pairs, n_orders = 0.0, 0, 0
    for t in _small_graphs():
        participants = tuple(range(t.n_clients))
        for k in range(1, 5):
            states = random_states(rng, t.n_clients, k, shape)
            states.sent[:] = states.assignment  # every client sends as if it had trained
            rows, cols, senders, _ = _slots(states, t, RoundPlan(participants))
            tables = _order_tables(rng, senders)
            for metropolis in (False, True):
                plan = RoundPlan(participants=participants, round_seed=k, metropolis=metropolis)
                batch = aggregate_batch(states.copy(), t, plan)
                weights = _slots(states, t, plan)[3] * (0.5 if inject_fault else 1.0)
                for live, order in tables:
                    seq, r, c = states.copy(), rows[live], cols[live]
                    _running_fold(seq, r, c, senders[live], weights[live], order, metropolis)
                    worst = max(worst, float(np.abs(batch.models[r, c] - seq.models[r, c]).max()))
                seq = aggregate_sequential(states.copy(), t, plan)
                worst = max(worst, float(np.abs(batch.models - seq.models).max()))
            n_pairs += len(rows)
            n_orders += sum(len(live) for live, _ in tables)
    return worst <= 1e-9, (
        f"{n_pairs} receiver/cluster pairs, {n_orders} arrival orders plus the seeded one, "
        f"each under uniform and Metropolis weights: max |sequential - batch| {worst:.2e}"
    )


def _per_slot_batch(states: RunState, t: Topology, plan: RoundPlan) -> RunState:
    """Reference for the batch merge: one receiver slot and one sender at a
    time, senders ascending."""
    outbox = list(states.models[np.arange(len(states)), states.sent])  # read before any write
    mixing = build_mixing_matrix(t) if plan.metropolis else None
    for i, j, senders in _reference_slots(states, t, plan):
        own = states.models[i, j]
        weights, _, norm = _reference_weights(mixing, i, senders)
        acc = np.zeros_like(own)
        for m, w in zip(senders, weights):
            acc += w * (outbox[m] - own)
        own += acc / norm
    return states


def _per_slot_sequential(states: RunState, t: Topology, plan: RoundPlan) -> RunState:
    """Reference for the sequential merge: one receiver slot and one sender
    at a time, in arrival order.  Each slot sorts its senders by key: the
    ``s``-th slot enumerated reads row ``s`` of one key table from
    ``spawn_rng(round_seed, "arrival")``, a row per slot and a column per
    sender position."""
    outbox = list(states.models[np.arange(len(states)), states.sent])  # read before any write
    slots = list(_reference_slots(states, t, plan))
    longest = max((len(senders) for _, _, senders in slots), default=0)
    keys = spawn_rng(plan.round_seed, "arrival").random((len(slots), longest))
    mixing = build_mixing_matrix(t) if plan.metropolis else None
    for (i, j, senders), row in zip(slots, keys.tolist()):
        value = states.models[i, j]
        weights, weight_sum, _ = _reference_weights(mixing, i, senders)
        for p in sorted(range(len(senders)), key=lambda p: row[p]):
            w = weights[p]
            frac = w / (weight_sum + w)
            value = value + frac * (outbox[senders[p]] - value)
            weight_sum += w
        states.models[i, j] = value
    return states


def check_merges_match_per_slot() -> tuple[bool, str]:
    """Both gossip merges against the per-slot references, bitwise.

    Graphs are the small ones of ``sequential-equals-batch`` with k = 1..4,
    plus one with more receiver slots than one pass of the fold and unequal
    sender counts.  About a third of the clients do not send.  Each instance
    runs under uniform and Metropolis weights, with and without restricted
    receiving, and the sequential merge under two round seeds.
    """
    rng = np.random.default_rng(8)
    shape = ModelShape(dim=2, hidden=0, n_classes=2)
    cases = [(t, k) for t in _small_graphs() for k in range(1, 5)]
    cases.append((generate_erdos_renyi(_FOLD_SLOTS, 0.3, 5), 3))
    merges, most_slots, bad = 0, 0, []
    for t, k in cases:
        states = random_states(rng, t.n_clients, k, shape)
        sending = np.flatnonzero(rng.random(t.n_clients) < 0.7)
        states.sent[sending] = states.assignment[sending]
        participants = tuple(sending.tolist())
        most_slots = max(most_slots, len(list(_reference_slots(states, t, RoundPlan(participants)))))
        for metropolis, restricted in itertools.product((False, True), (False, True)):
            plans = [
                RoundPlan(participants, round_seed=s, receive_restricted=restricted, metropolis=metropolis)
                for s in (k, k + 4)
            ]
            runs = [(aggregate_batch, _per_slot_batch, plans[0])]
            runs += [(aggregate_sequential, _per_slot_sequential, plan) for plan in plans]
            for merge, reference, plan in runs:
                merges += 1
                got, want = merge(states.copy(), t, plan), reference(states.copy(), t, plan)
                if got.models.tobytes() != want.models.tobytes():
                    bad.append(
                        f"{merge.__name__}, {t.n_clients} clients, k={k}, "
                        f"Metropolis={metropolis}, restricted={restricted}"
                    )
    if bad:
        return False, f"{len(bad)} of {merges} merges differ, first: {bad[0]}"
    return True, (
        f"{merges} batch and sequential merges over {len(cases)} instances (up to {most_slots} "
        f"receiver slots) bitwise equal to the per-slot references"
    )


def check_gossip_consensus() -> tuple[bool, str]:
    """Batch Metropolis rounds through ``run_round`` on ten connected graphs."""
    rng = np.random.default_rng(2)
    shape = ModelShape(dim=4, hidden=0, n_classes=2)
    n, rounds = 20, 12
    graphs = ((seed, generate_erdos_renyi(n, 0.3, seed)) for seed in itertools.count())
    connected = ((seed, t) for seed, t in graphs if is_connected(t))
    worst_avg, worst_slack = 0.0, -np.inf
    for seed, t in itertools.islice(connected, 10):
        lam = 1.0 - spectral_gap(t.metropolis)
        datasets = [random_dataset(rng, 12, shape.dim, shape.n_classes) for _ in range(n)]
        tests = [random_dataset(rng, 4, shape.dim, shape.n_classes) for _ in range(n)]
        states = initialize(k=1, mode="li", model_shape=shape, seed=seed, datasets=datasets,
                            test_sets=tests)
        hp = Hyperparams(gamma=0.0, tau=1, batch_size=8)
        for r in range(rounds):
            avg_before = cluster_average(states)
            disp_before = dispersion(states)[0]
            plan = RoundPlan(
                participants=tuple(range(n)), aggregation_mode="batch", round_seed=r, round_index=r,
                metropolis=True,
            )
            run_round(states, t, plan, hp)
            worst_avg = max(
                worst_avg, float(np.abs(cluster_average(states) - avg_before).max())
            )
            worst_slack = max(worst_slack, dispersion(states)[0] - lam**2 * disp_before)
    ok = worst_avg <= 1e-9 and worst_slack <= 1e-9
    return ok, (
        f"10 connected graphs x {rounds} rounds: average drift {worst_avg:.2e}, "
        f"worst contraction slack {worst_slack:.2e}"
    )


def check_gi_zero_dispersion() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    shape = ModelShape(dim=16, hidden=32, n_classes=4)
    datasets = [random_dataset(rng, 20, 16, 4) for _ in range(20)]
    states = initialize(k=4, mode="gi", model_shape=shape, seed=0, datasets=datasets,
                        test_sets=datasets)
    disps = list(dispersion(states))
    return all(d == 0.0 for d in disps), f"initial dispersions {disps} (exact zeros)"


def _per_client_loss(shape: ModelShape, values: np.ndarray, d: Dataset) -> float:
    """Reference for the loss kernel: one model's unstacked forward pass on
    ``d`` and numpy's own per-row reductions over the class axis."""
    m = MlpModel(shape, values)
    act = d.features if m.w1 is None else np.maximum(d.features @ m.w1.T + m.b1, 0.0)
    z = act @ m.w2.T + m.b2
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    return float((lse - z[np.arange(len(d)), d.labels]).mean())


def _per_client_metrics(states: RunState) -> tuple:
    """Reference for the batched metrics: one unstacked forward pass per
    client (:func:`_per_client_loss`, not the kernel under test), losses
    added in client order, and the cluster averages and dispersions computed
    with fresh temporaries."""
    k = states.models.shape[1]
    f = []
    for j in range(k):
        total = 0.0
        for values, a, d in zip(states.models, states.assignment, states.data):
            if a == j:
                total += _per_client_loss(states.shape, values[j], d)
        f.append(total)
    hits = [
        predict(unflatten_params(states.shape, values[a]), t.features) == t.labels
        for values, a, t in zip(states.models, states.assignment, states.test_sets)
    ]
    acc = sum(int(np.sum(h)) for h in hits) / sum(len(h) for h in hits)
    avg, disp = [], []
    for j in range(k):
        copies = states.models[:, j]
        avg.append(copies[0] + (copies - copies[0]).mean(axis=0))
        disp.append(float(np.mean(np.sum((copies - avg[j]) ** 2, axis=1))))
    return f, acc, avg, disp


def check_batched_metrics() -> tuple[bool, str]:
    """Batched f_cluster and test accuracy, and the in-place cluster
    averages and dispersions, against the per-client reference, bitwise,
    for hidden widths 0 and 3 and k = 1..4.

    Each instance has its own client count and train and test lengths, and
    runs once with random assignments and once with the last cluster empty.
    Two of them need several chunks of ``_CHUNK_ROWS`` rows: one through
    long datasets, one through many short ones.
    """
    rng = np.random.default_rng(6)
    long_n = _CHUNK_ROWS // 3 + 1  # two clients per chunk
    mixes = ((6, 12, 12), (7, 9, 5), (7, long_n, long_n - 1), (_CHUNK_ROWS // 8 + 4, 8, 8))
    names = ("f_cluster", "test_accuracy", "cluster_average", "dispersion")
    instances, bad = 0, []
    for hidden, k, (count, n, n_test), empty in itertools.product((0, 3), range(1, 5), mixes, (False, True)):
        shape = ModelShape(dim=4, hidden=hidden, n_classes=3)
        drawn, data = random_states(rng, count, k, shape), []
        for i in range(count):
            data.append(random_dataset(rng, n, shape.dim, shape.n_classes))
            if empty and k > 1:
                drawn.assignment[i] = int(rng.integers(0, k - 1))
        tests = [random_dataset(rng, n_test, shape.dim, shape.n_classes) for _ in range(count)]
        states = RunState(shape, drawn.models, drawn.assignment, data, tests)
        batched = (
            f_cluster(states),
            test_accuracy(states),
            cluster_average(states),
            dispersion(states),
        )
        instances += 1
        for name, got, want in zip(names, batched, _per_client_metrics(states)):
            if np.asarray(got).tobytes() != np.asarray(want).tobytes():
                bad.append(f"{name} (hidden={hidden}, k={k}, {count} clients): {got} != {want}")
    if bad:
        return False, f"{len(bad)} mismatches, first: {bad[0]}"
    return True, f"{instances} instances bitwise equal to the per-client reference"


def _per_client_sgd(
    shape: ModelShape, values: np.ndarray, d: Dataset, gamma: float, tau: int, batch_size: int,
    keys: np.ndarray,
) -> np.ndarray:
    """Reference for the stacked trainer: one client's SGD loop with its own
    unstacked forward and backward pass (``g.T @ x``, sums over axis 0),
    each epoch visiting the samples in the order of a Python stable sort of
    its row of the client's ``(tau, n)`` key table."""
    values = values.copy()
    m = MlpModel(shape, values)  # views: each step updates them in place
    batch_size = min(batch_size, len(d))
    for row in keys.tolist():
        order = sorted(range(len(d)), key=row.__getitem__)
        for start in range(0, len(d), batch_size):
            idx = order[start : start + batch_size]
            x, y = d.features[idx], d.labels[idx]
            act = x if m.w1 is None else np.maximum(x @ m.w1.T + m.b1, 0.0)
            z = act @ m.w2.T + m.b2
            ez = np.exp(z - z.max(axis=1, keepdims=True))
            g = ez / ez.sum(axis=1, keepdims=True)
            g[np.arange(len(y)), y] -= 1.0
            g = g / len(y)
            grads = [(g.T @ act).ravel(), g.sum(axis=0)]
            if m.w1 is not None:
                dact = (g @ m.w2) * (act > 0)
                grads = [(dact.T @ x).ravel(), dact.sum(axis=0)] + grads
            values -= gamma * np.concatenate(grads)
    return values


def check_stacked_sgd() -> tuple[bool, str]:
    """Stacked training through ``local_update`` against the per-client
    reference, bitwise, for hidden widths 0, 3 and 32.

    Every client has its own model and data.  The reference draws its own
    key table from each group's stream, one row per client in participant
    order.  Batches cover a short last batch, a batch size at least the
    dataset length, and batch size 1, in groups of one and five clients;
    two groups span three chunks of ``_CHUNK_ROWS`` minibatch rows: five
    clients of full-batch training, and (hidden 0 and 3) many clients of
    batch size 16.  Lone clients also run the one-client form of
    ``sgd_epochs``.
    """
    rng = np.random.default_rng(7)
    gamma, tau = 0.3, 2
    spans = 2 * _CHUNK_ROWS // 16 + 3  # three chunks at batch size 16
    groups = [(m, 10, 4) for m in (1, 5)] + [(m, 6, 8) for m in (1, 5)] + [(m, 7, 1) for m in (1, 5)]
    groups += [(5, _CHUNK_ROWS // 3 + 1, _CHUNK_ROWS), (spans, 20, 16)]  # two full batches per chunk
    clients, bad = 0, []
    for hidden in (0, 3, 32):
        shape = ModelShape(dim=5, hidden=hidden, n_classes=3)
        for count, n, batch_size in groups:
            if hidden == 32 and count == spans:
                continue
            block = 0.5 * rng.standard_normal((count, shape.param_count))
            data = [random_dataset(rng, n, shape.dim, shape.n_classes) for _ in range(count)]
            seed = int(rng.integers(2**32))
            states = RunState(shape, block[:, None].copy(), [0] * count, data, data)
            plan = RoundPlan(tuple(range(count)), round_seed=seed)
            local_update(states, plan, Hyperparams(gamma, tau, batch_size))
            keys = spawn_rng(seed, "sgd").random((count, tau, n))
            for i, (v, d, table) in enumerate(zip(block, data, keys)):
                want = _per_client_sgd(shape, v, d, gamma, tau, batch_size, table).tobytes()
                got = [states.models[i, 0]]
                if count == 1:
                    alone = sgd_epochs(unflatten_params(shape, v), d, gamma, tau, batch_size, table)
                    got.append(alone.values)
                clients += 1
                if any(g.tobytes() != want for g in got):
                    bad.append(f"hidden={hidden}, {count} clients, batch {batch_size}, client {i}")
    if bad:
        return False, f"{len(bad)} of {clients} clients differ, first: {bad[0]}"
    return True, f"{clients} clients trained in stacked groups, bitwise equal to per-client SGD"


def check_run_determinism() -> tuple[bool, str]:
    config = ExperimentConfig(
        n_clients=8, k=2, T=3, data_samples_per_client=40, model_hidden=4, topology_p=0.6,
        n_seeds=1,
    )
    rows_a = [trace_row(m) for m in run_one_seed(config, 0).trace]
    rows_b = [trace_row(m) for m in run_one_seed(config, 0).trace]
    return rows_a == rows_b, "repeated tiny run produces identical trace rows"


CHECKS = [
    ("mixing-row-stochastic-and-symmetric", check_mixing_stochasticity),
    ("spectral-gap-known-graphs", check_spectral_gap),
    ("erdos-renyi-reproducible", check_er_reproducibility),
    ("rotations-exact-and-invertible", check_rotation_identities),
    ("flat-params-round-trip", check_flat_roundtrip),
    ("gradient-matches-finite-differences", check_gradient),
    ("assignment-is-descent", check_assignment_descent),
    ("local-update-touches-only-assigned", check_local_update_isolation),
    ("sequential-equals-batch", check_sequential_equals_batch),
    ("merges-match-per-slot", check_merges_match_per_slot),
    ("gossip-preserves-average-and-contracts", check_gossip_consensus),
    ("global-init-zero-dispersion", check_gi_zero_dispersion),
    ("experiment-determinism", check_run_determinism),
    ("batched-metrics-match-per-client", check_batched_metrics),
    ("stacked-sgd-matches-per-client", check_stacked_sgd),
]

CHECK_NAMES = [name for name, _ in CHECKS]


def run_verification(inject_fault: bool = False) -> int:
    """Run every property check; returns 0 iff all pass.

    ``inject_fault`` halves the running-average sender weights inside the
    sequential-equals-batch check, proving that the check can detect a
    broken aggregation rule.
    """
    failures = 0
    for name, check in CHECKS:
        if name == "sequential-equals-batch":
            ok, detail = check(inject_fault=inject_fault)
        else:
            ok, detail = check()
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {name}: {detail}")
    return 0 if failures == 0 else 1
