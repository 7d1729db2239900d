"""Executable property suite behind the ``verify`` CLI command.

Each check builds a small instance, exercises one algorithmic guarantee,
and reports pass/fail.  The whole suite runs in seconds.  Acceptance
criteria 1-4 and 9 run the matching checks, pytest runs every check as its
own case, and the test modules build their client states with the helpers
defined here.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from .config import ExperimentConfig
from .core import (
    ClientState,
    Hyperparams,
    RoundPlan,
    _reporting,
    aggregate_batch,
    aggregate_sequential,
    assign_cluster,
    initialize,
    local_update,
    run_experiment,
    run_round,
)
from .datagen import Dataset, generate_rotated_synthetic, rotate_image, SyntheticSpec
from .metrics import cluster_average, dispersion, f_global, trace_row
from .model import (
    MlpModel,
    ModelShape,
    flatten_params,
    forward_loss,
    gradient,
    init_model,
    params_from_bytes,
    params_to_bytes,
    unflatten_params,
)
from .topology import (
    METROPOLIS,
    PAPER_UNIFORM,
    Topology,
    build_mixing_matrix,
    from_edge_list_text,
    generate_erdos_renyi,
    is_connected,
    spectral_gap,
    to_edge_list_text,
)

__all__ = [
    "CHECKS",
    "CHECK_NAMES",
    "run_verification",
    "random_dataset",
    "random_states",
    "stage_outboxes",
    "clone_states",
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
) -> list[ClientState]:
    """``n`` clients with random models, a random assignment and a random
    dataset; client ``i`` is labelled distribution ``i % 2``."""
    return [
        ClientState(
            client_id=i,
            shape=shape,
            models=[rng.standard_normal(shape.param_count) for _ in range(k)],
            assignment=int(rng.integers(0, k)),
            data=random_dataset(rng, n_samples, shape.dim, shape.n_classes, i % 2),
        )
        for i in range(n)
    ]


def stage_outboxes(states: Sequence[ClientState]) -> None:
    """Stage every client's assigned model as if it had just trained."""
    for s in states:
        s.outbox = (s.assignment, s.models[s.assignment])


def clone_states(states: Sequence[ClientState]) -> list[ClientState]:
    """Deep copy of the models and outboxes; datasets are shared."""
    out = []
    for s in states:
        c = ClientState(
            client_id=s.client_id,
            shape=s.shape,
            models=[v.copy() for v in s.models],
            assignment=s.assignment,
            data=s.data,
        )
        if s.outbox is not None:
            c.outbox = (s.outbox[0], s.outbox[1].copy())
        out.append(c)
    return out


def check_mixing_stochasticity() -> tuple[bool, str]:
    worst = 0.0
    for seed in range(5):
        t = generate_erdos_renyi(8, 0.4, seed)
        for kind in (PAPER_UNIFORM, METROPOLIS):
            w = build_mixing_matrix(t, kind).weights
            worst = max(worst, float(np.abs(w.sum(axis=1) - 1.0).max()))
            if kind == METROPOLIS:
                worst = max(worst, float(np.abs(w - w.T).max()))
    return worst <= 1e-12, f"max row-sum/symmetry deviation {worst:.2e}"


def check_spectral_gap() -> tuple[bool, str]:
    complete3 = Topology(3, ~np.eye(3, dtype=bool))
    gap_complete = spectral_gap(build_mixing_matrix(complete3, METROPOLIS))
    cycle = from_edge_list_text("4\n0 1\n1 2\n2 3\n0 3\n")
    gap_cycle = spectral_gap(build_mixing_matrix(cycle, METROPOLIS))
    two_plus_two = from_edge_list_text("4\n0 1\n2 3\n")
    gap_split = spectral_gap(build_mixing_matrix(two_plus_two, METROPOLIS))
    ok = (
        abs(gap_complete - 1.0) <= 1e-8
        and abs(gap_cycle - 2.0 / 3.0) <= 1e-8
        and gap_split <= 1e-8
    )
    return ok, f"complete={gap_complete:.6f} cycle={gap_cycle:.6f} disconnected={gap_split:.2e}"


def check_er_reproducibility() -> tuple[bool, str]:
    a = generate_erdos_renyi(30, 0.2, 7)
    b = generate_erdos_renyi(30, 0.2, 7)
    round_trip = from_edge_list_text(to_edge_list_text(a))
    ok = np.array_equal(a.adjacency, b.adjacency) and np.array_equal(
        a.adjacency, round_trip.adjacency
    )
    return ok, f"{a.n_edges} edges, bitwise repeatable and round-trips through edge list"


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
        vec = flatten_params(m)
        again = flatten_params(unflatten_params(shape, vec))
        if not np.array_equal(vec, again):
            return False, f"flatten round-trip failed for hidden={hidden}"
        if not np.array_equal(params_from_bytes(params_to_bytes(vec)), vec):
            return False, f"byte round-trip failed for hidden={hidden}"
    return True, "flatten/unflatten and byte encoding round-trip bitwise"


def fd_gradient(m: MlpModel, data: Dataset, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the loss, one coordinate at a time."""
    shape = m.shape
    base = flatten_params(m)
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
        before = f_global(states)
        for s in states:
            assign_cluster(s)
        worst = max(worst, f_global(states) - before)
    return worst <= 1e-12, (
        f"max post-assignment global-loss change {worst:.2e} over {trials} random states"
    )


def check_local_update_isolation() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    shape = ModelShape(dim=4, hidden=3, n_classes=3)
    states = random_states(rng, 3, 3, shape)
    for s in states:
        frozen = [v.copy() for v in s.models]
        local_update(s, gamma=0.05, tau=2, batch_size=4, round_seed=1)
        for j, v in enumerate(frozen):
            if j != s.assignment and not np.array_equal(v, s.models[j]):
                return False, f"client {s.client_id}: non-assigned model {j} changed"
    return True, "non-assigned models are bitwise untouched by training"


def _small_graphs() -> Iterator[Topology]:
    """Complete, path, ring, star and two Erdos-Renyi graphs for n = 2..8."""
    for n in range(2, 9):
        yield Topology(n, ~np.eye(n, dtype=bool))
        path = np.zeros((n, n), dtype=bool)
        for i in range(n - 1):
            path[i, i + 1] = path[i + 1, i] = True
        yield Topology(n, path)
        if n >= 3:
            ring = path.copy()
            ring[0, n - 1] = ring[n - 1, 0] = True
            yield Topology(n, ring)
        star = np.zeros((n, n), dtype=bool)
        star[0, 1:] = star[1:, 0] = True
        yield Topology(n, star)
        for p, seed in ((0.3, 1), (0.6, 2)):
            yield generate_erdos_renyi(n, p, seed)


def _arrival_orders(
    rng: np.random.Generator, states: Sequence[ClientState], t: Topology
) -> dict[tuple[int, int], list[Sequence[int]]]:
    """Per (receiver, cluster) pair with senders: every order of up to five
    senders, six seeded orders of more."""
    orders = {}
    for i in range(t.n_clients):
        for j in range(len(states[0].models)):
            senders = _reporting(states, t, i, j)
            if not senders:
                continue
            if len(senders) <= 5:
                orders[(i, j)] = list(itertools.permutations(senders))
            else:
                orders[(i, j)] = [rng.permutation(senders) for _ in range(6)]
    return orders


def _max_gap(a: Sequence[ClientState], b: Sequence[ClientState]) -> float:
    return max(
        float(np.abs(va - vb).max()) for sa, sb in zip(a, b) for va, vb in zip(sa.models, sb.models)
    )


def check_sequential_equals_batch(inject_fault: bool = False) -> tuple[bool, str]:
    """Under both weight rules, uniform counts (no matrix) and Metropolis.

    Each ``aggregate_sequential`` call pins one arrival order for every
    (receiver, cluster) pair; one more call per instance leaves the orders to
    the seeded permutation that ``run_round`` uses.
    """
    rng = np.random.default_rng(0)
    shape = ModelShape(dim=2, hidden=0, n_classes=2)
    worst, n_pairs, n_orders = 0.0, 0, 0
    for t in _small_graphs():
        participants = tuple(range(t.n_clients))
        for k in range(1, 5):
            states = random_states(rng, t.n_clients, k, shape)
            stage_outboxes(states)
            orders = _arrival_orders(rng, states, t)
            depth = max(map(len, orders.values()), default=0)
            plans = [
                RoundPlan(
                    participants=participants,
                    arrival_order={p: o[r] for p, o in orders.items() if r < len(o)},
                )
                for r in range(depth)
            ] + [RoundPlan(participants=participants, round_seed=k)]
            for mixing in (None, build_mixing_matrix(t, METROPOLIS)):
                batch = aggregate_batch(clone_states(states), t, mixing=mixing)
                for plan in plans:
                    seq = aggregate_sequential(
                        clone_states(states), t, plan, mixing=mixing,
                        _fault_flip_weights=inject_fault,
                    )
                    worst = max(worst, _max_gap(batch, seq))
            n_pairs += len(orders)
            n_orders += sum(map(len, orders.values()))
    return worst <= 1e-9, (
        f"{n_pairs} receiver/cluster pairs, {n_orders} arrival orders plus the seeded one, "
        f"each under uniform and Metropolis weights: max |sequential - batch| {worst:.2e}"
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
        w = build_mixing_matrix(t, METROPOLIS)
        lam = 1.0 - spectral_gap(w)
        datasets = [random_dataset(rng, 12, shape.dim, shape.n_classes) for _ in range(n)]
        states = initialize(k=1, n=n, mode="li", model_shape=shape, seed=seed, datasets=datasets)
        hp = Hyperparams(
            gamma=0.0,
            tau=1,
            batch_size=8,
            test_sets=[random_dataset(rng, 4, shape.dim, shape.n_classes) for _ in range(n)],
            mixing=w,
        )
        for r in range(rounds):
            avg_before = cluster_average(states, 0)
            disp_before = dispersion(states, 0)
            plan = RoundPlan(
                participants=tuple(range(n)), aggregation_mode="batch", round_seed=r, round_index=r
            )
            run_round(states, t, plan, hp)
            worst_avg = max(
                worst_avg, float(np.abs(cluster_average(states, 0) - avg_before).max())
            )
            worst_slack = max(worst_slack, dispersion(states, 0) - lam**2 * disp_before)
    ok = worst_avg <= 1e-9 and worst_slack <= 1e-9
    return ok, (
        f"10 connected graphs x {rounds} rounds: average drift {worst_avg:.2e}, "
        f"worst contraction slack {worst_slack:.2e}"
    )


def check_gi_zero_dispersion() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    shape = ModelShape(dim=16, hidden=32, n_classes=4)
    datasets = [random_dataset(rng, 20, 16, 4) for _ in range(20)]
    states = initialize(k=4, n=20, mode="gi", model_shape=shape, seed=0, datasets=datasets)
    disps = [dispersion(states, j) for j in range(4)]
    return all(d == 0.0 for d in disps), f"initial dispersions {disps} (exact zeros)"


def check_run_determinism() -> tuple[bool, str]:
    config = ExperimentConfig(
        n_clients=8, k=2, T=3, data_samples_per_client=40, model_hidden=4, topology_p=0.6,
        n_seeds=1,
    )
    config.validate()
    rows_a = [trace_row(m) for m in run_experiment(config)]
    rows_b = [trace_row(m) for m in run_experiment(config)]
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
    ("gossip-preserves-average-and-contracts", check_gossip_consensus),
    ("global-init-zero-dispersion", check_gi_zero_dispersion),
    ("experiment-determinism", check_run_determinism),
]

CHECK_NAMES = [name for name, _ in CHECKS]


def run_verification(inject_fault: bool = False, out=print) -> int:
    """Run every property check; returns 0 iff all pass.

    ``inject_fault`` flips the running-average merge weights inside the
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
        out(f"{status} {name}: {detail}")
    return 0 if failures == 0 else 1
