"""Executable property suite behind the ``verify`` CLI command.

Each check builds a small instance, exercises one algorithmic guarantee,
and reports pass/fail.  The whole suite runs in seconds.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .core import (
    ClientState,
    Hyperparams,
    RoundPlan,
    aggregate_batch,
    aggregate_sequential,
    assign_cluster,
    initialize,
    local_update,
    run_experiment,
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

__all__ = ["run_verification", "CHECK_NAMES"]


def _random_dataset(rng: np.random.Generator, n: int, dim: int, n_classes: int) -> Dataset:
    return Dataset(
        features=rng.standard_normal((n, dim)),
        labels=rng.integers(0, n_classes, size=n),
        distribution_id=0,
    )


def _random_states(
    rng: np.random.Generator, n: int, k: int, shape: ModelShape
) -> list[ClientState]:
    states = []
    for i in range(n):
        models = [rng.standard_normal(shape.param_count) for _ in range(k)]
        data = _random_dataset(rng, 12, shape.dim, shape.n_classes)
        states.append(
            ClientState(
                client_id=i,
                shape=shape,
                models=models,
                assignment=int(rng.integers(0, k)),
                data=data,
            )
        )
    return states


def _stage_outboxes(states: list[ClientState]) -> None:
    for s in states:
        s.outbox = (s.assignment, s.models[s.assignment])


def _clone(states: list[ClientState]) -> list[ClientState]:
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


def _fd_gradient(m: MlpModel, data: Dataset, h: float = 1e-5) -> np.ndarray:
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
    rng = np.random.default_rng(5)
    worst = 0.0
    for hidden in (0, 3, 6):
        shape = ModelShape(dim=3, hidden=hidden, n_classes=3)
        m = init_model(shape, seed=hidden + 1)
        data = _random_dataset(rng, 7, 3, 3)
        bp = gradient(m, data)
        fd = _fd_gradient(m, data)
        denom = np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(np.max(np.abs(bp - fd) / denom)))
    return worst <= 1e-4, f"max relative backprop-vs-finite-difference error {worst:.2e}"


def check_assignment_descent() -> tuple[bool, str]:
    rng = np.random.default_rng(9)
    shape = ModelShape(dim=4, hidden=3, n_classes=3)
    worst = -np.inf
    for _ in range(40):
        states = _random_states(rng, 5, 3, shape)
        before = f_global(states)
        for s in states:
            assign_cluster(s)
        worst = max(worst, f_global(states) - before)
    return worst <= 1e-12, f"max post-assignment loss increase {worst:.2e}"


def check_local_update_isolation() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    shape = ModelShape(dim=4, hidden=3, n_classes=3)
    states = _random_states(rng, 3, 3, shape)
    for s in states:
        frozen = [v.copy() for v in s.models]
        local_update(s, gamma=0.05, tau=2, batch_size=4, round_seed=1)
        for j, v in enumerate(frozen):
            if j != s.assignment and not np.array_equal(v, s.models[j]):
                return False, f"client {s.client_id}: non-assigned model {j} changed"
    return True, "non-assigned models are bitwise untouched by training"


def check_sequential_equals_batch(inject_fault: bool = False) -> tuple[bool, str]:
    """Under both weight rules: uniform counts (no matrix) and Metropolis."""
    rng = np.random.default_rng(17)
    shape = ModelShape(dim=2, hidden=0, n_classes=2)
    worst = 0.0
    for seed, n, k in ((0, 5, 2), (1, 6, 3), (2, 4, 2)):
        t = generate_erdos_renyi(n, 0.7, seed)
        states = _random_states(rng, n, k, shape)
        _stage_outboxes(states)
        for mixing in (None, build_mixing_matrix(t, METROPOLIS)):
            batch = aggregate_batch(_clone(states), t, mixing=mixing)
            for order_seed in range(4):
                plan = RoundPlan(participants=tuple(range(n)), round_seed=order_seed)
                seq = aggregate_sequential(
                    _clone(states), t, plan, mixing=mixing, _fault_flip_weights=inject_fault
                )
                for b, s in zip(batch, seq):
                    for vb, vs in zip(b.models, s.models):
                        worst = max(worst, float(np.abs(vb - vs).max()))
    return worst <= 1e-9, f"max |sequential - batch| coordinate gap {worst:.2e}"


def check_gossip_consensus() -> tuple[bool, str]:
    rng = np.random.default_rng(21)
    shape = ModelShape(dim=3, hidden=0, n_classes=2)
    seed = 0
    while True:
        t = generate_erdos_renyi(12, 0.3, seed)
        if is_connected(t):
            break
        seed += 1
    w = build_mixing_matrix(t, METROPOLIS)
    lam = 1.0 - spectral_gap(w)
    states = _random_states(rng, 12, 1, shape)
    for s in states:
        s.assignment = 0
    worst_avg, worst_contract = 0.0, -np.inf
    for _ in range(15):
        avg_before = cluster_average(states, 0)
        disp_before = dispersion(states, 0)
        _stage_outboxes(states)
        aggregate_batch(states, t, mixing=w)
        worst_avg = max(
            worst_avg, float(np.abs(cluster_average(states, 0) - avg_before).max())
        )
        worst_contract = max(
            worst_contract, dispersion(states, 0) - lam**2 * disp_before
        )
    ok = worst_avg <= 1e-9 and worst_contract <= 1e-9
    return ok, (
        f"avg drift {worst_avg:.2e}, worst contraction slack {worst_contract:.2e} (lambda={lam:.3f})"
    )


def check_gi_zero_dispersion() -> tuple[bool, str]:
    rng = np.random.default_rng(25)
    shape = ModelShape(dim=4, hidden=3, n_classes=3)
    datasets = [_random_dataset(rng, 10, 4, 3) for _ in range(6)]
    states = initialize(k=3, n=6, mode="gi", model_shape=shape, seed=99, datasets=datasets)
    disps = [dispersion(states, j) for j in range(3)]
    return all(d == 0.0 for d in disps), f"initial dispersions {disps}"


def check_run_determinism() -> tuple[bool, str]:
    config = ExperimentConfig(
        n_clients=8, k=2, T=3, data_samples_per_client=30, model_hidden=4, n_seeds=1
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
