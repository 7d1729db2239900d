"""The three guarantees that make the algorithm converge, made visible.

1. Re-assigning each client to its best-fitting model never increases the
   global loss.
2. Gossip averaging preserves the network-average model and contracts
   per-cluster disagreement at the rate set by the spectral gap.
3. The sequential running-average merge telescopes to exactly the
   synchronous batch mean, whatever the arrival order.
"""

import itertools

import numpy as np

from dfca import (
    METROPOLIS,
    Hyperparams,
    RoundPlan,
    aggregate_batch,
    aggregate_sequential,
    assign_cluster,
    build_mixing_matrix,
    generate_erdos_renyi,
    initialize,
    spectral_gap,
)
from dfca.core import RunState, run_round
from dfca.datagen import Dataset
from dfca.metrics import cluster_average, dispersion, f_global
from dfca.model import ModelShape

rng = np.random.default_rng(0)
SHAPE = ModelShape(dim=4, hidden=0, n_classes=3)


def random_dataset(n=15):
    return Dataset(features=rng.standard_normal((n, 4)),
                   labels=rng.integers(0, 3, size=n), distribution_id=0)


print("=== 1. Assignment is descent ===")
datasets = [random_dataset() for _ in range(6)]
states = initialize(k=3, n=6, mode="li", model_shape=SHAPE, seed=1, datasets=datasets)
for i in range(len(states)):
    states.assignment[i] = rng.integers(0, 3)  # scramble
before = f_global(states)
for s in states:
    assign_cluster(s)
print(f"global loss before re-assignment: {before:.4f}")
print(f"global loss after  re-assignment: {f_global(states):.4f} (never higher)\n")

print("=== 2. Gossip preserves the average and contracts disagreement ===")
t = generate_erdos_renyi(16, 0.3, seed=4)
w = build_mixing_matrix(t, METROPOLIS)
lam = 1 - spectral_gap(w)
states = initialize(k=1, n=16, mode="li", model_shape=SHAPE, seed=2,
                    datasets=[random_dataset() for _ in range(16)])
hp = Hyperparams(gamma=0.0, tau=1, batch_size=8,
                 test_sets=[random_dataset(5) for _ in range(16)], mixing=w)
print(f"lambda = {lam:.3f}, so dispersion must shrink {lam**2:.3f}x per round")
for r in range(6):
    avg_before = cluster_average(states, 0)
    plan = RoundPlan(participants=tuple(range(16)), aggregation_mode="batch", round_seed=r)
    run_round(states, t, plan, hp)
    drift = np.abs(cluster_average(states, 0) - avg_before).max()
    print(f"round {r}: dispersion {dispersion(states, 0):9.5f}, average moved {drift:.1e}")

print("\n=== 3. Sequential merging equals the batch mean in any order ===")
t = generate_erdos_renyi(5, 0.9, seed=5)
models, datasets = [], []
for i in range(5):
    models.append([rng.standard_normal(SHAPE.param_count)])
    datasets.append(random_dataset())
base = RunState(SHAPE, models, [0] * 5, datasets)
base.sent[:] = 0  # every client sends its cluster-0 model

batch = base.copy()
aggregate_batch(batch, t)
receiver = 0
senders = list(t.neighborhoods[receiver])
worst = 0.0
for order in itertools.permutations(senders):
    trial = base.copy()
    plan = RoundPlan(participants=tuple(range(5)),
                     arrival_order={(receiver, 0): list(order)})
    aggregate_sequential(trial, t, plan)
    worst = max(worst, np.abs(trial[receiver].models[0] - batch[receiver].models[0]).max())
print(f"receiver {receiver} merged {len(senders)} neighbors in all "
      f"{len(list(itertools.permutations(senders)))} orders; worst gap to batch: {worst:.2e}")
