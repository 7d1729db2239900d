"""The three guarantees that make the algorithm converge, made visible.

1. Re-assigning each client to its best-fitting model never increases the
   global loss.
2. Gossip averaging preserves the network-average model and contracts
   per-cluster disagreement at the rate set by the spectral gap.
3. The sequential running-average merge telescopes to exactly the
   synchronous batch mean, whatever the arrival order.
"""

import numpy as np

from dfca import (
    Hyperparams,
    RoundPlan,
    aggregate_batch,
    aggregate_sequential,
    assign_cluster,
    generate_erdos_renyi,
    initialize,
    spectral_gap,
)
from dfca.core import RunState, run_round
from dfca.datagen import Dataset
from dfca.metrics import cluster_average, dispersion, f_cluster
from dfca.model import MlpModel, ModelShape, forward_loss

rng = np.random.default_rng(0)
SHAPE = ModelShape(dim=4, hidden=0, n_classes=3)


def random_dataset(n=15):
    return Dataset(features=rng.standard_normal((n, 4)),
                   labels=rng.integers(0, 3, size=n), distribution_id=0)


print("=== 1. Assignment is descent ===")
datasets = [random_dataset() for _ in range(6)]
states = initialize(k=3, mode="li", model_shape=SHAPE, seed=1, datasets=datasets,
                    test_sets=datasets)
for i in range(len(states)):
    states.assignment[i] = rng.integers(0, 3)  # scramble
before = sum(f_cluster(states))
for i in range(len(states)):
    assign_cluster(states[i], forward_loss(MlpModel(SHAPE, states.models[i]), states.data[i]))
print(f"global loss before re-assignment: {before:.4f}")
print(f"global loss after  re-assignment: {sum(f_cluster(states)):.4f} (never higher)\n")

print("=== 2. Gossip preserves the average and contracts disagreement ===")
t = generate_erdos_renyi(16, 0.3, seed=4)
lam = 1 - spectral_gap(t.metropolis)
datasets = [random_dataset() for _ in range(16)]
tests = [random_dataset(5) for _ in range(16)]
states = initialize(k=1, mode="li", model_shape=SHAPE, seed=2, datasets=datasets, test_sets=tests)
hp = Hyperparams(gamma=0.0, tau=1, batch_size=8)
print(f"lambda = {lam:.3f}, so dispersion must shrink {lam**2:.3f}x per round")
for r in range(6):
    avg_before = cluster_average(states)[0]
    plan = RoundPlan(participants=tuple(range(16)), aggregation_mode="batch", round_seed=r,
                     metropolis=True)
    run_round(states, t, plan, hp)
    drift = np.abs(cluster_average(states)[0] - avg_before).max()
    print(f"round {r}: dispersion {dispersion(states)[0]:9.5f}, average moved {drift:.1e}")

print("\n=== 3. Sequential merging equals the batch mean in any order ===")
t = generate_erdos_renyi(5, 0.9, seed=5)
models, datasets = [], []
for i in range(5):
    models.append([rng.standard_normal(SHAPE.param_count)])
    datasets.append(random_dataset())
base = RunState(SHAPE, models, [0] * 5, datasets, datasets)
base.sent[:] = 0  # every client sends its cluster-0 model

batch = base.copy()
aggregate_batch(batch, t, RoundPlan(participants=tuple(range(5))))
worst, outcomes = 0.0, set()
for round_seed in range(50):  # each round seed draws its own arrival order per receiver
    trial = base.copy()
    aggregate_sequential(trial, t, RoundPlan(participants=tuple(range(5)), round_seed=round_seed))
    worst = max(worst, np.abs(trial.models - batch.models).max())
    outcomes.add(trial.models.tobytes())
print(f"50 round seeds gave {len(outcomes)} bitwise-distinct merges (the arrival orders differ); "
      f"worst gap to batch: {worst:.2e}")
