"""One full decentralized run, step by step.

Twelve clients on a sparse graph each hold two model slots and data from
one of two rotated distributions.  Every round they (1) pick the model
that fits their data best, (2) train only that model locally, and
(3) fold neighbor models in with a running average.  Watch the cluster
assignments lock in and dispersion shrink.
"""

from dfca import ExperimentConfig
from dfca.core import run_experiment_states
from dfca.harness import stabilization_round

config = ExperimentConfig(
    n_clients=12,
    k=2,
    topology_p=0.4,
    T=30,
    init_mode="li",           # every client starts from its own random models
    aggregation_mode="sequential",
    data_samples_per_client=100,
    model_hidden=16,
    seed=0,
)  # checked when built: an invalid value raises ConfigError here

trace, states, connected = run_experiment_states(config)

print(f"graph connected: {connected}")
print(f"{'round':>5} {'f_global':>9} {'clust':>6} {'test':>6} {'disp_0':>8} {'changed':>7}")
for m in trace:
    if m.round % 3 == 0 or m.assignments_changed:
        print(f"{m.round:5d} {m.f_global:9.3f} {m.clustering_accuracy:6.2f} "
              f"{m.test_accuracy:6.2f} {m.disp[0]:8.4f} {m.assignments_changed:7d}")

tau = stabilization_round(trace)
print(f"\nassignments stabilized after round {tau}")
print("final assignment vs generating cluster per client:")
for s, d in zip(states, states.data):
    marker = "" if s.assignment == d.distribution_id else "   <- relabeled"
    print(f"  client {s.client_id:2d}: assigned {s.assignment}, data from "
          f"{d.distribution_id}{marker}")
print("(a global swap of cluster labels is fine; only the partition matters)")
