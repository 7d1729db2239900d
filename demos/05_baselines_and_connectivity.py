"""Clustered decentralized training vs its baselines, and the connectivity knob.

Compares three algorithms on the same 2-cluster data:
  dfca - decentralized, k model slots, loss-based cluster assignment
  ifca - the centralized equivalent (a server averages per-cluster models)
  davg - decentralized averaging of a single model (no clustering)
then sweeps graph connectivity to show accuracy saturating once the graph
is dense enough.

Scaled down to run in about a minute; the full-size comparison lives in
tests/test_acceptance.py (criteria 5-8).
"""

import numpy as np

from dfca import ExperimentConfig, run_one_seed

BASE = dict(n_clients=12, k=2, T=40, data_samples_per_client=120,
            model_hidden=16, topology_p=0.4)
SEEDS = (0, 1, 2)


def batch(**kw):
    finals_test, finals_clust = [], []
    for seed in SEEDS:
        trace = run_one_seed(ExperimentConfig(**{**BASE, **kw}), seed).trace
        finals_test.append(trace[-1].test_accuracy)
        finals_clust.append(trace[-1].clustering_accuracy)
    return np.mean(finals_test), np.mean(finals_clust)


print("=== Algorithm comparison (3-seed means) ===")
for name, kw in (("dfca (GI)", dict(init_mode="gi")),
                 ("dfca (LI)", dict(init_mode="li")),
                 ("ifca     ", dict(algorithm="ifca")),
                 ("davg     ", dict(algorithm="davg"))):
    acc, clust = batch(**kw)
    print(f"{name}: test accuracy {acc:.3f}, clustering accuracy {clust:.3f}")

print("\n=== Connectivity sweep (decentralized GI) ===")
for p in (0.1, 0.2, 0.4, 0.7):
    acc, clust = batch(topology_p=p)
    print(f"p={p}: test accuracy {acc:.3f}, clustering accuracy {clust:.3f}")
print("\naccuracy flattens once the graph is connected enough; the CLI runs the "
      "full-scale version:\n  dfca sweep configs/desk.cfg --key topology.p "
      "--values 0.05,0.1,0.15,0.2,0.3")
