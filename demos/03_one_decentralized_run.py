"""One full decentralized run, step by step.

Twelve clients on a sparse graph each hold two model slots and data from
one of two rotated distributions.  Every round they (1) pick the model
that fits their data best, (2) train only that model locally, and
(3) fold neighbor models in with a running average.  Watch the cluster
assignments lock in and dispersion shrink.

The loop below is the one ``dfca.harness.run_one_seed`` runs for the same
settings (``dfca run`` with n_clients=12, topology.p=0.4, T=30,
init_mode=li, data.samples_per_client=100, model.hidden=16), with every
random stream derived from one master seed.
"""

from dfca import (
    Hyperparams,
    ModelShape,
    RoundPlan,
    SyntheticSpec,
    generate_erdos_renyi,
    generate_rotated_synthetic,
    initialize,
    is_connected,
    run_round,
    train_test_split,
)
from dfca.harness import stabilization_round
from dfca.seeding import derive_seed

N, K, T, SEED = 12, 2, 30, 0

graph = generate_erdos_renyi(N, 0.4, derive_seed(SEED, "topology"))

# client i draws from distribution i mod K; a fifth of its samples are held out
spec = SyntheticSpec(samples_per_client=100)
trains, tests = [], []
for i in range(N):
    full = generate_rotated_synthetic(spec, k=K, client_cluster=i % K, seed=derive_seed(SEED, "data", i),
                                      center_seed=derive_seed(SEED, "centers"))
    train, test = train_test_split(full, 0.2, derive_seed(SEED, "split", i))
    trains.append(train)
    tests.append(test)

# li: every client starts from its own random models
shape = ModelShape(dim=spec.dim, hidden=16, n_classes=spec.n_classes)
states = initialize(k=K, mode="li", model_shape=shape, seed=derive_seed(SEED, "init"), datasets=trains,
                    test_sets=tests)
hp = Hyperparams(gamma=0.1, tau=5, batch_size=32)
trace = []
for r in range(T):
    plan = RoundPlan(participants=tuple(range(N)), aggregation_mode="sequential",
                     round_seed=derive_seed(SEED, "round", r), round_index=r)
    _, measured = run_round(states, graph, plan, hp)  # assign, train, merge, measure
    trace.append(measured)

print(f"graph connected: {is_connected(graph)}")
print(f"{'round':>5} {'f_global':>9} {'clust':>6} {'test':>6} {'disp_0':>8} {'changed':>7}")
for m in trace:
    if m.round % 3 == 0 or m.assignments_changed:
        print(f"{m.round:5d} {m.f_global:9.3f} {m.clustering_accuracy:6.2f} "
              f"{m.test_accuracy:6.2f} {m.disp[0]:8.4f} {m.assignments_changed:7d}")

tau = stabilization_round(trace)
print(f"\nassignments stabilized after round {tau}")
print("final assignment vs generating cluster per client:")
for i, (assigned, d) in enumerate(zip(states.assignment.tolist(), states.data)):
    marker = "" if assigned == d.distribution_id else "   <- relabeled"
    print(f"  client {i:2d}: assigned {assigned}, data from {d.distribution_id}{marker}")
print("(a global swap of cluster labels is fine; only the partition matters)")
