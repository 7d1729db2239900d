import numpy as np

from dfca.config import ExperimentConfig
from dfca.core import (
    Hyperparams,
    RoundPlan,
    aggregate_batch,
    assign_cluster,
    local_update,
    run_experiment,
    run_round,
)
from dfca.metrics import cluster_average, trace_row
from dfca.model import ModelShape
from dfca.seeding import derive_seed
from dfca.topology import Topology
from dfca.verify import random_dataset, random_states

SHAPE = ModelShape(dim=3, hidden=2, n_classes=3)


def hyper(rng, n):
    return Hyperparams(gamma=0.05, tau=1, batch_size=6,
                       test_sets=[random_dataset(rng, 5, SHAPE.dim, SHAPE.n_classes)
                                  for _ in range(n)])


def ifca_clients(rng, n, scales):
    """Clients holding bitwise copies of one global model per entry of
    ``scales``, as every IFCA round starts; a large scale makes a model fit
    no client."""
    states = random_states(rng, n, len(scales), SHAPE)
    globals_ = [rng.standard_normal(SHAPE.param_count) * scale for scale in scales]
    states.models[:] = globals_
    return states, globals_


def server_round(states, hp, round_seed):
    """One server-merge round, plus the trained models it should average:
    each client's assigned model after its own assign and local update."""
    trained = states.copy()
    for i, c in enumerate(trained):
        assign_cluster(c)
        local_update(trained, [i], hp.gamma, hp.tau, hp.batch_size, [derive_seed(round_seed, "sgd", i)])
    plan = RoundPlan(participants=tuple(range(len(states))), aggregation_mode="server",
                     round_seed=round_seed)
    _, measured = run_round(states, None, plan, hp)
    return trained, measured


class TestIfcaRound:
    def test_single_client_per_cluster_copies_trained_model(self):
        rng = np.random.default_rng(0)
        states, _ = ifca_clients(rng, 3, (1.0, 1.0, 1.0))
        trained, _ = server_round(states, hyper(rng, 3), round_seed=1)
        members = {}
        for c in trained:
            members.setdefault(c.assignment, []).append(c)
        lone = {j: m[0] for j, m in members.items() if len(m) == 1}
        assert lone  # the instance must exercise the property
        for j, c in lone.items():
            for s in states:
                np.testing.assert_array_equal(s.models[j], c.models[j])

    def test_unselected_cluster_model_unchanged(self):
        rng = np.random.default_rng(1)
        states, globals_ = ifca_clients(rng, 3, (1.0, 100.0))
        trained, _ = server_round(states, hyper(rng, 3), round_seed=2)
        assert {c.assignment for c in trained} == {0}
        for s in states:
            np.testing.assert_array_equal(s.models[1], globals_[1])

    def test_round_ends_with_clients_holding_globals(self):
        rng = np.random.default_rng(2)
        states, _ = ifca_clients(rng, 5, (1.0, 1.0))
        trained, measured = server_round(states, hyper(rng, 5), round_seed=3)
        for j in {c.assignment for c in trained}:
            mean = np.mean([c.models[j] for c in trained if c.assignment == j], axis=0)
            np.testing.assert_array_equal(states[0].models[j], mean)
        for s in states:
            for j in range(2):
                np.testing.assert_array_equal(s.models[j], states[0].models[j])
        assert states.models.shape == (len(states), 2, SHAPE.param_count)  # own copies
        assert all(d == 0.0 for d in measured.disp)  # broadcast copies agree exactly


class TestEquivalenceWithGossipOnCompleteGraph:
    def test_single_cluster_complete_graph_mean_matches_ifca_mean(self):
        rng = np.random.default_rng(3)
        n = 4
        # decentralized side: everyone already trained, complete graph, one cluster
        states = random_states(rng, n, 1, SHAPE)
        trained = [s.models[0].copy() for s in states]
        states.sent[:] = states.assignment  # everyone sends its trained model
        aggregate_batch(states, Topology(n, ~np.eye(n, dtype=bool)))
        gossip_mean = cluster_average(states, 0)

        # centralized side: server averages the same returned models
        server_mean = np.mean(np.stack(trained), axis=0)
        np.testing.assert_allclose(gossip_mean, server_mean, atol=1e-12)
        for s in states:  # complete-graph gossip also equalizes every copy
            np.testing.assert_allclose(s.models[0], server_mean, atol=1e-12)


class TestDecentralizedAveraging:
    def test_davg_on_iid_data_equals_dfca_with_one_cluster(self):
        base = dict(n_clients=6, k=1, T=3, data_samples_per_client=30,
                    model_hidden=4, topology_p=0.8, n_seeds=1)
        davg_cfg = ExperimentConfig(algorithm="davg", **base)
        dfca_cfg = ExperimentConfig(algorithm="dfca", **base)
        for cfg in (davg_cfg, dfca_cfg):
            cfg.validate()

        rows_davg = [trace_row(m) for m in run_experiment(davg_cfg)]
        rows_dfca = [trace_row(m) for m in run_experiment(dfca_cfg)]
        assert rows_davg == rows_dfca
