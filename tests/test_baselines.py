import numpy as np

from dfca.baselines import CentralServerState, ifca_round
from dfca.config import ExperimentConfig
from dfca.core import ClientState, Hyperparams, aggregate_batch
from dfca.datagen import Dataset
from dfca.metrics import cluster_average, trace_row
from dfca.model import ModelShape
from dfca.topology import Topology

SHAPE = ModelShape(dim=3, hidden=2, n_classes=3)


def random_dataset(rng, n=12, dist=0):
    return Dataset(features=rng.standard_normal((n, 3)),
                   labels=rng.integers(0, 3, size=n), distribution_id=dist)


def make_clients(rng, n, k):
    return [
        ClientState(client_id=i, shape=SHAPE,
                    models=[rng.standard_normal(SHAPE.param_count) for _ in range(k)],
                    assignment=0, data=random_dataset(rng, dist=i % 2))
        for i in range(n)
    ]


def hyper(rng, n):
    return Hyperparams(gamma=0.05, tau=1, batch_size=6,
                       test_sets=[random_dataset(rng, n=5) for _ in range(n)])


class TestIfcaRound:
    def test_single_client_per_cluster_copies_trained_model(self):
        rng = np.random.default_rng(0)
        clients = make_clients(rng, 2, 2)
        # force opposite preferences by making each client's favored model obvious
        server = CentralServerState(models=[rng.standard_normal(SHAPE.param_count) for _ in range(2)])
        new_server, _ = ifca_round(server, clients, hyper(rng, 2), round_seed=1)
        by_cluster = {}
        for c in clients:
            by_cluster.setdefault(c.assignment, []).append(c)
        for j, members in by_cluster.items():
            if len(members) == 1:
                np.testing.assert_array_equal(new_server.models[j], members[0].models[j])

    def test_unselected_cluster_model_unchanged(self):
        rng = np.random.default_rng(1)
        clients = make_clients(rng, 3, 2)
        server = CentralServerState(models=[rng.standard_normal(SHAPE.param_count) for _ in range(2)])
        new_server, _ = ifca_round(server, clients, hyper(rng, 3), round_seed=2)
        selected = {c.assignment for c in clients}
        for j in range(2):
            if j not in selected:
                np.testing.assert_array_equal(new_server.models[j], server.models[j])

    def test_round_ends_with_clients_holding_globals(self):
        rng = np.random.default_rng(2)
        clients = make_clients(rng, 3, 2)
        server = CentralServerState(models=[rng.standard_normal(SHAPE.param_count) for _ in range(2)])
        new_server, measured = ifca_round(server, clients, hyper(rng, 3), round_seed=3)
        for c in clients:
            for j in range(2):
                np.testing.assert_array_equal(c.models[j], new_server.models[j])
        assert all(d == 0.0 for d in measured.disp)  # broadcast copies agree exactly


class TestEquivalenceWithGossipOnCompleteGraph:
    def test_single_cluster_complete_graph_mean_matches_ifca_mean(self):
        rng = np.random.default_rng(3)
        n = 4
        trained = [rng.standard_normal(SHAPE.param_count) for _ in range(n)]

        # decentralized side: everyone already trained, complete graph, one cluster
        states = [
            ClientState(client_id=i, shape=SHAPE, models=[trained[i].copy()],
                        assignment=0, data=random_dataset(rng))
            for i in range(n)
        ]
        for s in states:
            s.outbox = (0, s.models[0])
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
        from dfca.core import run_experiment

        rows_davg = [trace_row(m) for m in run_experiment(davg_cfg)]
        rows_dfca = [trace_row(m) for m in run_experiment(dfca_cfg)]
        assert rows_davg == rows_dfca
