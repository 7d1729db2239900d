import numpy as np

from dfca.config import ExperimentConfig
from dfca.core import (
    Hyperparams,
    RoundPlan,
    aggregate_batch,
    assign_cluster,
    run_round,
)
from dfca.harness import run_one_seed
from dfca.metrics import cluster_average, trace_row
from dfca.model import ModelShape, sgd_epochs, unflatten_params
from dfca.seeding import spawn_rng
from dfca.topology import Topology
from dfca.verify import _per_client_loss, random_states

SHAPE = ModelShape(dim=3, hidden=2, n_classes=3)


HP = Hyperparams(gamma=0.05, tau=1, batch_size=6)


def ifca_clients(rng, n, scales):
    """Clients holding bitwise copies of one global model per entry of
    ``scales``, as every IFCA round starts; a large scale makes a model fit
    no client."""
    states = random_states(rng, n, len(scales), SHAPE)
    globals_ = [rng.standard_normal(SHAPE.param_count) * scale for scale in scales]
    states.models[:] = globals_
    return states, globals_


def server_round(states, hp, round_seed, participants=None):
    """One server-merge round of ``participants`` (every client by default),
    plus the trained models it should average: each participant's assigned
    model after its own assign and SGD on its row of the round's key table."""
    participants = range(len(states)) if participants is None else participants
    trained = states.copy()
    longest = max(len(d) for d in trained.data)
    keys = spawn_rng(round_seed, "sgd").random((len(participants), hp.tau, longest))
    for r, i in enumerate(participants):
        losses = [_per_client_loss(SHAPE, v, trained.data[i]) for v in trained.models[i]]
        j = assign_cluster(trained[i], np.array(losses))
        m = unflatten_params(SHAPE, trained.models[i, j])
        d = trained.data[i]
        trained.models[i, j] = sgd_epochs(m, d, hp.gamma, hp.tau, hp.batch_size, keys[r, :, : len(d)]).values
        trained.sent[i] = j
    plan = RoundPlan(participants=tuple(participants), aggregation_mode="server", round_seed=round_seed)
    _, measured = run_round(states, None, plan, hp)
    return trained, measured


class TestIfcaRound:
    def test_single_client_per_cluster_copies_trained_model(self):
        rng = np.random.default_rng(0)
        states, _ = ifca_clients(rng, 3, (1.0, 1.0, 1.0))
        trained, _ = server_round(states, HP, round_seed=1)
        members = {}
        for i, j in enumerate(trained.assignment.tolist()):
            members.setdefault(j, []).append(i)
        lone = {j: m[0] for j, m in members.items() if len(m) == 1}
        assert lone  # the instance must exercise the property
        for j, c in lone.items():
            for i in range(len(states)):
                np.testing.assert_array_equal(states.models[i, j], trained.models[c, j])

    def test_unselected_cluster_model_unchanged(self):
        rng = np.random.default_rng(1)
        states, globals_ = ifca_clients(rng, 3, (1.0, 100.0))
        trained, _ = server_round(states, HP, round_seed=2)
        assert set(trained.assignment.tolist()) == {0}
        for i in range(len(states)):
            np.testing.assert_array_equal(states.models[i, 1], globals_[1])

    def test_round_ends_with_clients_holding_globals(self):
        rng = np.random.default_rng(2)
        states, _ = ifca_clients(rng, 5, (1.0, 1.0))
        trained, measured = server_round(states, HP, round_seed=3)
        for j in set(trained.assignment.tolist()):
            mean = np.mean(trained.models[trained.assignment == j, j], axis=0)
            np.testing.assert_array_equal(states.models[0, j], mean)
        for i in range(len(states)):
            np.testing.assert_array_equal(states.models[i], states.models[0])
        assert states.models.shape == (len(states), 2, SHAPE.param_count)  # own copies
        assert all(d == 0.0 for d in measured.disp)  # broadcast copies agree exactly

    def test_partial_round_averages_only_what_the_participants_sent(self):
        """IFCA with client sampling: each cluster some participant sent
        becomes the mean of the senders' trained models, not of every client
        assigned to it, and every other cluster keeps its global model."""
        rng = np.random.default_rng(4)
        states, globals_ = ifca_clients(rng, 8, (1.0, 1.0, 100.0))
        participants = (1, 2, 4, 6)
        trained, _ = server_round(states, HP, round_seed=5, participants=participants)
        sent = set(trained.sent[list(participants)].tolist())
        idle = [i for i in range(len(states)) if i not in participants]
        assert 0 < len(sent) < 3  # some cluster was sent and some was not
        assert any(trained.assignment[i] in sent for i in idle)  # idle members of a sent cluster
        for j in range(3):
            want = np.mean(trained.models[trained.sent == j, j], axis=0) if j in sent else globals_[j]
            for i in range(len(states)):
                np.testing.assert_array_equal(states.models[i, j], want)
        np.testing.assert_array_equal(states.assignment, trained.assignment)


class TestEquivalenceWithGossipOnCompleteGraph:
    def test_single_cluster_complete_graph_mean_matches_ifca_mean(self):
        rng = np.random.default_rng(3)
        n = 4
        # decentralized side: everyone already trained, complete graph, one cluster
        states = random_states(rng, n, 1, SHAPE)
        trained = states.models[:, 0].copy()
        states.sent[:] = states.assignment  # everyone sends its trained model
        aggregate_batch(states, Topology(~np.eye(n, dtype=bool)), RoundPlan(tuple(range(n))))
        gossip_mean = cluster_average(states)[0]

        # centralized side: server averages the same returned models
        server_mean = np.mean(trained, axis=0)
        np.testing.assert_allclose(gossip_mean, server_mean, atol=1e-12)
        for i in range(n):  # complete-graph gossip also equalizes every copy
            np.testing.assert_allclose(states.models[i, 0], server_mean, atol=1e-12)


class TestDecentralizedAveraging:
    def test_davg_on_iid_data_equals_dfca_with_one_cluster(self):
        base = dict(n_clients=6, k=1, T=3, data_samples_per_client=30,
                    model_hidden=4, topology_p=0.8, n_seeds=1)
        davg_cfg = ExperimentConfig(algorithm="davg", **base)
        dfca_cfg = ExperimentConfig(algorithm="dfca", **base)

        rows_davg = [trace_row(m) for m in run_one_seed(davg_cfg, 0).trace]
        rows_dfca = [trace_row(m) for m in run_one_seed(dfca_cfg, 0).trace]
        assert rows_davg == rows_dfca
