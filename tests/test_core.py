import numpy as np
import pytest

from dfca import verify
from dfca.config import ConfigError, ExperimentConfig
from dfca.core import (
    ClientState,
    Hyperparams,
    RoundPlan,
    aggregate_batch,
    aggregate_sequential,
    assign_cluster,
    initialize,
    local_update,
    run_experiment,
    run_round,
)
from dfca.model import ModelShape, forward_loss, unflatten_params
from dfca.topology import Topology, generate_erdos_renyi
from dfca.verify import stage_outboxes

SHAPE = ModelShape(dim=3, hidden=2, n_classes=3)


def random_dataset(rng, n=10, dist=0):
    return verify.random_dataset(rng, n, SHAPE.dim, SHAPE.n_classes, dist)


def make_states(rng, n, k):
    return verify.random_states(rng, n, k, SHAPE, n_samples=10)


def scalar_states(values_per_client, assignments=None, k=None):
    """States whose 'models' are length-1 vectors, for aggregation algebra."""
    k = k or len(values_per_client[0])
    rng = np.random.default_rng(0)
    data = random_dataset(rng)
    states = []
    for i, values in enumerate(values_per_client):
        states.append(
            ClientState(
                client_id=i,
                shape=SHAPE,
                models=[np.array([float(v)]) for v in values],
                assignment=0 if assignments is None else assignments[i],
                data=data,
            )
        )
    return states


def complete(n):
    return Topology(n, ~np.eye(n, dtype=bool))


def from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, m in edges:
        adj[i, m] = adj[m, i] = True
    return Topology(n, adj)


class TestInitialize:
    def test_gi_gives_identical_model_sets(self):
        rng = np.random.default_rng(0)
        datasets = [random_dataset(rng) for _ in range(5)]
        states = initialize(k=3, n=5, mode="gi", model_shape=SHAPE, seed=7, datasets=datasets)
        for j in range(3):
            for s in states[1:]:
                assert np.array_equal(s.models[j], states[0].models[j])

    def test_li_gives_distinct_models(self):
        rng = np.random.default_rng(2)
        datasets = [random_dataset(rng) for _ in range(2)]
        states = initialize(k=2, n=2, mode="li", model_shape=SHAPE, seed=3, datasets=datasets)
        for j in range(2):
            assert not np.array_equal(states[0].models[j], states[1].models[j])

    def test_initial_assignment_is_argmin_not_arbitrary(self):
        rng = np.random.default_rng(3)
        datasets = [random_dataset(rng) for _ in range(4)]
        states = initialize(k=3, n=4, mode="li", model_shape=SHAPE, seed=5, datasets=datasets)
        for s in states:
            losses = [forward_loss(unflatten_params(SHAPE, v), s.data) for v in s.models]
            assert s.assignment == int(np.argmin(losses))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            initialize(k=1, n=1, mode="xx", model_shape=SHAPE, seed=0,
                       datasets=[random_dataset(np.random.default_rng(0))])


class TestAssignCluster:
    def test_picks_strict_argmin(self):
        rng = np.random.default_rng(4)
        s = make_states(rng, 1, 2)[0]
        losses = [forward_loss(unflatten_params(SHAPE, v), s.data) for v in s.models]
        expected = int(np.argmin(losses))
        assert assign_cluster(s) == expected
        assert s.assignment == expected

    def test_tie_breaks_toward_lowest_index(self):
        rng = np.random.default_rng(5)
        s = make_states(rng, 1, 3)[0]
        s.models[2] = s.models[0].copy()  # exact tie between clusters 0 and 2
        chosen = assign_cluster(s)
        losses = [forward_loss(unflatten_params(SHAPE, v), s.data) for v in s.models]
        assert losses[0] == losses[2]
        assert chosen != 2  # the later twin never wins a tie
        if losses[0] <= losses[1]:
            assert chosen == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_excluded(self):
        rng = np.random.default_rng(6)
        s = make_states(rng, 1, 2)[0]
        s.models[0] = np.full(SHAPE.param_count, 1e300)  # overflows to non-finite loss
        assert assign_cluster(s) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_non_finite_keeps_previous(self, caplog):
        rng = np.random.default_rng(7)
        s = make_states(rng, 1, 2)[0]
        s.assignment = 1
        s.models[0] = np.full(SHAPE.param_count, 1e300)
        s.models[1] = np.full(SHAPE.param_count, 1e300)
        with caplog.at_level("WARNING"):
            assert assign_cluster(s) == 1
        assert "non-finite" in caplog.text


class TestLocalUpdate:
    def test_only_assigned_model_changes(self):
        rng = np.random.default_rng(9)
        s = make_states(rng, 1, 2)[0]
        s.assignment = 0
        frozen = s.models[1].copy()
        local_update(s, gamma=0.1, tau=1, batch_size=4, round_seed=0)
        assert np.array_equal(s.models[1], frozen)
        assert s.outbox[0] == 0
        assert s.outbox[1] is s.models[0]

    def test_gamma_zero_leaves_parameters_unchanged(self):
        rng = np.random.default_rng(10)
        s = make_states(rng, 1, 2)[0]
        frozen = s.models[s.assignment].copy()
        local_update(s, gamma=0.0, tau=1, batch_size=4, round_seed=0)
        assert np.array_equal(s.models[s.assignment], frozen)
        assert s.outbox is not None

    def test_training_reduces_loss_in_most_seeds(self):
        rng = np.random.default_rng(11)
        improved = 0
        for seed in range(20):
            s = make_states(rng, 1, 2)[0]
            before = forward_loss(unflatten_params(SHAPE, s.models[s.assignment]), s.data)
            local_update(s, gamma=0.1, tau=2, batch_size=5, round_seed=seed)
            after = forward_loss(unflatten_params(SHAPE, s.models[s.assignment]), s.data)
            improved += after <= before
        assert improved >= 18  # descent in expectation, tiny batches may jitter


class TestAggregateBatch:
    def test_no_reporting_neighbors_leaves_model_untouched(self):
        states = scalar_states([[1.0], [2.0]], assignments=[0, 0])
        t = from_edges(2, [])  # no edges at all
        stage_outboxes(states)
        before = [s.models[0].copy() for s in states]
        aggregate_batch(states, t)
        for s, b in zip(states, before):
            assert np.array_equal(s.models[0], b)

    def test_complete_graph_single_cluster_uniform_mean(self):
        states = scalar_states([[0.0], [3.0], [6.0]])
        stage_outboxes(states)
        aggregate_batch(states, complete(3))
        assert [s.models[0][0] for s in states] == [3.0, 3.0, 3.0]

    def test_path_graph_neighbor_means(self):
        states = scalar_states([[0.0], [3.0], [6.0]])
        stage_outboxes(states)
        aggregate_batch(states, from_edges(3, [(0, 1), (1, 2)]))
        assert [s.models[0][0] for s in states] == [1.5, 3.0, 4.5]

    def test_cluster_split_restricts_senders(self):
        states = scalar_states([[0.0, 10.0], [4.0, 20.0], [8.0, 30.0]],
                               assignments=[0, 1, 0], k=2)
        stage_outboxes(states)
        aggregate_batch(states, complete(3))
        # client 0: cluster-0 senders {2}: (0+8)/2; cluster-1 senders {1}: (10+20)/2
        assert states[0].models[0][0] == 4.0
        assert states[0].models[1][0] == 15.0
        # client 1: cluster-0 senders {0, 2}: (4+0+8)/3; cluster 1: no senders
        assert states[1].models[0][0] == 4.0
        assert states[1].models[1][0] == 20.0

    def test_averaging_identical_vectors_is_bitwise_identity(self):
        value = np.random.default_rng(14).standard_normal(7)
        states = []
        for i in range(3):
            states.append(ClientState(client_id=i, shape=SHAPE, models=[value.copy()],
                                      assignment=0, data=random_dataset(np.random.default_rng(0))))
        stage_outboxes(states)
        aggregate_batch(states, complete(3))
        for s in states:
            assert np.array_equal(s.models[0], value)


class TestAggregateSequential:
    def test_single_neighbor_is_midpoint(self):
        states = scalar_states([[0.0], [2.0]])
        stage_outboxes(states)
        plan = RoundPlan(participants=(0, 1))
        aggregate_sequential(states, from_edges(2, [(0, 1)]), plan)
        assert states[0].models[0][0] == 1.0

    def test_running_average_telescopes_to_batch_mean(self):
        states = scalar_states([[0.0], [3.0], [6.0]])
        stage_outboxes(states)
        plan = RoundPlan(participants=(0, 1, 2), arrival_order={(1, 0): [0, 2]})
        aggregate_sequential(states, complete(3), plan)
        # receiver 1 folds 3->(0) giving 1.5, then (6) giving 3.0
        assert states[1].models[0][0] == 3.0

    def test_explicit_order_must_permute_reporting_set(self):
        states = scalar_states([[0.0], [1.0], [2.0]])
        stage_outboxes(states)
        plan = RoundPlan(participants=(0, 1, 2), arrival_order={(0, 0): [1]})
        with pytest.raises(ValueError, match="does not permute"):
            aggregate_sequential(states, complete(3), plan)


def desk_config(**kw):
    base = dict(n_clients=8, k=2, T=2, data_samples_per_client=40, model_hidden=4,
                topology_p=0.6, n_seeds=1)
    base.update(kw)
    cfg = ExperimentConfig(**base)
    cfg.validate()
    return cfg


def tiny_problem(rng, n, k, init="gi", p=0.7, seed=0):
    t = complete(n) if p >= 1 else generate_erdos_renyi(n, p, seed)
    datasets = [random_dataset(rng, dist=i % 2) for i in range(n)]
    states = initialize(k=k, n=n, mode=init, model_shape=SHAPE, seed=seed, datasets=datasets)
    tests = [random_dataset(rng, n=5, dist=i % 2) for i in range(n)]
    return t, states, Hyperparams(gamma=0.05, tau=1, batch_size=5, test_sets=tests)


class TestRunRound:
    def test_empty_participants_leaves_states_unchanged(self):
        rng = np.random.default_rng(16)
        t, states, hp = tiny_problem(rng, 4, 2)
        frozen = [[v.copy() for v in s.models] for s in states]
        plan = RoundPlan(participants=())
        _, measured = run_round(states, t, plan, hp)
        for s, models in zip(states, frozen):
            for j in range(2):
                assert np.array_equal(s.models[j], models[j])
        assert measured.assignments_changed == 0

    def test_gi_round_with_zero_gamma_keeps_parameters_bitwise(self):
        rng = np.random.default_rng(17)
        t, states, hp = tiny_problem(rng, 5, 2)
        hp.gamma = 0.0
        frozen = [[v.copy() for v in s.models] for s in states]
        plan = RoundPlan(participants=tuple(range(5)), aggregation_mode="batch")
        run_round(states, t, plan, hp)
        for s, models in zip(states, frozen):
            for j in range(2):
                assert np.array_equal(s.models[j], models[j])

    def test_non_participants_receive_but_do_not_send(self):
        rng = np.random.default_rng(18)
        t, states, hp = tiny_problem(rng, 4, 1, p=1.0)
        sleeper = 3
        plan = RoundPlan(participants=(0, 1, 2), aggregation_mode="batch")
        before_sleeper = states[sleeper].models[0].copy()
        run_round(states, t, plan, hp)
        assert not np.array_equal(states[sleeper].models[0], before_sleeper)  # received
        assert states[sleeper].outbox is None  # never sent

    def test_restricted_receiving_leaves_non_participants_untouched(self):
        rng = np.random.default_rng(19)
        t, states, hp = tiny_problem(rng, 4, 1, p=1.0)
        sleeper = 3
        plan = RoundPlan(participants=(0, 1, 2), aggregation_mode="batch",
                         receive_restricted=True)
        before = states[sleeper].models[0].copy()
        run_round(states, t, plan, hp)
        assert np.array_equal(states[sleeper].models[0], before)


class TestRunExperiment:
    def test_zero_rounds_gives_empty_trace(self):
        assert run_experiment(desk_config(T=0)) == []

    def test_sequential_and_batch_agree_at_round_level(self):
        seq = run_experiment(desk_config(aggregation_mode="sequential"))
        bat = run_experiment(desk_config(aggregation_mode="batch"))
        for ms, mb in zip(seq, bat):
            assert ms.f_global == pytest.approx(mb.f_global, rel=1e-6)

    def test_invalid_config_names_field(self):
        cfg = desk_config()
        cfg.gamma = -1.0
        with pytest.raises(ConfigError, match="gamma"):
            run_experiment(cfg)

    def test_disconnected_abort_policy(self):
        from dfca.core import DisconnectedGraphError

        cfg = desk_config(topology_p=0.0, on_disconnected="abort")
        with pytest.raises(DisconnectedGraphError):
            run_experiment(cfg)

    def test_partial_participation_runs(self):
        trace = run_experiment(desk_config(participation_fraction=0.5, T=3))
        assert len(trace) == 3
