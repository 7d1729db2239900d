import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfca import core, model, verify
from dfca.config import ConfigError, ExperimentConfig
from dfca.core import (
    Hyperparams,
    RoundPlan,
    RunState,
    aggregate_batch,
    aggregate_sequential,
    assign_cluster,
    initialize,
    local_update,
    run_experiment,
    run_round,
)
from dfca.model import (
    DivergenceError,
    ModelShape,
    flatten_params,
    forward_loss,
    sgd_epochs,
    unflatten_params,
)
from dfca.seeding import derive_seed
from dfca.topology import METROPOLIS, Topology, build_mixing_matrix, generate_erdos_renyi

SHAPE = ModelShape(dim=3, hidden=2, n_classes=3)


def random_dataset(rng, n=10, dist=0):
    return verify.random_dataset(rng, n, SHAPE.dim, SHAPE.n_classes, dist)


def make_states(rng, n, k):
    return verify.random_states(rng, n, k, SHAPE, n_samples=10)


def stage_outboxes(states):
    """Every client sends its assigned model, as if it had just trained."""
    states.sent[:] = states.assignment


def scalar_states(values_per_client, assignments=None):
    """States whose 'models' are length-1 vectors, for aggregation algebra."""
    n = len(values_per_client)
    models = np.array(values_per_client, dtype=float)[:, :, None]
    data = [random_dataset(np.random.default_rng(0))] * n
    return RunState(SHAPE, models, [0] * n if assignments is None else assignments, data)


def complete(n):
    return Topology(n, ~np.eye(n, dtype=bool))


def draw_states(data):
    """Random states of 1-6 clients, k = 1..3, training sets of 1-12 samples."""
    n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sizes = data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    datasets = [random_dataset(rng, n=size, dist=i % 2) for i, size in enumerate(sizes)]
    return RunState(SHAPE, rng.standard_normal((n, k, SHAPE.param_count)),
                    [int(a) for a in rng.integers(0, k, size=n)], datasets)


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
            for s in states:
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
        for s, d in zip(states, datasets):
            losses = [forward_loss(unflatten_params(SHAPE, v), d) for v in s.models]
            assert s.assignment == int(np.argmin(losses))

    def test_clients_are_views_of_one_array_that_every_step_writes(self):
        rng = np.random.default_rng(23)
        t, states, hp = tiny_problem(rng, 5, 2, p=1.0)
        array = states.models
        assert array.shape == (5, 2, SHAPE.param_count)
        assert all(np.shares_memory(s.models, array) for s in states)
        before = array.copy()
        local_update(states, [1, 3], hp.gamma, hp.tau, hp.batch_size, seeds=[0, 1])
        trained = [(i, states[i].assignment) for i in (1, 3)]
        for i in range(5):
            for j in range(2):
                assert np.array_equal(array[i, j], before[i, j]) == ((i, j) not in trained)
        assert all(np.shares_memory(states[i].outbox[1], array) for i in (1, 3))
        for name in ("models", "assignment", "outbox", "data"):  # written only through the arrays
            with pytest.raises(AttributeError):
                setattr(states[1], name, None)
        hp.mixing = build_mixing_matrix(t, METROPOLIS)
        for r, mode in enumerate(("server", "batch", "sequential")):
            before = array.copy()
            plan = RoundPlan(participants=(0, 2, 4), aggregation_mode=mode, round_seed=r)
            run_round(states, t, plan, hp)
            assert states.models is array and not np.array_equal(array, before)
            assert all(np.shares_memory(s.models, array) for s in states)

    def test_run_state_is_indexed_by_integers_only(self):
        states = make_states(np.random.default_rng(24), 4, 2)
        assert states[np.int64(2)].client_id == 2 and states[-1].client_id == 3
        assert [s.client_id for s in states] == [0, 1, 2, 3]
        with pytest.raises(IndexError):
            states[4]
        for key in (slice(1, 3), 1.0, [0, 1]):
            with pytest.raises(TypeError):
                states[key]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            initialize(k=1, n=1, mode="xx", model_shape=SHAPE, seed=0,
                       datasets=[random_dataset(np.random.default_rng(0))])


class TestAssignCluster:
    def test_picks_strict_argmin(self):
        rng = np.random.default_rng(4)
        states = make_states(rng, 1, 2)
        s = states[0]
        losses = [forward_loss(unflatten_params(SHAPE, v), states.data[0]) for v in s.models]
        expected = int(np.argmin(losses))
        assert assign_cluster(s) == expected
        assert s.assignment == expected

    def test_tie_breaks_toward_lowest_index(self):
        rng = np.random.default_rng(5)
        states = make_states(rng, 1, 3)
        s = states[0]
        s.models[2] = s.models[0].copy()  # exact tie between clusters 0 and 2
        chosen = assign_cluster(s)
        losses = [forward_loss(unflatten_params(SHAPE, v), states.data[0]) for v in s.models]
        assert losses[0] == losses[2]
        assert chosen != 2  # the later twin never wins a tie
        if losses[0] <= losses[1]:
            assert chosen == 0

    def test_non_finite_loss_excluded(self):
        rng = np.random.default_rng(6)
        s = make_states(rng, 1, 2)[0]
        s.models[0] = np.full(SHAPE.param_count, 1e300)  # overflows to non-finite loss
        assert assign_cluster(s) == 1

    def test_all_non_finite_keeps_previous(self, caplog):
        rng = np.random.default_rng(7)
        states = make_states(rng, 1, 2)
        states.assignment[0] = 1
        states.models[0] = 1e300
        with caplog.at_level("WARNING"):
            assert assign_cluster(states[0]) == 1
        assert "non-finite" in caplog.text

    def test_all_nan_models_keep_previous(self, caplog):
        rng = np.random.default_rng(8)
        states = make_states(rng, 1, 3)
        states.assignment[0] = 2
        states.models[0] = np.nan
        with caplog.at_level("WARNING"):
            assert assign_cluster(states[0]) == 2
        assert "non-finite" in caplog.text

    def test_batched_assignment_matches_per_client_loop(self, caplog):
        rng = np.random.default_rng(9)
        k, lengths = 3, [40, 25] * 30  # each length spans several chunks of _CHUNK_ROWS rows
        assert max(model._CHUNK_ROWS // (k * n) for n in lengths) < len(lengths) // 2
        drawn = make_states(rng, len(lengths), k)
        data = [random_dataset(rng, n) for n in lengths]
        states = RunState(SHAPE, drawn.models, drawn.assignment, data)
        states.models[7] = np.nan
        states.assignment[7] = 2
        looped = states.copy()
        for s in looped:
            assign_cluster(s)
        caplog.clear()
        with caplog.at_level("WARNING"):
            core._assign_clusters(states, range(len(states)))
        np.testing.assert_array_equal(states.assignment, looped.assignment)
        assert states.assignment[7] == 2
        assert [r.getMessage().split(":")[0] for r in caplog.records] == ["client 7"]


class TestLocalUpdate:
    def test_only_assigned_model_changes(self):
        rng = np.random.default_rng(9)
        states = make_states(rng, 1, 2)
        states.assignment[0] = 0
        s = states[0]
        frozen = s.models[1].copy()
        local_update(s.run, [0], gamma=0.1, tau=1, batch_size=4, seeds=[0])
        assert np.array_equal(s.models[1], frozen)
        assert s.outbox[0] == 0
        assert np.shares_memory(s.outbox[1], s.models[0])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_unselected_clusters_stay_bitwise_frozen(self, data):
        states = draw_states(data)
        n = len(states)
        rows = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        seeds = data.draw(st.lists(st.integers(0, 2**31), min_size=len(rows), max_size=len(rows)))
        before = states.models.copy()
        local_update(states, rows, gamma=0.05, tau=data.draw(st.integers(1, 2)),
                     batch_size=data.draw(st.integers(1, 5)), seeds=seeds)
        frozen = np.ones(states.models.shape[:2], dtype=bool)
        frozen[rows, states.assignment[rows]] = False
        assert states.models[frozen].tobytes() == before[frozen].tobytes()

    def test_gamma_zero_leaves_parameters_unchanged(self):
        rng = np.random.default_rng(10)
        s = make_states(rng, 1, 2)[0]
        frozen = s.models[s.assignment].copy()
        local_update(s.run, [0], gamma=0.0, tau=1, batch_size=4, seeds=[0])
        assert np.array_equal(s.models[s.assignment], frozen)
        assert s.outbox is not None

    def test_training_reduces_loss_in_most_seeds(self):
        rng = np.random.default_rng(11)
        improved = 0
        for seed in range(20):
            states = make_states(rng, 1, 2)
            s, d = states[0], states.data[0]
            before = forward_loss(unflatten_params(SHAPE, s.models[s.assignment]), d)
            local_update(states, [0], gamma=0.1, tau=2, batch_size=5, seeds=[seed])
            after = forward_loss(unflatten_params(SHAPE, s.models[s.assignment]), d)
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
        states = scalar_states([[0.0, 10.0], [4.0, 20.0], [8.0, 30.0]], assignments=[0, 1, 0])
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
        data = random_dataset(np.random.default_rng(0))
        states = RunState(SHAPE, np.tile(value, (3, 1, 1)), [0] * 3, [data] * 3)
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


@pytest.mark.parametrize("merge", ["batch", "sequential"])
@pytest.mark.parametrize("what, size", [("topology", 4), ("topology", 2), ("mixing matrix", 4),
                                        ("mixing matrix", 2)])
def test_merges_reject_a_topology_or_matrix_of_another_size(merge, what, size):
    states = make_states(np.random.default_rng(25), 3, 2)
    stage_outboxes(states)
    frozen = states.models.copy()
    t, mixing = complete(3), None
    if what == "topology":
        t = complete(size)
    else:
        mixing = build_mixing_matrix(complete(size), METROPOLIS)
    with pytest.raises(ValueError, match=f"the {what} has {size} clients, the run has 3"):
        if merge == "batch":
            aggregate_batch(states, t, mixing=mixing)
        else:
            aggregate_sequential(states, t, RoundPlan(participants=(0, 1, 2)), mixing=mixing)
    assert np.array_equal(states.models, frozen)


@pytest.mark.parametrize("merge", ["batch", "sequential"])
@pytest.mark.parametrize("participant", [-1, 5])
def test_restricted_merges_reject_a_participant_outside_the_run(merge, participant):
    states = make_states(np.random.default_rng(27), 3, 2)
    stage_outboxes(states)
    frozen = states.models.copy()
    plan = RoundPlan(participants=(participant,), receive_restricted=True)
    with pytest.raises(ValueError, match=f"participant {participant} is not a client of this "
                                         "3-client run"):
        if merge == "batch":
            aggregate_batch(states, complete(3), plan=plan)
        else:
            aggregate_sequential(states, complete(3), plan)
    assert np.array_equal(states.models, frozen)


class TestMergeIsConvex:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_merged_coordinate_lies_between_its_inputs(self, data):
        """Every merge is a convex combination of the receiver's pre-merge
        copy and its senders' outbox values; slots without senders, and
        non-receivers under restricted receiving, stay bitwise unchanged."""
        n, k = data.draw(st.integers(2, 7)), data.draw(st.integers(1, 4))
        adj = np.zeros((n, n), dtype=bool)
        adj[np.triu_indices(n, 1)] = data.draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                                                        max_size=n * (n - 1) // 2))
        t = Topology(n, adj | adj.T)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = 10.0 ** data.draw(st.integers(-3, 3))
        states = RunState(SHAPE, scale * rng.standard_normal((n, k, 4)), [0] * n,
                          [random_dataset(rng, n=2)] * n)
        states.sent[:] = data.draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
        plan = RoundPlan(
            participants=tuple(sorted(data.draw(st.sets(st.integers(0, n - 1))))),
            round_seed=data.draw(st.integers(0, 100)),
            receive_restricted=data.draw(st.booleans()),
        )
        mixing = build_mixing_matrix(t, METROPOLIS) if data.draw(st.booleans()) else None
        before = states.models.copy()
        if data.draw(st.booleans()):
            aggregate_sequential(states, t, plan, mixing=mixing)
        else:
            aggregate_batch(states, t, mixing=mixing, plan=plan)
        receivers = plan.participants if plan.receive_restricted else range(n)
        for i in range(n):
            for j in range(k):
                senders = [m for m in t.neighborhoods[i] if states.sent[m] == j]
                got = states.models[i, j]
                if i not in receivers or not senders:
                    assert got.tobytes() == before[i, j].tobytes()
                    continue
                inputs = np.stack([before[i, j]] + [before[m, j] for m in senders])
                lo, hi = inputs.min(axis=0), inputs.max(axis=0)
                slack = 4 * np.spacing(np.abs(inputs).max(axis=0))
                assert np.all(lo - slack <= got) and np.all(got <= hi + slack)


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
    @pytest.mark.parametrize("participants, message", [
        ((5,), "participant 5 is not a client of this 3-client run"),
        ((-1,), "participant -1 is not a client of this 3-client run"),
        ((1, 1), "participant 1 is listed more than once"),
    ], ids=["past-the-end", "negative", "duplicate"])
    def test_participants_must_be_distinct_clients_of_the_run(self, participants, message):
        rng = np.random.default_rng(26)
        t, states, hp = tiny_problem(rng, 3, 2, p=1.0)
        frozen = states.models.copy()
        with pytest.raises(ValueError, match=message):
            run_round(states, t, RoundPlan(participants=participants), hp)
        assert np.array_equal(states.models, frozen)

    def test_unknown_aggregation_mode_rejected(self):
        with pytest.raises(ValueError, match="seqential"):
            RoundPlan(participants=(0,), aggregation_mode="seqential")

    def test_empty_participants_leaves_states_unchanged(self):
        rng = np.random.default_rng(16)
        t, states, hp = tiny_problem(rng, 4, 2)
        frozen = states.models.copy()
        plan = RoundPlan(participants=())
        _, measured = run_round(states, t, plan, hp)
        assert np.array_equal(states.models, frozen)
        assert measured.assignments_changed == 0

    def test_gi_round_with_zero_gamma_keeps_parameters_bitwise(self):
        rng = np.random.default_rng(17)
        t, states, hp = tiny_problem(rng, 5, 2)
        hp.gamma = 0.0
        frozen = states.models.copy()
        plan = RoundPlan(participants=tuple(range(5)), aggregation_mode="batch")
        run_round(states, t, plan, hp)
        assert np.array_equal(states.models, frozen)

    @pytest.mark.parametrize("gamma", [0.3, 0.0])
    def test_participants_train_like_per_client_sgd(self, gamma):
        rng = np.random.default_rng(20)
        drawn = make_states(rng, 9, 3)
        # two train lengths, so two stacked groups
        data = [random_dataset(rng, n=(10, 13)[i % 2], dist=i % 2) for i in range(9)]
        states = RunState(SHAPE, drawn.models, drawn.assignment, data)
        tests = [random_dataset(rng, n=5) for _ in states]
        hp = Hyperparams(gamma=gamma, tau=2, batch_size=4, test_sets=tests)
        plan = RoundPlan(participants=(0, 2, 3, 6, 7), round_seed=21)
        expected = states.copy()
        for i in plan.participants:
            j = assign_cluster(expected[i])
            if gamma:
                trained = sgd_epochs(unflatten_params(SHAPE, expected.models[i, j]), data[i],
                                     gamma, hp.tau, hp.batch_size, derive_seed(21, "sgd", i))
                expected.models[i, j] = flatten_params(trained)
            expected.sent[i] = j
        run_round(states, from_edges(9, []), plan, hp)  # no edges: nothing merges
        for s, e in zip(states, expected):
            assert s.assignment == e.assignment
            for got, want in zip(s.models, e.models):
                assert got.tobytes() == want.tobytes()
            if e.outbox is None:
                assert s.outbox is None
            else:
                assert s.outbox[0] == e.outbox[0]
                assert s.outbox[1].tobytes() == e.outbox[1].tobytes()

    def test_divergence_names_round_client_and_cluster(self):
        rng = np.random.default_rng(22)
        t, states, hp = tiny_problem(rng, 5, 2)
        hp.gamma = 1e300
        plan = RoundPlan(participants=(1, 3), round_index=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning leaks from the trainer
            with pytest.raises(DivergenceError, match="round 4, client 1") as raised:
                run_round(states, t, plan, hp)
        assert raised.value.where == {"round": 4, "client": 1, "cluster": states[1].assignment}

    def test_non_finite_loss_names_round_and_cluster(self):
        rng = np.random.default_rng(24)
        t, states, hp = tiny_problem(rng, 4, 2)
        hp.gamma = 0.0  # the parameters stay finite, only the losses overflow
        states.models[:] = 1e300
        first = int(states.assignment.min())
        plan = RoundPlan(participants=(0, 1, 2, 3), round_index=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning leaks from the forward passes
            with pytest.raises(DivergenceError, match="loss went non-finite") as raised:
                run_round(states, t, plan, hp)
        assert raised.value.where == {"round": 2, "cluster": first}

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


    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_without_edges_non_participants_stay_bitwise_unchanged(self, data):
        states = draw_states(data)
        n = len(states)
        t = Topology(n, np.zeros((n, n), dtype=bool))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        plan = RoundPlan(
            participants=tuple(data.draw(st.lists(st.integers(0, n - 1), unique=True))),
            aggregation_mode=data.draw(st.sampled_from(["batch", "sequential"])),
            round_seed=data.draw(st.integers(0, 100)),
            receive_restricted=data.draw(st.booleans()),
        )
        hp = Hyperparams(
            gamma=0.05, tau=data.draw(st.integers(1, 2)), batch_size=data.draw(st.integers(1, 5)),
            test_sets=[random_dataset(rng, n=3) for _ in range(n)],
            mixing=build_mixing_matrix(t, METROPOLIS) if data.draw(st.booleans()) else None,
        )
        before = states.models.copy()
        run_round(states, t, plan, hp)
        for i in set(range(n)) - set(plan.participants):
            assert states.models[i].tobytes() == before[i].tobytes()


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
