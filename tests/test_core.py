import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfca import core, metrics, model, topology, verify
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
    run_round,
)
from dfca.datagen import stack_datasets
from dfca.harness import DisconnectedGraphError, run_one_seed
from dfca.model import (
    DivergenceError,
    ModelShape,
    forward_loss,
    sgd_epochs,
    unflatten_params,
)
from dfca.seeding import derive_seed, spawn_rng
from dfca.topology import Topology, build_mixing_matrix, generate_erdos_renyi
from dfca.verify import graph_from_edges

SHAPE = ModelShape(dim=3, hidden=2, n_classes=3)


def random_dataset(rng, n=10, dist=0):
    return verify.random_dataset(rng, n, SHAPE.dim, SHAPE.n_classes, dist)


def make_states(rng, n, k):
    return verify.random_states(rng, n, k, SHAPE, n_samples=10)


def reference_losses(states, i):
    """Client ``i``'s k cluster losses from ``verify._per_client_loss``, a
    forward pass that is not the kernel of the stacked assignment pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([verify._per_client_loss(states.shape, v, states.data[i]) for v in states.models[i]])


def reference_choice(losses):
    """The assignment rule written out: the lowest finite loss wins and ties
    go to the lowest index; None when no loss is finite."""
    finite = [(loss, j) for j, loss in enumerate(losses) if math.isfinite(loss)]
    return min(finite)[1] if finite else None


def stage_outboxes(states):
    """Every client sends its assigned model, as if it had just trained."""
    states.sent[:] = states.assignment


def scalar_states(values_per_client, assignments=None):
    """States whose models hold one value in every parameter, for aggregation algebra."""
    n = len(values_per_client)
    models = np.repeat(np.array(values_per_client, dtype=float)[:, :, None], SHAPE.param_count, axis=2)
    data = [random_dataset(np.random.default_rng(0))] * n
    return RunState(SHAPE, models, [0] * n if assignments is None else assignments, data, data)


def complete(n):
    return Topology(~np.eye(n, dtype=bool))


def draw_states(data):
    """Random states of 1-6 clients, k = 1..3, training sets of 1-12 samples."""
    n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = data.draw(st.integers(1, 12))
    datasets = [random_dataset(rng, n=size, dist=i % 2) for i in range(n)]
    return RunState(SHAPE, rng.standard_normal((n, k, SHAPE.param_count)),
                    [int(a) for a in rng.integers(0, k, size=n)], datasets, datasets)


def train(states, rows, gamma, tau, batch_size, seed=0):
    """Local SGD of clients ``rows`` in a round with seed ``seed``."""
    plan = RoundPlan(participants=tuple(rows), round_seed=seed)
    return local_update(states, plan, Hyperparams(gamma=gamma, tau=tau, batch_size=batch_size))


class TestInitialize:
    def test_gi_gives_identical_model_sets(self):
        rng = np.random.default_rng(0)
        datasets = [random_dataset(rng) for _ in range(5)]
        states = initialize(k=3, mode="gi", model_shape=SHAPE, seed=7, datasets=datasets,
                            test_sets=datasets)
        for i in range(len(states)):
            assert np.array_equal(states.models[i], states.models[0])

    def test_li_gives_distinct_models(self):
        rng = np.random.default_rng(2)
        datasets = [random_dataset(rng) for _ in range(2)]
        states = initialize(k=2, mode="li", model_shape=SHAPE, seed=3, datasets=datasets,
                            test_sets=datasets)
        for j in range(2):
            assert not np.array_equal(states.models[0, j], states.models[1, j])

    def test_initial_assignment_is_argmin_not_arbitrary(self):
        rng = np.random.default_rng(3)
        datasets = [random_dataset(rng) for _ in range(4)]
        states = initialize(k=3, mode="li", model_shape=SHAPE, seed=5, datasets=datasets,
                            test_sets=datasets)
        for values, a, d in zip(states.models, states.assignment, datasets):
            losses = [forward_loss(unflatten_params(SHAPE, v), d) for v in values]
            assert a == int(np.argmin(losses))

    def test_clients_are_views_of_one_array_that_every_step_writes(self):
        rng = np.random.default_rng(23)
        t, states, hp = tiny_problem(rng, 5, 2, p=1.0)
        array = states.models
        assert array.shape == (5, 2, SHAPE.param_count)
        assert all(np.shares_memory(s.models, array) for s in states)
        before = array.copy()
        local_update(states, RoundPlan(participants=(1, 3)), hp)
        trained = [(i, states[i].assignment) for i in (1, 3)]
        for i in range(5):
            for j in range(2):
                assert np.array_equal(array[i, j], before[i, j]) == ((i, j) not in trained)
        assert all(np.shares_memory(states[i].outbox[1], array) for i in (1, 3))
        for name in ("models", "assignment", "outbox", "data"):  # written only through the arrays
            with pytest.raises(AttributeError):
                setattr(states[1], name, None)
        for r, mode in enumerate(("server", "batch", "sequential")):
            before = array.copy()
            plan = RoundPlan(participants=(0, 2, 4), aggregation_mode=mode, round_seed=r, metropolis=True)
            run_round(states, None if mode == "server" else t, plan, hp)
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
        datasets = [random_dataset(np.random.default_rng(0))]
        for mode in ("xx", "GI"):
            with pytest.raises(ValueError, match="init mode must be 'gi' or 'li'"):
                initialize(k=1, mode=mode, model_shape=SHAPE, seed=0, datasets=datasets,
                           test_sets=datasets)


class TestAssignCluster:
    def test_picks_strict_argmin(self):
        rng = np.random.default_rng(4)
        states = make_states(rng, 1, 2)
        losses = [forward_loss(unflatten_params(SHAPE, v), states.data[0]) for v in states.models[0]]
        core._assign_clusters(states, [0])
        assert states.assignment[0] == np.argmin(losses)

    def test_tie_breaks_toward_lowest_index(self):
        rng = np.random.default_rng(5)
        states = make_states(rng, 1, 3)
        states.models[0, 2] = states.models[0, 0]  # exact tie between clusters 0 and 2
        core._assign_clusters(states, [0])
        losses = [forward_loss(unflatten_params(SHAPE, v), states.data[0]) for v in states.models[0]]
        assert losses[0] == losses[2]
        assert states.assignment[0] != 2  # the later twin never wins a tie
        if losses[0] <= losses[1]:
            assert states.assignment[0] == 0

    def test_non_finite_loss_excluded(self):
        rng = np.random.default_rng(6)
        states = make_states(rng, 1, 2)
        states.models[0, 0] = 1e300  # overflows to non-finite loss
        core._assign_clusters(states, [0])
        assert states.assignment[0] == 1

    def test_all_non_finite_keeps_previous(self, caplog):
        rng = np.random.default_rng(7)
        states = make_states(rng, 1, 2)
        states.assignment[0] = 1
        states.models[0] = 1e300
        with caplog.at_level("WARNING"):
            core._assign_clusters(states, [0])
        assert states.assignment[0] == 1
        assert "non-finite" in caplog.text

    def test_all_nan_models_keep_previous(self, caplog):
        rng = np.random.default_rng(8)
        states = make_states(rng, 1, 3)
        states.assignment[0] = 2
        states.models[0] = np.nan
        with caplog.at_level("WARNING"):
            core._assign_clusters(states, [0])
        assert states.assignment[0] == 2
        assert "non-finite" in caplog.text

    def test_batched_assignment_matches_per_client_loop(self, caplog):
        rng = np.random.default_rng(9)
        k, lengths = 3, [40] * 60  # several chunks of _CHUNK_ROWS rows
        assert model._CHUNK_ROWS // (k * 40) < len(lengths) // 3
        drawn = make_states(rng, len(lengths), k)
        data = [random_dataset(rng, n) for n in lengths]
        states = RunState(SHAPE, drawn.models, drawn.assignment, data, data)
        for i in (3, 20, 41):  # tied rows: every model equal, so cluster 0 wins
            states.models[i] = states.models[i, 1]
            states.assignment[i] = 2
        for i in (11, 37):
            states.models[i, 2] = states.models[i, 0]
        states.models[5, 1] = 1e300  # overflows: its loss is excluded
        states.models[50] = 1e300  # overflows and NaN: no finite loss, the assignment stays
        states.models[7] = np.nan
        states.assignment[[7, 50]] = 2, 1
        expected, warned = states.assignment.copy(), []
        for i in range(len(states)):
            j = reference_choice(reference_losses(states, i))
            if j is None:
                warned.append(f"client {i}")
            else:
                expected[i] = j
        caplog.clear()
        with caplog.at_level("WARNING"):
            core._assign_clusters(states, range(len(states)))
        assert states.assignment.tobytes() == expected.tobytes()
        assert states.assignment[[3, 20, 41, 7, 50]].tolist() == [0, 0, 0, 2, 1]
        assert not np.isfinite(reference_losses(states, 5)[1]) and states.assignment[5] != 1
        assert warned == ["client 7", "client 50"]
        assert [r.getMessage().split(":")[0] for r in caplog.records] == warned

    def test_losses_are_required(self):
        states = make_states(np.random.default_rng(10), 1, 2)
        with pytest.raises(TypeError):
            assign_cluster(states[0])

    @pytest.mark.parametrize("count", [1, 3])
    def test_losses_must_be_one_per_cluster(self, count):
        rng = np.random.default_rng(10)
        states = make_states(rng, 2, 2)
        before = states.assignment.copy()
        with pytest.raises(ValueError, match=f"client 1: {count} losses for 2 clusters"):
            assign_cluster(states[1], np.arange(count, 0, -1.0))
        np.testing.assert_array_equal(states.assignment, before)


class TestLocalUpdate:
    def test_only_assigned_model_changes(self):
        rng = np.random.default_rng(9)
        states = make_states(rng, 1, 2)
        states.assignment[0] = 0
        frozen = states.models[0, 1].copy()
        train(states, [0], gamma=0.1, tau=1, batch_size=4)
        assert np.array_equal(states.models[0, 1], frozen)
        assert states.sent[0] == 0

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_unselected_clusters_stay_bitwise_frozen(self, data):
        states = draw_states(data)
        n = len(states)
        rows = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        seed = data.draw(st.integers(0, 2**31))
        before = states.models.copy()
        train(states, rows, gamma=0.05, tau=data.draw(st.integers(1, 2)),
              batch_size=data.draw(st.integers(1, 5)), seed=seed)
        frozen = np.ones(states.models.shape[:2], dtype=bool)
        frozen[rows, states.assignment[rows]] = False
        assert states.models[frozen].tobytes() == before[frozen].tobytes()

    @pytest.mark.parametrize("rows, message", [
        ([-1], "participant -1 is not a client of this 4-client run"),
        ([4], "participant 4 is not a client of this 4-client run"),
        ([0, 0], "participant 0 is listed more than once"),
        ([2, 1, 2], "participant 2 is listed more than once"),
    ], ids=["negative", "past-the-end", "duplicate", "duplicate-later"])
    def test_rows_must_be_distinct_clients_of_the_run(self, rows, message):
        states = make_states(np.random.default_rng(27), 4, 2)
        frozen = states.models.copy()
        with pytest.raises(ValueError, match=message):
            train(states, rows, gamma=0.1, tau=1, batch_size=4)
        assert np.array_equal(states.models, frozen)
        assert (states.sent == -1).all()

    def test_a_clients_shuffle_does_not_depend_on_its_chunk(self, monkeypatch):
        rng = np.random.default_rng(28)
        drawn = make_states(rng, 6, 2)
        data = [random_dataset(rng, n=9) for i in range(6)]
        states = RunState(SHAPE, drawn.models, drawn.assignment, data, data)
        rows = [4, 0, 5, 2, 1]
        together = train(states.copy(), rows, 0.1, 2, 4, seed=3)
        monkeypatch.setattr(model, "_CHUNK_ROWS", 1)  # one client per stacked call
        alone = train(states.copy(), rows, 0.1, 2, 4, seed=3)
        assert together.models.tobytes() == alone.models.tobytes()
        assert not np.array_equal(together.models, states.models)

    def test_gamma_zero_leaves_parameters_unchanged(self):
        rng = np.random.default_rng(10)
        states = make_states(rng, 1, 2)
        j = states.assignment[0]
        frozen = states.models[0, j].copy()
        train(states, [0], gamma=0.0, tau=1, batch_size=4)
        assert np.array_equal(states.models[0, j], frozen)
        assert states.sent[0] == j

    def test_training_reduces_loss_in_most_seeds(self):
        rng = np.random.default_rng(11)
        improved = 0
        for seed in range(20):
            states = make_states(rng, 1, 2)
            j, d = states.assignment[0], states.data[0]
            before = forward_loss(unflatten_params(SHAPE, states.models[0, j]), d)
            train(states, [0], gamma=0.1, tau=2, batch_size=5, seed=seed)
            after = forward_loss(unflatten_params(SHAPE, states.models[0, j]), d)
            improved += after <= before
        assert improved >= 18  # descent in expectation, tiny batches may jitter

    def test_divergence_names_round_client_and_cluster(self):
        states = make_states(np.random.default_rng(30), 4, 2)
        plan = RoundPlan(participants=(2, 0), round_index=7)
        hp = Hyperparams(gamma=1e300, tau=1, batch_size=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning leaks from the trainer
            with pytest.raises(DivergenceError, match="round 7, client 2") as raised:
                local_update(states, plan, hp)
        assert raised.value.where == {"round": 7, "client": 2, "cluster": states.assignment[2]}


class TestAggregateBatch:
    def test_no_reporting_neighbors_leaves_model_untouched(self):
        states = scalar_states([[1.0], [2.0]], assignments=[0, 0])
        t = graph_from_edges(2, [])  # no edges at all
        stage_outboxes(states)
        before = states.models[:, 0].copy()
        aggregate_batch(states, t, RoundPlan((0, 1)))
        assert np.array_equal(states.models[:, 0], before)

    def test_complete_graph_single_cluster_uniform_mean(self):
        states = scalar_states([[0.0], [3.0], [6.0]])
        stage_outboxes(states)
        aggregate_batch(states, complete(3), RoundPlan((0, 1, 2)))
        assert states.models[:, 0, 0].tolist() == [3.0, 3.0, 3.0]

    def test_path_graph_neighbor_means(self):
        states = scalar_states([[0.0], [3.0], [6.0]])
        stage_outboxes(states)
        aggregate_batch(states, graph_from_edges(3, [(0, 1), (1, 2)]), RoundPlan((0, 1, 2)))
        assert states.models[:, 0, 0].tolist() == [1.5, 3.0, 4.5]

    def test_cluster_split_restricts_senders(self):
        states = scalar_states([[0.0, 10.0], [4.0, 20.0], [8.0, 30.0]], assignments=[0, 1, 0])
        stage_outboxes(states)
        aggregate_batch(states, complete(3), RoundPlan((0, 1, 2)))
        # client 0: cluster-0 senders {2}: (0+8)/2; cluster-1 senders {1}: (10+20)/2
        assert states.models[0, 0, 0] == 4.0
        assert states.models[0, 1, 0] == 15.0
        # client 1: cluster-0 senders {0, 2}: (4+0+8)/3; cluster 1: no senders
        assert states.models[1, 0, 0] == 4.0
        assert states.models[1, 1, 0] == 20.0

    def test_averaging_identical_vectors_is_bitwise_identity(self):
        value = np.random.default_rng(14).standard_normal(SHAPE.param_count)
        data = random_dataset(np.random.default_rng(0))
        states = RunState(SHAPE, np.tile(value, (3, 1, 1)), [0] * 3, [data] * 3, [data] * 3)
        stage_outboxes(states)
        aggregate_batch(states, complete(3), RoundPlan((0, 1, 2)))
        for i in range(len(states)):
            assert np.array_equal(states.models[i, 0], value)


class TestAggregateSequential:
    def test_single_neighbor_is_midpoint(self):
        states = scalar_states([[0.0], [2.0]])
        stage_outboxes(states)
        plan = RoundPlan(participants=(0, 1))
        aggregate_sequential(states, graph_from_edges(2, [(0, 1)]), plan)
        assert states.models[0, 0, 0] == 1.0

    def test_running_average_telescopes_to_batch_mean(self):
        # receiver 1 folds in 0 then 6 (3 -> 1.5 -> 3.0) or 6 then 0 (3 -> 4.5 -> 3.0)
        for round_seed in range(10):
            states = scalar_states([[0.0], [3.0], [6.0]])
            stage_outboxes(states)
            aggregate_sequential(states, complete(3), RoundPlan((0, 1, 2), round_seed=round_seed))
            assert states.models[1, 0, 0] == 3.0

    def test_each_order_of_three_senders_is_about_equally_likely(self, monkeypatch):
        """Receiver 0 of a star hears leaves 1-3 under 3,000 fixed round
        seeds; each of the 6 orders should arrive 500 times, and the bound
        is 5 binomial standard deviations (20.4 each)."""
        orders = []

        def record(states, rows, cols, senders, factors, norms=None):
            orders.append(tuple(senders[0].tolist()))

        monkeypatch.setattr(core, "_fold", record)
        states = scalar_states([[0.0], [1.0], [2.0], [3.0]])
        states.sent[1:] = 0
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        for seed in range(3000):
            aggregate_sequential(states, star, RoundPlan((1, 2, 3), round_seed=seed))
        counts = {order: orders.count(order) for order in set(orders)}
        assert sorted(counts) == sorted(itertools.permutations((1, 2, 3)))
        assert all(abs(c - 500) <= 102 for c in counts.values()), counts

    def test_one_stream_per_merge(self, monkeypatch):
        calls = []

        def counted(*parts):
            calls.append(parts)
            return spawn_rng(*parts)

        monkeypatch.setattr(core, "spawn_rng", counted)
        states = make_states(np.random.default_rng(33), 12, 3)
        stage_outboxes(states)
        aggregate_sequential(states, complete(12), RoundPlan(tuple(range(12)), round_seed=9))
        assert calls == [(9, "arrival")]


def fold_table(rng, n, k):
    """A slot table of two ``_fold`` passes, longest slot first: 1 slot with
    4 senders and 64 with 3, then 5 with 2 and 4 with 1.  Each pass has
    positions where every live factor is shared, one (position 1) where the
    last live slot's factor differs, and one with a single live slot.  The
    padding holds -1 and factor 0.0, as ``_slots`` writes it."""
    lengths = np.array([4] + [3] * 64 + [2] * 5 + [1] * 4)
    assert len(lengths) > core._FOLD_SLOTS
    slot = rng.choice(n * k, size=len(lengths), replace=False)
    rows, cols = slot // k, slot % k
    senders = np.full((len(lengths), 4), -1, dtype=np.intp)
    factors = np.zeros(senders.shape)
    for s, length in enumerate(lengths):
        senders[s, :length] = rng.choice(n, size=length, replace=False)
        factors[s, :length] = 1.0 / np.arange(2, length + 2)
    for start in range(0, len(lengths), core._FOLD_SLOTS):
        last = start + np.count_nonzero(lengths[start : start + core._FOLD_SLOTS] > 1) - 1
        factors[last, 1] = 0.3
    return rows, cols, senders, factors


def per_slot_fold(states, rows, cols, senders, factors, norms=None):
    """The models after merging one slot and one sender at a time, from the
    outboxes as they were before any write."""
    before, merged = states.models.copy(), states.models.copy()
    for s in range(len(rows)):
        value = before[rows[s], cols[s]].copy()
        acc = value if norms is None else np.zeros_like(value)
        for m, f in zip(senders[s], factors[s]):
            if m >= 0:
                acc += (before[m, states.sent[m]] - value) * f
        if norms is not None:
            value += acc / norms[s]
        merged[rows[s], cols[s]] = value
    return merged


@pytest.mark.parametrize("form", ["running", "equal-norms", "unequal-norms"])
def test_fold_scales_by_one_number_or_per_row_bitwise_like_a_per_slot_loop(form):
    """Positions whose live factors, or passes whose norms, are one number
    scale by that scalar; the others per row.  Both match the loop bitwise."""
    rng = np.random.default_rng(41)
    states = make_states(rng, 40, 3)
    states.sent[:] = rng.integers(0, 3, size=len(states))
    rows, cols, senders, factors = fold_table(rng, len(states), 3)
    norms = {"running": None, "equal-norms": np.ones(len(rows)),
             "unequal-norms": np.count_nonzero(senders >= 0, axis=1) + 1.0}[form]
    expected = per_slot_fold(states, rows, cols, senders, factors, norms)
    core._fold(states, rows, cols, senders, factors, norms)
    assert states.models.tobytes() == expected.tobytes()


@pytest.mark.parametrize("norms", [None, np.ones(0)], ids=["running", "batch"])
def test_fold_of_no_slots_leaves_the_models_bitwise_untouched(norms):
    states = make_states(np.random.default_rng(42), 4, 2)
    stage_outboxes(states)
    frozen = states.models.tobytes()
    empty = np.zeros(0, dtype=np.intp)
    core._fold(states, empty, empty, np.zeros((0, 0), dtype=np.intp), np.zeros((0, 0)), norms)
    assert states.models.tobytes() == frozen


@pytest.mark.parametrize("merge", [aggregate_batch, aggregate_sequential], ids=["batch", "sequential"])
@pytest.mark.parametrize("size", [4, 2], ids=["topology-4", "topology-2"])
def test_merges_reject_a_topology_or_matrix_of_another_size(merge, size):
    """The merges read their Metropolis weights from the topology too, so
    its size is the only one to check."""
    states = make_states(np.random.default_rng(25), 3, 2)
    stage_outboxes(states)
    frozen = states.models.copy()
    with pytest.raises(ValueError, match=f"the topology has {size} clients, the run has 3"):
        merge(states, complete(size), RoundPlan(participants=(0, 1, 2), metropolis=True))
    assert np.array_equal(states.models, frozen)


@pytest.mark.parametrize("models_shape", [(3, 2, 7), (3, 7), (3, 2, 5)])
def test_run_state_rejects_models_of_the_wrong_shape(models_shape):
    shape = ModelShape(2, 0, 2)  # 6 parameters
    data = [random_dataset(np.random.default_rng(0))] * 3
    with pytest.raises(ValueError, match=rf"models of shape \({', '.join(map(str, models_shape))},?\) "
                                         r"do not fit .*: need \(N, k >= 1, 6\)"):
        RunState(shape, np.zeros(models_shape), [0, 0, 0], data, data)


@pytest.mark.parametrize("cluster", [-1, 2])
def test_run_state_rejects_an_assignment_outside_its_clusters(cluster):
    data = [random_dataset(np.random.default_rng(0))] * 3
    with pytest.raises(ValueError, match=rf"client 1 is assigned cluster {cluster}, not an integer in \[0, 2\)"):
        RunState(SHAPE, np.zeros((3, 2, SHAPE.param_count)), [0, cluster, 5], data, data)


@pytest.mark.parametrize("assignment, client, shown", [
    ([1.7, 0.2, 0], 0, "1.7"), ([0.0, 1.0, 0.5], 2, "0.5"), ([0, 1, np.nan], 2, "nan"),
])
def test_run_state_rejects_an_assignment_that_is_not_an_integer(assignment, client, shown):
    data = [random_dataset(np.random.default_rng(0))] * 3
    with pytest.raises(ValueError, match=f"client {client} is assigned cluster {shown}, not an integer"):
        RunState(SHAPE, np.zeros((3, 2, SHAPE.param_count)), assignment, data, data)
    whole = RunState(SHAPE, np.zeros((3, 2, SHAPE.param_count)), [1.0, 0.0, 1.0], data, data)
    assert whole.assignment.tolist() == [1, 0, 1]


@pytest.mark.parametrize("build", ["run-state", "initialize"])
def test_splits_of_unequal_length_are_rejected_naming_the_first_client(build):
    rng = np.random.default_rng(35)
    data = [random_dataset(rng, n) for n in (6, 6, 7, 5)]
    tests = [random_dataset(rng, 3) for _ in data]
    message = "client 2 has 7 samples and client 0 has 6"
    with pytest.raises(ValueError, match=message):
        if build == "initialize":
            initialize(k=2, mode="gi", model_shape=SHAPE, seed=0, datasets=data, test_sets=tests)
        else:
            RunState(SHAPE, np.zeros((4, 2, SHAPE.param_count)), [0] * 4, data, tests)
    with pytest.raises(ValueError, match=message):
        initialize(k=2, mode="gi", model_shape=SHAPE, seed=0, datasets=tests, test_sets=data)


def test_the_run_holds_its_splits_as_two_stacks():
    rng = np.random.default_rng(36)
    data = [random_dataset(rng, 6, dist=i % 2) for i in range(4)]
    tests = [random_dataset(rng, 3, dist=i % 2) for i in range(4)]
    states = initialize(k=2, mode="li", model_shape=SHAPE, seed=1, datasets=data, test_sets=tests)
    assert states.data.features.shape == (4, 6, SHAPE.dim) and states.test_sets.labels.shape == (4, 3)
    assert states.data.distribution_id.tolist() == [0, 1, 0, 1]
    for i, (d, t) in enumerate(zip(data, tests)):
        assert states.data[i].features.tobytes() == d.features.tobytes()
        assert states.test_sets[i].labels.tolist() == t.labels.tolist()
    twin = initialize(k=2, mode="li", model_shape=SHAPE, seed=1, datasets=stack_datasets(data),
                      test_sets=stack_datasets(tests))
    assert twin.models.tobytes() == states.models.tobytes()


@pytest.mark.parametrize("mode", ["batch", "sequential", "server"])
def test_a_round_stacks_no_data(monkeypatch, mode):
    """The run's splits are stacked once; a round reads rows and slices of
    them."""
    rng = np.random.default_rng(37)
    t, states, hp = tiny_problem(rng, 6, 2, p=1.0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return stack(*args, **kwargs)

    stack = np.stack
    monkeypatch.setattr(np, "stack", counted)
    for r in range(2):
        plan = RoundPlan(participants=(0, 2, 3, 5), aggregation_mode=mode, round_seed=r, round_index=r)
        run_round(states, None if mode == "server" else t, plan, hp)
    assert calls == []


@pytest.mark.parametrize("n_tests", [2, 4])
def test_run_state_needs_one_test_split_per_client(n_tests):
    data = [random_dataset(np.random.default_rng(0))] * 3
    with pytest.raises(ValueError, match="need 3 assignments, 3 datasets and 3 test splits"):
        RunState(SHAPE, np.zeros((3, 2, SHAPE.param_count)), [0, 1, 0], data, data[:1] * n_tests)


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
            aggregate_batch(states, complete(3), plan)
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
        t = Topology(adj | adj.T)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = 10.0 ** data.draw(st.integers(-3, 3))
        datasets = [random_dataset(rng, n=2)] * n
        states = RunState(SHAPE, scale * rng.standard_normal((n, k, SHAPE.param_count)), [0] * n,
                          datasets, datasets)
        states.sent[:] = data.draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
        plan = RoundPlan(
            participants=tuple(sorted(data.draw(st.sets(st.integers(0, n - 1))))),
            round_seed=data.draw(st.integers(0, 100)),
            receive_restricted=data.draw(st.booleans()),
            metropolis=data.draw(st.booleans()),
        )
        before = states.models.copy()
        merge = aggregate_sequential if data.draw(st.booleans()) else aggregate_batch
        merge(states, t, plan)
        receivers = plan.participants if plan.receive_restricted else range(n)
        for i in range(n):
            for j in range(k):
                senders = [m for m in np.flatnonzero(t.adjacency[i]) if states.sent[m] == j]
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
    return ExperimentConfig(**base)


def tiny_problem(rng, n, k, init="gi", p=0.7, seed=0):
    t = complete(n) if p >= 1 else generate_erdos_renyi(n, p, seed)
    datasets = [random_dataset(rng, dist=i % 2) for i in range(n)]
    tests = [random_dataset(rng, n=5, dist=i % 2) for i in range(n)]
    states = initialize(k=k, mode=init, model_shape=SHAPE, seed=seed, datasets=datasets,
                        test_sets=tests)
    return t, states, Hyperparams(gamma=0.05, tau=1, batch_size=5)


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

    def test_a_plan_keeps_its_participants_as_a_tuple_of_ints(self):
        """Equal plans compare and hash equal whatever sequence their
        participants came in, and a list changed later does not reach them."""
        given = [3, 0, 2]
        from_list, from_array = RoundPlan(participants=given), RoundPlan(participants=np.array(given))
        given.append(1)
        assert from_list.participants == from_array.participants == (3, 0, 2)
        assert all(type(i) is int for i in from_array.participants)
        assert from_list == from_array and hash(from_list) == hash(from_array)
        with pytest.raises(TypeError):
            RoundPlan(participants=(0, 1.5))

    def test_a_plan_keeps_its_round_seed_and_index_as_ints(self):
        """A float seed or index is refused, not truncated to the stream of
        another round."""
        plan = RoundPlan((0, 1), round_seed=np.int64(2), round_index=np.int32(1))
        assert (plan.round_seed, plan.round_index) == (2, 1)
        assert type(plan.round_seed) is int and type(plan.round_index) is int
        with pytest.raises(TypeError):
            RoundPlan((0, 1), round_seed=2.5)
        with pytest.raises(TypeError):
            RoundPlan((0, 1), round_index=1.5)

    @pytest.mark.parametrize("mode", ["batch", "sequential", "server"])
    def test_only_a_server_round_runs_without_a_topology(self, mode):
        rng = np.random.default_rng(31)
        t, states, hp = tiny_problem(rng, 4, 2, p=1.0)
        frozen, assigned = states.models.copy(), states.assignment.copy()
        wrong, need = (t, "takes no topology") if mode == "server" else (None, "needs a topology")
        with pytest.raises(ValueError, match=f"a {mode} round {need}"):
            run_round(states, wrong, RoundPlan(participants=(0, 1, 2, 3), aggregation_mode=mode), hp)
        assert np.array_equal(states.models, frozen) and np.array_equal(states.assignment, assigned)

    def test_plans_and_hyperparams_cannot_be_changed_once_built(self):
        plan, hp = RoundPlan(participants=(0,)), Hyperparams(gamma=0.1, tau=1, batch_size=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.aggregation_mode = "bogus"
        with pytest.raises(dataclasses.FrozenInstanceError):
            hp.tau = 0
        with pytest.raises(ValueError, match="bogus"):
            dataclasses.replace(plan, aggregation_mode="bogus")
        assert (plan.aggregation_mode, hp.tau) == ("batch", 1)

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
        hp = dataclasses.replace(hp, gamma=0.0)
        frozen = states.models.copy()
        plan = RoundPlan(participants=tuple(range(5)), aggregation_mode="batch")
        run_round(states, t, plan, hp)
        assert np.array_equal(states.models, frozen)

    @pytest.mark.parametrize("gamma", [0.3, 0.0])
    def test_participants_train_like_per_client_sgd(self, gamma):
        rng = np.random.default_rng(20)
        drawn = make_states(rng, 9, 3)
        data = [random_dataset(rng, n=13, dist=i % 2) for i in range(9)]
        tests = [random_dataset(rng, n=5) for _ in data]
        states = RunState(SHAPE, drawn.models, drawn.assignment, data, tests)
        hp = Hyperparams(gamma=gamma, tau=2, batch_size=4)
        plan = RoundPlan(participants=(0, 2, 3, 6, 7), round_seed=21)
        expected = states.copy()
        # one key table from the round's stream, a row per participant in plan order
        keys = spawn_rng(21, "sgd").random((len(plan.participants), hp.tau, 13))
        for i, table in zip(plan.participants, keys):
            j = assign_cluster(expected[i], reference_losses(expected, i))
            if gamma:
                trained = sgd_epochs(unflatten_params(SHAPE, expected.models[i, j]), data[i],
                                     gamma, hp.tau, hp.batch_size, table)
                expected.models[i, j] = trained.values
            expected.sent[i] = j
        run_round(states, graph_from_edges(9, []), plan, hp)  # no edges: nothing merges
        np.testing.assert_array_equal(states.assignment, expected.assignment)
        assert states.models.tobytes() == expected.models.tobytes()
        np.testing.assert_array_equal(states.sent, expected.sent)

    @pytest.mark.parametrize("mode", ["batch", "sequential", "server"])
    def test_one_sgd_stream_per_round(self, monkeypatch, mode):
        streams, seeds = [], []

        def counted_rng(*parts):
            streams.append(parts)
            return spawn_rng(*parts)

        def counted_seed(*parts):
            seeds.append(parts)
            return derive_seed(*parts)

        rng = np.random.default_rng(29)
        t, states, hp = tiny_problem(rng, 6, 2, p=1.0)
        monkeypatch.setattr(core, "spawn_rng", counted_rng)
        monkeypatch.setattr(core, "derive_seed", counted_seed)
        for r in range(3):
            plan = RoundPlan(participants=(0, 1, 3, 5), aggregation_mode=mode, round_seed=40 + r)
            run_round(states, None if mode == "server" else t, plan, hp)
        assert [p for p in streams if "sgd" in p] == [(40, "sgd"), (41, "sgd"), (42, "sgd")]
        assert seeds == []

    def test_divergence_names_round_client_and_cluster(self):
        rng = np.random.default_rng(22)
        t, states, hp = tiny_problem(rng, 5, 2)
        hp = dataclasses.replace(hp, gamma=1e300)
        plan = RoundPlan(participants=(1, 3), round_index=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning leaks from the trainer
            with pytest.raises(DivergenceError, match="round 4, client 1") as raised:
                run_round(states, t, plan, hp)
        assert raised.value.where == {"round": 4, "client": 1, "cluster": states.assignment[1]}

    def test_non_finite_loss_names_round_and_cluster(self):
        rng = np.random.default_rng(24)
        t, states, hp = tiny_problem(rng, 4, 2)
        hp = dataclasses.replace(hp, gamma=0.0)  # the parameters stay finite, only the losses overflow
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
        before_sleeper = states.models[sleeper, 0].copy()
        run_round(states, t, plan, hp)
        assert not np.array_equal(states.models[sleeper, 0], before_sleeper)  # received
        assert states.sent[sleeper] == -1  # never sent

    def test_restricted_receiving_leaves_non_participants_untouched(self):
        rng = np.random.default_rng(19)
        t, states, hp = tiny_problem(rng, 4, 1, p=1.0)
        sleeper = 3
        plan = RoundPlan(participants=(0, 1, 2), aggregation_mode="batch",
                         receive_restricted=True)
        before = states.models[sleeper, 0].copy()
        run_round(states, t, plan, hp)
        assert np.array_equal(states.models[sleeper, 0], before)


    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_without_edges_non_participants_stay_bitwise_unchanged(self, data):
        states = draw_states(data)
        n = len(states)
        t = Topology(np.zeros((n, n), dtype=bool))
        plan = RoundPlan(
            participants=tuple(data.draw(st.lists(st.integers(0, n - 1), unique=True))),
            aggregation_mode=data.draw(st.sampled_from(["batch", "sequential"])),
            round_seed=data.draw(st.integers(0, 100)),
            receive_restricted=data.draw(st.booleans()),
            metropolis=data.draw(st.booleans()),
        )
        hp = Hyperparams(gamma=0.05, tau=data.draw(st.integers(1, 2)),
                         batch_size=data.draw(st.integers(1, 5)))
        before = states.models.copy()
        run_round(states, t, plan, hp)
        for i in set(range(n)) - set(plan.participants):
            assert states.models[i].tobytes() == before[i].tobytes()


def reference_round(states, t, plan, hp):
    """One round composed of the per-unit references in ``verify``, none of
    which calls the kernel it checks: each participant takes the lowest
    finite ``_per_client_loss`` (the lowest index on ties, its assignment
    kept if none is finite) and trains with ``_per_client_sgd`` on its row
    of the round's key table; the per-slot merge follows, then
    ``_per_client_metrics``, with the drift taken from its averages before
    and after the merge."""
    previous = states.assignment.copy()
    states.sent[:] = -1
    for i in plan.participants:
        j = reference_choice(reference_losses(states, i))
        if j is not None:
            states.assignment[i] = j
    n = len(states.data[0])
    keys = spawn_rng(plan.round_seed, "sgd").random((len(plan.participants), hp.tau, n))
    for i, table in zip(plan.participants, keys):
        j, d = states.assignment[i], states.data[i]
        states.models[i, j] = verify._per_client_sgd(states.shape, states.models[i, j], d, hp.gamma,
                                                     hp.tau, hp.batch_size, table)
        states.sent[i] = j
    before = verify._per_client_metrics(states)[2]
    merge = verify._per_slot_sequential if plan.aggregation_mode == "sequential" else verify._per_slot_batch
    merge(states, t, plan)
    f, acc, after, disp = verify._per_client_metrics(states)
    return metrics.RoundMetrics(
        round=plan.round_index, f_cluster=tuple(f), disp=tuple(disp),
        clustering_accuracy=metrics.clustering_accuracy(states), test_accuracy=acc,
        avg_drift=tuple(float(np.linalg.norm(a - b)) for a, b in zip(after, before)),
        assignments_changed=int(np.count_nonzero(states.assignment != previous)),
    )


@pytest.mark.parametrize("metropolis", [False, True], ids=["uniform", "metropolis"])
@pytest.mark.parametrize("mode", ["batch", "sequential"])
@pytest.mark.parametrize("participants, restricted, nan", [
    (tuple(range(10)), False, False), (tuple(range(10)), False, True),
    ((0, 1, 4, 5, 7), False, False), ((0, 1, 4, 5, 7), True, False),
], ids=["full", "full-nan-model", "partial", "partial-restricted"])
def test_round_equals_its_per_unit_references(participants, restricted, nan, mode, metropolis):
    """Three rounds of ``run_round`` against :func:`reference_round`,
    bitwise: models, assignments and trace rows.  Clients hold 11 train and
    4 test samples and start from scrambled assignments; with ``nan``,
    client 1 starts on a cluster whose model it holds as NaN."""
    rng = np.random.default_rng(32)
    n, k = 10, 3
    t = generate_erdos_renyi(n, 0.5, 3)
    data = [random_dataset(rng, n=11, dist=i % 2) for i in range(n)]
    tests = [random_dataset(rng, n=4, dist=i % 2) for i in range(n)]
    states = initialize(k=k, mode="li", model_shape=SHAPE, seed=4, datasets=data, test_sets=tests)
    states.assignment[:] = rng.integers(0, k, size=n)
    if nan:
        states.models[1, states.assignment[1]] = np.nan
    expected = states.copy()
    hp = Hyperparams(gamma=0.1, tau=2, batch_size=4)
    for r in range(3):
        plan = RoundPlan(participants, aggregation_mode=mode, round_seed=50 + r, round_index=r,
                         receive_restricted=restricted, metropolis=metropolis)
        want = reference_round(expected, t, plan, hp)
        _, got = run_round(states, t, plan, hp)
        assert states.models.tobytes() == expected.models.tobytes()
        np.testing.assert_array_equal(states.assignment, expected.assignment)
        assert metrics.trace_row(got) == metrics.trace_row(want)
        assert r > 0 or got.assignments_changed > 0


class TestRunExperiment:
    def test_zero_rounds_gives_empty_trace(self):
        assert run_one_seed(desk_config(T=0), 0).trace == []

    def test_sequential_and_batch_agree_at_round_level(self):
        seq = run_one_seed(desk_config(aggregation_mode="sequential"), 0).trace
        bat = run_one_seed(desk_config(aggregation_mode="batch"), 0).trace
        for ms, mb in zip(seq, bat):
            assert ms.f_global == pytest.approx(mb.f_global, rel=1e-6)

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="gamma"):
            desk_config(gamma=-1.0)

    def test_a_config_cannot_be_changed_after_it_is_built(self):
        cfg = desk_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.gamma = -1.0
        with pytest.raises(ConfigError, match="gamma"):
            cfg.replace(gamma=-1.0)
        assert cfg.replace(gamma=0.5).gamma == 0.5 and cfg.gamma == 0.1

    def test_no_result_depends_on_builtin_sum(self, monkeypatch):
        """Builtin sum() compensates float rounding from Python 3.12 on; as
        math.fsum, which always does, it changes neither a trace nor the
        merge oracle's verdict."""
        cfg = desk_config(k=4, tau=1, data_samples_per_client=20, T=20)
        want = [metrics.trace_row(m) for m in run_one_seed(cfg, 0).trace]
        for module in (core, metrics, verify):
            monkeypatch.setattr(module, "sum", math.fsum, raising=False)
        assert verify.check_merges_match_per_slot()[0]
        assert [metrics.trace_row(m) for m in run_one_seed(cfg, 0).trace] == want

    def test_metropolis_runs_merge_with_their_graphs_matrix(self, monkeypatch):
        """``mixing_kind`` reaches the merges through the plan: a Metropolis
        run builds its graph's matrix once, a uniform run none, and the
        traces differ."""
        built = []

        def counted(t):
            built.append(t)
            return build_mixing_matrix(t)

        monkeypatch.setattr(topology, "build_mixing_matrix", counted)
        uniform = run_one_seed(desk_config(mixing_kind="paper-uniform"), 0).trace
        assert built == []
        metropolis = run_one_seed(desk_config(mixing_kind="metropolis"), 0).trace
        assert len(built) == 1 and "metropolis" in vars(built[0])
        assert [metrics.trace_row(m) for m in metropolis] != [metrics.trace_row(m) for m in uniform]

    def test_disconnected_abort_policy(self):
        cfg = desk_config(topology_p=0.0, on_disconnected="abort")
        with pytest.raises(DisconnectedGraphError):
            run_one_seed(cfg, 0)

    def test_partial_participation_runs(self):
        trace = run_one_seed(desk_config(participation_fraction=0.5, T=3), 0).trace
        assert len(trace) == 3

    def test_only_the_seed_argument_picks_the_streams(self):
        """The graph, data, initial models, participants and rounds all
        derive from the argument."""
        cfg = desk_config(participation_fraction=0.5, init_mode="li", T=3)
        want = [metrics.trace_row(m) for m in run_one_seed(cfg, 3).trace]
        assert [metrics.trace_row(m) for m in run_one_seed(cfg, 7).trace] != want
