import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfca import verify
from dfca.core import RunState
from dfca.datagen import Dataset, SyntheticSpec, generate_rotated_synthetic
from dfca.metrics import (
    RoundMetrics,
    cluster_average,
    clustering_accuracy,
    dispersion,
    f_cluster,
    trace_columns,
)
from dfca.metrics import test_accuracy as sample_weighted_accuracy
from dfca.model import ModelShape, forward_loss, unflatten_params

SHAPE = ModelShape(dim=2, hidden=0, n_classes=2)


def dataset(features, labels, dist=0):
    return Dataset(features=np.asarray(features, float), labels=np.asarray(labels), distribution_id=dist)


def one_model_states(models, datasets, shape=SHAPE):
    """Clients holding one model each, all assigned to it, with ``datasets``
    as both their train and their test splits."""
    models = np.array(models, dtype=float)[:, None]
    return RunState(shape, models, [0] * len(models), datasets, datasets)


def labelled_states(assignment, truth):
    """Clients assigned ``assignment`` whose data comes from distribution
    ``truth[i]``, the true cluster that ``clustering_accuracy`` reads."""
    assignment = np.asarray(assignment)
    data = [dataset([[0.0, 0.0]], [0], int(label)) for label in truth]
    models = np.zeros((len(data), int(assignment.max()) + 1, SHAPE.param_count))
    return RunState(SHAPE, models, assignment, data, data)


def simple_data(rng, n=6, dist=0):
    return dataset(rng.standard_normal((n, 2)), rng.integers(0, 2, size=n), dist)


def random_states(rng, n, k):
    return verify.random_states(rng, n, k, SHAPE, n_samples=6)


class TestClusterLoss:
    def test_empty_cluster_sums_to_zero(self):
        rng = np.random.default_rng(0)
        states = random_states(rng, 3, 2)
        states.assignment[:] = 0
        assert f_cluster(states)[1] == 0.0

    def test_singleton_cluster_is_that_clients_loss(self):
        rng = np.random.default_rng(1)
        states = random_states(rng, 1, 2)
        j = states.assignment[0]
        expected = forward_loss(unflatten_params(SHAPE, states.models[0, j]), states.data[0])
        assert f_cluster(states)[j] == pytest.approx(expected, rel=1e-15)

    def test_additivity_over_clients(self):
        rng = np.random.default_rng(2)
        states = random_states(rng, 4, 2)
        states.assignment[:] = 1
        total = sum(
            forward_loss(unflatten_params(SHAPE, v), d) for v, d in zip(states.models[:, 1], states.data)
        )
        assert f_cluster(states)[1] == pytest.approx(total, rel=1e-12)

    def test_nan_parameters_give_nan_not_an_error(self):
        rng = np.random.default_rng(11)
        states = random_states(rng, 3, 2)
        states.assignment[1] = 1
        states.models[1, 1] = np.nan
        assert np.isnan(f_cluster(states)[1])


@pytest.mark.parametrize("k", [1, 3])
def test_cluster_metrics_answer_for_every_cluster(k):
    """One call gives all k values: a cluster's loss is its clients' losses
    added in client order, its average and dispersion those of its copies
    alone."""
    states = random_states(np.random.default_rng(12), 7, k)
    losses, averages, disps = f_cluster(states), cluster_average(states), dispersion(states)
    assert len(losses) == len(disps) == k and averages.shape == (k, SHAPE.param_count)
    for j in range(k):
        total = 0.0
        for i in np.flatnonzero(states.assignment == j):
            total += forward_loss(unflatten_params(SHAPE, states.models[i, j]), states.data[i])
        assert losses[j] == total
        alone = one_model_states(states.models[:, j], states.data)
        assert averages[j].tobytes() == cluster_average(alone)[0].tobytes()
        assert disps[j] == dispersion(alone)[0]


class TestDispersion:
    def test_identical_copies_give_exact_zero(self):
        rng = np.random.default_rng(4)
        value = rng.standard_normal(SHAPE.param_count)
        states = one_model_states([value] * 5, [simple_data(rng) for _ in range(5)])
        assert dispersion(states) == (0.0,)

    def test_two_scalar_copies(self):
        rng = np.random.default_rng(5)
        models = np.zeros((2, SHAPE.param_count))
        models[1, 0] = 2.0  # the copies differ in one parameter
        states = one_model_states(models, [simple_data(rng), simple_data(rng)])
        assert dispersion(states) == (1.0,)
        assert cluster_average(states)[0, 0] == 1.0

    @given(seed=st.integers(0, 99), shift=st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariant(self, seed, shift):
        rng = np.random.default_rng(seed)
        states = random_states(rng, 4, 1)
        before = dispersion(states)[0]
        states.models[:, 0] += shift
        assert dispersion(states)[0] == pytest.approx(before, rel=1e-9, abs=1e-9)


class TestClusteringAccuracy:
    def test_exact_match_scores_one(self):
        rng = np.random.default_rng(6)
        states = random_states(rng, 6, 2)
        assert clustering_accuracy(labelled_states(states.assignment, states.assignment)) == 1.0

    def test_relabeling_is_free(self):
        rng = np.random.default_rng(7)
        states = random_states(rng, 6, 2)
        assert clustering_accuracy(labelled_states(states.assignment, 1 - states.assignment)) == 1.0

    def test_three_of_four_under_best_permutation(self):
        assert clustering_accuracy(labelled_states((0, 0, 1, 1), [0, 0, 1, 0])) == 0.75

    @given(seed=st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_any_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        states = random_states(rng, 8, 3)
        truth = list(rng.integers(0, 3, size=8))
        base = clustering_accuracy(labelled_states(states.assignment, truth))
        relabel = rng.permutation(3)
        assert clustering_accuracy(labelled_states(relabel[states.assignment], truth)) == base

    def test_single_model_against_two_way_truth_scores_majority(self):
        assert clustering_accuracy(labelled_states([0] * 4, [0, 0, 0, 1])) == 0.75

    def test_truth_labels_need_not_start_at_zero(self):
        assert clustering_accuracy(labelled_states([0] * 4, [-1] * 4)) == 1.0
        assert clustering_accuracy(labelled_states([0] * 4, [-1, -1, 7, -1])) == 0.75

    def test_a_large_truth_label_costs_no_search(self):
        for label in (8, 11, 10**9):
            states = labelled_states((0, 0, 1, 1, 1, 0), [label, label, 3, 3, 3, 3])
            assert clustering_accuracy(states) == 5 / 6

    def test_the_truth_is_each_clients_distribution_id(self):
        states = random_states(np.random.default_rng(14), 6, 2)  # client i: distribution i % 2
        states.assignment[:] = (1, 0, 1, 0, 1, 0)
        assert clustering_accuracy(states) == 1.0
        states.assignment[:] = (1, 1, 1, 0, 0, 0)
        assert clustering_accuracy(states) == 4 / 6

    @given(seed=st.integers(0, 99), n=st.integers(1, 9), k=st.integers(1, 4),
           labels=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_best_permutation_of_every_label(self, seed, n, k, labels):
        """Against an exhaustive search over permutations of every label
        below ``max(k, labels)``, the float of ``np.mean`` over hits."""
        rng = np.random.default_rng(seed)
        states = random_states(rng, n, k)
        truth = rng.integers(0, labels, size=n)
        best = max(float(np.mean(np.array(p)[states.assignment] == truth))
                   for p in itertools.permutations(range(max(k, labels))))
        assert clustering_accuracy(labelled_states(states.assignment, truth)) == best


    def test_narrowed_search_equals_the_exhaustive_one(self):
        """3,000 seeded cases, the label sets often of different sizes."""
        rng = np.random.default_rng(12)
        for _ in range(3000):
            n, k, labels = int(rng.integers(1, 13)), int(rng.integers(1, 5)), int(rng.integers(1, 9))
            assignment, truth = rng.integers(0, k, size=n), rng.integers(0, labels, size=n)
            states = labelled_states(assignment, truth)
            assert clustering_accuracy(states) == exhaustive_clustering_accuracy(assignment, truth)

    def test_a_truth_label_per_client_searches_few_columns(self):
        """200 truth labels against 4 clusters: an exhaustive search would
        score about 1.6e9 maps."""
        assert clustering_accuracy(labelled_states(np.arange(200) % 4, range(200))) == 0.02


def exhaustive_clustering_accuracy(assignment, truth):
    """Every injective map of the smaller label set into the larger, each
    scored by the clients whose mapped label matches."""
    pairs = list(zip(assignment.tolist(), truth.tolist()))
    if len(set(assignment.tolist())) > len(set(truth.tolist())):
        pairs = [(b, a) for a, b in pairs]
    small, large = sorted({a for a, _ in pairs}), sorted({b for _, b in pairs})
    best = 0
    for image in itertools.permutations(large, len(small)):
        label = dict(zip(small, image))
        best = max(best, sum(label[a] == b for a, b in pairs))
    return best / len(pairs)


class TestTestAccuracy:
    def test_perfect_classifier(self):
        # w2 row 1 fires on positive x-coordinate
        # w2 = [[-5, 0], [5, 0]], b2 = 0
        m = unflatten_params(SHAPE, np.array([-5.0, 0.0, 5.0, 0.0, 0.0, 0.0]))
        vec = m.values
        data = dataset([[1.0, 0.0], [-1.0, 0.0]], [1, 0])
        states = one_model_states([vec], [data])
        assert sample_weighted_accuracy(states) == 1.0

    def test_sample_weighted_mean(self):
        """Test splits of one length weigh every client alike; splits of
        unequal length, whose weights would differ, are rejected."""
        # w2 = [[-5, 0], [5, 0]], b2 = 0
        perfect = unflatten_params(SHAPE, np.array([-5.0, 0.0, 5.0, 0.0, 0.0, 0.0])).values
        zero = np.zeros(SHAPE.param_count)
        test_a = dataset([[1.0, 0.0]] * 10, [1] * 10)  # perfect model: 10/10
        test_b = dataset([[1.0, 0.0]] * 8 + [[-1.0, 0.0]] * 2, [0] * 8 + [1] * 2)
        # zero model predicts class 0 everywhere: 8/10
        states = one_model_states([perfect, zero], [test_a, test_b])
        assert sample_weighted_accuracy(states) == 0.9
        test_b = dataset([[1.0, 0.0]] * 15 + [[-1.0, 0.0]] * 15, [0] * 15 + [1] * 15)
        with pytest.raises(ValueError, match="client 1 has 30 samples and client 0 has 10"):
            one_model_states([perfect, zero], [test_a, test_b])

    def test_zero_model_near_chance_on_default_spec(self):
        spec = SyntheticSpec()
        rng = np.random.default_rng(10)
        shape = ModelShape(dim=spec.dim, hidden=0, n_classes=spec.n_classes)
        tests = [generate_rotated_synthetic(spec, k=2, client_cluster=i % 2, seed=i) for i in range(5)]
        states = one_model_states(np.zeros((5, shape.param_count)), tests, shape)
        acc = sample_weighted_accuracy(states)
        assert acc <= 1.0 / spec.n_classes + 0.1


def round_metrics(f_cluster, clustering_accuracy=1.0):
    zeros = (0.0,) * len(f_cluster)
    return RoundMetrics(round=0, f_cluster=f_cluster, disp=zeros,
                        clustering_accuracy=clustering_accuracy, test_accuracy=1.0,
                        avg_drift=zeros, assignments_changed=0)


class TestRoundMetricsType:
    def test_rejects_out_of_range_accuracy(self):
        with pytest.raises(ValueError):
            round_metrics((1.0, 1.0), clustering_accuracy=1.5)

    def test_f_global_adds_the_cluster_losses_left_to_right(self):
        # A compensated sum (builtin sum() from Python 3.12 on, math.fsum)
        # gives 1.0000000000000002e16; each 1.0 added alone is lost to rounding.
        assert round_metrics((1e16, 1.0, 1.0)).f_global == 1e16

    def test_trace_columns_exact_layout(self):
        assert trace_columns(2) == [
            "round", "f_global", "f_cluster_0", "f_cluster_1", "disp_0", "disp_1",
            "clustering_acc", "test_acc", "avg_drift_0", "avg_drift_1", "assignments_changed",
        ]
