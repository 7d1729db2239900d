import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfca import verify
from dfca.core import RunState
from dfca.datagen import Dataset, SyntheticSpec, generate_rotated_synthetic
from dfca.metrics import (
    RoundMetrics,
    client_mean_test_accuracy,
    cluster_average,
    clustering_accuracy,
    dispersion,
    f_cluster,
    f_global,
    trace_columns,
)
from dfca.metrics import test_accuracy as sample_weighted_accuracy
from dfca.model import ModelShape, flatten_params, forward_loss, unflatten_params

SHAPE = ModelShape(dim=2, hidden=0, n_classes=2)


def dataset(features, labels, dist=0):
    return Dataset(features=np.asarray(features, float), labels=np.asarray(labels), distribution_id=dist)


def one_model_states(models, datasets, shape=SHAPE):
    """Clients holding one model each, all assigned to it."""
    return RunState(shape, np.array(models, dtype=float)[:, None], [0] * len(models), datasets)


def simple_data(rng, n=6, dist=0):
    return dataset(rng.standard_normal((n, 2)), rng.integers(0, 2, size=n), dist)


def random_states(rng, n, k):
    return verify.random_states(rng, n, k, SHAPE, n_samples=6)


class TestClusterLoss:
    def test_empty_cluster_sums_to_zero(self):
        rng = np.random.default_rng(0)
        states = random_states(rng, 3, 2)
        states.assignment[:] = 0
        assert f_cluster(states, 1) == 0.0

    def test_singleton_cluster_is_that_clients_loss(self):
        rng = np.random.default_rng(1)
        states = random_states(rng, 1, 2)
        s = states[0]
        expected = forward_loss(unflatten_params(SHAPE, s.models[s.assignment]), states.data[0])
        assert f_cluster(states, s.assignment) == pytest.approx(expected, rel=1e-15)

    def test_additivity_over_clients(self):
        rng = np.random.default_rng(2)
        states = random_states(rng, 4, 2)
        states.assignment[:] = 1
        total = sum(
            forward_loss(unflatten_params(SHAPE, s.models[1]), d) for s, d in zip(states, states.data)
        )
        assert f_cluster(states, 1) == pytest.approx(total, rel=1e-12)

    def test_nan_parameters_give_nan_not_an_error(self):
        rng = np.random.default_rng(11)
        states = random_states(rng, 3, 2)
        states.assignment[1] = 1
        states[1].models[1] = np.full(SHAPE.param_count, np.nan)
        assert np.isnan(f_cluster(states, 1))

    def test_global_loss_decomposes_over_clusters(self):
        rng = np.random.default_rng(3)
        states = random_states(rng, 6, 3)
        assert f_global(states) == pytest.approx(
            sum(f_cluster(states, j) for j in range(3)), abs=1e-9
        )


class TestDispersion:
    def test_identical_copies_give_exact_zero(self):
        rng = np.random.default_rng(4)
        value = rng.standard_normal(SHAPE.param_count)
        states = one_model_states([value] * 5, [simple_data(rng) for _ in range(5)])
        assert dispersion(states, 0) == 0.0

    def test_two_scalar_copies(self):
        rng = np.random.default_rng(5)
        states = one_model_states([[0.0], [2.0]], [simple_data(rng), simple_data(rng)])
        assert dispersion(states, 0) == 1.0
        assert cluster_average(states, 0)[0] == 1.0

    @given(seed=st.integers(0, 99), shift=st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariant(self, seed, shift):
        rng = np.random.default_rng(seed)
        states = random_states(rng, 4, 1)
        before = dispersion(states, 0)
        for s in states:
            s.models[0] = s.models[0] + shift
        assert dispersion(states, 0) == pytest.approx(before, rel=1e-9, abs=1e-9)


class TestClusteringAccuracy:
    def test_exact_match_scores_one(self):
        rng = np.random.default_rng(6)
        states = random_states(rng, 6, 2)
        truth = [s.assignment for s in states]
        assert clustering_accuracy(states, truth) == 1.0

    def test_relabeling_is_free(self):
        rng = np.random.default_rng(7)
        states = random_states(rng, 6, 2)
        truth = [1 - s.assignment for s in states]
        assert clustering_accuracy(states, truth) == 1.0

    def test_three_of_four_under_best_permutation(self):
        rng = np.random.default_rng(8)
        states = random_states(rng, 4, 2)
        states.assignment[:] = (0, 0, 1, 1)
        assert clustering_accuracy(states, [0, 0, 1, 0]) == 0.75

    @given(seed=st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_any_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        states = random_states(rng, 8, 3)
        truth = list(rng.integers(0, 3, size=8))
        base = clustering_accuracy(states, truth)
        relabel = rng.permutation(3)
        states.assignment[:] = relabel[states.assignment]
        assert clustering_accuracy(states, truth) == base

    def test_single_model_against_two_way_truth_scores_majority(self):
        rng = np.random.default_rng(9)
        states = random_states(rng, 4, 1)
        states.assignment[:] = 0
        assert clustering_accuracy(states, [0, 0, 0, 1]) == 0.75


class TestTestAccuracy:
    def test_perfect_classifier(self):
        # w2 row 1 fires on positive x-coordinate
        # w2 = [[-5, 0], [5, 0]], b2 = 0
        m = unflatten_params(SHAPE, np.array([-5.0, 0.0, 5.0, 0.0, 0.0, 0.0]))
        vec = flatten_params(m)
        data = dataset([[1.0, 0.0], [-1.0, 0.0]], [1, 0])
        states = one_model_states([vec], [data])
        assert sample_weighted_accuracy(states, [data]) == 1.0

    def test_sample_weighted_mean(self):
        # w2 = [[-5, 0], [5, 0]], b2 = 0
        perfect = flatten_params(unflatten_params(SHAPE, np.array([-5.0, 0.0, 5.0, 0.0, 0.0, 0.0])))
        zero = np.zeros(SHAPE.param_count)
        test_a = dataset([[1.0, 0.0]] * 10, [1] * 10)  # perfect model: 10/10
        test_b = dataset([[1.0, 0.0]] * 15 + [[-1.0, 0.0]] * 15, [0] * 15 + [1] * 15)
        # zero model predicts class 0 everywhere: 15/30
        states = one_model_states([perfect, zero], [test_a, test_b])
        assert sample_weighted_accuracy(states, [test_a, test_b]) == pytest.approx(0.625)
        assert client_mean_test_accuracy(states, [test_a, test_b]) == pytest.approx(0.75)

    def test_zero_model_near_chance_on_default_spec(self):
        spec = SyntheticSpec()
        rng = np.random.default_rng(10)
        shape = ModelShape(dim=spec.dim, hidden=0, n_classes=spec.n_classes)
        tests = [generate_rotated_synthetic(spec, k=2, client_cluster=i % 2, seed=i) for i in range(5)]
        states = one_model_states(np.zeros((5, shape.param_count)), tests, shape)
        acc = sample_weighted_accuracy(states, tests)
        assert acc <= 1.0 / spec.n_classes + 0.1


class TestRoundMetricsType:
    def test_rejects_broken_decomposition(self):
        with pytest.raises(ValueError):
            RoundMetrics(round=0, f_global=5.0, f_cluster=(1.0, 1.0), disp=(0.0, 0.0),
                         clustering_accuracy=1.0, test_accuracy=1.0, avg_drift=(0.0, 0.0),
                         assignments_changed=0)

    def test_rejects_out_of_range_accuracy(self):
        with pytest.raises(ValueError):
            RoundMetrics(round=0, f_global=2.0, f_cluster=(1.0, 1.0), disp=(0.0, 0.0),
                         clustering_accuracy=1.5, test_accuracy=1.0, avg_drift=(0.0, 0.0),
                         assignments_changed=0)

    def test_trace_columns_exact_layout(self):
        assert trace_columns(2) == [
            "round", "f_global", "f_cluster_0", "f_cluster_1", "disp_0", "disp_1",
            "clustering_acc", "test_acc", "avg_drift_0", "avg_drift_1", "assignments_changed",
        ]
