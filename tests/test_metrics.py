import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfca import verify
from dfca.core import ClientState
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
from dfca.model import MlpModel, ModelShape, flatten_params, forward_loss, unflatten_params

SHAPE = ModelShape(dim=2, hidden=0, n_classes=2)


def dataset(features, labels, dist=0):
    return Dataset(features=np.asarray(features, float), labels=np.asarray(labels), distribution_id=dist)


def state(client_id, models, assignment, data):
    return ClientState(client_id=client_id, shape=SHAPE, models=models, assignment=assignment, data=data)


def simple_data(rng, n=6, dist=0):
    return dataset(rng.standard_normal((n, 2)), rng.integers(0, 2, size=n), dist)


def random_states(rng, n, k):
    return verify.random_states(rng, n, k, SHAPE, n_samples=6)


class TestClusterLoss:
    def test_empty_cluster_sums_to_zero(self):
        rng = np.random.default_rng(0)
        states = random_states(rng, 3, 2)
        for s in states:
            s.assignment = 0
        assert f_cluster(states, 1) == 0.0

    def test_singleton_cluster_is_that_clients_loss(self):
        rng = np.random.default_rng(1)
        states = random_states(rng, 1, 2)
        s = states[0]
        expected = forward_loss(unflatten_params(SHAPE, s.models[s.assignment]), s.data)
        assert f_cluster(states, s.assignment) == pytest.approx(expected, rel=1e-15)

    def test_additivity_over_clients(self):
        rng = np.random.default_rng(2)
        states = random_states(rng, 4, 2)
        for s in states:
            s.assignment = 1
        total = sum(
            forward_loss(unflatten_params(SHAPE, s.models[1]), s.data) for s in states
        )
        assert f_cluster(states, 1) == pytest.approx(total, rel=1e-12)

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
        states = [state(i, [value.copy()], 0, simple_data(rng)) for i in range(5)]
        assert dispersion(states, 0) == 0.0

    def test_two_scalar_copies(self):
        rng = np.random.default_rng(5)
        states = [
            state(0, [np.array([0.0])], 0, simple_data(rng)),
            state(1, [np.array([2.0])], 0, simple_data(rng)),
        ]
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
        for s, a in zip(states, (0, 0, 1, 1)):
            s.assignment = a
        assert clustering_accuracy(states, [0, 0, 1, 0]) == 0.75

    @given(seed=st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_any_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        states = random_states(rng, 8, 3)
        truth = list(rng.integers(0, 3, size=8))
        base = clustering_accuracy(states, truth)
        relabel = rng.permutation(3)
        for s in states:
            s.assignment = int(relabel[s.assignment])
        assert clustering_accuracy(states, truth) == base

    def test_single_model_against_two_way_truth_scores_majority(self):
        rng = np.random.default_rng(9)
        states = random_states(rng, 4, 1)
        for s in states:
            s.assignment = 0
        assert clustering_accuracy(states, [0, 0, 0, 1]) == 0.75


class TestTestAccuracy:
    def test_perfect_classifier(self):
        # w2 row 1 fires on positive x-coordinate
        m = MlpModel(w1=None, b1=None, w2=np.array([[-5.0, 0.0], [5.0, 0.0]]), b2=np.zeros(2))
        vec = flatten_params(m)
        data = dataset([[1.0, 0.0], [-1.0, 0.0]], [1, 0])
        states = [state(0, [vec], 0, data)]
        assert sample_weighted_accuracy(states, [data]) == 1.0

    def test_sample_weighted_mean(self):
        perfect = flatten_params(
            MlpModel(w1=None, b1=None, w2=np.array([[-5.0, 0.0], [5.0, 0.0]]), b2=np.zeros(2))
        )
        zero = np.zeros(SHAPE.param_count)
        test_a = dataset([[1.0, 0.0]] * 10, [1] * 10)  # perfect model: 10/10
        test_b = dataset([[1.0, 0.0]] * 15 + [[-1.0, 0.0]] * 15, [0] * 15 + [1] * 15)
        # zero model predicts class 0 everywhere: 15/30
        states = [state(0, [perfect], 0, test_a), state(1, [zero], 0, test_b)]
        assert sample_weighted_accuracy(states, [test_a, test_b]) == pytest.approx(0.625)
        assert client_mean_test_accuracy(states, [test_a, test_b]) == pytest.approx(0.75)

    def test_zero_model_near_chance_on_default_spec(self):
        spec = SyntheticSpec()
        rng = np.random.default_rng(10)
        states, tests = [], []
        shape = ModelShape(dim=spec.dim, hidden=0, n_classes=spec.n_classes)
        for i in range(5):
            d = generate_rotated_synthetic(spec, k=2, client_cluster=i % 2, seed=i)
            states.append(ClientState(client_id=i, shape=shape,
                                      models=[np.zeros(shape.param_count)], assignment=0, data=d))
            tests.append(d)
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
