import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfca.datagen import Dataset
from dfca.model import (
    MlpModel,
    ModelShape,
    flatten_params,
    forward_loss,
    gradient,
    init_model,
    params_from_bytes,
    params_to_bytes,
    predict,
    sgd_epochs,
    unflatten_params,
)
from dfca.verify import fd_gradient, random_dataset


def dataset(features, labels, dist=0):
    return Dataset(features=np.asarray(features, dtype=float), labels=np.asarray(labels), distribution_id=dist)


def zero_model(shape):
    return unflatten_params(shape, np.zeros(shape.param_count))


class TestForwardLoss:
    def test_zero_parameters_give_uniform_softmax(self):
        shape = ModelShape(dim=3, hidden=4, n_classes=4)
        data = random_dataset(np.random.default_rng(0), 20, 3, 4)
        assert forward_loss(zero_model(shape), data) == pytest.approx(math.log(4), abs=1e-12)

    def test_confident_true_logit_drives_loss_to_zero(self):
        # logit 20 on the true class, 0 elsewhere, C=4
        shape = ModelShape(dim=1, hidden=0, n_classes=4)
        m = MlpModel(w1=None, b1=None, w2=np.zeros((4, 1)), b2=np.array([20.0, 0.0, 0.0, 0.0]))
        data = dataset([[0.0]], [0])
        assert forward_loss(m, data) < 1e-8

    def test_matches_hand_computed_cross_entropy(self):
        # d=2, C=2, x=[1,2], label 0: logits [0.1, 0.3],
        # loss = log(e^0.1 + e^0.3) - 0.1 = 0.798138869381592
        m = MlpModel(
            w1=None,
            b1=None,
            w2=np.array([[0.5, -0.25], [-1.0, 0.75]]),
            b2=np.array([0.1, -0.2]),
        )
        data = dataset([[1.0, 2.0]], [0])
        assert forward_loss(m, data) == pytest.approx(0.798138869381592, abs=1e-12)

    def test_permutation_invariant_over_sample_order(self):
        rng = np.random.default_rng(1)
        shape = ModelShape(dim=4, hidden=3, n_classes=3)
        m = init_model(shape, seed=0)
        data = random_dataset(rng, 15, 4, 3)
        perm = rng.permutation(15)
        shuffled = dataset(data.features[perm], data.labels[perm])
        assert forward_loss(m, data) == pytest.approx(forward_loss(m, shuffled), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        m = init_model(ModelShape(dim=4, hidden=0, n_classes=3), seed=0)
        with pytest.raises(ValueError):
            forward_loss(m, random_dataset(np.random.default_rng(0), 5, 3, 3))

    def test_label_out_of_range_rejected(self):
        m = init_model(ModelShape(dim=2, hidden=0, n_classes=2), seed=0)
        with pytest.raises(ValueError):
            forward_loss(m, dataset([[1.0, 2.0]], [5]))


class TestGradient:
    def test_zero_model_symmetric_batch_has_zero_bias_gradient(self):
        # two classes, features mirrored about the origin, balanced labels
        shape = ModelShape(dim=2, hidden=0, n_classes=2)
        data = dataset([[1.0, 2.0], [-1.0, -2.0]], [0, 1])
        g = gradient(zero_model(shape), data)
        b2 = unflatten_params(shape, g).b2
        assert np.allclose(b2, 0.0, atol=1e-15)

    @pytest.mark.parametrize("hidden,seed", [(0, 1), (3, 2), (5, 3)])
    def test_matches_finite_differences(self, hidden, seed):
        rng = np.random.default_rng(seed)
        shape = ModelShape(dim=3, hidden=hidden, n_classes=3)
        m = init_model(shape, seed=seed)
        data = random_dataset(rng, 8, 3, 3)
        np.testing.assert_allclose(gradient(m, data), fd_gradient(m, data), rtol=1e-4, atol=1e-7)

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(4)
        m = init_model(ModelShape(dim=3, hidden=2, n_classes=2), seed=0)
        data = random_dataset(rng, 6, 3, 2)
        doubled = dataset(
            np.concatenate([data.features, data.features]),
            np.concatenate([data.labels, data.labels]),
        )
        np.testing.assert_allclose(gradient(m, data), gradient(m, doubled), rtol=1e-12)


class TestSgd:
    def test_tau_zero_rejected(self):
        m = init_model(ModelShape(dim=2, hidden=0, n_classes=2), seed=0)
        data = random_dataset(np.random.default_rng(0), 4, 2, 2)
        with pytest.raises(ValueError):
            sgd_epochs(m, data, gamma=0.1, tau=0, batch_size=2, seed=0)

    def test_single_full_batch_epoch_is_one_gradient_step(self):
        rng = np.random.default_rng(5)
        shape = ModelShape(dim=3, hidden=2, n_classes=2)
        m = init_model(shape, seed=1)
        data = random_dataset(rng, 6, 3, 2)
        out = sgd_epochs(m, data, gamma=0.2, tau=1, batch_size=len(data), seed=0)
        expected = flatten_params(m) - 0.2 * gradient(m, data)
        # the epoch shuffle reorders the mean's summation, so equality is
        # up to float associativity only
        np.testing.assert_allclose(flatten_params(out), expected, rtol=1e-12, atol=1e-15)

    def test_oversized_batch_clamped_to_full_batch(self):
        rng = np.random.default_rng(6)
        m = init_model(ModelShape(dim=2, hidden=0, n_classes=2), seed=2)
        data = random_dataset(rng, 5, 2, 2)
        a = sgd_epochs(m, data, gamma=0.1, tau=1, batch_size=999, seed=3)
        b = sgd_epochs(m, data, gamma=0.1, tau=1, batch_size=5, seed=3)
        np.testing.assert_array_equal(flatten_params(a), flatten_params(b))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        m = init_model(ModelShape(dim=3, hidden=4, n_classes=3), seed=0)
        data = random_dataset(rng, 20, 3, 3)
        a = sgd_epochs(m, data, gamma=0.1, tau=3, batch_size=4, seed=11)
        b = sgd_epochs(m, data, gamma=0.1, tau=3, batch_size=4, seed=11)
        assert np.array_equal(flatten_params(a), flatten_params(b))

    def test_loss_descends_on_default_style_data_over_20_seeds(self):
        from dfca.datagen import SyntheticSpec, generate_rotated_synthetic

        spec = SyntheticSpec()  # the default desk-scale spec
        shape = ModelShape(dim=spec.dim, hidden=32, n_classes=spec.n_classes)
        worse = 0
        for seed in range(20):
            data = generate_rotated_synthetic(spec, k=2, client_cluster=seed % 2, seed=seed)
            m = init_model(shape, seed=seed)
            before = forward_loss(m, data)
            after = forward_loss(sgd_epochs(m, data, gamma=0.1, tau=1, batch_size=32, seed=seed), data)
            if after > before:
                worse += 1
        assert worse == 0


class TestFlatParams:
    @given(hidden=st.integers(0, 6), dim=st.integers(1, 5), n_classes=st.integers(2, 5),
           seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_bitwise(self, hidden, dim, n_classes, seed):
        shape = ModelShape(dim=dim, hidden=hidden, n_classes=n_classes)
        m = init_model(shape, seed=seed)
        vec = flatten_params(m)
        assert vec.shape == (shape.param_count,)
        again = flatten_params(unflatten_params(shape, vec))
        assert np.array_equal(vec, again)

    def test_byte_encoding_round_trip(self):
        vec = np.random.default_rng(0).standard_normal(17)
        assert np.array_equal(params_from_bytes(params_to_bytes(vec)), vec)

    def test_byte_encoding_is_length_prefixed_little_endian(self):
        blob = params_to_bytes(np.array([1.0]))
        assert blob[:8] == (1).to_bytes(8, "little")
        assert len(blob) == 16

    def test_truncated_buffer_rejected(self):
        blob = params_to_bytes(np.arange(3.0))
        with pytest.raises(ValueError):
            params_from_bytes(blob[:-1])

    def test_wrong_length_vector_rejected(self):
        with pytest.raises(ValueError):
            unflatten_params(ModelShape(dim=2, hidden=0, n_classes=2), np.zeros(5))


class TestPredict:
    def test_zero_model_predicts_class_zero(self):
        shape = ModelShape(dim=3, hidden=0, n_classes=4)
        x = np.random.default_rng(0).standard_normal((6, 3))
        assert predict(zero_model(shape), x).tolist() == [0] * 6
