import hashlib
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
        # w2 = 0 (4x1), b2 = [20, 0, 0, 0]
        m = unflatten_params(shape, np.array([0.0, 0.0, 0.0, 0.0, 20.0, 0.0, 0.0, 0.0]))
        data = dataset([[0.0]], [0])
        assert forward_loss(m, data) < 1e-8

    def test_matches_hand_computed_cross_entropy(self):
        # d=2, C=2, x=[1,2], label 0: logits [0.1, 0.3],
        # loss = log(e^0.1 + e^0.3) - 0.1 = 0.798138869381592
        # w2 = [[0.5, -0.25], [-1.0, 0.75]], b2 = [0.1, -0.2]
        shape = ModelShape(dim=2, hidden=0, n_classes=2)
        m = unflatten_params(shape, np.array([0.5, -0.25, -1.0, 0.75, 0.1, -0.2]))
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

    @pytest.mark.parametrize("hidden", [0, 3])
    def test_stack_of_models_gives_each_unstacked_loss(self, hidden):
        shape = ModelShape(dim=4, hidden=hidden, n_classes=3)
        rng = np.random.default_rng(hidden)
        block = rng.standard_normal((5, shape.param_count))
        data = random_dataset(rng, 17, 4, 3)
        losses = forward_loss(unflatten_params(shape, block), data)
        assert losses.shape == (5,)
        for got, values in zip(losses, block):
            assert got.tobytes() == np.float64(forward_loss(unflatten_params(shape, values), data)).tobytes()

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

    def test_divergence_raises(self):
        m = init_model(ModelShape(dim=3, hidden=2, n_classes=2), seed=0)
        data = random_dataset(np.random.default_rng(1), 8, 3, 2)
        with pytest.raises(ValueError, match="finite"):
            sgd_epochs(m, data, gamma=1e300, tau=3, batch_size=4, seed=0)

    def test_stacked_call_needs_datasets_of_one_length(self):
        shape = ModelShape(dim=2, hidden=0, n_classes=2)
        block = np.stack([flatten_params(init_model(shape, seed=s)) for s in range(2)])
        rng = np.random.default_rng(8)
        data = [random_dataset(rng, n, 2, 2) for n in (4, 5)]
        with pytest.raises(ValueError, match="one length"):
            sgd_epochs(unflatten_params(shape, block), data, gamma=0.1, tau=1, batch_size=2, seed=[0, 1])

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

    def test_unflatten_returns_a_copy(self):
        shape = ModelShape(dim=3, hidden=2, n_classes=2)
        vec = np.arange(float(shape.param_count))
        m = unflatten_params(shape, vec)
        assert not np.shares_memory(m.values, vec)
        m.w2[...] = -1.0
        assert np.array_equal(vec, np.arange(float(shape.param_count)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_unflatten_rejects_non_finite(self, bad):
        shape = ModelShape(dim=2, hidden=0, n_classes=2)
        vec = np.zeros(shape.param_count)
        vec[3] = bad
        with pytest.raises(ValueError, match="must be finite"):
            unflatten_params(shape, vec)

    @pytest.mark.parametrize(
        "shape,seed,digest",
        [
            (ModelShape(16, 32, 4), 0, "1ca3b039a068c103870b4b1d5dea60c431773935505cc3434f6bdbad236766e3"),
            (ModelShape(5, 0, 3), 7, "169386153f759c0d6f4e5d4f26b3fb5e84b1d857fbb109cc328b23358fdf26b0"),
        ],
    )
    def test_init_model_golden_digest(self, shape, seed, digest):
        blob = params_to_bytes(flatten_params(init_model(shape, seed)))
        assert hashlib.sha256(blob).hexdigest() == digest


class TestMlpModel:
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("hidden", [0, 4])
    def test_layers_are_views_of_values(self, lead, hidden):
        shape = ModelShape(dim=3, hidden=hidden, n_classes=2)
        values = np.zeros(lead + (shape.param_count,))
        m = MlpModel(shape, values)
        assert m.values is values
        assert m.w2.shape == lead + (2, hidden or 3) and m.b2.shape == lead + (2,)
        assert (m.w1 is None) == (hidden == 0) and (m.b1 is None) == (hidden == 0)
        for layer in (m.w1, m.b1, m.w2, m.b2):
            assert layer is None or np.shares_memory(layer, values)
        m.w2[..., 1, 0] = 7.0
        offset = hidden * 3 + hidden  # w1 and b1 come first
        assert np.array_equal(values[..., offset + (hidden or 3)], np.full(lead, 7.0))
        assert values.sum() == 7.0 * math.prod(lead)


class TestPredict:
    def test_zero_model_predicts_class_zero(self):
        shape = ModelShape(dim=3, hidden=0, n_classes=4)
        x = np.random.default_rng(0).standard_normal((6, 3))
        assert predict(zero_model(shape), x).tolist() == [0] * 6
