import hashlib
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfca.core import Hyperparams
from dfca.datagen import Dataset, stack_datasets
from dfca.model import (
    MlpModel,
    ModelShape,
    forward_loss,
    gradient,
    init_model,
    predict,
    sgd_epochs,
    unflatten_params,
)
from dfca.verify import _per_client_loss, _per_client_sgd, fd_gradient, random_dataset


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

    @pytest.mark.parametrize("hidden", [0, 3])
    def test_stack_over_a_dataset_list_gives_each_unstacked_loss(self, hidden):
        shape = ModelShape(dim=4, hidden=hidden, n_classes=3)
        rng = np.random.default_rng(10 + hidden)
        block = rng.standard_normal((6, 3, shape.param_count))
        data = [random_dataset(rng, 13, 4, 3) for _ in range(6)]
        losses = forward_loss(MlpModel(shape, block), stack_datasets(data))
        assert losses.shape == (6, 3)
        flat = forward_loss(unflatten_params(shape, block[:, 0]), stack_datasets(data))
        for r, d in enumerate(data):
            assert flat[r].tobytes() == losses[r, 0].tobytes()
            for j in range(3):
                alone = np.float64(forward_loss(unflatten_params(shape, block[r, j]), d))
                assert losses[r, j].tobytes() == alone.tobytes()

    def test_dataset_list_needs_one_dataset_per_row_and_one_length(self):
        shape = ModelShape(dim=2, hidden=0, n_classes=2)
        m = unflatten_params(shape, np.zeros((2, shape.param_count)))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="one row per client"):
            forward_loss(m, stack_datasets([random_dataset(rng, 5, 2, 2)]))
        with pytest.raises(ValueError, match="client 1 has 6 samples and client 0 has 5"):
            stack_datasets([random_dataset(rng, 5, 2, 2), random_dataset(rng, 6, 2, 2)])

    def test_one_model_on_a_stack_rejected(self):
        shape = ModelShape(dim=2, hidden=4, n_classes=3)  # 27 parameters
        data = stack_datasets([random_dataset(np.random.default_rng(i), 5, 2, 3) for i in range(4)])
        with pytest.raises(ValueError, match=re.escape(
                "a stack of 4 clients needs a model block with one row per client, "
                "got models of shape (27,)")):
            forward_loss(init_model(shape, seed=0), data)

    def test_dimension_mismatch_rejected(self):
        m = init_model(ModelShape(dim=4, hidden=0, n_classes=3), seed=0)
        with pytest.raises(ValueError):
            forward_loss(m, random_dataset(np.random.default_rng(0), 5, 3, 3))

    def test_label_out_of_range_rejected(self):
        m = init_model(ModelShape(dim=2, hidden=0, n_classes=2), seed=0)
        with pytest.raises(ValueError):
            forward_loss(m, dataset([[1.0, 2.0]], [5]))


def reference_bytes(shape, values, d):
    return np.float64(_per_client_loss(shape, values, d)).tobytes()


class TestClassAxis:
    """The column-wise softmax reductions against numpy's per-row ones, on
    both sides of the 8-class boundary where numpy's sum turns pairwise."""

    @pytest.mark.parametrize("n_classes", range(2, 13))
    @pytest.mark.parametrize("hidden", [0, 3])
    def test_stacked_losses_equal_the_numpy_reference(self, n_classes, hidden):
        shape = ModelShape(dim=4, hidden=hidden, n_classes=n_classes)
        rng = np.random.default_rng(100 * n_classes + hidden)
        block = rng.standard_normal((5, 3, shape.param_count))
        data = [random_dataset(rng, 19, 4, n_classes) for _ in range(5)]
        rows = forward_loss(MlpModel(shape, block[:, 0].copy()), stack_datasets(data))
        blocks = forward_loss(MlpModel(shape, block), stack_datasets(data))
        for r, d in enumerate(data):
            assert rows[r].tobytes() == reference_bytes(shape, block[r, 0], d)
            for j in range(3):
                assert blocks[r, j].tobytes() == reference_bytes(shape, block[r, j], d)

    @pytest.mark.parametrize("n_classes", range(2, 13))
    @pytest.mark.parametrize("hidden", [0, 3])
    def test_stacked_sgd_step_equals_the_numpy_reference(self, n_classes, hidden):
        shape = ModelShape(dim=4, hidden=hidden, n_classes=n_classes)
        rng = np.random.default_rng(200 * n_classes + hidden)
        block = rng.standard_normal((4, shape.param_count))
        data = [random_dataset(rng, 11, 4, n_classes) for _ in range(4)]
        keys = rng.random((4, 1, 11))
        got = sgd_epochs(MlpModel(shape, block), stack_datasets(data), 0.3, 1, 11, keys).values
        for r, d in enumerate(data):
            assert got[r].tobytes() == _per_client_sgd(shape, block[r], d, 0.3, 1, 11, keys[r]).tobytes()

    @pytest.mark.parametrize("n_classes", [4, 10])
    def test_tied_maximum_logits(self, n_classes):
        shape = ModelShape(dim=2, hidden=0, n_classes=n_classes)
        values = np.zeros(shape.param_count)
        m = MlpModel(shape, values)
        d = dataset(np.random.default_rng(0).standard_normal((9, 2)), np.arange(9) % n_classes)
        m.b2[1:4] = 2.5  # three classes share the largest logit
        assert np.float64(forward_loss(m, d)).tobytes() == reference_bytes(shape, values, d)
        m.b2[:] = 0.0  # every logit ties
        assert np.float64(forward_loss(m, d)).tobytes() == reference_bytes(shape, values, d)

    @pytest.mark.parametrize("n_classes", [4, 10])
    def test_overflowing_logits_give_nan_on_both_sides(self, n_classes):
        shape = ModelShape(dim=2, hidden=0, n_classes=n_classes)
        values = np.full(shape.param_count, 1e308)
        d = dataset([[3.0, 4.0], [-2.0, 1.0]], [0, 1])
        with np.errstate(over="ignore", invalid="ignore"):
            want = _per_client_loss(shape, values, d)
        got = forward_loss(MlpModel(shape, values), d)
        stacked = forward_loss(MlpModel(shape, np.stack([values, values])), stack_datasets([d, d]))
        assert np.isnan(want) and np.isnan(got) and np.isnan(stacked).all()


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

    @pytest.mark.parametrize("models, clients, shapes", [
        (1, 4, "(21,) and samples of shape (4, 5, 2)"), (3, 1, "(3, 21) and samples of shape (5, 2)"),
    ], ids=["stacked-clients", "stacked-models"])
    def test_stack_rejected(self, models, clients, shapes):
        shape = ModelShape(dim=2, hidden=3, n_classes=3)  # 21 parameters
        data = [random_dataset(np.random.default_rng(i), 5, 2, 3) for i in range(clients)]
        values = np.zeros((models, shape.param_count))
        m = MlpModel(shape, values[0] if models == 1 else values)
        with pytest.raises(ValueError, match=re.escape(
                f"gradient takes one model and one client's samples, got models of shape {shapes}")):
            gradient(m, stack_datasets(data) if clients > 1 else data[0])


def keys_for(data, tau, seed):
    """A seeded ``(tau, n)`` shuffle key table for one dataset."""
    return np.random.default_rng(seed).random((tau, len(data)))


class TestSgd:
    def test_tau_zero_rejected(self):
        m = init_model(ModelShape(dim=2, hidden=0, n_classes=2), seed=0)
        data = random_dataset(np.random.default_rng(0), 4, 2, 2)
        with pytest.raises(ValueError):
            sgd_epochs(m, data, gamma=0.1, tau=0, batch_size=2, keys=keys_for(data, 0, 0))

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -0.1])
    def test_gamma_not_positive_and_finite_rejected(self, gamma):
        m = init_model(ModelShape(dim=2, hidden=0, n_classes=2), seed=0)
        data = random_dataset(np.random.default_rng(0), 4, 2, 2)
        with pytest.raises(ValueError, match="gamma must be positive"):
            sgd_epochs(m, data, gamma=gamma, tau=1, batch_size=2, keys=keys_for(data, 1, 0))

    def test_divergence_raises(self):
        m = init_model(ModelShape(dim=3, hidden=2, n_classes=2), seed=0)
        data = random_dataset(np.random.default_rng(1), 8, 3, 2)
        with pytest.raises(ValueError, match="finite"):
            sgd_epochs(m, data, gamma=1e300, tau=3, batch_size=4, keys=keys_for(data, 3, 0))

    def test_stacked_call_needs_datasets_of_one_length(self):
        """A stacked call takes a stack, and no stack holds clients of two
        lengths."""
        rng = np.random.default_rng(8)
        data = [random_dataset(rng, n, 2, 2) for n in (4, 4, 5)]
        with pytest.raises(ValueError, match="client 2 has 5 samples and client 0 has 4"):
            stack_datasets(data)
        shape = ModelShape(dim=2, hidden=0, n_classes=2)
        block = unflatten_params(shape, np.zeros((3, shape.param_count)))
        with pytest.raises(ValueError, match="3 models need as many clients, got 2"):
            sgd_epochs(block, stack_datasets(data[:2]), gamma=0.1, tau=1, batch_size=2,
                       keys=rng.random((3, 1, 4)))

    @pytest.mark.parametrize("stacked, table", [
        (False, (3, 6)), (False, (2, 5)), (False, (6, 2)), (False, (1, 2, 6)), (False, (12,)),
        (True, (2, 6)), (True, (3, 2, 6)), (True, (2, 2, 5)), (True, (2, 6, 2)), (True, (2, 2, 6, 1)),
    ])
    def test_key_table_of_another_shape_rejected(self, stacked, table):
        shape = ModelShape(dim=2, hidden=0, n_classes=2)
        rng = np.random.default_rng(12)
        data = [random_dataset(rng, 6, 2, 2) for _ in range(2)]
        block = rng.standard_normal((2, shape.param_count))
        m, d, want = ((unflatten_params(shape, block), stack_datasets(data), (2, 2, 6)) if stacked
                      else (unflatten_params(shape, block[0]), data[0], (2, 6)))
        with pytest.raises(ValueError, match=re.escape(f"shuffle keys need shape {want}, got {table}")):
            sgd_epochs(m, d, gamma=0.1, tau=2, batch_size=2, keys=rng.random(table))

    def test_single_full_batch_epoch_is_one_gradient_step(self):
        rng = np.random.default_rng(5)
        shape = ModelShape(dim=3, hidden=2, n_classes=2)
        m = init_model(shape, seed=1)
        data = random_dataset(rng, 6, 3, 2)
        out = sgd_epochs(m, data, gamma=0.2, tau=1, batch_size=len(data), keys=keys_for(data, 1, 0))
        expected = m.values - 0.2 * gradient(m, data)
        # the epoch shuffle reorders the mean's summation, so equality is
        # up to float associativity only
        np.testing.assert_allclose(out.values, expected, rtol=1e-12, atol=1e-15)

    def test_oversized_batch_clamped_to_full_batch(self):
        rng = np.random.default_rng(6)
        m = init_model(ModelShape(dim=2, hidden=0, n_classes=2), seed=2)
        data = random_dataset(rng, 5, 2, 2)
        keys = keys_for(data, 1, 3)
        a = sgd_epochs(m, data, gamma=0.1, tau=1, batch_size=999, keys=keys)
        b = sgd_epochs(m, data, gamma=0.1, tau=1, batch_size=5, keys=keys)
        np.testing.assert_array_equal(a.values, b.values)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        m = init_model(ModelShape(dim=3, hidden=4, n_classes=3), seed=0)
        data = random_dataset(rng, 20, 3, 3)
        a = sgd_epochs(m, data, gamma=0.1, tau=3, batch_size=4, keys=keys_for(data, 3, 11))
        b = sgd_epochs(m, data, gamma=0.1, tau=3, batch_size=4, keys=keys_for(data, 3, 11))
        assert np.array_equal(a.values, b.values)

    def test_epochs_visit_samples_in_stable_key_order(self):
        """Each epoch's minibatches follow a stable sort of its keys: equal
        keys keep sample order, and only the order, not the key values,
        matters."""
        rng = np.random.default_rng(9)
        m = init_model(ModelShape(dim=3, hidden=2, n_classes=3), seed=4)
        data = random_dataset(rng, 6, 3, 3)
        keys = np.array([[0.5, 0.1, 0.5, 0.9, 0.1, 0.3], [3.0, 2.0, 1.0, 0.0, 1.0, 2.0]])
        ranks = np.argsort(np.argsort(keys, axis=-1, kind="stable"), axis=-1)  # distinct, same order
        got = sgd_epochs(m, data, gamma=0.1, tau=2, batch_size=4, keys=keys)
        assert np.array_equal(got.values, sgd_epochs(m, data, 0.1, 2, 4, ranks).values)
        want = m
        for order in ([1, 4, 5, 0, 2, 3], [3, 2, 4, 1, 5, 0]):
            for batch in (order[:4], order[4:]):
                step = gradient(want, Dataset(data.features[batch], data.labels[batch], 0))
                want = unflatten_params(want.shape, want.values - 0.1 * step)
        assert np.array_equal(got.values, want.values)

    def test_builds_no_generator(self, monkeypatch):
        rng = np.random.default_rng(10)
        shape = ModelShape(dim=3, hidden=2, n_classes=3)
        block = unflatten_params(shape, rng.standard_normal((3, shape.param_count)))
        data = [random_dataset(rng, 8, 3, 3) for _ in range(3)]
        keys = rng.random((3, 2, 8))

        def forbidden(*args, **kwargs):
            raise AssertionError("sgd_epochs built a Generator")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        sgd_epochs(block, stack_datasets(data), gamma=0.1, tau=2, batch_size=3, keys=keys)
        sgd_epochs(unflatten_params(shape, block.values[0]), data[0], 0.1, 2, 3, keys[0])

    def test_loss_descends_on_default_style_data_over_20_seeds(self):
        from dfca.datagen import SyntheticSpec, generate_rotated_synthetic

        spec = SyntheticSpec()  # the default desk-scale spec
        shape = ModelShape(dim=spec.dim, hidden=32, n_classes=spec.n_classes)
        worse = 0
        for seed in range(20):
            data = generate_rotated_synthetic(spec, k=2, client_cluster=seed % 2, seed=seed)
            m = init_model(shape, seed=seed)
            before = forward_loss(m, data)
            trained = sgd_epochs(m, data, gamma=0.1, tau=1, batch_size=32, keys=keys_for(data, 1, seed))
            if forward_loss(trained, data) > before:
                worse += 1
        assert worse == 0


class TestHyperparams:
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -0.1, True, "0.1"])
    def test_gamma_not_finite_or_negative_rejected_when_built(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            Hyperparams(gamma=gamma, tau=1, batch_size=8)

    @pytest.mark.parametrize("tau, batch_size, field", [(0, 0, "tau"), (1, 0, "batch_size")])
    def test_tau_and_batch_size_below_one_rejected_when_built(self, tau, batch_size, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got 0$"):
            Hyperparams(0.0, tau, batch_size)

    @pytest.mark.parametrize("tau, batch_size, field, value", [
        (1.5, 4, "tau", "1.5"), (1, 2.5, "batch_size", "2.5"), (2.0, 4, "tau", "2.0"),
        (True, 4, "tau", "True"), (1, True, "batch_size", "True"),
    ])
    def test_tau_and_batch_size_must_be_integers_when_built(self, tau, batch_size, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got {value}$"):
            Hyperparams(gamma=0.1, tau=tau, batch_size=batch_size)
        assert Hyperparams(gamma=0.1, tau=np.int64(2), batch_size=np.int32(4)).tau == 2


class TestFlatParams:
    @given(hidden=st.integers(0, 6), dim=st.integers(1, 5), n_classes=st.integers(2, 5),
           seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_bitwise(self, hidden, dim, n_classes, seed):
        shape = ModelShape(dim=dim, hidden=hidden, n_classes=n_classes)
        m = init_model(shape, seed=seed)
        vec = m.values
        assert vec.shape == (shape.param_count,)
        again = unflatten_params(shape, vec).values
        assert np.array_equal(vec, again)

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
        values = init_model(shape, seed).values
        blob = struct.pack("<Q", values.size) + values.astype("<f8").tobytes()
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
