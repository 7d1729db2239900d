import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfca.datagen import (
    Dataset,
    IdxFormatError,
    SyntheticSpec,
    generate_rotated_synthetic,
    load_idx_pair,
    rotate_image,
    rotated_idx_datasets,
    stack_datasets,
    train_test_split,
)
from dfca.datagen import CLASS_SEPARATION, _class_centers

SPEC = SyntheticSpec(n_classes=3, dim=5, samples_per_client=50)


class TestSyntheticGeneration:
    def test_cluster_zero_is_unrotated(self):
        a = generate_rotated_synthetic(SPEC, k=4, client_cluster=0, seed=3)
        b = generate_rotated_synthetic(SPEC, k=1, client_cluster=0, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_k2_cluster_one_negates_first_two_coordinates(self):
        base = generate_rotated_synthetic(SPEC, k=2, client_cluster=0, seed=9)
        rot = generate_rotated_synthetic(SPEC, k=2, client_cluster=1, seed=9)
        assert np.array_equal(rot.features[:, 0], -base.features[:, 0])
        assert np.array_equal(rot.features[:, 1], -base.features[:, 1])
        assert np.array_equal(rot.features[:, 2:], base.features[:, 2:])

    def test_k4_cluster_one_is_quarter_turn(self):
        base = generate_rotated_synthetic(SPEC, k=4, client_cluster=0, seed=9)
        rot = generate_rotated_synthetic(SPEC, k=4, client_cluster=1, seed=9)
        assert np.array_equal(rot.features[:, 0], -base.features[:, 1])
        assert np.array_equal(rot.features[:, 1], base.features[:, 0])
        assert np.array_equal(rot.features[:, 2:], base.features[:, 2:])

    def test_k4_clusters_two_and_three_are_half_and_three_quarter_turns(self):
        x, y = generate_rotated_synthetic(SPEC, k=4, client_cluster=0, seed=9).features[:, :2].T
        half = generate_rotated_synthetic(SPEC, k=4, client_cluster=2, seed=9).features
        three = generate_rotated_synthetic(SPEC, k=4, client_cluster=3, seed=9).features
        assert half[:, :2].tobytes() == np.column_stack((-x, -y)).tobytes()
        assert three[:, :2].tobytes() == np.column_stack((y, -x)).tobytes()

    @given(k=st.sampled_from([2, 4]), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_undoing_rotation_recovers_cluster_zero_stream(self, k, seed):
        base = generate_rotated_synthetic(SPEC, k=k, client_cluster=0, seed=seed)
        for cluster in range(1, k):
            rot = generate_rotated_synthetic(SPEC, k=k, client_cluster=cluster, seed=seed)
            undone = rot.features.copy()
            turns = cluster * (4 // k)
            for _ in range(turns):  # invert one counterclockwise quarter turn
                undone[:, 0], undone[:, 1] = undone[:, 1].copy(), -undone[:, 0].copy()
            assert np.array_equal(undone, base.features)
            assert np.array_equal(rot.labels, base.labels)

    def test_bitwise_reproducible(self):
        a = generate_rotated_synthetic(SPEC, k=2, client_cluster=1, seed=4, center_seed=2)
        b = generate_rotated_synthetic(SPEC, k=2, client_cluster=1, seed=4, center_seed=2)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_rejects_unsupported_k(self):
        with pytest.raises(ValueError):
            generate_rotated_synthetic(SPEC, k=3, client_cluster=0, seed=0)

    def test_distribution_id_records_cluster(self):
        d = generate_rotated_synthetic(SPEC, k=2, client_cluster=1, seed=0)
        assert d.distribution_id == 1

    def test_centers_live_in_rotated_plane_with_requested_norm(self):
        centers = _class_centers(SPEC, center_seed=0)
        assert centers.shape == (3, 5)
        assert np.allclose(np.linalg.norm(centers, axis=1), CLASS_SEPARATION)
        assert np.all(centers[:, 2:] == 0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_classes=0)
        with pytest.raises(ValueError, match="dim must be >= 2"):
            SyntheticSpec(dim=1)


class TestRotateImage:
    def test_zero_degrees_identity(self):
        img = np.arange(9.0)
        assert np.array_equal(rotate_image(img, 0), img)

    def test_180_reverses_two_by_two(self):
        assert rotate_image(np.array([1.0, 2.0, 3.0, 4.0]), 180).tolist() == [4.0, 3.0, 2.0, 1.0]

    def test_90_two_by_two(self):
        # [[a,b],[c,d]] turned clockwise puts c on top-left: [c,a,d,b]
        assert rotate_image(np.array([1.0, 2.0, 3.0, 4.0]), 90).tolist() == [3.0, 1.0, 4.0, 2.0]

    @given(side=st.integers(1, 6), seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_four_quarter_turns_identity(self, side, seed):
        img = np.random.default_rng(seed).standard_normal(side * side)
        out = img
        for _ in range(4):
            out = rotate_image(out, 90)
        assert np.array_equal(out, img)
        assert np.array_equal(rotate_image(rotate_image(img, 180), 180), img)

    def test_rejects_non_square_length(self):
        with pytest.raises(ValueError):
            rotate_image(np.zeros(5), 90)

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            rotate_image(np.zeros(4), 45)


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, image_magic=0x803, label_magic=0x801,
                   image_count=None, label_count=None):
    image_count = len(pixels) // (rows * cols) if image_count is None else image_count
    label_count = len(labels) if label_count is None else label_count
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(struct.pack(">iiii", image_magic, image_count, rows, cols) + bytes(pixels))
    labels_path.write_bytes(struct.pack(">ii", label_magic, label_count) + bytes(labels))
    return str(images_path), str(labels_path)


class TestIdxLoader:
    def test_loads_and_scales_pixels(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [0, 10, 20, 30, 40, 50, 60, 255], [1, 0])
        d = load_idx_pair(imgs, lbls)
        assert d.features.shape == (2, 4)
        assert d.features[0, 0] == 0.0
        assert d.features[1, 3] == 1.0
        assert d.labels.tolist() == [1, 0]

    def test_bad_image_magic(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [0] * 4, [0], image_magic=0x00000102)
        with pytest.raises(IdxFormatError, match="bad magic in image file"):
            load_idx_pair(imgs, lbls)

    def test_bad_label_magic(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [0] * 4, [0], label_magic=0x00000999)
        with pytest.raises(IdxFormatError, match="bad magic in label file"):
            load_idx_pair(imgs, lbls)

    def test_truncated_images(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [0] * 6, [0, 0], image_count=2)  # needs 8 bytes
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx_pair(imgs, lbls)

    def test_header_counts_are_unsigned(self, tmp_path):
        # rows = cols = 0xFFFFFFFE: read as signed, 2 * (-2) * (-2) = 8 bytes would pass
        imgs, lbls = write_idx_pair(tmp_path, [0] * 8, [0, 0], rows=-2, cols=-2, image_count=2)
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx_pair(imgs, lbls)

    def test_empty_pair(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [], [])
        with pytest.raises(IdxFormatError, match="empty image file"):
            load_idx_pair(imgs, lbls)

    def test_count_mismatch(self, tmp_path):
        imgs, lbls = write_idx_pair(tmp_path, [0] * 12, [0, 1])  # 3 images, 2 labels
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_idx_pair(imgs, lbls)

    def test_rotated_client_split(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = list(rng.integers(0, 256, size=16 * 4))
        labels = list(rng.integers(0, 3, size=16))
        imgs, lbls = write_idx_pair(tmp_path, pixels, labels)
        parts = rotated_idx_datasets(imgs, lbls, n_clients=4, k=2, samples_per_client=4, seed=1)
        assert [p.distribution_id for p in parts] == [0, 1, 0, 1]
        assert all(len(p) == 4 for p in parts)
        unrotated = rotated_idx_datasets(imgs, lbls, n_clients=4, k=1, samples_per_client=4, seed=1)
        assert [p.distribution_id for p in unrotated] == [0, 0, 0, 0]
        for rotated, plain, degrees in zip(parts, unrotated, (0, 180, 0, 180)):
            assert np.array_equal(plain.labels, rotated.labels)
            assert all(np.array_equal(rotate_image(x, degrees), y)
                       for x, y in zip(plain.features, rotated.features))


class TestTrainTestSplit:
    def test_sizes(self):
        d = generate_rotated_synthetic(SyntheticSpec(samples_per_client=10, dim=4), 2, 0, seed=0)
        train, test = train_test_split(d, 0.2, seed=1)
        assert (len(train), len(test)) == (8, 2)

    def test_same_seed_identical(self):
        d = generate_rotated_synthetic(SPEC, 2, 0, seed=0)
        a = train_test_split(d, 0.3, seed=5)
        b = train_test_split(d, 0.3, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)

    @given(fraction=st.floats(0.05, 0.95), seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_union_is_input_multiset(self, fraction, seed):
        d = generate_rotated_synthetic(SPEC, 2, 1, seed=2)
        try:
            train, test = train_test_split(d, fraction, seed=seed)
        except ValueError:
            return  # degenerate fraction for this size
        merged = np.concatenate([train.features, test.features])
        sorted_rows = lambda a: a[np.lexsort(a.T)]
        assert np.array_equal(sorted_rows(merged), sorted_rows(np.asarray(d.features)))
        assert len(train) + len(test) == len(d)
        assert train.distribution_id == test.distribution_id == d.distribution_id

    def test_rejects_empty_side(self):
        d = generate_rotated_synthetic(SyntheticSpec(samples_per_client=3, dim=4), 2, 0, seed=0)
        with pytest.raises(ValueError):
            train_test_split(d, 0.01, seed=0)
        with pytest.raises(ValueError):
            train_test_split(d, 0.99, seed=0)

    def test_rejects_out_of_range_fraction(self):
        d = generate_rotated_synthetic(SPEC, 2, 0, seed=0)
        with pytest.raises(ValueError):
            train_test_split(d, 1.5, seed=0)

    def test_rejects_a_stack_naming_its_client_count(self):
        stack = stack_datasets([generate_rotated_synthetic(SPEC, 2, i % 2, seed=i) for i in range(5)])
        with pytest.raises(ValueError, match="splits one client's samples, got a stack of 5 clients"):
            train_test_split(stack, 0.2, seed=0)


class TestDatasetType:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((3, 2)), labels=np.zeros(2, dtype=int), distribution_id=0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int), distribution_id=0)

    def test_rejects_negative_label(self):
        with pytest.raises(ValueError, match="negative"):
            Dataset(features=[[1.0, 2.0], [0.5, 0.1]], labels=[-1, 0], distribution_id=0)

    def test_rejects_fractional_label(self):
        with pytest.raises(ValueError, match="0.7 is not a whole number"):
            Dataset(features=[[1.0, 2.0], [0.5, 0.1]], labels=[0.7, 1.9], distribution_id=0)

    @pytest.mark.parametrize("bad, where", [(np.nan, "nan at sample 1, column 0"),
                                            (np.inf, "inf at sample 1, column 0")])
    def test_rejects_non_finite_feature(self, bad, where):
        with pytest.raises(ValueError, match=f"feature {where} is not finite"):
            Dataset(features=[[1.0, 2.0], [bad, -np.inf]], labels=[0, 1], distribution_id=0)

    def test_a_view_is_copied_so_writes_through_its_base_do_not_reach_the_data(self):
        x, ids = np.zeros((2, 2)), np.array([0, 1, 0])
        d = Dataset(x[:, :], np.array([0, 1]), 0)
        stack = Dataset(np.zeros((3, 2, 2)), np.zeros((3, 2), dtype=int), ids[:])
        x[0, 0], ids[0] = 5.0, 1
        assert d.features[0, 0] == 0.0 and stack.distribution_id.tolist() == [0, 1, 0]
        assert x.flags.writeable and ids.flags.writeable

    def test_an_array_that_owns_its_memory_is_taken_without_a_copy(self):
        x, ids = np.zeros((3, 2, 2)), np.array([0, 1, 0])
        stack = Dataset(x, np.zeros((3, 2), dtype=int), ids)
        assert np.shares_memory(stack.features, x) and np.shares_memory(stack.distribution_id, ids)
        assert not (x.flags.writeable or ids.flags.writeable)

    def test_whole_float_labels_become_integers(self):
        d = Dataset(features=[[1.0, 2.0], [0.5, 0.1]], labels=[1.0, 0.0], distribution_id=0)
        assert d.labels.dtype == np.int64 and d.labels.tolist() == [1, 0]


class TestStack:
    def clients(self, lengths):
        return [generate_rotated_synthetic(SyntheticSpec(dim=3, samples_per_client=n), 2, i % 2, seed=i)
                for i, n in enumerate(lengths)]

    def test_rows_are_the_clients_in_order(self):
        parts = self.clients([6, 6, 6])
        stack = stack_datasets(parts)
        assert len(stack) == 3 and stack.features.shape == (3, 6, 3) and stack.labels.shape == (3, 6)
        assert stack.distribution_id.tolist() == [0, 1, 0]
        for i, d in enumerate(parts):
            row = stack[i]
            assert len(row) == 6 and row.distribution_id == d.distribution_id
            assert type(row.distribution_id) is int
            assert row.features.tobytes() == d.features.tobytes() and row.labels.tolist() == d.labels.tolist()
        assert stack[1:].distribution_id.tolist() == [1, 0] and len(stack[np.array([2, 0])]) == 2
        assert [d.distribution_id for d in stack] == [0, 1, 0]
        assert not (stack.features.flags.writeable or stack.distribution_id.flags.writeable)

    def test_unequal_lengths_are_rejected_naming_the_first_client_that_differs(self):
        with pytest.raises(ValueError, match="client 2 has 5 samples and client 0 has 6"):
            stack_datasets(self.clients([6, 6, 5, 7]))

    def test_one_client_is_not_indexed(self):
        with pytest.raises(TypeError, match="only a stack"):
            self.clients([4])[0][0]

    @pytest.mark.parametrize("ids", [[0, 1], [0, 1, 2, 3], [0.0, 1.0, 0.5]])
    def test_a_stack_needs_one_integer_distribution_id_per_client(self, ids):
        with pytest.raises(ValueError, match="a stack of 3 clients needs as many integer distribution ids"):
            Dataset(features=np.zeros((3, 2, 2)), labels=np.zeros((3, 2), dtype=int), distribution_id=ids)

    def test_a_non_finite_feature_is_located_by_client(self):
        features = np.zeros((3, 2, 2))
        features[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="feature nan at client 2, sample 1, column 0 is not finite"):
            Dataset(features=features, labels=np.zeros((3, 2), dtype=int), distribution_id=[0, 0, 0])
