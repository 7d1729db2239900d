"""Per-client dataset generation.

Synthetic data mimics the rotated-image construction: every client draws
labeled Gaussian blobs around shared class centers, and the only difference
between clusters is a quarter-turn rotation applied to the first two feature
coordinates.  IDX-format image files can be ingested as an alternative
source, with exact pixel-permutation rotations.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "IdxFormatError",
    "generate_rotated_synthetic",
    "rotate_image",
    "load_idx_pair",
    "rotated_idx_datasets",
    "stack_datasets",
    "train_test_split",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file: bad magic, an empty image file, truncated payload,
    or count mismatch."""


@dataclass(frozen=True)
class Dataset:
    """Labeled samples of one client, or a stack of clients of one length.

    One client's ``features`` is (n, d) float64, ``labels`` is (n,) int64
    with classes in [0, C), and ``distribution_id`` is the int naming the
    cluster whose distribution generated the data (the clustering ground
    truth).  A stack of c clients (see :func:`stack_datasets`) has (c, n, d)
    features, (c, n) labels and a (c,) integer array of distribution ids,
    and indexing it takes clients.  ``len()`` counts one client's samples,
    or a stack's clients.  A features or ids array that owns its memory is
    taken over and made read-only; a view of one (``base`` set) is copied.
    """

    features: np.ndarray
    labels: np.ndarray
    distribution_id: int | np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        ids = np.asarray(self.distribution_id)
        if labels.dtype.kind == "f":
            fractional = ~np.isfinite(labels) | (labels != np.round(labels))
            if fractional.any():
                raise ValueError(
                    f"label {labels[fractional][0]} is not a whole number; classes are in [0, C)"
                )
        labels = labels.astype(np.int64)
        if feats.ndim not in (2, 3):
            raise ValueError(f"features must be 2-d, or 3-d for a stack, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            bad = tuple(np.argwhere(~np.isfinite(feats))[0])
            place = ", ".join(f"{a} {i}" for a, i in zip(("client", "sample", "column")[-len(bad):], bad))
            raise ValueError(f"feature {feats[bad]} at {place} is not finite")
        if labels.shape != feats.shape[:-1]:
            raise ValueError("features and labels must have equal length")
        if labels.size < 1:
            raise ValueError("a dataset must contain at least one sample")
        if labels.min() < 0:
            raise ValueError(f"label {int(labels.min())} is negative; classes are in [0, C)")
        if feats.ndim == 3:
            if ids.shape != labels.shape[:1] or ids.dtype.kind not in "iu":
                raise ValueError(f"a stack of {len(feats)} clients needs as many integer distribution ids")
            ids = ids.copy() if ids.base is not None else ids
            ids.setflags(write=False)
            object.__setattr__(self, "distribution_id", ids)
        feats = feats.copy() if feats.base is not None else feats
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    def __getitem__(self, rows) -> "Dataset":
        if self.features.ndim != 3:
            raise TypeError("only a stack of clients can be indexed")
        ids = self.distribution_id[rows]
        return Dataset(self.features[rows], self.labels[rows], ids if ids.ndim else int(ids))


def stack_datasets(datasets: list[Dataset]) -> Dataset:
    """Per-client datasets of one length as one stack, client ``i`` in row ``i``."""
    for i, d in enumerate(datasets):
        if len(d) != len(datasets[0]):
            raise ValueError(f"client {i} has {len(d)} samples and client 0 has {len(datasets[0])}")
    return Dataset(np.stack([d.features for d in datasets]), np.stack([d.labels for d in datasets]),
                   np.array([d.distribution_id for d in datasets]))


# Fixed properties of the synthetic data: the norm of every class center and
# the standard deviation of the Gaussian noise around it.
CLASS_SEPARATION = 3.0
NOISE_STD = 1.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic generator; ``dim`` is at least 2."""

    n_classes: int = 4
    dim: int = 16
    samples_per_client: int = 200

    def __post_init__(self) -> None:
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        if self.dim < 2:
            raise ValueError("class centers live in the rotated plane; dim must be >= 2")
        if self.samples_per_client < 1:
            raise ValueError("samples_per_client must be positive")


# Cluster counts that divide 4, so cluster j's rotation is j * (4 // k) exact quarter turns.
_SUPPORTED_K = (1, 2, 4)


def _class_centers(spec: SyntheticSpec, center_seed: int) -> np.ndarray:
    """Shared class centers: isotropic Gaussian directions in the rotated
    two-coordinate plane, scaled to norm ``CLASS_SEPARATION``.

    Centers live only in the plane the cluster rotations act on; all other
    coordinates carry pure noise.  Identical for every client of a run.
    """
    rng = np.random.default_rng(center_seed)
    raw = rng.standard_normal((spec.n_classes, 2))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    centers = np.zeros((spec.n_classes, spec.dim))
    centers[:, :2] = raw / norms * CLASS_SEPARATION
    return centers


def _rotate_first_two(features: np.ndarray, quarter_turns: int) -> np.ndarray:
    """Rotate the first two coordinates counterclockwise by 90° steps, each
    step ``(x, y) -> (-y, x)``.

    Quarter-turn rotations only negate and swap coordinates, so they are
    exact in floating point and exactly invertible.
    """
    out = features.copy()
    for _ in range(quarter_turns % 4):
        out[:, :2] = np.column_stack((-out[:, 1], out[:, 0]))
    return out


def generate_rotated_synthetic(
    spec: SyntheticSpec,
    k: int,
    client_cluster: int,
    seed: int,
    center_seed: int = 0,
) -> Dataset:
    """Draw one client's dataset from cluster ``client_cluster`` of ``k``.

    Class centers are fixed by ``center_seed`` and shared across all clients
    and clusters; the per-client stream ``seed`` drives label choices and
    noise.  Cluster j's distribution rotates the first two coordinates by
    j * (360/k) degrees, so two clients with the same ``seed`` but different
    clusters see the same sample stream up to that exact rotation.
    """
    if k not in _SUPPORTED_K:
        raise ValueError(f"cluster count k must be one of {_SUPPORTED_K}, got {k}")
    if not 0 <= client_cluster < k:
        raise ValueError(f"client_cluster {client_cluster} out of range for k={k}")
    centers = _class_centers(spec, center_seed)
    rng = np.random.default_rng(seed)
    n = spec.samples_per_client
    labels = rng.integers(0, spec.n_classes, size=n)
    features = centers[labels] + rng.standard_normal((n, spec.dim)) * NOISE_STD
    features = _rotate_first_two(features, client_cluster * (4 // k))
    return Dataset(features=features, labels=labels, distribution_id=client_cluster)


def rotate_image(features: np.ndarray, degrees: int) -> np.ndarray:
    """Rotate a flattened square image clockwise by an exact multiple of 90°.

    Pure pixel permutation, no interpolation.  Rejects non-square lengths and
    angles outside {0, 90, 180, 270}.
    """
    if degrees not in (0, 90, 180, 270):
        raise ValueError(f"degrees must be one of 0/90/180/270, got {degrees}")
    flat = np.asarray(features)
    side = math.isqrt(flat.shape[-1])
    if flat.ndim != 1 or side * side != flat.shape[0]:
        raise ValueError(f"feature length {flat.shape} is not a flattened square image")
    if degrees == 0:
        return flat.copy()
    return np.rot90(flat.reshape(side, side), k=-(degrees // 90)).ravel().copy()


def _read_exact(buf: bytes, offset: int, count: int, path: str) -> bytes:
    if len(buf) < offset + count:
        raise IdxFormatError(
            f"truncated IDX file {path}: need {offset + count} bytes, have {len(buf)}"
        )
    return buf[offset : offset + count]


def load_idx_pair(images_path: str, labels_path: str) -> Dataset:
    """Parse a big-endian IDX image/label file pair.

    The header's counts are unsigned.  Pixel bytes are scaled linearly to
    [0, 1]; image and label counts must match.  Bad magic numbers, a zero
    image, row or column count, truncated payloads, and count mismatches are
    reported as distinct :class:`IdxFormatError` messages.
    """
    with open(images_path, "rb") as fh:
        img_buf = fh.read()
    with open(labels_path, "rb") as fh:
        lbl_buf = fh.read()

    magic, count, rows, cols = struct.unpack(">IIII", _read_exact(img_buf, 0, 16, images_path))
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(
            f"bad magic in image file {images_path}: expected {IDX_IMAGE_MAGIC:#010x}, got {magic:#010x}"
        )
    if 0 in (count, rows, cols):
        raise IdxFormatError(f"empty image file {images_path}: {count} images of {rows}x{cols} pixels")
    pixels = _read_exact(img_buf, 16, count * rows * cols, images_path)

    lbl_magic, lbl_count = struct.unpack(">II", _read_exact(lbl_buf, 0, 8, labels_path))
    if lbl_magic != IDX_LABEL_MAGIC:
        raise IdxFormatError(
            f"bad magic in label file {labels_path}: expected {IDX_LABEL_MAGIC:#010x}, got {lbl_magic:#010x}"
        )
    label_bytes = _read_exact(lbl_buf, 8, lbl_count, labels_path)

    if count != lbl_count:
        raise IdxFormatError(
            f"count mismatch: {count} images in {images_path} vs {lbl_count} labels in {labels_path}"
        )

    features = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    return Dataset(features=features, labels=labels, distribution_id=0)


def rotated_idx_datasets(
    images_path: str,
    labels_path: str,
    n_clients: int,
    k: int,
    samples_per_client: int,
    seed: int,
) -> list[Dataset]:
    """Split an IDX pair across clients, rotating each client's images by its
    cluster's angle (cluster = client index mod k; k=1 leaves them as read)."""
    if k not in _SUPPORTED_K:
        raise ValueError(f"cluster count k must be one of {_SUPPORTED_K}, got {k}")
    pool = load_idx_pair(images_path, labels_path)
    needed = n_clients * samples_per_client
    if needed > len(pool):
        raise ValueError(f"need {needed} samples for {n_clients} clients, file has {len(pool)}")
    order = np.random.default_rng(seed).permutation(len(pool))
    out = []
    for i in range(n_clients):
        cluster = i % k
        idx = order[i * samples_per_client : (i + 1) * samples_per_client]
        degrees = cluster * (360 // k)
        feats = np.stack([rotate_image(pool.features[s], degrees) for s in idx])
        out.append(Dataset(features=feats, labels=pool.labels[idx], distribution_id=cluster))
    return out


def _n_test(n: int, test_fraction: float) -> int:
    """Test-side size of a split of ``n`` samples at ``test_fraction``."""
    return int(round(test_fraction * n))


def train_test_split(d: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded disjoint (train, test) split of one client's samples, keeping ``distribution_id``."""
    if d.features.ndim == 3:
        raise ValueError(f"train_test_split splits one client's samples, got a stack of {len(d)} clients")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(d)
    n_test = _n_test(n, test_fraction)
    if n_test == 0 or n_test == n:
        raise ValueError(f"split of {n} samples at fraction {test_fraction} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    make = lambda idx: Dataset(
        features=d.features[idx], labels=d.labels[idx], distribution_id=d.distribution_id
    )
    return make(train_idx), make(test_idx)
