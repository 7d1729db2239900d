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
    "DEFAULT_SPEC",
    "IdxFormatError",
    "generate_rotated_synthetic",
    "rotate_image",
    "load_idx_pair",
    "rotated_idx_datasets",
    "train_test_split",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file: bad magic, truncated payload, or count mismatch."""


@dataclass(frozen=True)
class Dataset:
    """Labeled samples held by one client.

    ``features`` is (n, d) float64, ``labels`` is (n,) int64 with classes in
    [0, C), and ``distribution_id`` names the cluster whose distribution
    generated this data (the clustering ground truth).
    """

    features: np.ndarray
    labels: np.ndarray
    distribution_id: int

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {feats.shape}")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ValueError("features and labels must have equal length")
        if feats.shape[0] < 1:
            raise ValueError("a dataset must contain at least one sample")
        if labels.min() < 0:
            raise ValueError(f"label {int(labels.min())} is negative; classes are in [0, C)")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic generator."""

    n_classes: int = 4
    dim: int = 16
    samples_per_client: int = 200
    class_separation: float = 3.0
    noise_std: float = 1.0

    def __post_init__(self) -> None:
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.samples_per_client < 1:
            raise ValueError("samples_per_client must be positive")
        if self.class_separation <= 0:
            raise ValueError("class_separation must be positive")
        if self.noise_std <= 0:
            raise ValueError("noise_std must be positive")


DEFAULT_SPEC = SyntheticSpec()

# Quarter-turn count per cluster index for each supported cluster count.
_SUPPORTED_K = (1, 2, 4)


def _class_centers(spec: SyntheticSpec, center_seed: int) -> np.ndarray:
    """Shared class centers: isotropic Gaussian directions in the rotated
    two-coordinate plane, scaled to norm ``class_separation``.

    Centers live only in the plane the cluster rotations act on; all other
    coordinates carry pure noise.  Identical for every client of a run.
    """
    rng = np.random.default_rng(center_seed)
    raw = rng.standard_normal((spec.n_classes, 2))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    centers = np.zeros((spec.n_classes, spec.dim))
    centers[:, :2] = raw / norms * spec.class_separation
    return centers


def _rotate_first_two(features: np.ndarray, quarter_turns: int) -> np.ndarray:
    """Rotate the first two coordinates counterclockwise by 90° steps.

    Quarter-turn rotations only negate and swap coordinates, so they are
    exact in floating point and exactly invertible.
    """
    q = quarter_turns % 4
    out = features.copy()
    x, y = features[:, 0], features[:, 1]
    if q == 1:
        out[:, 0], out[:, 1] = -y, x
    elif q == 2:
        out[:, 0], out[:, 1] = -x, -y
    elif q == 3:
        out[:, 0], out[:, 1] = y, -x
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
    if spec.dim < 2:
        raise ValueError("class centers live in the rotated plane; dim must be >= 2")
    centers = _class_centers(spec, center_seed)
    rng = np.random.default_rng(seed)
    n = spec.samples_per_client
    labels = rng.integers(0, spec.n_classes, size=n)
    features = centers[labels] + rng.standard_normal((n, spec.dim)) * spec.noise_std
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

    Pixel bytes are scaled linearly to [0, 1]; image and label counts must
    match.  Bad magic numbers, truncated payloads, and count mismatches are
    reported as distinct :class:`IdxFormatError` messages.
    """
    with open(images_path, "rb") as fh:
        img_buf = fh.read()
    with open(labels_path, "rb") as fh:
        lbl_buf = fh.read()

    magic, count, rows, cols = struct.unpack(">iiii", _read_exact(img_buf, 0, 16, images_path))
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(
            f"bad magic in image file {images_path}: expected {IDX_IMAGE_MAGIC:#010x}, got {magic:#010x}"
        )
    pixels = _read_exact(img_buf, 16, count * rows * cols, images_path)

    lbl_magic, lbl_count = struct.unpack(">ii", _read_exact(lbl_buf, 0, 8, labels_path))
    if lbl_magic != IDX_LABEL_MAGIC:
        raise IdxFormatError(
            f"bad magic in label file {labels_path}: expected {IDX_LABEL_MAGIC:#010x}, got {lbl_magic:#010x}"
        )
    label_bytes = _read_exact(lbl_buf, 8, lbl_count, labels_path)

    if count != lbl_count:
        raise IdxFormatError(
            f"count mismatch: {count} images in {images_path} vs {lbl_count} labels in {labels_path}"
        )

    features = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    return Dataset(features=features.reshape(count, rows * cols), labels=labels, distribution_id=0)


def rotated_idx_datasets(
    images_path: str,
    labels_path: str,
    n_clients: int,
    k: int,
    samples_per_client: int,
    seed: int,
) -> list[Dataset]:
    """Split an IDX pair across clients, rotating each client's images by its
    cluster's angle (cluster = client index mod k)."""
    if k not in (2, 4):
        raise ValueError(f"k must be 2 or 4 for rotated image data, got {k}")
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
    """Seeded disjoint (train, test) partition preserving ``distribution_id``."""
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
