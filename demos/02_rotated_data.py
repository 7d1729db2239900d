"""Per-client datasets: rotated synthetic blobs and IDX image ingestion.

Each cluster sees the same class structure rotated by a quarter-turn
multiple in the first two feature coordinates, so the k learning problems
are equally hard but mutually distinguishable by loss.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np

from dfca import (
    SyntheticSpec,
    generate_rotated_synthetic,
    load_idx_pair,
    rotate_image,
    train_test_split,
)

spec = SyntheticSpec(n_classes=4, dim=16, samples_per_client=200)
print("=== Rotated synthetic data (k=2: 0 and 180 degrees) ===")
base = generate_rotated_synthetic(spec, k=2, client_cluster=0, seed=0)
flipped = generate_rotated_synthetic(spec, k=2, client_cluster=1, seed=0)
print("cluster 0, first sample, first 4 coords:", np.round(base.features[0, :4], 3))
print("cluster 1, same seed,   first 4 coords:", np.round(flipped.features[0, :4], 3))
print("-> the first two coordinates are exactly negated; the rest match\n")

train, test = train_test_split(base, test_fraction=0.2, seed=1)
print(f"train/test split of {len(base)} samples: {len(train)}/{len(test)}")
print(f"both splits remember their generating cluster: {train.distribution_id}\n")

print("=== IDX image files (the classic big-endian format) ===")
with tempfile.TemporaryDirectory() as tmp:
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(10, 4, 4), dtype=np.uint8)
    labels = rng.integers(0, 3, size=10, dtype=np.uint8)
    images_path = Path(tmp) / "digits.idx3-ubyte"
    labels_path = Path(tmp) / "labels.idx1-ubyte"
    images_path.write_bytes(struct.pack(">iiii", 0x803, 10, 4, 4) + images.tobytes())
    labels_path.write_bytes(struct.pack(">ii", 0x801, 10) + labels.tobytes())

    loaded = load_idx_pair(str(images_path), str(labels_path))
    print(f"loaded {len(loaded)} images of dim {loaded.features.shape[1]}, pixel range "
          f"[{loaded.features.min():.2f}, {loaded.features.max():.2f}]")

print("\n=== Exact pixel rotations (no interpolation) ===")
img = np.arange(16.0)
print("original 4x4: ", img.reshape(4, 4)[0], "...")
print("rotated 90cw:", rotate_image(img, 90).reshape(4, 4)[0], "...")
back = img
for _ in range(4):
    back = rotate_image(back, 90)
print("four quarter turns return the original exactly:", np.array_equal(back, img))
