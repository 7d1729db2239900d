"""One-hidden-layer MLP with softmax cross-entropy, trained by plain SGD.

``hidden=0`` degenerates to a linear softmax classifier.  Parameters travel
between training and aggregation as flat float64 vectors; the canonical
flattening order is w1, b1, w2, b2 (w1/b1 omitted when hidden=0).
"""

from __future__ import annotations

import itertools
import math
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset

__all__ = [
    "ModelShape",
    "MlpModel",
    "init_model",
    "forward_loss",
    "predict",
    "gradient",
    "sgd_epochs",
    "flatten_params",
    "unflatten_params",
    "params_to_bytes",
    "params_from_bytes",
]


@dataclass(frozen=True)
class ModelShape:
    dim: int
    hidden: int
    n_classes: int

    def __post_init__(self) -> None:
        if self.dim < 1 or self.n_classes < 2 or self.hidden < 0:
            raise ValueError(f"invalid model shape {self}")

    @property
    def param_count(self) -> int:
        if self.hidden == 0:
            return self.n_classes * (self.dim + 1)
        return self.hidden * (self.dim + 1) + self.n_classes * (self.hidden + 1)


@dataclass
class MlpModel:
    """Parameter container; ``w1``/``b1`` are None in the linear form."""

    w1: np.ndarray | None
    b1: np.ndarray | None
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        if (self.w1 is None) != (self.b1 is None):
            raise ValueError("w1 and b1 must both be present or both absent")
        if self.w1 is not None and (
            self.w1.shape[0] != self.b1.shape[0] or self.w2.shape[1] != self.w1.shape[0]
        ):
            raise ValueError("inconsistent hidden-layer dimensions")
        if self.w2.shape[0] != self.b2.shape[0]:
            raise ValueError("inconsistent output dimensions")
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("model parameters must be finite")

    @property
    def shape(self) -> ModelShape:
        if self.w1 is None:
            return ModelShape(dim=self.w2.shape[1], hidden=0, n_classes=self.w2.shape[0])
        return ModelShape(
            dim=self.w1.shape[1], hidden=self.w1.shape[0], n_classes=self.w2.shape[0]
        )


def init_model(shape: ModelShape, seed: int) -> MlpModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    rng = np.random.default_rng(seed)
    if shape.hidden == 0:
        bound = 1.0 / np.sqrt(shape.dim)
        return MlpModel(
            w1=None,
            b1=None,
            w2=rng.uniform(-bound, bound, (shape.n_classes, shape.dim)),
            b2=rng.uniform(-bound, bound, shape.n_classes),
        )
    bound1 = 1.0 / np.sqrt(shape.dim)
    bound2 = 1.0 / np.sqrt(shape.hidden)
    return MlpModel(
        w1=rng.uniform(-bound1, bound1, (shape.hidden, shape.dim)),
        b1=rng.uniform(-bound1, bound1, shape.hidden),
        w2=rng.uniform(-bound2, bound2, (shape.n_classes, shape.hidden)),
        b2=rng.uniform(-bound2, bound2, shape.n_classes),
    )


def _forward(m: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Returns (logits, hidden pre-activation, hidden activation).

    Layers and ``x`` may carry one leading model axis (see :func:`_layers`);
    every slice is computed exactly as the unstacked call computes it.
    """
    if m.w1 is None:
        return x @ np.swapaxes(m.w2, -1, -2) + m.b2[..., None, :], None, None
    pre = x @ np.swapaxes(m.w1, -1, -2) + m.b1[..., None, :]
    act = np.maximum(pre, 0.0)
    return act @ np.swapaxes(m.w2, -1, -2) + m.b2[..., None, :], pre, act


def _check_inputs(m: MlpModel, x: np.ndarray, y: np.ndarray) -> None:
    dim = m.w2.shape[-1] if m.w1 is None else m.w1.shape[-1]
    if x.shape[-1] != dim:
        raise ValueError(f"dataset dim {x.shape[-1]} does not match model dim {dim}")
    if int(y.max()) >= m.w2.shape[-2]:
        raise ValueError(f"label {int(y.max())} out of range for {m.w2.shape[-2]} classes")


def _mean_ce(m: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy over the sample axis: one value per stacked model
    (a scalar for an unstacked one), each a row mean along the contiguous
    axis so that it equals the unstacked value bitwise."""
    z, _, _ = _forward(m, x)
    zmax = z.max(axis=-1)
    lse = zmax + np.log(np.exp(z - zmax[..., None]).sum(axis=-1))
    return (lse - np.take_along_axis(z, y[..., None], axis=-1)[..., 0]).mean(axis=-1)


def forward_loss(m: MlpModel, d: Dataset) -> float:
    """Mean softmax cross-entropy over all samples in ``d``."""
    _check_inputs(m, d.features, d.labels)
    return float(_mean_ce(m, d.features, d.labels))


def predict(m: MlpModel, x: np.ndarray) -> np.ndarray:
    """Top-1 class per row; ties break toward the lowest class index."""
    z, _, _ = _forward(m, x)
    return np.argmax(z, axis=-1)


def _grad_xy(m: MlpModel, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """Backpropagated gradient of the mean cross-entropy, in flatten order."""
    n = len(y)
    z, pre, act = _forward(m, x)
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    probs = ez / ez.sum(axis=1, keepdims=True)
    probs[np.arange(n), y] -= 1.0
    g = probs / n
    gb2 = g.sum(axis=0)
    if m.w1 is None:
        return [(g.T @ x).ravel(), gb2]
    gw2 = g.T @ act
    dact = (g @ m.w2) * (pre > 0)
    gw1 = dact.T @ x
    gb1 = dact.sum(axis=0)
    return [gw1.ravel(), gb1, gw2.ravel(), gb2]


def gradient(m: MlpModel, batch: Dataset) -> np.ndarray:
    """Exact gradient of :func:`forward_loss` over ``batch`` as a flat vector."""
    if len(batch) == 0:
        raise ValueError("gradient of an empty batch is undefined")
    _check_inputs(m, batch.features, batch.labels)
    return np.concatenate(_grad_xy(m, batch.features, batch.labels))


def sgd_epochs(
    m: MlpModel,
    d: Dataset,
    gamma: float,
    tau: int,
    batch_size: int,
    seed: int,
) -> MlpModel:
    """Run ``tau`` epochs of minibatch SGD on ``d`` and return the new model.

    Each epoch visits a seeded shuffle of the data in batches of
    ``batch_size`` (clamped to the dataset size; the final short batch is
    kept).  Deterministic per seed; the input model is not modified.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    _check_inputs(m, d.features, d.labels)
    batch_size = min(batch_size, len(d))
    shape = m.shape
    values = flatten_params(m)
    current = _layers(shape, values)  # views: each step updates them in place
    rng = np.random.default_rng(seed)
    for _ in range(tau):
        order = rng.permutation(len(d))
        for start in range(0, len(d), batch_size):
            idx = order[start : start + batch_size]
            values -= gamma * np.concatenate(_grad_xy(current, d.features[idx], d.labels[idx]))
    return unflatten_params(shape, values)


def flatten_params(m: MlpModel) -> np.ndarray:
    """Canonical flat float64 vector: w1, b1, w2, b2."""
    parts = [] if m.w1 is None else [m.w1.ravel(), m.b1]
    parts += [m.w2.ravel(), m.b2]
    return np.concatenate(parts).astype(np.float64, copy=False)


def unflatten_params(shape: ModelShape, values: np.ndarray) -> MlpModel:
    """Inverse of :func:`flatten_params`; round-trips bitwise."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (shape.param_count,):
        raise ValueError(f"expected {shape.param_count} values, got shape {values.shape}")
    return MlpModel(*(None if a is None else a.copy() for a in _layers(shape, values)))


# Unchecked views into a flat parameter vector, named like MlpModel's fields
# so that _forward and _grad_xy accept them.
_Layers = namedtuple("_Layers", "w1 b1 w2 b2")


def _layers(shape: ModelShape, values: np.ndarray) -> _Layers:
    """Split flat vectors in flatten order into per-layer views (no copy).

    ``values`` is one vector ``(P,)`` or a stack ``(m, P)``; a stack gives
    views with the same leading model axis.
    """
    dims = [(shape.hidden, shape.dim), (shape.hidden,)] if shape.hidden else []
    dims += [(shape.n_classes, shape.hidden or shape.dim), (shape.n_classes,)]
    ends = itertools.accumulate(math.prod(d) for d in dims)
    lead = values.shape[:-1]
    views = [values[..., end - math.prod(d) : end].reshape(lead + d) for d, end in zip(dims, ends)]
    return _Layers(*[None] * (4 - len(views)), *views)  # w1, b1 are None when hidden=0


def params_to_bytes(values: np.ndarray) -> bytes:
    """Length-prefixed little-endian float64 encoding (for golden files)."""
    values = np.asarray(values, dtype=np.float64)
    return struct.pack("<Q", values.size) + values.astype("<f8").tobytes()


def params_from_bytes(buf: bytes) -> np.ndarray:
    if len(buf) < 8:
        raise ValueError("buffer too short for a length prefix")
    (count,) = struct.unpack_from("<Q", buf, 0)
    expected = 8 + 8 * count
    if len(buf) != expected:
        raise ValueError(f"expected {expected} bytes for {count} values, got {len(buf)}")
    return np.frombuffer(buf, dtype="<f8", count=count, offset=8).astype(np.float64)
