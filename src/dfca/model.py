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
from typing import Iterator, Sequence

import numpy as np

from .datagen import Dataset

__all__ = [
    "ModelShape",
    "MlpModel",
    "DivergenceError",
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
    """Parameter container; ``w1``/``b1`` are None in the linear form.

    The arrays may carry one leading model axis, holding a stack of models
    of one shape (see :func:`unflatten_params` and :func:`sgd_epochs`).
    """

    w1: np.ndarray | None
    b1: np.ndarray | None
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        if (self.w1 is None) != (self.b1 is None):
            raise ValueError("w1 and b1 must both be present or both absent")
        if self.w1 is not None and (
            self.w1.shape[-2] != self.b1.shape[-1] or self.w2.shape[-1] != self.w1.shape[-2]
        ):
            raise ValueError("inconsistent hidden-layer dimensions")
        if self.w2.shape[-2] != self.b2.shape[-1]:
            raise ValueError("inconsistent output dimensions")
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("model parameters must be finite")

    @property
    def shape(self) -> ModelShape:
        if self.w1 is None:
            return ModelShape(dim=self.w2.shape[-1], hidden=0, n_classes=self.w2.shape[-2])
        return ModelShape(
            dim=self.w1.shape[-1], hidden=self.w1.shape[-2], n_classes=self.w2.shape[-2]
        )


class DivergenceError(ValueError):
    """Training went non-finite: ``what`` says how, ``where`` locates it.

    Each layer that knows more raises it again through :meth:`at`:
    :func:`sgd_epochs` names the block row, ``core.local_update`` the client
    and cluster, ``core.run_round`` the round and ``harness.run_one_seed``
    the seed.
    """

    def __init__(
        self, what: str = "local SGD left non-finite model parameters", **where: int
    ) -> None:
        self.what = what
        self.where = where
        place = ", ".join(f"{key} {value}" for key, value in where.items())
        super().__init__(f"{what} at {place}")

    def at(self, **outer: int) -> "DivergenceError":
        """The same error, also naming the places ``outer`` (listed first)."""
        return DivergenceError(self.what, **outer, **self.where)


# Floating-point error handling of every forward and backward pass: a model
# that diverges produces inf and nan silently, and the callers' finiteness
# checks report it with a DivergenceError instead.
_NONFINITE_OK = dict(over="ignore", invalid="ignore")


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


def _forward(m: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (logits, input of the output layer): the hidden activation,
    or ``x`` itself in the linear form.

    Layers and ``x`` may carry one leading model axis (see :func:`_layers`);
    every slice is computed exactly as the unstacked call computes it.  The
    bias and the ReLU are applied in place: on a stacked block each
    temporary holds every row of the block.
    """
    act = x
    if m.w1 is not None:
        act = x @ np.swapaxes(m.w1, -1, -2)
        act += m.b1[..., None, :]
        np.maximum(act, 0.0, out=act)
    z = act @ np.swapaxes(m.w2, -1, -2)
    z += m.b2[..., None, :]
    return z, act


def _check_inputs(m: MlpModel, x: np.ndarray, y: np.ndarray) -> None:
    dim = m.w2.shape[-1] if m.w1 is None else m.w1.shape[-1]
    if x.shape[-1] != dim:
        raise ValueError(f"dataset dim {x.shape[-1]} does not match model dim {dim}")
    if int(y.max()) >= m.w2.shape[-2]:
        raise ValueError(f"label {int(y.max())} out of range for {m.w2.shape[-2]} classes")


@np.errstate(**_NONFINITE_OK)
def _mean_ce(m: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy over the sample axis: one value per stacked model
    (a scalar for an unstacked one), each a row mean along the contiguous
    axis so that it equals the unstacked value bitwise.  ``x`` and ``y`` may
    lack the model axis, and then every model sees the same samples."""
    z, _ = _forward(m, x)
    zmax = z.max(axis=-1)
    lse = zmax + np.log(np.exp(z - zmax[..., None]).sum(axis=-1))
    picked = np.take_along_axis(z, np.broadcast_to(y[..., None], z.shape[:-1] + (1,)), axis=-1)
    return (lse - picked[..., 0]).mean(axis=-1)


def forward_loss(m: MlpModel, d: Dataset) -> float | np.ndarray:
    """Mean softmax cross-entropy over all samples in ``d``; for a stack of
    models (see :func:`_layers`), one loss per model, each bitwise the loss
    of that model alone."""
    _check_inputs(m, d.features, d.labels)
    losses = _mean_ce(m, d.features, d.labels)
    return float(losses) if losses.ndim == 0 else losses


@np.errstate(**_NONFINITE_OK)
def predict(m: MlpModel, x: np.ndarray) -> np.ndarray:
    """Top-1 class per row; ties break toward the lowest class index."""
    z, _ = _forward(m, x)
    return np.argmax(z, axis=-1)


def _grad_xy(m: MlpModel, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """Backpropagated gradient of the mean cross-entropy, in flatten order.

    Layers, ``x`` and ``y`` may carry one leading model axis; every slice is
    computed exactly as the unstacked call computes it.
    """
    lead = y.shape[:-1]
    z, act = _forward(m, x)
    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    probs = ez / ez.sum(axis=-1, keepdims=True)
    probs -= y[..., None] == np.arange(probs.shape[-1])  # one-hot; p - 0.0 is exactly p
    g = probs / y.shape[-1]
    out = [(np.swapaxes(g, -1, -2) @ act).reshape(lead + (-1,)), g.sum(axis=-2)]
    if m.w1 is None:
        return out
    dact = g @ m.w2
    dact *= act > 0
    return [(np.swapaxes(dact, -1, -2) @ x).reshape(lead + (-1,)), dact.sum(axis=-2), *out]


def gradient(m: MlpModel, batch: Dataset) -> np.ndarray:
    """Exact gradient of :func:`forward_loss` over ``batch`` as a flat vector."""
    if len(batch) == 0:
        raise ValueError("gradient of an empty batch is undefined")
    _check_inputs(m, batch.features, batch.labels)
    return np.concatenate(_grad_xy(m, batch.features, batch.labels))


_CHUNK_ROWS = 2048  # rows per stacked pass; bounds the temporaries


def _chunks(lengths: Sequence[int], batch_size: int | None = None) -> Iterator[list[int]]:
    """Positions with equal dataset length, in order, cut into chunks of at
    most ``_CHUNK_ROWS`` rows (at least one position each).  A dataset of
    length n counts n rows, or ``min(n, batch_size)`` when it is trained in
    minibatches."""
    groups: dict[int, list[int]] = {}
    for pos, n in enumerate(lengths):
        groups.setdefault(n, []).append(pos)
    for n, members in groups.items():
        step = max(1, _CHUNK_ROWS // min(n, batch_size or n))
        for start in range(0, len(members), step):
            yield members[start : start + step]


def sgd_epochs(
    m: MlpModel,
    d: Dataset | Sequence[Dataset],
    gamma: float,
    tau: int,
    batch_size: int,
    seed: int | Sequence[int],
) -> MlpModel:
    """Run ``tau`` epochs of minibatch SGD on ``d`` and return the new model.

    Each epoch visits a seeded shuffle of the data in batches of
    ``batch_size`` (clamped to the dataset size; the final short batch is
    kept).  Deterministic per seed; the input model is not modified.

    Many clients train in one call when ``m`` is a stack of models (a
    leading model axis, as :func:`unflatten_params` gives for an ``(m, P)``
    block), ``d`` holds one dataset per model, all of one length, and
    ``seed`` one seed per model.  The block runs one loop over epochs and
    minibatches, each model drawing its own shuffle, and the result is the
    stack of trained models, each bitwise the model a call for that client
    alone returns.  A model whose parameters are no longer finite raises
    :class:`DivergenceError` naming its row.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    single = isinstance(d, Dataset)
    datasets, seeds = ([d], [seed]) if single else (d, seed)
    shape = m.shape
    values = flatten_params(m).reshape(-1, shape.param_count)
    if not len(values) == len(datasets) == len(seeds):
        raise ValueError(
            f"{len(values)} models need as many datasets and seeds, "
            f"got {len(datasets)} and {len(seeds)}"
        )
    if len({len(data) for data in datasets}) != 1:
        raise ValueError("models trained in one call need datasets of one length")
    for data in datasets:
        _check_inputs(m, data.features, data.labels)
    x = np.stack([data.features for data in datasets])
    y = np.stack([data.labels for data in datasets])
    n = y.shape[1]
    batch_size = min(batch_size, n)
    rows = np.arange(len(values))[:, None]
    current = _layers(shape, values)  # views: each step updates them in place
    rngs = [np.random.default_rng(s) for s in seeds]
    with np.errstate(**_NONFINITE_OK):
        for _ in range(tau):
            order = np.stack([rng.permutation(n) for rng in rngs])
            for start in range(0, n, batch_size):
                idx = order[:, start : start + batch_size]
                step = np.concatenate(_grad_xy(current, x[rows, idx], y[rows, idx]), axis=-1)
                step *= gamma
                values -= step
    diverged = np.flatnonzero(~np.isfinite(values).all(axis=-1))
    if diverged.size:
        raise DivergenceError(row=int(diverged[0]))
    return unflatten_params(shape, values[0] if single else values)


def flatten_params(m: MlpModel) -> np.ndarray:
    """Canonical flat float64 vector: w1, b1, w2, b2 (one row per model of a
    stack)."""
    lead = m.b2.shape[:-1]
    parts = [] if m.w1 is None else [m.w1, m.b1]
    parts += [m.w2, m.b2]
    return np.concatenate([a.reshape(lead + (-1,)) for a in parts], axis=-1).astype(
        np.float64, copy=False
    )


def unflatten_params(shape: ModelShape, values: np.ndarray) -> MlpModel:
    """Inverse of :func:`flatten_params`; round-trips bitwise.  An ``(m, P)``
    block gives a stack of ``m`` models."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[-1] != shape.param_count:
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
