"""One-hidden-layer MLP with softmax cross-entropy, trained by plain SGD.

``hidden=0`` degenerates to a linear softmax classifier.  Parameters travel
between training and aggregation as flat float64 vectors; the canonical
flattening order is w1, b1, w2, b2 (w1/b1 omitted when hidden=0).
"""

from __future__ import annotations

import itertools
import math
import struct
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


class MlpModel:
    """Per-layer views ``w1``, ``b1``, ``w2``, ``b2`` of the flat float64
    parameters ``values``, in flatten order; ``w1``/``b1`` are None in the
    linear form.

    ``values`` is one model ``(P,)`` or a stack of models of one shape
    ``(m, P)``, and then every view carries the same leading model axis.
    Construction copies nothing and checks nothing: a write through a view
    is a write to ``values``.  :func:`unflatten_params` is the checked copy.
    """

    __slots__ = ("shape", "values", "w1", "b1", "w2", "b2")

    def __init__(self, shape: ModelShape, values: np.ndarray) -> None:
        self.shape = shape
        self.values = values
        dims = [(shape.hidden, shape.dim), (shape.hidden,)] if shape.hidden else []
        dims += [(shape.n_classes, shape.hidden or shape.dim), (shape.n_classes,)]
        ends = itertools.accumulate(math.prod(d) for d in dims)
        lead = values.shape[:-1]
        views = [
            values[..., end - math.prod(d) : end].reshape(lead + d) for d, end in zip(dims, ends)
        ]
        self.w1, self.b1, self.w2, self.b2 = [None] * (4 - len(views)) + views


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
    m = MlpModel(shape, np.empty(shape.param_count))
    for w, b in ((m.w1, m.b1), (m.w2, m.b2)):
        if w is not None:
            bound = 1.0 / np.sqrt(w.shape[-1])
            w[...] = rng.uniform(-bound, bound, w.shape)
            b[...] = rng.uniform(-bound, bound, b.shape)
    return m


def _forward(m: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (logits, input of the output layer): the hidden activation,
    or ``x`` itself in the linear form.

    Layers and ``x`` may carry one leading model axis (see :class:`MlpModel`);
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
    if x.shape[-1] != m.shape.dim:
        raise ValueError(f"dataset dim {x.shape[-1]} does not match model dim {m.shape.dim}")
    if int(y.max()) >= m.shape.n_classes:
        raise ValueError(f"label {int(y.max())} out of range for {m.shape.n_classes} classes")


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
    models (see :class:`MlpModel`), one loss per model, each bitwise the loss
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
    values = m.values.reshape(-1, shape.param_count).copy()
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
    current = MlpModel(shape, values)  # views: each step updates them in place
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
    return MlpModel(shape, values[0] if single else values)


def flatten_params(m: MlpModel) -> np.ndarray:
    """Canonical flat float64 vector: w1, b1, w2, b2 (one row per model of a
    stack).  A copy of ``m.values``."""
    return m.values.copy()


def unflatten_params(shape: ModelShape, values: np.ndarray) -> MlpModel:
    """Checked copy of flat parameters in flatten order; the inverse of
    :func:`flatten_params`, round-tripping bitwise.  An ``(m, P)`` block
    gives a stack of ``m`` models."""
    values = np.array(values, dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[-1] != shape.param_count:
        raise ValueError(f"expected {shape.param_count} values, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("model parameters must be finite")
    return MlpModel(shape, values)


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
