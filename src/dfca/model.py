"""One-hidden-layer MLP with softmax cross-entropy, trained by plain SGD.

``hidden=0`` degenerates to a linear softmax classifier.  Parameters travel
between training and aggregation as flat float64 vectors; the canonical
flattening order is w1, b1, w2, b2 (w1/b1 omitted when hidden=0).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

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
    "unflatten_params",
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


class _LocatedError(Exception):
    """A failure whose ``what`` says what went wrong and whose ``where``
    locates it; each layer that knows more raises it again through
    :meth:`at`."""

    def __init__(self, what: str, **where: int) -> None:
        self.what = what
        self.where = where
        place = ", ".join(f"{key} {value}" for key, value in where.items())
        super().__init__(f"{what} at {place}" if where else what)

    def at(self, **outer: int) -> "_LocatedError":
        """The same error, also naming the places ``outer`` (listed first)."""
        return type(self)(self.what, **outer, **self.where)


class DivergenceError(_LocatedError, ValueError):
    """Training went non-finite.  :func:`sgd_epochs` names the block row,
    ``core.local_update`` the round, client and cluster, and
    ``harness.run_one_seed`` the seed."""

    def __init__(
        self, what: str = "local SGD left non-finite model parameters", **where: int
    ) -> None:
        super().__init__(what, **where)


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


def _check_inputs(shape: ModelShape, x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[-1] != shape.dim:
        raise ValueError(f"dataset dim {x.shape[-1]} does not match model dim {shape.dim}")
    if int(y.max()) >= shape.n_classes:
        raise ValueError(f"label {int(y.max())} out of range for {shape.n_classes} classes")


def _row_max(z: np.ndarray) -> np.ndarray:
    """Max over the class (last) axis, one ``np.maximum`` per column: numpy's
    per-row reduction calls its inner loop once per short row."""
    out = np.maximum(z[..., 0], z[..., 1])
    for j in range(2, z.shape[-1]):
        np.maximum(out, z[..., j], out=out)
    return out


def _row_sum(e: np.ndarray) -> np.ndarray:
    """Sum over the class (last) axis, bitwise ``e.sum(axis=-1)``: numpy adds
    fewer than 8 terms left to right, so the columns are added in that order;
    from 8 terms on it adds pairwise, and its own sum is returned."""
    if e.shape[-1] >= 8:
        return e.sum(axis=-1)
    out = e[..., 0] + e[..., 1]
    for j in range(2, e.shape[-1]):
        out += e[..., j]
    return out


@np.errstate(**_NONFINITE_OK)
def _mean_ce(m: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy over the sample axis: one value per stacked model
    (a scalar for an unstacked one), each a row mean along the contiguous
    axis so that it equals the unstacked value bitwise.  ``x`` and ``y`` may
    lack the model axis, and then every model sees the same samples.  The
    class-axis max and sum run by columns (:func:`_row_sum` keeps numpy's own
    sum from 8 classes on), and the true-class logit is one flat index."""
    z, _ = _forward(m, x)
    zmax = _row_max(z)
    lse = zmax + np.log(_row_sum(np.exp(z - zmax[..., None])))
    labels = np.broadcast_to(y, lse.shape).ravel()
    picked = z.reshape(-1)[np.arange(0, z.size, z.shape[-1]) + labels]
    return (lse - picked.reshape(lse.shape)).mean(axis=-1)


def forward_loss(m: MlpModel, d: Dataset) -> float | np.ndarray:
    """Mean softmax cross-entropy over all samples in ``d``; for a stack of
    models (see :class:`MlpModel`), one loss per model, each bitwise the loss
    of that model alone.

    ``d`` may also be a stack of clients, one per row of the model stack: a
    ``(c, P)`` block then gives ``c`` losses and a ``(c, k, P)`` block, row
    ``r`` of which is scored on client ``r``, gives ``(c, k)`` losses.
    """
    x, y = d.features, d.labels
    if x.ndim == 3:
        if m.values.ndim < 2 or len(m.values) != len(d):
            raise ValueError(f"a stack of {len(d)} clients needs a model block with one row per "
                             f"client, got models of shape {m.values.shape}")
        for _ in range(m.values.ndim - 2):  # each client serves every model of its row
            x, y = x[:, None], y[:, None]
    _check_inputs(m.shape, x, y)
    losses = _mean_ce(m, x, y)
    return float(losses) if losses.ndim == 0 else losses


@np.errstate(**_NONFINITE_OK)
def predict(m: MlpModel, x: np.ndarray) -> np.ndarray:
    """Top-1 class per row; ties break toward the lowest class index."""
    z, _ = _forward(m, x)
    return np.argmax(z, axis=-1)


def _grad_xy(m: MlpModel, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """Backpropagated gradient of the mean cross-entropy, in flatten order.

    Layers, ``x`` and ``y`` may carry one leading model axis; every slice is
    computed exactly as the unstacked call computes it, the softmax's
    class-axis max and sum by columns as in :func:`_mean_ce`.
    """
    lead = y.shape[:-1]
    z, act = _forward(m, x)
    ez = np.exp(z - _row_max(z)[..., None])
    probs = ez / _row_sum(ez)[..., None]
    probs -= y[..., None] == np.arange(probs.shape[-1])  # one-hot; p - 0.0 is exactly p
    g = probs / y.shape[-1]
    out = [(np.swapaxes(g, -1, -2) @ act).reshape(lead + (-1,)), g.sum(axis=-2)]
    if m.w1 is None:
        return out
    dact = g @ m.w2
    dact *= act > 0
    return [(np.swapaxes(dact, -1, -2) @ x).reshape(lead + (-1,)), dact.sum(axis=-2), *out]


def gradient(m: MlpModel, batch: Dataset) -> np.ndarray:
    """Exact gradient of :func:`forward_loss` of one model over one client's
    ``batch`` as a flat vector."""
    if batch.features.ndim == 3 or m.values.ndim != 1:
        raise ValueError(f"gradient takes one model and one client's samples, got models of shape "
                         f"{m.values.shape} and samples of shape {batch.features.shape}")
    if len(batch) == 0:
        raise ValueError("gradient of an empty batch is undefined")
    _check_inputs(m.shape, batch.features, batch.labels)
    return np.concatenate(_grad_xy(m, batch.features, batch.labels))


_CHUNK_ROWS = 2048  # rows per stacked pass; bounds the temporaries
_BLOCK_BYTES = 1 << 18  # bytes of model rows per pass: the merge fold and the cluster averages


def _chunks(count: int, rows: int) -> Iterator[slice]:
    """Slices of positions ``0..count-1``, in order, of at most ``_CHUNK_ROWS``
    rows when each position counts ``rows`` (at least one position each)."""
    step = max(1, _CHUNK_ROWS // rows)
    return (slice(start, start + step) for start in range(0, count, step))


def _block_rows(row_nbytes: int) -> int:
    """Rows of ``row_nbytes`` bytes that one pass over model rows holds (at least one)."""
    return max(1, _BLOCK_BYTES // row_nbytes)


def sgd_epochs(
    m: MlpModel,
    d: Dataset,
    gamma: float,
    tau: int,
    batch_size: int,
    keys: np.ndarray,
) -> MlpModel:
    """Run ``tau`` epochs of minibatch SGD on ``d`` and return the new model.

    ``keys`` is the shuffle as data: a ``(tau, n)`` table for one dataset of
    ``n`` samples.  Epoch ``e`` visits the samples in the stable ascending
    order of ``keys[e]``, in batches of ``batch_size`` (clamped to the
    dataset size; the final short batch is kept).  Deterministic per table;
    the input model is not modified.

    Many clients train in one call when ``m`` is a stack of models (a
    leading model axis, as :func:`unflatten_params` gives for an ``(m, P)``
    block), ``d`` is a stack of as many clients (see :class:`Dataset`), and
    ``keys`` is a ``(c, tau, n)`` table, one ``(tau, n)`` table per model.
    The block runs one loop over epochs and minibatches, and the result is
    the stack of trained models, each bitwise the model a call for that
    client and its table alone returns.  A model whose parameters are no
    longer finite raises :class:`DivergenceError` naming its row.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    single = d.features.ndim == 2
    x, y = (d.features[None], d.labels[None]) if single else (d.features, d.labels)
    shape = m.shape
    values = m.values.reshape(-1, shape.param_count).copy()
    if len(values) != len(x):
        raise ValueError(f"{len(values)} models need as many clients, got {len(x)}")
    _check_inputs(shape, x, y)
    n = y.shape[1]
    table = (tau, n) if single else (len(values), tau, n)
    if np.shape(keys) != table:
        raise ValueError(f"the shuffle keys need shape {table}, got {np.shape(keys)}")
    order = np.argsort(keys, axis=-1, kind="stable").reshape(len(values), tau, n)
    batch_size = min(batch_size, n)
    rows = np.arange(len(values))[:, None]
    current = MlpModel(shape, values)  # views: each step updates them in place
    with np.errstate(**_NONFINITE_OK):
        for epoch in range(tau):
            for start in range(0, n, batch_size):
                idx = order[:, epoch, start : start + batch_size]
                step = np.concatenate(_grad_xy(current, x[rows, idx], y[rows, idx]), axis=-1)
                step *= gamma
                values -= step
    diverged = np.flatnonzero(~np.isfinite(values).all(axis=-1))
    if diverged.size:
        raise DivergenceError(row=int(diverged[0]))
    return MlpModel(shape, values[0] if single else values)


def unflatten_params(shape: ModelShape, values: np.ndarray) -> MlpModel:
    """Checked copy of flat parameters in flatten order, whose ``values``
    equal the input bitwise.  An ``(m, P)`` block gives a stack of ``m``
    models."""
    values = np.array(values, dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[-1] != shape.param_count:
        raise ValueError(f"expected {shape.param_count} values, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("model parameters must be finite")
    return MlpModel(shape, values)
