"""Measured quantities: loss hierarchy, dispersion, clustering and test accuracy.

All functions are read-only over a run's client states and take nothing
else: they read its ``(N, k, P)`` model array, its assignments and its
clients' stacked train and test splits directly.  The per-cluster ones
answer for all k clusters at once.  Losses and predictions are evaluated
for many clients per forward pass, in slices of the stacks of about
``_CHUNK_ROWS`` sample rows, and their models are gathered from the array
into one block read through per-layer views.  Each client's value is
bitwise the one a forward pass over that client alone gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .datagen import Dataset
from .model import MlpModel, _chunks, _mean_ce, predict

if TYPE_CHECKING:  # pragma: no cover
    from .core import RunState

__all__ = [
    "RoundMetrics",
    "f_cluster",
    "dispersion",
    "cluster_average",
    "clustering_accuracy",
    "test_accuracy",
    "trace_columns",
    "trace_row",
]


def _add(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0: builtin ``sum()`` compensates
    rounding from Python 3.12 on and ``ndarray.sum()`` is pairwise."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class RoundMetrics:
    """One row of the experiment trace; ``f_global`` is derived."""

    round: int
    f_cluster: tuple[float, ...]
    disp: tuple[float, ...]
    clustering_accuracy: float
    test_accuracy: float
    avg_drift: tuple[float, ...]
    assignments_changed: int

    def __post_init__(self) -> None:
        for name in ("clustering_accuracy", "test_accuracy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if len(self.disp) != len(self.f_cluster) or len(self.avg_drift) != len(self.f_cluster):
            raise ValueError("per-cluster metric tuples must have equal length")

    @property
    def f_global(self) -> float:
        """The per-cluster losses added left to right (see :func:`_add`)."""
        return _add(self.f_cluster)


def _per_client(states: "RunState", data: Dataset, score: Callable[..., np.ndarray]) -> np.ndarray:
    """``score(m, x, y)`` of every client's assigned model on its row of the
    stack ``data``, one stacked forward pass per chunk.  The run checked the
    stacks against its model shape."""
    out, clients = np.empty(len(data)), np.arange(len(data))
    for chunk in _chunks(len(data), data.labels.shape[-1]):
        m = MlpModel(states.shape, states.models[clients[chunk], states.assignment[chunk]])
        out[chunk] = score(m, data.features[chunk], data.labels[chunk])
    return out


def f_cluster(states: "RunState") -> tuple[float, ...]:
    """Per cluster, the sum of its assigned clients' losses, added in client
    order (0 if it has none)."""
    losses = _per_client(states, states.data, _mean_ce)
    return tuple(_add(losses[states.assignment == j].tolist()) for j in range(states.models.shape[1]))


def _average(copies: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """``base + mean(copies - base)`` over the client axis, with ``base``
    the first row; the deviations go into ``dev``."""
    base = copies[0].copy()
    np.subtract(copies, base, out=dev)
    return base + dev.mean(axis=0)


def cluster_average(states: "RunState") -> np.ndarray:
    """``(k, P)``: row ``j`` is the network average of all clients' copies
    of model ``j``.

    Computed as base + mean(deviations) so that identical copies average to
    themselves exactly.
    """
    dev = np.empty_like(states.models[:, 0])
    return np.array([_average(states.models[:, j], dev) for j in range(states.models.shape[1])])


def dispersion(states: "RunState") -> tuple[float, ...]:
    """Per cluster, the mean squared distance of all N copies of its model
    from their average."""
    dev, disp = np.empty_like(states.models[:, 0]), []
    for j in range(states.models.shape[1]):
        copies = states.models[:, j]
        np.subtract(copies, _average(copies, dev), out=dev)
        disp.append(float(np.mean(np.sum(np.square(dev, out=dev), axis=1))))
    return tuple(disp)


def clustering_accuracy(states: "RunState") -> float:
    """Match rate of the assignments and each client's true cluster, the
    ``distribution_id`` of its data, under the best one-to-one label map:
    both sides relabelled densely, and injective maps of the smaller label
    set (size a) into the larger scored on their confusion matrix, over only
    the columns among some row's a largest counts: a row mapped elsewhere
    can move, at no loss, to one of those that no other row takes."""
    truth = states.data.distribution_id
    a_labels, a = np.unique(states.assignment, return_inverse=True)
    b_labels, b = np.unique(truth, return_inverse=True)
    confusion = np.bincount(a * len(b_labels) + b, minlength=len(a_labels) * len(b_labels))
    confusion = confusion.reshape(len(a_labels), len(b_labels))
    if len(a_labels) > len(b_labels):
        confusion = confusion.T
    size = len(confusion)
    # A set, not np.unique: a plain np.unique call imports numpy.ma, about 1.2 MB of peak RSS.
    columns = sorted(set(np.argsort(-confusion, axis=1, kind="stable")[:, :size].ravel().tolist()))
    table = confusion[:, columns].tolist()
    maps = itertools.permutations(range(len(columns)), size)
    return max(sum(row[c] for row, c in zip(table, m)) for m in maps) / len(truth)


def _hits(m: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sum(predict(m, x) == y, axis=-1)


def test_accuracy(states: "RunState") -> float:
    """Top-1 accuracy of each client's assigned model on its own test split,
    over all test samples."""
    return int(_per_client(states, states.test_sets, _hits).sum()) / states.test_sets.labels.size


def trace_columns(k: int) -> list[str]:
    """CSV column names for a k-cluster trace."""
    return (
        ["round", "f_global"]
        + [f"f_cluster_{j}" for j in range(k)]
        + [f"disp_{j}" for j in range(k)]
        + ["clustering_acc", "test_acc"]
        + [f"avg_drift_{j}" for j in range(k)]
        + ["assignments_changed"]
    )


def trace_row(m: RoundMetrics) -> list[str]:
    """One CSV row; floats use shortest round-trip formatting so traces are
    byte-stable across runs."""
    fmt = lambda x: repr(float(x))
    return (
        [str(m.round), fmt(m.f_global)]
        + [fmt(v) for v in m.f_cluster]
        + [fmt(v) for v in m.disp]
        + [fmt(m.clustering_accuracy), fmt(m.test_accuracy)]
        + [fmt(v) for v in m.avg_drift]
        + [str(m.assignments_changed)]
    )
