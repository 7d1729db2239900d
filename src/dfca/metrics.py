"""Measured quantities: loss hierarchy, dispersion, clustering and test accuracy.

All functions are read-only over a run's client states and read its
``(N, k, P)`` model array directly.  Losses and predictions are evaluated
for many clients per forward pass: clients whose datasets have equal length
are stacked, in chunks of about ``_CHUNK_ROWS`` sample rows, and their
models are gathered from the array into one block read through per-layer
views.  Each client's value is bitwise the one a forward pass over that
client alone gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .datagen import Dataset
from .model import MlpModel, _check_inputs, _chunks, _mean_ce, predict

if TYPE_CHECKING:  # pragma: no cover
    from .core import RunState

__all__ = [
    "RoundMetrics",
    "f_cluster",
    "f_global",
    "dispersion",
    "cluster_average",
    "clustering_accuracy",
    "test_accuracy",
    "client_mean_test_accuracy",
    "trace_columns",
    "trace_row",
]


@dataclass(frozen=True)
class RoundMetrics:
    """One row of the experiment trace."""

    round: int
    f_global: float
    f_cluster: tuple[float, ...]
    disp: tuple[float, ...]
    clustering_accuracy: float
    test_accuracy: float
    avg_drift: tuple[float, ...]
    assignments_changed: int

    def __post_init__(self) -> None:
        if abs(self.f_global - sum(self.f_cluster)) > 1e-9:
            raise ValueError("f_global must equal the sum of per-cluster losses")
        for name in ("clustering_accuracy", "test_accuracy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if len(self.disp) != len(self.f_cluster) or len(self.avg_drift) != len(self.f_cluster):
            raise ValueError("per-cluster metric tuples must have equal length")


def _per_client(
    states: "RunState",
    rows: np.ndarray,
    cols: np.ndarray,
    datasets: Sequence[Dataset],
    score: Callable[..., np.ndarray],
) -> np.ndarray:
    """``score(m, x, y)`` of model ``cols[p]`` of client ``rows[p]`` on
    ``datasets[p]`` for every position ``p``, one stacked forward pass per
    chunk."""
    out = np.empty(len(rows))
    for chunk in _chunks([len(d) for d in datasets]):
        m = MlpModel(states.shape, states.models[rows[chunk], cols[chunk]])
        x = np.stack([datasets[p].features for p in chunk])
        y = np.stack([datasets[p].labels for p in chunk])
        out[chunk] = score(m, x, y)
    return out


def _losses(m: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    _check_inputs(m, x, y)
    return _mean_ce(m, x, y)


def f_cluster(states: "RunState", j: int) -> float:
    """Sum of assigned-client losses for cluster ``j`` (0 if empty)."""
    rows = np.flatnonzero(states.assignment == j)
    datasets = [states.data[i] for i in rows]
    total = 0.0
    # Python floats added one at a time in client order: builtin sum()
    # compensates rounding from Python 3.12 on, and ndarray.sum() is pairwise.
    for loss in _per_client(states, rows, np.full(len(rows), j), datasets, _losses).tolist():
        total += loss
    return total


def f_global(states: "RunState") -> float:
    """Sum of every client's loss on its assigned model."""
    return sum(f_cluster(states, j) for j in range(states.models.shape[1]))


def _average(copies: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """``base + mean(copies - base)`` over the client axis, with ``base``
    the first row; the deviations go into ``dev``."""
    base = copies[0].copy()
    np.subtract(copies, base, out=dev)
    return base + dev.mean(axis=0)


def cluster_average(states: "RunState", j: int) -> np.ndarray:
    """Network average of all clients' copies of model ``j``.

    Computed as base + mean(deviations) so that identical copies average to
    themselves exactly.
    """
    copies = states.models[:, j]
    return _average(copies, np.empty_like(copies))


def dispersion(states: "RunState", j: int) -> float:
    """Mean squared distance of all N copies of model ``j`` from their average."""
    copies = states.models[:, j]
    dev = np.empty_like(copies)
    np.subtract(copies, _average(copies, dev), out=dev)
    return float(np.mean(np.sum(np.square(dev, out=dev), axis=1)))


def clustering_accuracy(states: "RunState", ground_truth: Sequence[int]) -> float:
    """Best label-permutation match rate between assignments and the truth.

    Exhaustive over label permutations, which is exact (and cheap) for k <= 4.
    """
    predicted = states.assignment
    truth = np.asarray(ground_truth)
    if len(predicted) != len(truth):
        raise ValueError("one ground-truth cluster per client is required")
    n_labels = int(max(states.models.shape[1], predicted.max() + 1, truth.max() + 1))
    best = 0.0
    for perm in itertools.permutations(range(n_labels)):
        table = np.array(perm)
        best = max(best, float(np.mean(table[predicted] == truth)))
    return best


def _hits(m: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sum(predict(m, x) == y, axis=-1)


def _client_hits(states: "RunState", test_sets: Sequence[Dataset]) -> tuple[np.ndarray, np.ndarray]:
    """Per client, how many of its test samples its assigned model predicts
    right, and how many test samples it has."""
    if len(test_sets) != len(states):
        raise ValueError("one test split per client is required")
    hits = _per_client(states, np.arange(len(states)), states.assignment, test_sets, _hits)
    return hits, np.array([len(t) for t in test_sets], dtype=float)


def test_accuracy(states: "RunState", test_sets: Sequence[Dataset]) -> float:
    """Sample-weighted top-1 accuracy of each client's assigned model on its
    own test split."""
    hits, sizes = _client_hits(states, test_sets)
    return int(hits.sum()) / int(sizes.sum())


def client_mean_test_accuracy(states: "RunState", test_sets: Sequence[Dataset]) -> float:
    """Unweighted mean of per-client test accuracies (reported alongside the
    sample-weighted figure)."""
    hits, sizes = _client_hits(states, test_sets)
    return float(np.mean(hits / sizes))


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
