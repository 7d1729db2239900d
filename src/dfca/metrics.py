"""Measured quantities: loss hierarchy, dispersion, clustering and test accuracy.

All functions are read-only over client states and safe to parallelize.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .datagen import Dataset
from .model import forward_loss, predict, unflatten_params

if TYPE_CHECKING:  # pragma: no cover
    from .core import ClientState

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


def f_cluster(states: Sequence["ClientState"], j: int) -> float:
    """Sum of assigned-client losses for cluster ``j`` (0 if empty)."""
    total = 0.0
    for s in states:
        if s.assignment == j:
            total += forward_loss(unflatten_params(s.shape, s.models[j]), s.data)
    return total


def f_global(states: Sequence["ClientState"]) -> float:
    """Sum of every client's loss on its assigned model."""
    k = len(states[0].models)
    return sum(f_cluster(states, j) for j in range(k))


def cluster_average(states: Sequence["ClientState"], j: int) -> np.ndarray:
    """Network average of all clients' copies of model ``j``.

    Computed as base + mean(deviations) so that identical copies average to
    themselves exactly.
    """
    stacked = np.stack([s.models[j] for s in states])
    base = stacked[0]
    return base + (stacked - base).mean(axis=0)


def dispersion(states: Sequence["ClientState"], j: int) -> float:
    """Mean squared distance of all N copies of model ``j`` from their average."""
    stacked = np.stack([s.models[j] for s in states])
    avg = cluster_average(states, j)
    return float(np.mean(np.sum((stacked - avg) ** 2, axis=1)))


def clustering_accuracy(states: Sequence["ClientState"], ground_truth: Sequence[int]) -> float:
    """Best label-permutation match rate between assignments and the truth.

    Exhaustive over label permutations, which is exact (and cheap) for k <= 4.
    """
    predicted = np.array([s.assignment for s in states])
    truth = np.asarray(ground_truth)
    if len(predicted) != len(truth):
        raise ValueError("one ground-truth cluster per client is required")
    n_labels = int(max(len(states[0].models), predicted.max() + 1, truth.max() + 1))
    best = 0.0
    for perm in itertools.permutations(range(n_labels)):
        table = np.array(perm)
        best = max(best, float(np.mean(table[predicted] == truth)))
    return best


def _client_hits(states: Sequence["ClientState"], test_sets: Sequence[Dataset]) -> list[np.ndarray]:
    """Per client, which of its test samples its assigned model predicts right."""
    return [
        predict(unflatten_params(s.shape, s.models[s.assignment]), test.features) == test.labels
        for s, test in zip(states, test_sets)
    ]


def test_accuracy(states: Sequence["ClientState"], test_sets: Sequence[Dataset]) -> float:
    """Sample-weighted top-1 accuracy of each client's assigned model on its
    own test split."""
    hits = _client_hits(states, test_sets)
    return sum(int(np.sum(h)) for h in hits) / sum(len(h) for h in hits)


def client_mean_test_accuracy(states: Sequence["ClientState"], test_sets: Sequence[Dataset]) -> float:
    """Unweighted mean of per-client test accuracies (reported alongside the
    sample-weighted figure)."""
    return float(np.mean([float(np.mean(h)) for h in _client_hits(states, test_sets)]))


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
