"""Communication graphs and the Metropolis mixing matrix of gossip averaging.

Everything here is immutable after construction (arrays are marked
read-only, and a graph's derived values are built once, on first read) and
safe to share across parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Topology",
    "generate_erdos_renyi",
    "is_connected",
    "build_mixing_matrix",
    "spectral_gap",
]


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected communication graph over ``n_clients = len(adjacency)`` clients.

    ``adjacency`` is a non-empty symmetric boolean square matrix with a zero
    diagonal, copied before it is checked, so no array the caller keeps can
    change it.  Two graphs are equal only if they are the same object, which
    also makes a graph hashable.
    """

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.array(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.size == 0:
            raise ValueError(f"adjacency must be a non-empty square matrix, got shape {adj.shape}")
        if np.any(np.diag(adj)):
            raise ValueError("adjacency must have a zero diagonal (no self-loops)")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def n_clients(self) -> int:
        return len(self.adjacency)

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    @cached_property
    def neighborhoods(self) -> tuple[tuple[int, ...], ...]:
        """``neighborhoods[i]``: the clients adjacent to ``i``, ascending."""
        return tuple(tuple(int(m) for m in np.flatnonzero(row)) for row in self.adjacency)

    @cached_property
    def metropolis(self) -> np.ndarray:
        """:func:`build_mixing_matrix` of this graph, built on first read."""
        return build_mixing_matrix(self)


def generate_erdos_renyi(n: int, p: float, seed: int) -> Topology:
    """Sample an Erdős–Rényi graph: each pair is an edge independently with
    probability ``p``.  Deterministic for fixed (n, p, seed)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, k=1)
    if iu[0].size:
        draws = rng.random(iu[0].size) < p
        adj[iu] = draws
        adj |= adj.T
    return Topology(adj)


def is_connected(t: Topology) -> bool:
    """True iff a breadth-first search from client 0 reaches every client.
    Each adjacency row is read once, as part of one frontier: O(N^2) in all."""
    seen = np.zeros(t.n_clients, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        frontier = np.flatnonzero(t.adjacency[frontier].any(axis=0) & ~seen)
        seen[frontier] = True
    return bool(seen.all())


def build_mixing_matrix(t: Topology) -> np.ndarray:
    """The read-only ``(N, N)`` Metropolis weights of ``t`` (Xiao & Boyd
    2004): 1/(1+max(deg(i), deg(m))) on every edge, the remainder on the
    diagonal.  Symmetric and therefore doubly stochastic."""
    deg = t.adjacency.sum(axis=1)
    w = np.where(t.adjacency, 1.0 / (1 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    w.setflags(write=False)
    return w


def spectral_gap(w: np.ndarray) -> float:
    """1 minus the second-largest eigenvalue magnitude of the mixing matrix
    ``w``, clamped to [0, 1].  Requires a square matrix that is exactly
    symmetric: ``np.linalg.eigvalsh`` reads only one triangle."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"spectral_gap requires a square matrix, got shape {w.shape}")
    if not np.array_equal(w, w.T):
        raise ValueError("spectral_gap requires exactly symmetric weights")
    if len(w) == 1:
        return 1.0
    second = np.sort(np.abs(np.linalg.eigvalsh(w)))[-2]
    return float(min(1.0, max(0.0, 1.0 - second)))

