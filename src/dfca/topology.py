"""Communication graphs and the mixing matrices that drive gossip averaging.

All types here are immutable after construction (arrays are marked
read-only) and safe to share across parallel workers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PAPER_UNIFORM",
    "METROPOLIS",
    "MIXING_KINDS",
    "Topology",
    "MixingMatrix",
    "PowerIterationError",
    "generate_erdos_renyi",
    "is_connected",
    "build_mixing_matrix",
    "spectral_gap",
    "to_edge_list_text",
    "from_edge_list_text",
]

PAPER_UNIFORM = "paper-uniform"
METROPOLIS = "metropolis"
MIXING_KINDS = (PAPER_UNIFORM, METROPOLIS)


class PowerIterationError(RuntimeError):
    """Raised when eigenvalue estimation hits its iteration cap."""


@dataclass(frozen=True)
class Topology:
    """Undirected communication graph over ``n_clients`` clients.

    ``adjacency`` is a symmetric boolean matrix with a zero diagonal;
    ``neighborhoods[i]`` is the sorted tuple of clients adjacent to ``i``
    (exactly the nonzero entries of row ``i``).
    """

    n_clients: int
    adjacency: np.ndarray
    neighborhoods: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.n_clients, self.n_clients):
            raise ValueError(
                f"adjacency shape {adj.shape} does not match n_clients={self.n_clients}"
            )
        if np.any(np.diag(adj)):
            raise ValueError("adjacency must have a zero diagonal (no self-loops)")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        hoods = tuple(tuple(int(m) for m in np.flatnonzero(row)) for row in adj)
        object.__setattr__(self, "neighborhoods", hoods)

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def degree(self, i: int) -> int:
        return len(self.neighborhoods[i])


@dataclass(frozen=True)
class MixingMatrix:
    """Row-stochastic gossip weights respecting a topology.

    ``paper-uniform`` puts weight 1/(deg(i)+1) on client i itself and on each
    of its neighbors.  ``metropolis`` uses 1/(1+max(deg(i), deg(m))) on every
    edge with the remainder on the diagonal; it is symmetric and therefore
    doubly stochastic.

    Runs never build ``paper-uniform``: they merge without a matrix, 1/(r+1)
    over self plus the r neighbors that report that round.
    """

    weights: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if self.kind not in MIXING_KINDS:
            raise ValueError(f"unknown mixing kind {self.kind!r}")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


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
    return Topology(n_clients=n, adjacency=adj)


def is_connected(t: Topology) -> bool:
    """True iff breadth-first traversal from client 0 reaches every client."""
    seen = [False] * t.n_clients
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        i = queue.popleft()
        for m in t.neighborhoods[i]:
            if not seen[m]:
                seen[m] = True
                count += 1
                queue.append(m)
    return count == t.n_clients


def build_mixing_matrix(t: Topology, kind: str) -> MixingMatrix:
    """Build the row-stochastic mixing matrix of the requested kind (runs
    build only ``metropolis``, see :class:`MixingMatrix`)."""
    if kind not in MIXING_KINDS:
        raise ValueError(f"unknown mixing kind {kind!r}")
    n = t.n_clients
    w = np.zeros((n, n), dtype=np.float64)
    degrees = [t.degree(i) for i in range(n)]
    if kind == PAPER_UNIFORM:
        for i in range(n):
            share = 1.0 / (degrees[i] + 1)
            w[i, i] = share
            for m in t.neighborhoods[i]:
                w[i, m] = share
    else:
        for i in range(n):
            for m in t.neighborhoods[i]:
                w[i, m] = 1.0 / (1 + max(degrees[i], degrees[m]))
            w[i, i] = 1.0 - w[i].sum()
    return MixingMatrix(weights=w, kind=kind)


def spectral_gap(w: MixingMatrix, tol: float = 1e-10, max_iter: int = 200_000) -> float:
    """1 minus the second-largest eigenvalue magnitude of ``w``.

    Uses deflated power iteration: the known top eigenpair (eigenvalue 1,
    uniform eigenvector) is removed by subtracting the rank-one averaging
    matrix, then the norm-growth ratio of the remainder is iterated until it
    changes by less than ``tol``.  Requires the symmetric ``metropolis`` kind.

    Raises ``PowerIterationError`` if the cap is hit before the tolerance.
    """
    if w.kind != METROPOLIS:
        raise ValueError("spectral_gap requires the symmetric metropolis kind")
    n = w.n
    if n == 1:
        return 1.0
    deflated = w.weights - 1.0 / n
    v = np.random.default_rng(0).standard_normal(n)
    v -= v.mean()
    v /= np.linalg.norm(v)
    prev_est = np.inf
    for _ in range(max_iter):
        u = deflated @ v
        u -= u.mean()  # keep the iterate orthogonal to the removed eigenvector
        norm = float(np.linalg.norm(u))
        if norm < 1e-300:
            return 1.0  # remainder is (numerically) zero: rank-one mixing
        est = norm
        v = u / norm
        if abs(est - prev_est) <= tol:
            return float(min(1.0, max(0.0, 1.0 - est)))
        prev_est = est
    raise PowerIterationError(
        f"power iteration did not converge within {max_iter} iterations (tol={tol})"
    )


def to_edge_list_text(t: Topology) -> str:
    """Serialize as: first line ``n``, then one ``i m`` pair per line, i < m."""
    lines = [str(t.n_clients)]
    for i in range(t.n_clients):
        for m in t.neighborhoods[i]:
            if i < m:
                lines.append(f"{i} {m}")
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Topology:
    """Parse the edge-list format produced by :func:`to_edge_list_text`."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list text")
    n = int(lines[0])
    if n < 1:
        raise ValueError(f"edge list declares n={n}, must be >= 1")
    adj = np.zeros((n, n), dtype=bool)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {ln!r}")
        i, m = int(parts[0]), int(parts[1])
        if not (0 <= i < m < n):
            raise ValueError(f"edge ({i}, {m}) out of range for n={n}")
        adj[i, m] = adj[m, i] = True
    return Topology(n_clients=n, adjacency=adj)
