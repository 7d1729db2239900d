"""Communication graphs and their Metropolis mixing matrices.

Builds a few sparse random graphs, derives their Metropolis mixing weights
(the paper's own merge, 1/(r+1) over self and the r reporting neighbors,
needs no matrix), and shows how the spectral gap of that symmetric matrix
predicts how fast gossip averaging contracts disagreement.
"""

import numpy as np

from dfca import (
    Topology,
    build_mixing_matrix,
    generate_erdos_renyi,
    is_connected,
    spectral_gap,
)

print("=== Erdos-Renyi graphs at different connectivities ===")
for p in (0.05, 0.15, 0.3):
    t = generate_erdos_renyi(50, p, seed=0)
    print(f"p={p:4}: {t.n_edges:3d} edges, "
          f"mean degree {2 * t.n_edges / 50:5.2f}, connected={is_connected(t)}")

print("\n=== Mixing weights on a small graph ===")
t = generate_erdos_renyi(6, 0.5, seed=3)
print("edges:", [tuple(e) for e in np.argwhere(np.triu(t.adjacency)).tolist()])
w = build_mixing_matrix(t)
print(f"metropolis: row sums {np.round(w.sum(axis=1), 12)}")
print(f"  symmetric: {np.abs(w - w.T).max():.1e} max asymmetry")

print("\n=== Spectral gap drives consensus speed ===")
for p in (0.2, 0.4, 0.8):
    t = generate_erdos_renyi(20, p, seed=1)
    gap = spectral_gap(build_mixing_matrix(t))
    lam = 1 - gap
    note = "" if is_connected(t) else "   (disconnected: no contraction at all)"
    print(f"p={p}: gap={gap:.3f}; dispersion shrinks by lambda^2={lam**2:.3f} per round{note}")

print("\nA disconnected graph has gap 0 (no global consensus):")
split = Topology(np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=bool))
print(f"two 2-cliques: gap={spectral_gap(build_mixing_matrix(split)):.2e}")
