import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfca.topology import (
    Topology,
    build_mixing_matrix,
    generate_erdos_renyi,
    is_connected,
    spectral_gap,
)
from dfca.verify import graph_from_edges


def complete(n):
    return Topology(~np.eye(n, dtype=bool))


def ring(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def reference_mixing_matrix(t):
    """Per-node loop reference for the array form of ``build_mixing_matrix``."""
    n = t.n_clients
    w = np.zeros((n, n), dtype=np.float64)
    neighbors = [np.flatnonzero(t.adjacency[i]) for i in range(n)]
    degrees = [len(hood) for hood in neighbors]
    for i in range(n):
        for m in neighbors[i]:
            w[i, m] = 1.0 / (1 + max(degrees[i], degrees[m]))
        w[i, i] = 1.0 - w[i].sum()
    return w


def reference_is_connected(t):
    """Queue-based breadth-first search from client 0."""
    seen, queue = {0}, [0]
    while queue:
        for m in np.flatnonzero(t.adjacency[queue.pop(0)]):
            if m not in seen:
                seen.add(m)
                queue.append(m)
    return len(seen) == t.n_clients


class TestErdosRenyi:
    def test_p_one_gives_complete_graph(self):
        t = generate_erdos_renyi(4, 1.0, seed=123)
        assert t.n_edges == 6

    def test_p_zero_gives_empty_graph(self):
        t = generate_erdos_renyi(4, 0.0, seed=7)
        assert t.n_edges == 0

    def test_edge_count_within_binomial_bound(self):
        # central 99.9% interval of Binomial(4950, 0.15): [661, 826]
        t = generate_erdos_renyi(100, 0.15, seed=0)
        assert 661 <= t.n_edges <= 826

    def test_reproducible_bitwise(self):
        a = generate_erdos_renyi(40, 0.3, seed=5)
        b = generate_erdos_renyi(40, 0.3, seed=5)
        assert np.array_equal(a.adjacency, b.adjacency)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_invalid_p_rejected(self, p):
        with pytest.raises(ValueError):
            generate_erdos_renyi(5, p, seed=0)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            generate_erdos_renyi(0, 0.5, seed=0)

    def test_neighborhoods_match_adjacency_rows(self):
        t = generate_erdos_renyi(12, 0.4, seed=3)
        for i in range(12):
            assert list(t.neighborhoods[i]) == list(np.flatnonzero(t.adjacency[i]))
            assert list(t.neighborhoods[i]) == sorted(t.neighborhoods[i])

    def test_metropolis_is_one_read_only_matrix_built_on_first_read(self):
        t = generate_erdos_renyi(9, 0.4, seed=3)
        assert "metropolis" not in vars(t)
        w = t.metropolis
        assert t.metropolis is w and not w.flags.writeable
        assert w.tobytes() == build_mixing_matrix(t).tobytes()

    def test_topologies_are_equal_and_hash_by_identity(self):
        t, twin = complete(3), complete(3)
        assert np.array_equal(t.adjacency, twin.adjacency)
        assert t == t and t != twin
        assert {t, t} == {t} and len({t, twin}) == 2


class TestConnectivity:
    def test_complete_graph_connected(self):
        assert is_connected(complete(4))

    def test_empty_graph_disconnected(self):
        assert not is_connected(graph_from_edges(2, []))

    def test_path_graph_connected(self):
        assert is_connected(graph_from_edges(3, [(0, 1), (1, 2)]))

    def test_single_client_connected(self):
        assert is_connected(graph_from_edges(1, []))

    @given(n=st.integers(1, 30), p=st.floats(0.0, 0.4), seed=st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_breadth_first_search(self, n, p, seed):
        t = generate_erdos_renyi(n, p, seed)
        assert is_connected(t) == reference_is_connected(t)

    def test_long_path(self):
        assert is_connected(path(1000))
        assert not is_connected(Topology(np.pad(path(999).adjacency, (0, 1))))  # last node cut off


class TestMixingMatrix:
    def test_metropolis_on_four_cycle(self):
        cycle = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        w = build_mixing_matrix(cycle)
        for i in range(4):
            assert w[i, i] == pytest.approx(1.0 / 3.0)
            for m in np.flatnonzero(cycle.adjacency[i]):
                assert w[i, m] == pytest.approx(1.0 / 3.0)

    def test_metropolis_on_star(self):
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        w = build_mixing_matrix(star)
        assert w[0, 0] == pytest.approx(0.25)
        for leaf in (1, 2, 3):
            assert w[0, leaf] == pytest.approx(0.25)
            assert w[leaf, 0] == pytest.approx(0.25)
            assert w[leaf, leaf] == pytest.approx(0.75)

    @given(n=st.integers(2, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one_and_metropolis_symmetric(self, n, p, seed):
        w = build_mixing_matrix(generate_erdos_renyi(n, p, seed))
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
        assert (w >= 0).all()
        assert np.abs(w - w.T).max() <= 1e-12

    def test_weights_respect_graph(self):
        t = generate_erdos_renyi(10, 0.3, seed=2)
        w = build_mixing_matrix(t)
        off_graph = ~t.adjacency & ~np.eye(10, dtype=bool)
        assert np.all(w[off_graph] == 0.0)

    def test_is_read_only(self):
        with pytest.raises(ValueError):
            build_mixing_matrix(complete(3))[0, 1] = 0.0

    @given(n=st.integers(1, 30), p=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equal_to_per_node_loop(self, n, p, seed):
        t = generate_erdos_renyi(n, p, seed)
        assert build_mixing_matrix(t).tobytes() == reference_mixing_matrix(t).tobytes()


class TestSpectralGap:
    def test_complete_three_is_rank_one(self):
        gap = spectral_gap(build_mixing_matrix(complete(3)))
        assert gap == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_ring_gap_matches_closed_form(self, n):
        # circulant eigenvalues (1 + 2cos(2*pi*k/n))/3; for n = 4 the gap is 2/3
        second = max(abs((1 + 2 * np.cos(2 * np.pi * k / n)) / 3) for k in range(1, n))
        gap = spectral_gap(build_mixing_matrix(ring(n)))
        assert gap == pytest.approx(1 - second, abs=1e-12)

    def test_disconnected_two_plus_two_gap_zero(self):
        split = graph_from_edges(4, [(0, 1), (2, 3)])
        gap = spectral_gap(build_mixing_matrix(split))
        assert abs(gap) <= 1e-8

    def test_rejects_asymmetric_weights(self):
        w = build_mixing_matrix(path(3)).copy()
        w[0, 1] += 1e-3
        w[0, 0] -= 1e-3  # rows still sum to one
        with pytest.raises(ValueError, match="exactly symmetric"):
            spectral_gap(w)

    @pytest.mark.parametrize("shape", [(3, 4), (3,), (2, 2, 2)])
    def test_rejects_a_matrix_that_is_not_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            spectral_gap(np.zeros(shape))

    @given(n=st.integers(2, 15), p=st.floats(0.1, 1.0), seed=st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_connected_positive_disconnected_zero(self, n, p, seed):
        t = generate_erdos_renyi(n, p, seed)
        gap = spectral_gap(build_mixing_matrix(t))
        if is_connected(t):
            assert gap > 1e-8
        else:
            assert abs(gap) <= 1e-8


class TestTopologyType:
    def test_rejects_self_loops(self):
        adj = np.eye(3, dtype=bool)
        with pytest.raises(ValueError):
            Topology(adj)

    def test_rejects_asymmetric(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError):
            Topology(adj)

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,)], ids=["empty", "non-square", "1-d"])
    def test_rejects_an_empty_or_non_square_adjacency(self, shape):
        with pytest.raises(ValueError, match=rf"non-empty square matrix, got shape \({shape[0]},"):
            Topology(np.zeros(shape, dtype=bool))

    def test_client_count_is_the_adjacency_size(self):
        assert complete(5).n_clients == 5 and Topology(np.zeros((1, 1), dtype=bool)).n_clients == 1

    def test_adjacency_is_read_only(self):
        t = complete(3)
        with pytest.raises(ValueError):
            t.adjacency[0, 1] = False

    def test_adjacency_is_a_copy_of_the_callers_array(self):
        """A write to the base of the view a graph was built from leaves the
        checked graph as it was, and the view stays writable."""
        big = np.zeros((3, 3), dtype=bool)
        view = big[:, :]
        t = Topology(view)
        big[0, 1] = True
        assert not t.adjacency.any()
        assert view.flags.writeable
