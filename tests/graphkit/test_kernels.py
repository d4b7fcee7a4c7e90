"""Unit tests for the CSR kernel layer (repro.graphkit.kernels)."""

import numpy as np
import pytest

from repro.graphkit import Graph
from repro.graphkit.centrality.reference import bfs_distances
from repro.graphkit.csr import CSRGraph
from repro.graphkit.generators import erdos_renyi
from repro.graphkit.kernels import (
    batched_bfs_distances,
    batched_brandes_dependencies,
    core_numbers,
    expand_arcs,
    pairwise_distances,
    segment_sum,
    sorted_contact_order,
    spmv,
    spmv_transpose,
)


def _random_csr(seed: int, n: int = 40, p: float = 0.12) -> CSRGraph:
    return erdos_renyi(n, p, seed=seed).csr()


class TestArcGather:
    def test_expand_arcs_matches_neighbor_views(self, two_triangles):
        csr = two_triangles.csr()
        frontier = np.asarray([0, 3, 5])
        tails, heads = expand_arcs(csr, frontier)
        expected_heads = np.concatenate([csr.neighbors(u) for u in frontier])
        expected_tails = np.concatenate(
            [np.full(len(csr.neighbors(u)), u) for u in frontier]
        )
        assert heads.tolist() == expected_heads.tolist()
        assert tails.tolist() == expected_tails.tolist()

    def test_expand_arcs_empty_frontier(self, triangle):
        tails, heads = expand_arcs(triangle.csr(), np.empty(0, dtype=np.int64))
        assert len(tails) == 0 and len(heads) == 0

    def test_expand_arcs_isolated_nodes(self, disconnected):
        csr = disconnected.csr()
        tails, heads = expand_arcs(csr, np.asarray([2]))  # isolated node
        assert len(tails) == 0 and len(heads) == 0

    def test_expand_arcs_weights(self):
        g = Graph.from_weighted_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        csr = g.csr()
        tails, heads, w = expand_arcs(csr, np.asarray([1]), with_weights=True)
        assert sorted(zip(heads.tolist(), w.tolist())) == [(0, 2.0), (2, 3.0)]


class TestSegmentReductions:
    def test_segment_sum_matches_weighted_degrees(self):
        csr = _random_csr(3)
        got = segment_sum(csr.weights, csr.indptr)
        assert np.allclose(got, csr.weighted_degrees())

    def test_segment_sum_empty_rows(self, disconnected):
        csr = disconnected.csr()
        got = segment_sum(csr.weights, csr.indptr)
        assert got[2] == 0.0

    def test_segment_sum_empty_graph(self):
        csr = Graph(0).csr()
        assert len(segment_sum(csr.weights, csr.indptr)) == 0


class TestSpMV:
    @pytest.mark.parametrize("seed", [1, 5])
    def test_spmv_matches_scipy(self, seed):
        csr = _random_csr(seed)
        x = np.random.default_rng(seed).standard_normal(csr.n)
        assert np.allclose(spmv(csr, x), csr.to_scipy() @ x)

    @pytest.mark.parametrize("seed", [2, 8])
    def test_spmv_transpose_matches_scipy(self, seed):
        csr = _random_csr(seed)
        x = np.random.default_rng(seed).standard_normal(csr.n)
        assert np.allclose(spmv_transpose(csr, x), csr.to_scipy().T @ x)

    def test_spmv_empty_graph(self):
        csr = Graph(3).csr()
        assert np.allclose(spmv(csr, np.ones(3)), 0.0)
        assert np.allclose(spmv_transpose(csr, np.ones(3)), 0.0)


class TestBatchedBFS:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_matches_single_source_bfs(self, seed):
        csr = _random_csr(seed)
        sources = np.arange(csr.n)
        batch = batched_bfs_distances(csr, sources)
        for s in sources:
            assert batch[s].tolist() == bfs_distances(csr, int(s)).tolist()

    def test_subset_of_sources(self, two_triangles):
        csr = two_triangles.csr()
        batch = batched_bfs_distances(csr, np.asarray([0, 4]))
        assert batch.shape == (2, 6)
        assert batch[0].tolist() == bfs_distances(csr, 0).tolist()
        assert batch[1].tolist() == bfs_distances(csr, 4).tolist()

    def test_disconnected_unreachable(self, disconnected):
        csr = disconnected.csr()
        batch = batched_bfs_distances(csr, np.asarray([0]))
        assert batch[0, 2] == -1

    def test_max_depth_truncation(self, path4):
        csr = path4.csr()
        batch = batched_bfs_distances(csr, np.asarray([0]), max_depth=1)
        assert batch[0].tolist() == [0, 1, -1, -1]

    def test_small_chunks_equal_one_shot(self):
        csr = _random_csr(11)
        sources = np.arange(csr.n)
        a = batched_bfs_distances(csr, sources, chunk_size=3)
        b = batched_bfs_distances(csr, sources)
        assert (a == b).all()

    def test_empty_sources(self, triangle):
        out = batched_bfs_distances(triangle.csr(), np.empty(0, dtype=np.int64))
        assert out.shape == (0, 3)

    def test_out_of_range_source(self, triangle):
        with pytest.raises(IndexError):
            batched_bfs_distances(triangle.csr(), np.asarray([5]))


class TestCoordinateKernels:
    def test_pairwise_matches_broadcast(self):
        rng = np.random.default_rng(4)
        coords = rng.standard_normal((30, 3)) * 5.0
        diff = coords[:, None, :] - coords[None, :, :]
        expected = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        # The Gram-matrix identity trades a little cancellation noise for a
        # BLAS matmul; 1e-6 Å is far below any contact-threshold scale.
        assert np.allclose(pairwise_distances(coords), expected, atol=1e-6)

    def test_pairwise_diagonal_zero(self):
        coords = np.random.default_rng(1).standard_normal((10, 3)) * 100.0
        assert (np.diag(pairwise_distances(coords)) == 0.0).all()

    def test_sorted_contact_order_prefix_equals_threshold(self):
        rng = np.random.default_rng(9)
        coords = rng.standard_normal((25, 3)) * 4.0
        dm = pairwise_distances(coords)
        pairs, d = sorted_contact_order(dm, min_separation=1)
        assert (np.diff(d) >= 0).all()
        for cutoff in (2.0, 5.0, 8.0):
            m = np.searchsorted(d, cutoff, side="right")
            prefix = {tuple(p) for p in pairs[:m]}
            iu, iv = np.triu_indices(25, k=1)
            mask = dm[iu, iv] <= cutoff
            expected = set(zip(iu[mask].tolist(), iv[mask].tolist()))
            assert prefix == expected

    def test_sorted_contact_order_min_separation(self):
        dm = pairwise_distances(np.arange(15, dtype=float).reshape(-1, 1) * 0.0)
        pairs, _ = sorted_contact_order(dm, min_separation=3)
        assert (np.abs(pairs[:, 0] - pairs[:, 1]) >= 3).all()


class TestFromUniqueEdgeArray:
    @pytest.mark.parametrize("seed", [3, 9])
    def test_matches_generic_builder(self, seed):
        g = erdos_renyi(30, 0.15, seed=seed)
        edges = g.edge_array()
        fast = CSRGraph.from_unique_edge_array(30, edges)
        slow = CSRGraph.from_edge_array(30, edges)
        assert fast.indptr.tolist() == slow.indptr.tolist()
        assert fast.indices.tolist() == slow.indices.tolist()
        assert np.allclose(fast.weights, slow.weights)

    def test_empty_edges(self):
        csr = CSRGraph.from_unique_edge_array(5, np.empty((0, 2), dtype=np.int64))
        assert csr.n == 5 and csr.nnz == 0
        assert csr.degrees().tolist() == [0] * 5


class TestBatchedBrandes:
    @pytest.mark.parametrize("seed", [2, 8])
    def test_subset_equals_sum_of_singletons(self, seed):
        csr = _random_csr(seed)
        sources = np.asarray([0, 5, 11, 17])
        batched = batched_brandes_dependencies(csr, sources)
        singles = sum(
            batched_brandes_dependencies(csr, np.asarray([s])) for s in sources
        )
        assert np.allclose(batched, singles, atol=1e-10)

    def test_star_center_dependency(self, star5):
        # Star: every leaf pair's path runs through the hub; source s at a
        # leaf contributes (n-2) to the hub's dependency.
        csr = star5.csr()
        dep = batched_brandes_dependencies(csr, np.arange(csr.n))
        n = csr.n
        assert dep[0] == pytest.approx((n - 1) * (n - 2))
        assert np.allclose(dep[1:], 0.0)

    def test_empty_sources(self, triangle):
        out = batched_brandes_dependencies(triangle.csr(), np.empty(0, np.int64))
        assert np.allclose(out, 0.0)

    def test_out_of_range_source(self, triangle):
        with pytest.raises(IndexError):
            batched_brandes_dependencies(triangle.csr(), np.asarray([9]))


class TestCoreNumbers:
    @pytest.mark.parametrize("seed", [1, 5, 11])
    def test_matches_reference_peeling(self, seed):
        from repro.graphkit import core_decomposition

        g = erdos_renyi(60, 0.08, seed=seed)
        fast = core_numbers(g.csr())
        slow = core_decomposition(g, impl="reference")
        assert fast.tolist() == slow.tolist()

    def test_empty_graph(self):
        assert len(core_numbers(Graph(0).csr())) == 0

    def test_isolated_nodes_core_zero(self, disconnected):
        assert core_numbers(disconnected.csr()).tolist() == [1, 1, 0]


class TestKernelValidation:
    """Every batched kernel validates its inputs loudly and identically."""

    def _empty(self):
        return Graph(0).csr()

    def _path(self):
        return Graph.from_weighted_edges(
            3, [(0, 1, 1.0), (1, 2, 2.0)]
        ).csr()

    def test_empty_source_lists_short_circuit(self):
        csr = self._path()
        assert batched_bfs_distances(csr, np.empty(0)).shape == (0, 3)
        assert batched_brandes_dependencies(csr, np.empty(0)).tolist() == [0, 0, 0]

    def test_sources_on_empty_graph_rejected(self):
        empty = self._empty()
        for kernel in (batched_bfs_distances, batched_brandes_dependencies):
            with pytest.raises(IndexError):
                kernel(empty, np.asarray([0]))

    def test_out_of_range_sources_rejected(self):
        csr = self._path()
        for kernel in (batched_bfs_distances, batched_brandes_dependencies):
            with pytest.raises(IndexError):
                kernel(csr, np.asarray([3]))
            with pytest.raises(IndexError):
                kernel(csr, np.asarray([-1]))

    def test_undirected_brandes_rejects_directed_csr(self):
        cyc = CSRGraph(
            np.array([0, 1, 2, 3], dtype=np.int64),
            np.array([1, 2, 0], dtype=np.int32),
            np.ones(3),
            directed=True,
        )
        with pytest.raises(NotImplementedError, match="directed"):
            batched_brandes_dependencies(cyc, np.arange(3))
