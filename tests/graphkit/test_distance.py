"""Unit tests for BFS/Dijkstra/APSP/diameter."""

import numpy as np
import pytest

from repro.graphkit import (
    APSP,
    BFS,
    Diameter,
    Graph,
    all_pairs_distances,
    bfs_distances,
    dijkstra,
)
from repro.graphkit.distance import bfs_tree, eccentricity
from tests.helpers import num_threads


class TestBFS:
    def test_path_distances(self, path4):
        assert bfs_distances(path4, 0).tolist() == [0, 1, 2, 3]

    def test_unreachable_marked(self, disconnected):
        assert bfs_distances(disconnected, 0).tolist() == [0, 1, -1]

    def test_star_center(self, star5):
        assert bfs_distances(star5, 0).tolist() == [0, 1, 1, 1, 1]

    def test_star_leaf(self, star5):
        assert bfs_distances(star5, 1).tolist() == [1, 0, 2, 2, 2]

    def test_source_out_of_range(self, triangle):
        with pytest.raises(IndexError):
            bfs_distances(triangle, 5)

    def test_runner_api(self, path4):
        assert BFS(path4, 3).run().distances().tolist() == [3, 2, 1, 0]

    def test_runner_requires_run(self, path4):
        with pytest.raises(RuntimeError):
            BFS(path4, 0).distances()

    def test_bfs_tree_parents(self, path4):
        dist, parent = bfs_tree(path4, 0)
        assert dist.tolist() == [0, 1, 2, 3]
        assert parent.tolist() == [-1, 0, 1, 2]

    def test_matches_networkx_on_random(self):
        import networkx as nx

        from repro.graphkit.generators import erdos_renyi

        g = erdos_renyi(50, 0.08, seed=9)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(50))
        nxg.add_edges_from(g.iter_edges())
        ours = bfs_distances(g, 0)
        theirs = nx.single_source_shortest_path_length(nxg, 0)
        for u in range(50):
            expected = theirs.get(u, -1)
            assert ours[u] == expected


class TestDijkstra:
    def test_weighted_path(self):
        g = Graph.from_weighted_edges(3, [(0, 1, 5.0), (1, 2, 1.0), (0, 2, 10.0)])
        d = dijkstra(g, 0)
        assert d.tolist() == [0.0, 5.0, 6.0]

    def test_unreachable_inf(self):
        g = Graph(3, weighted=True)
        g.add_edge(0, 1, 1.0)
        assert np.isinf(dijkstra(g, 0)[2])

    def test_negative_weight_rejected(self):
        g = Graph.from_weighted_edges(2, [(0, 1, -1.0)])
        with pytest.raises(ValueError):
            dijkstra(g, 0)

    def test_matches_bfs_on_unit_weights(self, two_triangles):
        d_bfs = bfs_distances(two_triangles, 0).astype(float)
        d_dij = dijkstra(two_triangles, 0)
        assert np.allclose(d_bfs, d_dij)


class TestAPSP:
    def test_symmetric(self, two_triangles):
        mat = all_pairs_distances(two_triangles)
        assert np.allclose(mat, mat.T)
        assert mat[0, 5] == 3

    def test_diagonal_zero(self, triangle):
        mat = all_pairs_distances(triangle)
        assert np.all(np.diag(mat) == 0)

    def test_disconnected_inf(self, disconnected):
        mat = all_pairs_distances(disconnected)
        assert np.isinf(mat[0, 2])

    def test_weighted(self):
        g = Graph.from_weighted_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        mat = all_pairs_distances(g, weighted=True)
        assert mat[0, 2] == 5.0

    def test_runner(self, path4):
        apsp = APSP(path4).run()
        assert apsp.distances()[0, 3] == 3

    def test_serial_equals_parallel(self, karate):
        with num_threads(1):
            serial = all_pairs_distances(karate)
        with num_threads(4):
            parallel = all_pairs_distances(karate)
        assert np.array_equal(serial, parallel)


class TestDiameter:
    def test_path_diameter(self, path4):
        assert Diameter(path4).run().get_diameter() == 3

    def test_estimate_lower_bound(self, karate):
        exact = Diameter(karate, algo="exact").run().get_diameter()
        est = Diameter(karate, algo="estimate").run().get_diameter()
        assert est <= exact
        assert est >= 1

    def test_unknown_algo(self, path4):
        with pytest.raises(ValueError):
            Diameter(path4, algo="bogus")

    def test_eccentricity(self, star5):
        assert eccentricity(star5, 0) == 1
        assert eccentricity(star5, 1) == 2

    def test_empty_graph(self):
        assert Diameter(Graph(0)).run().get_diameter() == 0
