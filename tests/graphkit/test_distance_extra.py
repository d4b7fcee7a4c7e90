"""Unit tests for multi-source BFS/Dijkstra and effective diameter."""

import networkx as nx
import numpy as np
import pytest

from repro.graphkit import Graph
from repro.graphkit.distance import (
    all_pairs_distances,
    bfs_distances,
    dijkstra,
    effective_diameter,
    multi_source_bfs,
    multi_source_dijkstra,
)
from tests.helpers import num_threads


class TestMultiSourceBFS:
    def test_single_source_matches_bfs(self, karate):
        assert np.array_equal(
            multi_source_bfs(karate, [0]), bfs_distances(karate, 0)
        )

    def test_is_minimum_over_sources(self, karate):
        sources = [0, 33]
        combined = multi_source_bfs(karate, sources)
        per_source = np.stack(
            [bfs_distances(karate, s) for s in sources]
        )
        expected = per_source.min(axis=0)
        assert np.array_equal(combined, expected)

    def test_sources_at_zero(self, path4):
        d = multi_source_bfs(path4, [0, 3])
        assert d.tolist() == [0, 1, 1, 0]

    def test_unreachable(self, disconnected):
        d = multi_source_bfs(disconnected, [0])
        assert d[2] == -1

    def test_empty_sources_rejected(self, karate):
        with pytest.raises(ValueError):
            multi_source_bfs(karate, [])

    def test_out_of_range_rejected(self, karate):
        with pytest.raises(IndexError):
            multi_source_bfs(karate, [999])

    def test_rin_active_site_distance(self):
        # Domain use: hop distance of every residue to a binding site.
        from repro.md import proteins
        from repro.rin import build_rin

        topo, native = proteins.build("2JOF")
        g = build_rin(topo, native, 6.0)
        d = multi_source_bfs(g, [5, 6])  # Trp-cage core residues
        assert d[5] == 0 and d[6] == 0
        assert (d >= 0).all()  # connected at 6 Å


class TestMultiSourceDijkstra:
    def _weighted(self):
        return Graph.from_weighted_edges(
            6,
            [
                (0, 1, 0.5),
                (1, 2, 1.5),
                (2, 3, 0.75),
                (3, 4, 2.0),
                (0, 4, 5.5),
            ],
        )  # node 5 isolated

    def test_single_source_matches_dijkstra(self):
        g = self._weighted()
        assert np.allclose(
            multi_source_dijkstra(g, [0]), dijkstra(g, 0), equal_nan=True
        )

    def test_is_minimum_over_sources(self):
        g = self._weighted()
        combined = multi_source_dijkstra(g, [0, 3])
        expected = np.minimum(dijkstra(g, 0), dijkstra(g, 3))
        assert np.allclose(combined, expected, equal_nan=True)

    def test_unreachable_inf(self):
        assert np.isinf(multi_source_dijkstra(self._weighted(), [0])[5])

    def test_empty_sources_rejected(self, karate):
        with pytest.raises(ValueError):
            multi_source_dijkstra(karate, [])


class TestWeightedAPSP:
    def test_matches_per_source_dijkstra(self):
        rng = np.random.default_rng(11)
        base = nx.gnp_random_graph(25, 0.2, seed=4)
        g = Graph.from_weighted_edges(
            25,
            [
                (u, v, float(rng.uniform(0.2, 2.0)))
                for u, v in base.edges()
            ],
        )
        mat = all_pairs_distances(g, weighted=True)
        for s in range(25):
            assert np.allclose(mat[s], dijkstra(g, s), atol=1e-9)

    def test_serial_equals_parallel_weighted(self):
        g = Graph.from_weighted_edges(
            5, [(0, 1, 1.5), (1, 2, 0.5), (2, 3, 2.5), (3, 4, 1.0)]
        )
        with num_threads(1):
            serial = all_pairs_distances(g, weighted=True)
        with num_threads(4):
            parallel = all_pairs_distances(g, weighted=True)
        assert np.array_equal(serial, parallel)


class TestEffectiveDiameter:
    def test_path_graph(self):
        g = Graph.from_edges(10, [(i, i + 1) for i in range(9)])
        eff = effective_diameter(g, percentile=0.9)
        full = 9
        assert 0 < eff <= full

    def test_full_percentile_is_diameter(self, karate):
        from repro.graphkit import Diameter

        eff = effective_diameter(karate, percentile=1.0)
        exact = Diameter(karate).run().get_diameter()
        assert eff == exact

    def test_monotone_in_percentile(self, karate):
        e50 = effective_diameter(karate, percentile=0.5)
        e90 = effective_diameter(karate, percentile=0.9)
        assert e50 <= e90

    def test_matches_manual_quantile(self, karate):
        nxg = nx.karate_club_graph()
        lengths = []
        for u, dists in nx.all_pairs_shortest_path_length(nxg):
            lengths.extend(d for v, d in dists.items() if v != u)
        expected = float(np.quantile(lengths, 0.9, method="inverted_cdf"))
        assert effective_diameter(karate, percentile=0.9) == expected

    def test_invalid_percentile(self, karate):
        with pytest.raises(ValueError):
            effective_diameter(karate, percentile=0.0)
        with pytest.raises(ValueError):
            effective_diameter(karate, percentile=1.5)

    def test_edgeless(self):
        assert effective_diameter(Graph(5)) == 0.0
