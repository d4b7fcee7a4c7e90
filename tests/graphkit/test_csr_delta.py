"""CSR delta-apply differential tests against full rebuilds."""

import numpy as np
import pytest

from repro.graphkit import (
    CSRDelta,
    CSRGraph,
    CSRSnapshotBuffer,
    Graph,
    pack_edge_keys,
)


def random_edges(rng, n, m):
    pairs = set()
    while len(pairs) < m:
        u, v = rng.integers(0, n, 2)
        if u != v:
            pairs.add((min(int(u), int(v)), max(int(u), int(v))))
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


class TestPackEdgeKeys:
    def test_sorted_and_invertible(self):
        edges = np.array([[2, 5], [0, 1], [1, 4]])
        keys = pack_edge_keys(6, edges)
        assert np.all(np.diff(keys) > 0)
        u, v = np.divmod(keys, 6)
        assert set(zip(u.tolist(), v.tolist())) == {(0, 1), (1, 4), (2, 5)}

    def test_empty(self):
        assert len(pack_edge_keys(5, np.empty((0, 2)))) == 0


class TestFromSortedEdgeKeys:
    @pytest.mark.parametrize("m", [0, 1, 17, 60])
    def test_matches_unique_edge_array_builder(self, m):
        rng = np.random.default_rng(m)
        n = 25
        edges = random_edges(rng, n, m)
        keys = pack_edge_keys(n, edges)
        inc = CSRGraph.from_sorted_edge_keys(n, keys)
        full = CSRGraph.from_unique_edge_array(n, edges)
        assert np.array_equal(inc.indptr, full.indptr)
        assert np.array_equal(inc.indices, full.indices)
        assert inc.m == m


class TestCSRDelta:
    def test_between_and_apply_roundtrip(self):
        rng = np.random.default_rng(1)
        n = 30
        keys = pack_edge_keys(n, random_edges(rng, n, 40))
        for trial in range(20):
            target = pack_edge_keys(n, random_edges(rng, n, int(rng.integers(0, 70))))
            delta = CSRDelta.between(n, keys, target)
            assert np.array_equal(delta.apply(keys), target)
            assert delta.total == delta.added + delta.removed
            keys = target

    def test_add_only_and_remove_only(self):
        n = 10
        keys = pack_edge_keys(n, np.array([[0, 1], [2, 3]]))
        grow = CSRDelta(n, add_keys=pack_edge_keys(n, np.array([[1, 2]])),
                        remove_keys=np.empty(0, dtype=np.int64))
        grown = grow.apply(keys)
        assert len(grown) == 3
        shrink = CSRDelta.between(n, grown, keys)
        assert shrink.added == 0 and shrink.removed == 1
        assert np.array_equal(shrink.apply(grown), keys)

    def test_edges_unpack(self):
        n = 7
        delta = CSRDelta.between(
            n,
            pack_edge_keys(n, np.array([[0, 1]])),
            pack_edge_keys(n, np.array([[2, 4]])),
        )
        added, removed = delta.edges()
        assert added.tolist() == [[2, 4]]
        assert removed.tolist() == [[0, 1]]

    def test_delta_applied_snapshot_equals_full_rebuild(self):
        """The differential acceptance test: a chain of deltas ends at
        exactly the CSR a from-scratch build produces."""
        rng = np.random.default_rng(42)
        n = 40
        state = random_edges(rng, n, 60)
        buf = CSRSnapshotBuffer.from_edges(n, state)
        for trial in range(15):
            state = random_edges(rng, n, int(rng.integers(0, 120)))
            csr = buf.apply(buf.delta_to(pack_edge_keys(n, state)))
            full = CSRGraph.from_unique_edge_array(n, state)
            assert np.array_equal(csr.indptr, full.indptr)
            assert np.array_equal(csr.indices, full.indices)
            assert np.array_equal(csr.weights, full.weights)


class TestCSRSnapshotBuffer:
    def test_double_buffering_keeps_previous_alive(self):
        n = 6
        buf = CSRSnapshotBuffer.from_edges(n, np.array([[0, 1], [1, 2]]))
        first = buf.current
        second = buf.apply(buf.delta_to(pack_edge_keys(n, np.array([[0, 1], [3, 4]]))))
        # The old front survives as the back buffer, untouched: an
        # in-flight reader keeps a consistent view.
        assert buf.previous is first
        assert buf.current is second
        assert first.edge_set() == {(0, 1), (1, 2)}
        assert second.edge_set() == {(0, 1), (3, 4)}

    def test_reset_swaps_too(self):
        buf = CSRSnapshotBuffer(4)
        front = buf.current
        buf.reset(pack_edge_keys(4, np.array([[0, 3]])))
        assert buf.previous is front
        assert buf.current.edge_set() == {(0, 3)}

    def test_empty_start(self):
        buf = CSRSnapshotBuffer(5)
        assert buf.current.m == 0
        grown = buf.apply(
            CSRDelta(5, add_keys=pack_edge_keys(5, np.array([[1, 2]])),
                     remove_keys=np.empty(0, dtype=np.int64))
        )
        assert grown.edge_set() == {(1, 2)}


class TestDuckCompatibility:
    def test_csr_read_api_matches_graph(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        csr = g.csr()
        assert csr.number_of_nodes() == g.number_of_nodes()
        assert csr.number_of_edges() == g.number_of_edges()
        assert csr.edge_set() == g.edge_set()
        assert sorted(csr.iter_edges()) == sorted(g.iter_edges())
        assert np.array_equal(
            np.sort(csr.edge_array(), axis=0), np.sort(g.edge_array(), axis=0)
        )
