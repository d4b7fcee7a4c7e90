"""Unit tests for RIN construction and the cached builder."""

import numpy as np
import pytest

from repro.rin import DistanceCriterion, RINBuilder, build_rin


class TestBuildRin:
    def test_nodes_are_residues(self, a3d_traj):
        g = build_rin(a3d_traj.topology, a3d_traj.frame(0), 4.5)
        assert g.number_of_nodes() == 73

    def test_unweighted_undirected(self, a3d_traj):
        g = build_rin(a3d_traj.topology, a3d_traj.frame(0), 4.5)
        assert not g.weighted
        assert not g.directed

    def test_monotone_in_cutoff(self, a3d_traj):
        topo, frame = a3d_traj.topology, a3d_traj.frame(0)
        previous = -1
        for cutoff in (3.0, 4.0, 5.0, 7.0, 10.0):
            m = build_rin(topo, frame, cutoff).number_of_edges()
            assert m >= previous
            previous = m

    def test_criterion_string_or_enum(self, trp_traj):
        topo, frame = trp_traj.topology, trp_traj.frame(0)
        a = build_rin(topo, frame, 7.0, criterion="ca")
        b = build_rin(topo, frame, 7.0, criterion=DistanceCriterion.CA)
        assert a.edge_set() == b.edge_set()

    def test_criterion_changes_graph(self, a3d_traj):
        topo, frame = a3d_traj.topology, a3d_traj.frame(0)
        g_ca = build_rin(topo, frame, 6.5, criterion="ca")
        g_min = build_rin(topo, frame, 6.5, criterion="min")
        # Min-distance always admits at least the CA contacts.
        assert g_ca.edge_set() <= g_min.edge_set()
        assert g_ca.number_of_edges() < g_min.number_of_edges()

    def test_invalid_criterion(self, a3d_traj):
        with pytest.raises(ValueError):
            build_rin(a3d_traj.topology, a3d_traj.frame(0), 4.5, criterion="nope")

    def test_sequence_separation(self, a3d_traj):
        topo, frame = a3d_traj.topology, a3d_traj.frame(0)
        g = build_rin(topo, frame, 4.5, min_sequence_separation=3)
        for u, v in g.iter_edges():
            assert abs(u - v) >= 3

    def test_chain_backbone_connected_at_moderate_cutoff(self, a3d_traj):
        g = build_rin(a3d_traj.topology, a3d_traj.frame(0), 4.5)
        for i in range(72):
            assert g.has_edge(i, i + 1), f"chain edge {i}-{i + 1} missing"


class TestRINBuilder:
    def test_matches_build_rin(self, a3d_traj):
        builder = RINBuilder(a3d_traj)
        g1 = builder.build(3, 5.0)
        g2 = build_rin(a3d_traj.topology, a3d_traj.frame(3), 5.0)
        assert g1.edge_set() == g2.edge_set()

    def test_distance_matrix_cached(self, a3d_traj):
        builder = RINBuilder(a3d_traj)
        a = builder.distance_matrix(0)
        b = builder.distance_matrix(0)
        assert a is b

    def test_cache_eviction(self, a3d_traj):
        builder = RINBuilder(a3d_traj, cache_size=2)
        first = builder.distance_matrix(0)
        builder.distance_matrix(1)
        builder.distance_matrix(2)  # evicts frame 0
        assert builder.distance_matrix(0) is not first

    def test_cache_evicts_least_recently_used(self, a3d_traj):
        # FIFO would evict frame 0 here; LRU evicts frame 1, because the
        # hit on frame 0 makes it the most recently used entry.
        builder = RINBuilder(a3d_traj, cache_size=2)
        first = builder.distance_matrix(0)
        second = builder.distance_matrix(1)
        builder.edges(0, 5.0)
        builder.distance_matrix(2)
        assert builder.distance_matrix(0) is first
        assert builder.distance_matrix(1) is not second

    def test_edge_counts_profile(self, a3d_traj):
        builder = RINBuilder(a3d_traj)
        cutoffs = np.array([3.0, 4.5, 6.0, 10.0])
        counts = builder.edge_counts(cutoffs)
        assert len(counts) == 4
        assert (np.diff(counts) >= 0).all()
        assert counts[0] == len(builder.edges(0, 3.0))

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, float("nan"), float("inf")])
    def test_edges_reject_bad_cutoff(self, trp_traj, cutoff):
        with pytest.raises(ValueError, match="positive"):
            RINBuilder(trp_traj).edges(0, cutoff)

    def test_edges_shape(self, trp_traj):
        builder = RINBuilder(trp_traj)
        edges = builder.edges(0, 4.5)
        assert edges.ndim == 2 and edges.shape[1] == 2
