"""Unit tests for incremental RIN updates (the widget's edge-update path)."""

import numpy as np
import pytest

from repro.rin import DynamicRIN, build_rin


class TestDynamicRIN:
    def test_initial_state(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        ref = build_rin(a3d_traj.topology, a3d_traj.frame(0), 4.5)
        assert rin.csr.edge_set() == ref.edge_set()
        assert rin.frame == 0
        assert rin.cutoff == 4.5

    def test_cutoff_increase_only_adds(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, cutoff=4.0)
        update = rin.set_cutoff(6.0)
        assert update.removed == 0
        assert update.added > 0

    def test_cutoff_decrease_only_removes(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, cutoff=6.0)
        update = rin.set_cutoff(4.0)
        assert update.added == 0
        assert update.removed > 0

    def test_small_nudge_touches_few_edges(self, a3d_traj):
        # A 0.1 Å nudge is why the widget diffs instead of rebuilding:
        # it touches a small share of the edges a rebuild would redraw.
        rin = DynamicRIN(a3d_traj, cutoff=4.5)
        nudge = rin.set_cutoff(4.6)
        assert 0 < nudge.total < rin.csr.number_of_edges() / 4
        # A bigger jump touches more edges.
        rin.set_cutoff(4.5)
        assert rin.set_cutoff(10.0).total > nudge.total

    def test_cutoff_roundtrip_identity(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, cutoff=4.5)
        before = rin.csr.edge_set()
        rin.set_cutoff(9.0)
        rin.set_cutoff(4.5)
        assert rin.csr.edge_set() == before

    @pytest.mark.parametrize("cutoff", [3.0, 4.5, 7.0, 10.0])
    def test_incremental_equals_rebuild_cutoff(self, a3d_traj, cutoff):
        rin = DynamicRIN(a3d_traj, cutoff=5.0)
        rin.set_cutoff(cutoff)
        ref = build_rin(a3d_traj.topology, a3d_traj.frame(0), cutoff)
        assert rin.csr.edge_set() == ref.edge_set()

    @pytest.mark.parametrize("frame", [1, 5, 11])
    def test_incremental_equals_rebuild_frame(self, a3d_traj, frame):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        rin.set_frame(frame)
        ref = build_rin(a3d_traj.topology, a3d_traj.frame(frame), 4.5)
        assert rin.csr.edge_set() == ref.edge_set()

    def test_frame_switch_reports_diff(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        update = rin.set_frame(6)
        # Thermal motion must change some contacts but not all of them.
        assert 0 < update.total < rin.csr.number_of_edges() * 2

    def test_set_state_atomic(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        update = rin.set_state(frame=7, cutoff=8.0)
        ref = build_rin(a3d_traj.topology, a3d_traj.frame(7), 8.0)
        assert rin.csr.edge_set() == ref.edge_set()
        assert update.total > 0
        assert rin.frame == 7 and rin.cutoff == 8.0

    def test_positions_follow_frame(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        p0 = rin.positions().copy()
        rin.set_frame(5)
        p5 = rin.positions()
        assert p0.shape == (73, 3)
        assert not np.allclose(p0, p5)

    def test_invalid_cutoff(self, a3d_traj):
        with pytest.raises(ValueError):
            DynamicRIN(a3d_traj, cutoff=0.0)
        rin = DynamicRIN(a3d_traj, cutoff=4.5)
        with pytest.raises(ValueError):
            rin.set_cutoff(-1.0)

    def test_invalid_frame(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, cutoff=4.5)
        with pytest.raises(IndexError):
            rin.set_frame(999)
        # Failed update must leave the state untouched.
        assert rin.frame == 0

    def test_nan_cutoff_rejected(self, a3d_traj):
        with pytest.raises(ValueError, match="positive"):
            DynamicRIN(a3d_traj, cutoff=float("nan"))
        rin = DynamicRIN(a3d_traj, cutoff=4.5)
        edges = rin.csr.edge_set()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive"):
                DynamicRIN(a3d_traj, cutoff=bad)
            for move in (
                lambda: rin.set_cutoff(bad),
                lambda: rin.set_state(cutoff=bad),
                lambda: rin.set_state(frame=2, cutoff=bad),
            ):
                with pytest.raises(ValueError, match="positive"):
                    move()
        assert rin.cutoff == 4.5 and rin.frame == 0
        assert rin.csr.edge_set() == edges

    def test_negative_frame_rejected(self, a3d_traj):
        # Negative indices must not wrap: frame -1 would alias frame 11
        # under a second cache key.
        out_of_range = r"frame -1 out of range \[0, 12\)"
        with pytest.raises(IndexError, match=out_of_range):
            DynamicRIN(a3d_traj, frame=-1, cutoff=4.5)
        rin = DynamicRIN(a3d_traj, cutoff=4.5)
        with pytest.raises(IndexError, match=out_of_range):
            rin.set_frame(-1)
        with pytest.raises(IndexError, match=out_of_range):
            rin.set_state(frame=-1)
        assert rin.frame == 0

    def test_rebuild_matches_incremental(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        rin.set_frame(4)
        rin.set_cutoff(7.5)
        incremental = rin.csr.edge_set()
        assert rin.rebuild().edge_set() == incremental

    @pytest.mark.parametrize("impl", ["vectorized", "reference"])
    def test_rebuild_returns_a_detached_graph(self, a3d_traj, impl):
        # Editing the returned graph must not leak into the RIN's edges.
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5, impl=impl)
        g = rin.rebuild()
        g.add_edge(0, 60)
        update = rin.set_cutoff(6.0)
        ref = build_rin(a3d_traj.topology, a3d_traj.frame(0), 6.0)
        assert (0, 60) not in ref.edge_set()
        assert update.removed == 0  # raising the cut-off only adds
        assert rin.csr.edge_set() == ref.edge_set()


class TestCSRFastPath:
    """The vectorized engine's hot path is the CSR snapshot, not the dict."""

    def test_csr_matches_reference_build(self, a3d_traj):
        from repro.rin import build_rin

        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        rin.set_cutoff(7.0)
        rin.set_frame(5)
        ref = build_rin(a3d_traj.topology, a3d_traj.frame(5), 7.0)
        assert rin.csr.edge_set() == ref.edge_set()
        # and it agrees with the rebuilt-from-scratch CSR arrays exactly
        full = ref.csr()
        assert np.array_equal(rin.csr.indptr, full.indptr)
        assert np.array_equal(rin.csr.indices, full.indices)

    def test_no_dict_mutation_on_fast_path(self, a3d_traj, monkeypatch):
        """set_cutoff/set_frame must never touch the dict-of-dicts graph."""
        from repro.graphkit.graph import Graph

        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)

        def forbidden(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("dict-graph mutated on the CSR fast path")

        monkeypatch.setattr(Graph, "add_edge", forbidden)
        monkeypatch.setattr(Graph, "remove_edge", forbidden)
        rin.set_cutoff(7.0)
        rin.set_frame(3)
        assert rin.csr.m == rin.n_edges  # snapshot advanced regardless

    def test_reference_engine_keeps_naive_path(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5, impl="reference")
        rin.set_cutoff(7.0)
        # The naive set-algebra diff lands in the same snapshot store.
        ref = build_rin(a3d_traj.topology, a3d_traj.frame(0), 7.0)
        assert rin.csr.edge_set() == ref.edge_set()

    def test_double_buffer_previous_snapshot_survives(self, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        before = rin.csr
        edges_before = before.edge_set()
        rin.set_cutoff(9.0)
        assert rin.snapshots.previous is before
        assert before.edge_set() == edges_before  # immutable under updates

    def test_engines_agree_over_session(self, a3d_traj):
        fast = DynamicRIN(a3d_traj, frame=0, cutoff=5.0)
        ref = DynamicRIN(a3d_traj, frame=0, cutoff=5.0, impl="reference")
        for action in [("cutoff", 7.5), ("frame", 4), ("cutoff", 4.0), ("frame", 9)]:
            kind, value = action
            a = fast.set_cutoff(value) if kind == "cutoff" else fast.set_frame(value)
            b = ref.set_cutoff(value) if kind == "cutoff" else ref.set_frame(value)
            assert (a.added, a.removed) == (b.added, b.removed)
        assert fast.csr.edge_set() == ref.csr.edge_set()
