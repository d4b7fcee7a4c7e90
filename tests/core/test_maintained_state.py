"""Maintained-measure state on the interactive path + stale-read safety.

Regression coverage for the hazard where ``DynamicRIN``'s lazily-synced
views (the dict graph and the measure engine) could be read by the GUI
thread *mid-delta* while the async worker applies queued updates: an
unlocked sync could replay a diff against keys that no longer match its
marker and permanently corrupt the view. The reads below hammer both
views during slider bursts and then pin them against scratch rebuilds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AsyncUpdatePipeline, UpdatePipeline
from repro.graphkit.incremental import full_measures
from repro.rin import DynamicRIN


class TestInterleavedReadsUnderAsyncPipeline:
    def test_graph_and_measures_survive_concurrent_bursts(self, a3d_traj):
        """Reads racing queued deltas must never corrupt the lazy views."""
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        cutoffs = [4.5 + 0.1 * (i % 25) for i in range(60)]
        with AsyncUpdatePipeline(
            rin, measure="Degree Centrality", debounce_ms=1
        ) as pipe:
            for i, c in enumerate(cutoffs):
                pipe.submit(cutoff=c, frame=i % 4 if i % 7 == 0 else None)
                # Interleave reads of the snapshot and the lazily-synced
                # measure engine while the worker drains the queue: each
                # read must be internally consistent (one locked sync),
                # whatever state it lands on.
                g = rin.csr
                m = rin.measures
                assert len(m.degrees()) == a3d_traj.topology.n_residues
                assert m.component_count >= 1
                assert g.number_of_nodes() == a3d_traj.topology.n_residues
            pipe.flush()
        # After quiescence every view must agree with a scratch rebuild.
        scratch = rin.builder.build(rin.frame, rin.cutoff)
        assert rin.csr.edge_set() == scratch.edge_set()
        ref = full_measures(rin.csr)
        assert np.array_equal(rin.degrees(), ref["degrees"])
        assert np.array_equal(rin.core_numbers(), ref["core_numbers"])
        count, labels = rin.components()
        assert count == ref["component_count"]
        assert np.array_equal(labels, ref["component_labels"])

    def test_repeated_sync_never_replays_twice(self, a3d_traj):
        """Two reads with no update between them are one no-op sync."""
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        rin.set_cutoff(5.0)
        first = rin.measures
        assert rin.measures is first  # same engine, no drift
        degrees = first.degrees()
        assert np.array_equal(rin.degrees(), degrees)


class TestTimingCarriesMaintainedState:
    def test_apply_event_reports_components_and_coreness(self, a3d_traj):
        pipe = UpdatePipeline(
            DynamicRIN(a3d_traj, frame=0, cutoff=4.5),
            measure="Degree Centrality",
        )
        timing = pipe.switch_cutoff(6.0)
        ref = full_measures(pipe.rin.csr)
        assert timing.components_after == ref["component_count"]
        assert timing.max_coreness_after == int(ref["core_numbers"].max())
        timing = pipe.switch_measure("Katz Centrality")
        assert timing.components_after == ref["component_count"]

    def test_full_render_reports_maintained_state(self, a3d_traj):
        pipe = UpdatePipeline(
            DynamicRIN(a3d_traj, frame=0, cutoff=4.5),
            measure="Degree Centrality",
        )
        timing = pipe.full_render()
        assert timing.components_after >= 1
        assert timing.max_coreness_after >= 1

    def test_topology_summary_matches_full_recompute(self, a3d_traj):
        pipe = UpdatePipeline(
            DynamicRIN(a3d_traj, frame=0, cutoff=4.5),
            measure="Degree Centrality",
        )
        pipe.switch_cutoff(5.5)
        summary = pipe.topology_summary()
        ref = full_measures(pipe.rin.csr)
        assert summary["components"] == ref["component_count"]
        assert summary["max_coreness"] == int(ref["core_numbers"].max())
        assert summary["edges"] == pipe.rin.n_edges
        assert summary["mean_degree"] == pytest.approx(
            float(ref["degrees"].mean())
        )
        assert summary == pipe.rin.measure_summary()

    def test_summary_consistent_during_async_burst(self, a3d_traj):
        """measure_summary holds the lock: one state, never a torn mix."""
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        with AsyncUpdatePipeline(
            rin, measure="Degree Centrality", debounce_ms=1
        ) as pipe:
            for i in range(40):
                pipe.submit(cutoff=4.5 + 0.05 * (i % 20))
                s = rin.measure_summary()
                # Edge count and mean degree must describe the same
                # state: mean_degree == 2 * edges / n exactly.
                n = a3d_traj.topology.n_residues
                assert s["mean_degree"] == pytest.approx(2.0 * s["edges"] / n)
                assert s["components"] >= 1.0
            pipe.flush()

    def test_async_results_carry_maintained_state(self, a3d_traj):
        with AsyncUpdatePipeline(
            DynamicRIN(a3d_traj, frame=0, cutoff=4.5),
            measure="Degree Centrality",
            debounce_ms=2,
        ) as pipe:
            for c in (5.0, 5.5, 6.0):
                pipe.submit(cutoff=c)
            timing = pipe.flush()
            ref = full_measures(pipe.rin.csr)
            assert timing.components_after == ref["component_count"]
            assert timing.max_coreness_after == int(ref["core_numbers"].max())
