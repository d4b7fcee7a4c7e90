"""The RIN snapshot under concurrent slider bursts.

Regression coverage for the hazard where ``DynamicRIN`` state could be
read by the GUI thread *mid-delta* while the async worker applies queued
updates. The reads below hammer the published snapshot during slider
bursts and then pin the RIN against a scratch rebuild.
"""

from __future__ import annotations

from repro.core import AsyncUpdatePipeline
from repro.rin import DynamicRIN


class TestInterleavedReadsUnderAsyncPipeline:
    def test_graph_and_measures_survive_concurrent_bursts(self, a3d_traj):
        """Reads racing queued deltas must never corrupt the RIN."""
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        n = a3d_traj.topology.n_residues
        cutoffs = [4.5 + 0.1 * (i % 25) for i in range(60)]
        with AsyncUpdatePipeline(
            rin, measure="Degree Centrality", debounce_ms=1
        ) as pipe:
            for i, c in enumerate(cutoffs):
                pipe.submit(cutoff=c, frame=i % 4 if i % 7 == 0 else None)
                # Interleave snapshot reads while the worker drains the
                # queue: each snapshot is immutable and whole, whatever
                # state it lands on.
                g = rin.csr
                assert g.number_of_nodes() == n
                assert int(g.degrees().sum()) == 2 * g.number_of_edges()
            pipe.flush()
        # After quiescence the snapshot must agree with a scratch rebuild.
        scratch = rin.builder.build(rin.frame, rin.cutoff)
        assert rin.csr.edge_set() == scratch.edge_set()
