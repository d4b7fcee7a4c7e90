"""Property-based tests (hypothesis) for the RIN layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rin import DynamicRIN, build_rin


@st.composite
def slider_sequences(draw):
    """Random widget interactions: mixed cutoff/frame moves."""
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("cutoff"), st.floats(2.5, 11.0)),
                st.tuples(st.just("frame"), st.integers(0, 9)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return steps


class TestDynamicRINProperties:
    @given(slider_sequences())
    @settings(max_examples=25, deadline=None)
    def test_incremental_always_equals_rebuild(self, a3d_traj, steps):
        """Any interaction sequence leaves the incremental graph identical
        to a from-scratch construction — the widget's core invariant."""
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        for action, value in steps:
            if action == "cutoff":
                rin.set_cutoff(float(value))
            else:
                rin.set_frame(int(value))
        reference = build_rin(
            a3d_traj.topology, a3d_traj.frame(rin.frame), rin.cutoff
        )
        assert rin.csr.edge_set() == reference.edge_set()

    @given(st.floats(2.5, 11.0), st.floats(2.5, 11.0))
    @settings(max_examples=25, deadline=None)
    def test_diff_counts_consistent(self, a3d_traj, c1, c2):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=c1)
        m_before = rin.csr.number_of_edges()
        update = rin.set_cutoff(c2)
        m_after = rin.csr.number_of_edges()
        assert m_after - m_before == update.added - update.removed
        # Cutoff moves in one direction only add or only remove.
        if c2 >= c1:
            assert update.removed == 0
        else:
            assert update.added == 0

    @given(st.integers(0, 9), st.integers(0, 9))
    @settings(max_examples=20, deadline=None)
    def test_frame_switch_symmetric(self, a3d_traj, f1, f2):
        """Going f1→f2 touches exactly as many edges as f2→f1."""
        rin_a = DynamicRIN(a3d_traj, frame=f1, cutoff=4.5)
        diff_ab = rin_a.set_frame(f2)
        rin_b = DynamicRIN(a3d_traj, frame=f2, cutoff=4.5)
        diff_ba = rin_b.set_frame(f1)
        assert diff_ab.total == diff_ba.total
        assert diff_ab.added == diff_ba.removed


class TestMeasureProperties:
    @given(st.floats(3.0, 10.0), st.integers(0, 9))
    @settings(max_examples=10, deadline=None)
    def test_all_measures_valid_on_any_state(self, trp_traj, cutoff, frame):
        from repro.rin import PAPER_MEASURES, get_measure

        g = build_rin(trp_traj.topology, trp_traj.frame(frame), cutoff)
        for name in PAPER_MEASURES:
            scores = get_measure(name)(g)
            assert scores.shape == (20,)
            assert np.isfinite(scores).all()
