"""Tests for the out-of-process layout solver (``engine="process"``).

The process engine must be observationally identical to the thread
engine: same coordinates (bit-identical — same solver, same seed, same
warm starts), same cancellation semantics (a superseded generation stops
the in-flight solve through the shared flag and the figures stay
untouched), same lifecycle guarantees.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AsyncUpdatePipeline, RINWidget, UpdatePipeline
from repro.graphkit.service import (
    configure_compute_service,
    shutdown_compute_service,
)
from repro.rin import DynamicRIN


@pytest.fixture()
def rin(trp_traj):
    return DynamicRIN(trp_traj, frame=0, cutoff=4.5)


class TestProcessEngineSync:
    def test_engine_validated(self, rin):
        with pytest.raises(ValueError):
            UpdatePipeline(rin, engine="gpu")

    def test_thread_is_default_and_close_is_noop(self, rin):
        pipe = UpdatePipeline(rin)
        assert pipe.engine_kind == "thread"
        pipe.close()
        pipe.close()  # idempotent

    def test_solves_bit_identical_to_thread(self, trp_traj):
        with UpdatePipeline(
            DynamicRIN(trp_traj, frame=0, cutoff=4.5), measure="Degree Centrality"
        ) as thread_pipe, UpdatePipeline(
            DynamicRIN(trp_traj, frame=0, cutoff=4.5),
            measure="Degree Centrality",
            engine="process",
        ) as process_pipe:
            assert process_pipe.engine_kind == "process"
            for event in ({"cutoff": 6.0}, {"frame": 3}, {"cutoff": 4.0}):
                thread_pipe.apply_event(**event)
                process_pipe.apply_event(**event)
                assert np.array_equal(
                    thread_pipe.maxent_coordinates,
                    process_pipe.maxent_coordinates,
                )
                assert np.array_equal(thread_pipe.scores, process_pipe.scores)

    def test_timings_report_layout_stage(self, rin):
        with UpdatePipeline(rin, engine="process") as pipe:
            timing = pipe.switch_cutoff(6.5)
        assert timing.layout_ms > 0.0


class TestProcessEngineAsync:
    def test_burst_coalesces_and_publishes_newest(self, trp_traj):
        with AsyncUpdatePipeline(
            DynamicRIN(trp_traj, frame=0, cutoff=4.5),
            measure="Degree Centrality",
            engine="process",
            debounce_ms=2,
        ) as pipe:
            for c in (3.5, 4.5, 5.5, 6.5, 7.5):
                pipe.submit(cutoff=c)
            pipe.flush()
            assert pipe.rin.cutoff == 7.5
            assert pipe.stats.published <= pipe.stats.submitted

    def test_result_matches_thread_engine(self, trp_traj):
        with AsyncUpdatePipeline(
            DynamicRIN(trp_traj, frame=0, cutoff=4.5), measure="Degree Centrality"
        ) as thread_pipe, AsyncUpdatePipeline(
            DynamicRIN(trp_traj, frame=0, cutoff=4.5),
            measure="Degree Centrality",
            engine="process",
        ) as process_pipe:
            thread_pipe.switch_cutoff(6.0)
            process_pipe.switch_cutoff(6.0)
            assert np.array_equal(
                thread_pipe.maxent_coordinates, process_pipe.maxent_coordinates
            )

    def test_user_cancel_keeps_figures_consistent(self, trp_traj):
        with AsyncUpdatePipeline(
            DynamicRIN(trp_traj, frame=0, cutoff=4.5),
            measure="Degree Centrality",
            engine="process",
        ) as pipe:
            pipe.submit(cutoff=9.5)
            pipe.cancel()
            pipe.flush()
            # Regardless of whether the solve finished or was stopped by
            # the shared flag, a full render afterwards must succeed and
            # repay any unpublished-topology debt.
            timing = pipe.full_render()
            assert timing.edges_after == pipe.rin.n_edges


class TestComputePlacement:
    """The process engine always leases from the shared service."""

    @pytest.fixture(autouse=True)
    def _fresh_service(self):
        shutdown_compute_service()
        yield
        shutdown_compute_service()

    def test_compute_validated(self, rin):
        # There is no placement mode to choose: the removed ``compute=``
        # keyword is refused rather than silently ignored.
        with pytest.raises(TypeError):
            UpdatePipeline(rin, engine="process", compute="dedicated")

    def test_sessions_share_one_pool(self, trp_traj):
        svc = configure_compute_service(workers=1)
        with UpdatePipeline(
            DynamicRIN(trp_traj, frame=0, cutoff=4.5), engine="process"
        ) as a, UpdatePipeline(
            DynamicRIN(trp_traj, frame=0, cutoff=4.5), engine="process"
        ) as b:
            a.switch_cutoff(6.0)
            b.switch_cutoff(6.0)
            assert np.array_equal(a.maxent_coordinates, b.maxent_coordinates)
        assert svc.stats.pools_started == 1
        assert svc.pool_started  # closing sessions leaves the pool warm


class TestWidgetEngineKnob:
    def test_widget_process_engine(self, trp_traj):
        with RINWidget(
            trp_traj, measure="Degree Centrality", engine="process"
        ) as widget:
            widget.cutoff_slider.value = 6.0
            widget.flush()
            assert widget.pipeline.engine_kind == "process"
            assert widget.last_timing().edges_after == widget.pipeline.rin.n_edges

    def test_widget_async_process_engine(self, trp_traj):
        with RINWidget(
            trp_traj,
            measure="Degree Centrality",
            async_updates=True,
            engine="process",
        ) as widget:
            for c in (4.0, 5.0, 6.0):
                widget.cutoff_slider.value = c
            widget.flush()
            assert widget.pipeline.engine.engine_kind == "process"
            assert widget.pipeline.rin.cutoff == 6.0
