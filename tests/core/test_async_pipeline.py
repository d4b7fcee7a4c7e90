"""Async update pipeline: coalescing, cancellation, differential pinning.

The acceptance properties from the async-pipeline refactor:

* a burst of K slider events performs O(1) layout solves after debounce;
* a superseded generation never publishes (stale results can't overwrite
  newer ones);
* the async pipeline's final state is pinned to the blocking engine
  (`UpdatePipeline`), the reference twin;
* warm starts are deterministic, cold starts agree within tolerance.
"""

import threading

import numpy as np
import pytest

from repro.core import (
    AsyncUpdatePipeline,
    EventKind,
    UpdateCancelled,
    UpdatePipeline,
)
from repro.graphkit.layout import maxent_stress_layout
from repro.rin import DynamicRIN, build_rin
from repro.rin.measures import MEASURES, register_measure


@pytest.fixture
def rin(a3d_traj):
    return DynamicRIN(a3d_traj, frame=0, cutoff=4.5)


@pytest.fixture
def apipe(rin):
    pipeline = AsyncUpdatePipeline(rin, measure="Degree Centrality")
    yield pipeline
    pipeline.close()


class TestLayoutCancellation:
    """The generation poll happens at solver-iteration granularity."""

    def test_cancel_immediately_returns_initial(self, triangle):
        initial = np.arange(9, dtype=float).reshape(3, 3)
        out = maxent_stress_layout(
            triangle, dim=3, initial=initial, cancel=lambda: True
        )
        assert np.array_equal(out, initial)

    def test_cancel_mid_solve_returns_partial(self, a3d_traj):
        g = build_rin(a3d_traj.topology, a3d_traj.frame(0), 6.0)
        polls = {"n": 0}

        def cancel_after_three():
            polls["n"] += 1
            return polls["n"] > 3

        partial = maxent_stress_layout(g, seed=1, cancel=cancel_after_three)
        full = maxent_stress_layout(g, seed=1)
        assert partial.shape == full.shape
        assert not np.array_equal(partial, full)  # genuinely stopped early
        assert polls["n"] == 4  # polled once per sweep until it fired

    def test_engine_raises_before_touching_figures(self, rin):
        polls = {"n": 0}

        def cancel_mid_layout():
            polls["n"] += 1
            # Pass the entry gate and one layout sweep, then fire inside
            # the solve (so the partial embedding differs from the start).
            return polls["n"] > 2

        engine = UpdatePipeline(
            rin, measure="Degree Centrality", cancel_check=cancel_mid_layout
        )
        polls["n"] = -10_000  # initial render must complete unhindered
        maxent_before = np.array(engine.maxent_figure.trace(0).x, dtype=float)
        n_edge_elements = engine.protein_figure.trace(1).n_elements()
        scores_before = engine.scores.copy()
        coords_before = engine.maxent_coordinates.copy()
        polls["n"] = 0
        with pytest.raises(UpdateCancelled):
            engine.apply_event(cutoff=8.0)
        # Published state untouched by the cancelled update...
        assert np.array_equal(
            np.array(engine.maxent_figure.trace(0).x, dtype=float), maxent_before
        )
        assert engine.protein_figure.trace(1).n_elements() == n_edge_elements
        assert np.array_equal(engine.scores, scores_before)
        # ...but the partial layout survives as the next warm start.
        assert not np.array_equal(engine.maxent_coordinates, coords_before)
        assert engine.rin.cutoff == 8.0  # RIN state converges to the target


class TestCoalescing:
    def test_burst_performs_one_solve(self, rin):
        with AsyncUpdatePipeline(
            rin, measure="Degree Centrality", debounce_ms=50
        ) as pipeline:
            gens = [
                pipeline.submit(cutoff=c)
                for c in (5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0)
            ]
            timing = pipeline.flush()
            # O(1) after debounce: normally exactly 1 solve; a scheduler
            # stall mid-burst can let one extra (cancelled) solve start.
            assert pipeline.stats.solves_started <= 2
            assert pipeline.stats.published <= 2
            assert pipeline.stats.coalesced >= len(gens) - 2
            assert pipeline.published_generation == gens[-1]
            assert timing.generation == gens[-1]
            assert pipeline.rin.cutoff == 9.0

    def test_mixed_kinds_coalesce_into_combined_event(self, apipe):
        apipe.submit(cutoff=7.0)
        apipe.submit(frame=3)
        apipe.submit(measure="Closeness Centrality")
        timing = apipe.flush()
        # Frame dominates the client semantics of the combined update.
        assert timing.kind is EventKind.FRAME_SWITCH
        assert apipe.rin.frame == 3 and apipe.rin.cutoff == 7.0
        assert apipe.measure.name == "Closeness Centrality"

    def test_submit_requires_an_event(self, apipe):
        with pytest.raises(ValueError):
            apipe.submit()


class TestCancellationSemantics:
    def test_superseded_generation_never_publishes(self, rin):
        """Event A is held mid-update while B arrives; A must not publish."""
        entered = threading.Event()
        release = threading.Event()

        def slow_degree(g):
            entered.set()
            release.wait(10.0)
            degrees = g.degrees().astype(float)
            return degrees / degrees.max()

        register_measure("Slow Test Measure", slow_degree, overwrite=True)
        published: list[int] = []
        try:
            pipeline = AsyncUpdatePipeline(
                rin,
                measure="Degree Centrality",
                on_result=lambda gen, timing: published.append(gen),
            )
            with pipeline:
                gen_a = pipeline.submit(measure="Slow Test Measure")
                assert entered.wait(10.0)
                # A is mid-measure; B supersedes it before its publish gate.
                gen_b = pipeline.submit(measure="Degree Centrality")
                release.set()
                pipeline.flush()
                assert gen_a not in published
                assert published == [gen_b]
                assert pipeline.published_generation == gen_b
                assert pipeline.stats.solves_cancelled >= 1
                assert pipeline.measure.name == "Degree Centrality"
        finally:
            MEASURES.pop("Slow Test Measure", None)

    def test_user_cancel_drops_pending_burst(self, rin):
        with AsyncUpdatePipeline(
            rin, measure="Degree Centrality", debounce_ms=100
        ) as pipeline:
            pipeline.submit(cutoff=9.5)
            pipeline.cancel()  # user lets go of the slider / closes the tab
            pipeline.flush()
            assert pipeline.stats.published == 0
            assert pipeline.rin.cutoff in (4.5, 9.5)  # state may have moved...
            assert pipeline.latest_result is None  # ...but nothing published

    def test_blocking_facade_raises_when_superseded(self, apipe):
        apipe.submit(cutoff=6.0)
        apipe.flush()
        with pytest.raises(UpdateCancelled):
            # Facade's generation is immediately superseded by a newer one.
            orig_submit = apipe.submit

            def racing_submit(**kw):
                gen = orig_submit(**kw)
                orig_submit(cutoff=5.0)  # the race
                return gen

            apipe.submit = racing_submit
            try:
                apipe.switch_cutoff(8.0)
            finally:
                apipe.submit = orig_submit


class TestRobustness:
    def test_callbacks_complete_before_flush_returns(self, rin):
        seen: list[int] = []
        with AsyncUpdatePipeline(
            rin,
            measure="Degree Centrality",
            debounce_ms=20,
            on_result=lambda gen, timing: seen.append(gen),
        ) as pipeline:
            for c in (5.0, 6.0, 7.0):
                pipeline.submit(cutoff=c)
            pipeline.flush()
            # flush() returning guarantees every completion callback fired.
            assert seen and seen[-1] == pipeline.published_generation

    def test_failed_event_does_not_poison_the_queue(self, apipe):
        def broken(g):
            raise ValueError("broken measure")

        register_measure("Broken Test Measure", broken, overwrite=True)
        try:
            apipe.submit(measure="Broken Test Measure")  # the engine raises
            with pytest.raises(ValueError, match="broken measure"):
                apipe.flush()
        finally:
            MEASURES.pop("Broken Test Measure", None)
        # The poisonous value is dropped; later events publish normally.
        timing = apipe.switch_measure("Closeness Centrality")
        assert timing.kind is EventKind.MEASURE_SWITCH
        assert apipe.measure.name == "Closeness Centrality"

    def test_failed_measure_switch_keeps_engine_measure(self, trp_traj):
        def broken(g):
            raise ValueError("broken measure")

        register_measure("Broken Async Measure", broken, overwrite=True)
        rin = DynamicRIN(trp_traj, frame=0, cutoff=4.5)
        with AsyncUpdatePipeline(rin, measure="Degree Centrality") as pipe:
            try:
                pipe.submit(measure="Broken Async Measure")
                with pytest.raises(ValueError, match="broken measure"):
                    pipe.flush()
            finally:
                MEASURES.pop("Broken Async Measure", None)
            assert pipe.measure.name == "Degree Centrality"
            gen = pipe.submit(frame=2)
            timing = pipe.flush()
            assert pipe.published_generation == gen
            assert timing.kind is EventKind.FRAME_SWITCH
            assert pipe.measure.name == "Degree Centrality"

    @pytest.mark.parametrize(
        "event, error",
        [
            ({"cutoff": float("nan")}, ValueError),
            ({"cutoff": float("inf")}, ValueError),
            ({"cutoff": -1.0}, ValueError),
            ({"frame": 12}, IndexError),
            ({"frame": -1}, IndexError),
            ({"measure": "No Such Measure"}, KeyError),
            ({"frame": 2, "cutoff": float("nan")}, ValueError),
        ],
    )
    def test_submit_rejects_invalid_input(self, apipe, event, error):
        with pytest.raises(error):
            apipe.submit(**event)
        # Nothing was queued and no generation was allocated.
        assert apipe.generation == 0
        assert apipe.stats.submitted == 0
        assert apipe.flush() is None

    def test_nan_cutoff_does_not_poison_later_events(self, apipe):
        with pytest.raises(ValueError, match="positive"):
            apipe.submit(cutoff=float("nan"))
        frame_gen = apipe.submit(frame=2)
        apipe.flush()
        measure_gen = apipe.submit(measure="Closeness Centrality")
        timing = apipe.flush()
        assert apipe.published_generation == measure_gen == frame_gen + 1
        assert timing.kind is EventKind.MEASURE_SWITCH
        assert apipe.rin.frame == 2 and apipe.rin.cutoff == 4.5

    def test_drain_drops_a_failed_value_that_is_not_equal_to_itself(
        self, apipe
    ):
        # A value the engine rejects that also fails ``==`` (NaN) must
        # leave the queue with its failed event, whatever path queued it.
        apipe._pending["cutoff"] = float("nan")
        apipe.submit(measure="Closeness Centrality")
        with pytest.raises(ValueError, match="positive"):
            apipe.flush()
        timing = apipe.switch_frame(2)
        assert timing.kind is EventKind.FRAME_SWITCH
        assert apipe.rin.frame == 2

    def test_cancelled_topology_debt_repaid_by_next_publish(self, rin):
        polls = {"n": 0, "limit": 2}

        def cancel_window():
            polls["n"] += 1
            return polls["n"] > polls["limit"]

        engine = UpdatePipeline(
            rin, measure="Degree Centrality", cancel_check=cancel_window
        )
        polls["limit"] = 10**9  # initial render runs free
        polls["n"] = 0
        polls["limit"] = 2
        with pytest.raises(UpdateCancelled):
            engine.apply_event(cutoff=8.0)  # RIN moved, figures did not
        polls["limit"] = 10**9  # next event runs to completion
        engine.apply_event(measure="Closeness Centrality")
        # The measure-only publish repaid the topology debt: the figures'
        # edge traces now reflect the cutoff-8.0 graph.
        n_edge_elements = engine.protein_figure.trace(1).n_elements()
        assert n_edge_elements == engine.rin.n_edges

    def test_raising_callback_does_not_wedge_the_pipeline(self, rin):
        def bad_callback(gen, timing):
            raise RuntimeError("listener bug")

        with AsyncUpdatePipeline(
            rin, measure="Degree Centrality", on_result=bad_callback
        ) as pipeline:
            pipeline.submit(cutoff=6.0)
            with pytest.raises(RuntimeError, match="listener bug"):
                pipeline.flush(10.0)
            pipeline.remove_result_callback(bad_callback)
            # The worker survived: later events still publish normally.
            timing = pipeline.switch_cutoff(7.0)
            assert timing.edges_after == pipeline.rin.n_edges

    def test_full_render_after_cancel_still_solves(self, apipe):
        apipe.submit(cutoff=6.0)
        apipe.flush()
        coords_before = apipe.maxent_coordinates.copy()
        apipe.cancel()  # leaves a tombstone generation behind
        timing = apipe.full_render()
        # The render must run a real solve, not be skipped as stale.
        assert timing.kind is EventKind.FULL_RENDER
        assert not np.array_equal(apipe.maxent_coordinates, coords_before)

    def test_close_surfaces_swallowed_errors(self, rin):
        def bad_callback(gen, timing):
            raise RuntimeError("never flushed")

        pipeline = AsyncUpdatePipeline(
            rin, measure="Degree Centrality", on_result=bad_callback
        )
        pipeline.submit(cutoff=6.0)
        pipeline._idle.wait(10.0)  # drain WITHOUT calling flush()
        with pytest.raises(RuntimeError, match="never flushed"):
            pipeline.close()
        pipeline.close()  # idempotent once surfaced

    def test_scrub_removes_its_callback(self, a3d_traj):
        from repro.core import AnimationPlayer

        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        with AsyncUpdatePipeline(rin, measure="Degree Centrality") as pipeline:
            before = len(pipeline._callbacks)
            AnimationPlayer(pipeline).scrub([1, 2])
            assert len(pipeline._callbacks) == before


class TestDifferentialVsBlockingEngine:
    def test_async_burst_state_pins_to_sync_engine(self, a3d_traj):
        fast = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        with AsyncUpdatePipeline(
            fast, measure="Degree Centrality", debounce_ms=30
        ) as pipeline:
            for c in (5.0, 6.0, 7.0, 8.0):
                pipeline.submit(cutoff=c)
            pipeline.submit(frame=6)
            pipeline.flush()
            async_scores = pipeline.scores.copy()
            async_edges = pipeline.rin.csr.edge_set()

        ref_rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5, impl="reference")
        sync = UpdatePipeline(ref_rin, measure="Degree Centrality")
        sync.apply_event(frame=6, cutoff=8.0)  # the coalesced final state
        assert async_edges == sync.rin.csr.edge_set()
        np.testing.assert_allclose(async_scores, sync.scores)

    def test_serial_async_equals_sync_exactly(self, a3d_traj):
        """With no coalescing (flush between events) the async pipeline is
        the blocking engine, warm starts included: coords match exactly."""
        events = [("cutoff", 6.0), ("frame", 3), ("cutoff", 4.0)]
        sync = UpdatePipeline(
            DynamicRIN(a3d_traj, frame=0, cutoff=4.5), measure="Degree Centrality"
        )
        with AsyncUpdatePipeline(
            DynamicRIN(a3d_traj, frame=0, cutoff=4.5), measure="Degree Centrality"
        ) as pipeline:
            for kind, value in events:
                pipeline.submit(**{kind: value})
                pipeline.flush()
                sync.apply_event(**{kind: value})
            assert np.array_equal(
                pipeline.maxent_coordinates, sync.maxent_coordinates
            )
            np.testing.assert_allclose(pipeline.scores, sync.scores)


class TestWarmStart:
    def _stress(self, g, coords):
        """Sparse stress of the k=1 known pairs (lower = better fit)."""
        edges = np.asarray(list(g.iter_edges()))
        d = np.linalg.norm(coords[edges[:, 0]] - coords[edges[:, 1]], axis=1)
        return float(((d - 1.0) ** 2).sum())

    def test_warm_start_is_deterministic(self, a3d_traj):
        runs = []
        for _ in range(2):
            rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
            with AsyncUpdatePipeline(rin, measure="Degree Centrality") as p:
                for c in (5.0, 6.5, 8.0):
                    p.submit(cutoff=c)
                    p.flush()
                runs.append(p.maxent_coordinates.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_cold_start_quality_within_tolerance(self, a3d_traj):
        g = build_rin(a3d_traj.topology, a3d_traj.frame(0), 6.0)
        cold = maxent_stress_layout(g, seed=42)
        warm_init = maxent_stress_layout(
            build_rin(a3d_traj.topology, a3d_traj.frame(0), 5.5), seed=42
        )
        warm = maxent_stress_layout(g, seed=42, initial=warm_init)
        s_cold, s_warm = self._stress(g, cold), self._stress(g, warm)
        # Warm starts must not degrade layout quality materially.
        assert s_warm <= s_cold * 1.5


class TestWidgetAndPlayerIntegration:
    def test_widget_async_mode_logs_via_callbacks(self, a3d_traj):
        from repro.core import RINWidget

        widget = RINWidget(
            a3d_traj, cutoff=4.5, measure="Degree Centrality",
            async_updates=True, debounce_ms=30,
        )
        try:
            for c in (5.0, 6.0, 7.0, 8.0):
                widget.cutoff_slider.value = c
            widget.flush()
            # The burst coalesced: fewer log entries than slider moves,
            # at least the final one published.
            assert 1 <= len(widget.log) < 4
            assert widget.log.entries[-1].kind is EventKind.CUTOFF_SWITCH
            assert widget.pipeline.rin.cutoff == 8.0
            delta = widget.score_delta()  # buffer spans the whole burst
            assert delta.shape == widget.scores.shape
        finally:
            widget.close()

    def test_player_scrub_reports_dropped_frames(self, a3d_traj):
        from repro.core import AnimationPlayer

        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        with AsyncUpdatePipeline(
            rin, measure="Degree Centrality", debounce_ms=40
        ) as pipeline:
            player = AnimationPlayer(pipeline)
            report = player.scrub(list(range(1, 9)))
            assert report.frames_played == 8
            rendered = 8 - report.dropped_frames
            assert 1 <= rendered < 8  # coalescing dropped some frames
            assert pipeline.rin.frame == 8  # but the final frame landed

    def test_scrub_ignores_pre_scrub_events(self, a3d_traj):
        from repro.core import AnimationPlayer

        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        with AsyncUpdatePipeline(
            rin, measure="Degree Centrality", debounce_ms=40
        ) as pipeline:
            pipeline.submit(cutoff=8.0)  # in flight when the scrub starts
            report = AnimationPlayer(pipeline).scrub([1, 2])
            # The cutoff event's publication must not be counted as a frame.
            assert 0 <= report.dropped_frames <= 2
            assert report.frames_played == 2

    def test_widget_recompute_logs_match_sync_mode(self, a3d_traj):
        from repro.core import RINWidget

        logs = {}
        for mode in (False, True):
            widget = RINWidget(
                a3d_traj, cutoff=4.5, measure="Degree Centrality",
                auto_recompute=False, async_updates=mode,
            )
            try:
                widget.measure_slider.value = "Closeness Centrality"
                widget.recompute_button.click()
                logs[mode] = [t.kind for t in widget.log.entries]
            finally:
                widget.close()
        assert logs[False] == logs[True] == [EventKind.FULL_RENDER]

    def test_player_play_works_over_async_facade(self, a3d_traj):
        from repro.core import AnimationPlayer

        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        with AsyncUpdatePipeline(rin, measure="Degree Centrality") as pipeline:
            report = AnimationPlayer(pipeline).play(frames=[2, 4])
            assert report.frames_played == 2
            assert pipeline.rin.frame == 4
