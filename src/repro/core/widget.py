"""RINWidget — the paper's interactive GUI (Figure 5), headless.

Assembles exactly the components of Figure 5:

* top: two side-by-side 3-D plots — protein-based layout (left, node
  positions = C-alpha coordinates) and Maxent-Stress layout (right);
* bottom: a trajectory-frame slider, an edge cut-off slider (Å) and a
  graph-measure selector;
* misc: a Recompute button, an Automatic-Recompute toggle, an ID-coloring
  toggle, and a score buffer that can display the *delta* between the
  current and previous measure values ("By storing the most recent
  computed node property within a buffer in the widget, it is also
  possible to visualize the delta between different cut-off distances or
  trajectory frames").

All interactions funnel through the :class:`UpdatePipeline` and are
recorded in an :class:`~repro.core.events.EventLog` — the data source for
the Figure 6-8 benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..md.trajectory import Trajectory
from ..rin.dynamic import DynamicRIN
from ..rin.measures import measure_names
from .client import ClientCostModel, ClientSimulator
from .controls import Button, Checkbox, FloatSlider, IntSlider, SelectionSlider
from .events import EventKind, EventLog, UpdateTiming
from .pipeline import AsyncUpdatePipeline, UpdatePipeline

__all__ = ["RINWidget"]


class RINWidget:
    """The interactive RIN exploration widget.

    Parameters
    ----------
    trajectory:
        The MD trajectory to explore.
    cutoff / frame / measure:
        Initial slider values.
    criterion:
        Residue distance criterion for RIN construction.
    cost_model:
        Client (browser) DOM cost model for perceived-latency simulation.
    auto_recompute:
        Start with automatic recomputation on slider moves (paper: the
        user can "choose whether re-computation is done automatically or
        on demand").
    async_updates:
        When True, slider events are *submitted* to an
        :class:`AsyncUpdatePipeline` instead of blocking the caller: a
        burst of slider moves coalesces into O(1) solves, stale events
        are cancelled mid-solve, and results land in :attr:`log` via a
        completion callback. Call :meth:`flush` to await quiescence.
    debounce_ms:
        Async-mode debounce window before each solve (coalesces bursts).
    engine:
        Where layout solves run: ``"thread"`` (default, in-process) or
        ``"process"`` (a worker process, so concurrent cloud sessions
        escape the GIL; see :class:`UpdatePipeline`). Applies to both
        sync and async modes.
    compute_session:
        Optional budgeted :class:`~repro.graphkit.service.ComputeSession`
        the process engine's solves are scheduled under on the
        process-wide compute service (see :class:`UpdatePipeline`).
    """

    def __init__(
        self,
        trajectory: Trajectory,
        *,
        cutoff: float = 4.5,
        frame: int = 0,
        measure: str = "Closeness Centrality",
        criterion: str = "min",
        cutoff_range: tuple[float, float] = (3.0, 10.0),
        cost_model: ClientCostModel | None = None,
        auto_recompute: bool = True,
        async_updates: bool = False,
        debounce_ms: float = 0.0,
        engine: str = "thread",
        compute_session=None,
    ):
        self._trajectory = trajectory
        rin = DynamicRIN(
            trajectory, frame=frame, cutoff=cutoff, criterion=criterion
        )
        client = ClientSimulator(cost_model or ClientCostModel())
        self._async = bool(async_updates)
        self.log = EventLog()
        if self._async:
            self._pipeline: UpdatePipeline | AsyncUpdatePipeline = (
                AsyncUpdatePipeline(
                    rin,
                    measure=measure,
                    client=client,
                    debounce_ms=debounce_ms,
                    on_result=self._on_async_result,
                    engine=engine,
                    compute_session=compute_session,
                )
            )
        else:
            self._pipeline = UpdatePipeline(
                rin,
                measure=measure,
                client=client,
                engine=engine,
                compute_session=compute_session,
            )

        # --- controls (Figure 5 bottom row) --------------------------------
        self.frame_slider = IntSlider(
            frame, 0, trajectory.n_frames - 1, description="Trajectory"
        )
        self.cutoff_slider = FloatSlider(
            cutoff,
            cutoff_range[0],
            cutoff_range[1],
            step=0.05,
            description="Edge Distance cut-off (Å)",
        )
        self.measure_slider = SelectionSlider(
            measure_names(), value=measure, description="Graph Measure"
        )
        self.recompute_button = Button("Recompute")
        self.auto_recompute = Checkbox(auto_recompute, "Automatic Recompute")
        self.id_coloring = Checkbox(False, "ID coloring")

        self.frame_slider.observe(self._on_frame)
        self.cutoff_slider.observe(self._on_cutoff)
        self.measure_slider.observe(self._on_measure)
        self.recompute_button.on_click(self._on_recompute)

        # --- score buffer (delta view) --------------------------------------
        self._score_buffer: np.ndarray | None = None
        self._pending: list[str] = []  # deferred events while auto is off
        # Recompute applies deferred state through the pipeline facades;
        # those intermediate publications must not be logged (sync mode
        # discards them too — only the FULL_RENDER entry is recorded).
        self._suppress_async_log = False

    # ------------------------------------------------------------------
    # public state
    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> UpdatePipeline | AsyncUpdatePipeline:
        """The server-side update pipeline (async when ``async_updates``)."""
        return self._pipeline

    @property
    def async_updates(self) -> bool:
        """Whether slider events go through the async pipeline."""
        return self._async

    def flush(self, timeout: float | None = 60.0) -> None:
        """Await pipeline quiescence (no-op for the synchronous pipeline)."""
        if isinstance(self._pipeline, AsyncUpdatePipeline):
            self._pipeline.flush(timeout)

    def close(self, *, raise_errors: bool = True) -> None:
        """Release the widget's resources (stops the async worker thread).

        No-op for the synchronous pipeline; safe to call repeatedly.
        ``raise_errors=False`` suppresses re-raising a latched worker
        error (used when another exception is already propagating).
        """
        if isinstance(self._pipeline, AsyncUpdatePipeline):
            self._pipeline.close(raise_errors=raise_errors)
        else:
            self._pipeline.close()  # releases a process-engine solver pool

    def __enter__(self) -> "RINWidget":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.close(raise_errors=exc_type is None)

    @property
    def graph(self):
        """The current RIN graph."""
        return self._pipeline.rin.graph

    @property
    def scores(self) -> np.ndarray:
        """Current measure scores."""
        return self._pipeline.scores

    @property
    def protein_figure(self):
        """Left plot: protein-based layout."""
        return self._pipeline.protein_figure

    @property
    def maxent_figure(self):
        """Right plot: Maxent-Stress layout."""
        return self._pipeline.maxent_figure

    def status_line(self) -> str:
        """The Figure 5 header line: file, nodes, edges."""
        g = self.graph
        return (
            f"File: {self._trajectory.topology.name}-protein | "
            f"Nodes: {g.number_of_nodes()} | Edges: {g.number_of_edges()}"
        )

    # ------------------------------------------------------------------
    # slider handlers
    # ------------------------------------------------------------------
    def _buffer_scores(self) -> None:
        self._score_buffer = self._pipeline.scores.copy()

    def _on_async_result(self, generation: int, timing: UpdateTiming) -> None:
        """Completion callback: a coalesced async update published."""
        if not self._suppress_async_log:
            self.log.record(timing)

    def _dispatch(self, kind: str, value) -> None:
        """Route one slider event to the active pipeline flavour."""
        if isinstance(self._pipeline, AsyncUpdatePipeline):
            # Buffer the pre-burst scores once; mid-burst submissions keep
            # the buffer so score_delta() spans the whole interaction.
            if self._pipeline.idle:
                self._buffer_scores()
            self._pipeline.submit(**{kind: value})
            return
        self._buffer_scores()
        timing = self._pipeline.apply_event(**{kind: value})
        self.log.record(timing)

    def _on_frame(self, change) -> None:
        if not self.auto_recompute.value:
            self._pending.append("frame")
            return
        self._dispatch("frame", change["new"])

    def _on_cutoff(self, change) -> None:
        if not self.auto_recompute.value:
            self._pending.append("cutoff")
            return
        self._dispatch("cutoff", change["new"])

    def _on_measure(self, change) -> None:
        if not self.auto_recompute.value:
            self._pending.append("measure")
            return
        self._dispatch("measure", change["new"])

    def _on_recompute(self, _button) -> None:
        # Apply any deferred state, then force a full render. Only the
        # FULL_RENDER entry reaches the log in either pipeline mode.
        self.flush()
        self._buffer_scores()
        rin = self._pipeline.rin
        if rin.frame != self.frame_slider.value or rin.cutoff != (
            self.cutoff_slider.value
        ):
            rin.set_state(
                frame=self.frame_slider.value, cutoff=self.cutoff_slider.value
            )
        if self._pipeline.measure.name != self.measure_slider.value:
            self._suppress_async_log = True
            try:
                self._pipeline.switch_measure(self.measure_slider.value)
            finally:
                self._suppress_async_log = False
        timing = self._pipeline.full_render()
        self.log.record(timing)
        self._pending.clear()

    # ------------------------------------------------------------------
    # score buffer / delta view
    # ------------------------------------------------------------------
    def score_delta(self) -> np.ndarray:
        """Current scores minus the buffered previous scores.

        Raises ``RuntimeError`` before the first interaction (no buffer).
        """
        if self._score_buffer is None:
            raise RuntimeError("no buffered scores yet; interact first")
        current = self._pipeline.scores
        if len(current) != len(self._score_buffer):
            raise RuntimeError("buffer is stale (node count changed)")
        return current - self._score_buffer

    @property
    def pending_events(self) -> list[str]:
        """Deferred interactions awaiting the Recompute button."""
        return list(self._pending)

    # ------------------------------------------------------------------
    def last_timing(self) -> UpdateTiming:
        """Timing of the most recent update."""
        if not self.log.entries:
            raise RuntimeError("no interactions recorded yet")
        return self.log.entries[-1]

    def perceived_fps(self, kind: EventKind = EventKind.MEASURE_SWITCH) -> float:
        """Achievable interaction rate for an event kind (paper §V-B:
        'suitable for fluent animation or video playback (24 fps to 60
        fps)' for measure switches)."""
        mean_ms = self.log.mean_total_ms(kind)
        return 1000.0 / mean_ms if mean_ms > 0 else float("inf")
