"""The widget's update pipeline (paper §V-B mechanics).

Two engines share the server-side state behind the GUI (the
:class:`~repro.rin.dynamic.DynamicRIN`, the two layouts, the current
measure scores, and the two figure widgets):

* :class:`UpdatePipeline` — the synchronous blocking engine. Each slider
  event maps to a method that (1) updates the RIN (CSR edge diff),
  (2) recomputes what the event invalidates (layout and/or measure),
  (3) mutates the figures (tracked), and (4) returns an
  :class:`~repro.core.events.UpdateTiming`. This is the
  ``impl="reference"`` twin of the interaction path: every async result
  is pinned to it by differential tests.
* :class:`AsyncUpdatePipeline` — the interactive fast path. Slider events
  are *submitted* to an event queue and coalesced: a worker thread picks
  the newest pending state, solves Maxent-Stress off the event path
  (warm-started from the previous embedding), and publishes via
  completion callbacks. A monotonic generation counter is polled at
  solver-iteration granularity, so a burst of K slider events performs
  O(1) full layout solves and a superseded event can never overwrite a
  newer result.

The division of labour follows the paper exactly: a cut-off change keeps
node positions in the protein plot (edge-only DOM update there) while the
Maxent-Stress plot is rebuilt; a frame change moves every node in both
plots; a measure switch only recolors.

All analytics on the interaction path read the RIN's immutable
double-buffered CSR snapshot (:attr:`DynamicRIN.csr`), the RIN's only
edge representation.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..graphkit.csr import CSRGraph
from ..graphkit.layout import maxent_stress_layout
from ..graphkit.parallel import SharedCancelFlag
from ..graphkit.service import ComputeSession, get_compute_service
from ..rin.criteria import check_cutoff
from ..rin.dynamic import DynamicRIN
from ..rin.measures import GraphMeasure, get_measure
from ..vizbridge.bridge import edge_coordinates, graph_traces
from ..vizbridge.figure import FigureWidget, Layout
from ..vizbridge.palettes import labels_to_colors, scores_to_colors
from .client import ClientSimulator
from .events import EventKind, UpdateTiming

__all__ = [
    "UpdatePipeline",
    "AsyncUpdatePipeline",
    "UpdateCancelled",
    "AsyncStats",
]


def _now_ms() -> float:
    return time.perf_counter() * 1e3


_ENGINES = ("thread", "process")

#: Seed of the first (cold) Maxent-Stress solve; later solves warm-start.
_LAYOUT_SEED = 42


def _maxent_solve_shard(payload: dict, arrays: dict) -> np.ndarray:
    """Out-of-process Maxent-Stress solve (module-level: pool-importable).

    Rebuilds the CSR snapshot from the shipped arrays and runs the exact
    solver the in-process engine runs — same seed, same warm start, same
    floats. ``cancel`` is a :class:`SharedCancelFlag` (picklable, attaches
    to the parent's segment) polled at solver-iteration granularity, so a
    superseded generation stops the solve across the process boundary and
    returns its partial coordinates for the next warm start.
    """
    csr = CSRGraph(payload["indptr"], payload["indices"], payload["weights"])
    return maxent_stress_layout(
        csr,
        dim=payload["dim"],
        k=payload["k"],
        seed=payload["seed"],
        initial=payload["initial"],
        cancel=payload["cancel"],
    )


class UpdateCancelled(Exception):
    """An update was abandoned because a newer event superseded it.

    Raised inside the blocking engine when its ``cancel_check`` fires; the
    async pipeline catches it, keeps any partial layout as the next warm
    start, and moves on to the newest pending event. The figures are
    guaranteed untouched by a cancelled update.
    """


class UpdatePipeline:
    """Server-side widget state machine with per-stage timing (blocking).

    Parameters
    ----------
    rin:
        The dynamic RIN behind the widget.
    measure:
        Initial graph measure (Figure 6 names).
    client:
        Browser DOM cost simulator (perceived latency).
    cancel_check:
        Optional zero-argument callable polled between pipeline stages and
        at layout solver-iteration granularity. When it returns True the
        in-flight update raises :class:`UpdateCancelled` *before* any
        figure is mutated. Wired up by :class:`AsyncUpdatePipeline`.
    engine:
        ``"thread"`` (default) solves the Maxent-Stress layout on the
        calling thread; ``"process"`` solves on a lease from the
        process-wide :class:`~repro.graphkit.service.ComputeService`,
        whose one persistent worker pool every session shares. The
        service places each solve (:meth:`ServiceExecutor.solo
        <repro.graphkit.service.ServiceExecutor.solo>`): while it is
        idle, the solve runs on the calling thread exactly as the thread
        engine runs it, since on a RIN-sized graph the process hop costs
        more than the solve; while other work is queued or running, it
        goes to a worker process (one solve in flight at a time per
        session), so concurrent sessions escape the GIL, ordered by the
        scheduler's session budgets. Either way the solve is charged to
        the session. Cancellation crosses the process boundary through a
        :class:`SharedCancelFlag` the parent raises whenever
        ``cancel_check`` fires mid-solve — semantics (partial-coordinate
        warm starts, figures untouched) and coordinates are identical to
        the thread engine on both placements. Call :meth:`close` to
        release the lease.
    compute_session:
        Optional :class:`~repro.graphkit.service.ComputeSession` the
        shared service schedules this pipeline's solves under (budgeted
        fair share). Defaults to the service's house session.
    """

    def __init__(
        self,
        rin: DynamicRIN,
        *,
        measure: str = "Closeness Centrality",
        client: ClientSimulator | None = None,
        cancel_check: Callable[[], bool] | None = None,
        engine: str = "thread",
        compute_session: ComputeSession | None = None,
    ):
        if engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
        self._rin = rin
        self._measure: GraphMeasure = get_measure(measure)
        self._client = client or ClientSimulator()
        self._cancel_check = cancel_check
        self._engine_kind = engine
        self._solver_pool = None  # a ComputeService lease (process engine)
        self._solver_flag: SharedCancelFlag | None = None
        if engine == "process":
            # A lease on the process-wide service: the persistent pool is
            # shared by every session; start() forks its workers here,
            # pinning the fork point to construction time — before the
            # async pipeline's worker thread (or any session threading)
            # exists. The first solve below may never touch the pool.
            # Closing the pipeline releases only the lease (its cancel
            # flag), never the pool.
            service = get_compute_service().start()
            self._solver_pool = service.lease(workers=1, session=compute_session)
            self._solver_flag = self._solver_pool.cancel_flag()

        self._maxent_coords: np.ndarray | None = None
        self._scores: np.ndarray | None = None
        # Unpublished-topology debt: set when an event mutates the RIN,
        # cleared only when a publish syncs the figures to it. A cancelled
        # event leaves its flag raised, so the next successful update of
        # any kind repays the debt (re-solves the layout and fully syncs
        # the figures) instead of publishing an inconsistent view.
        self._topology_dirty = False
        self._positions_dirty = False

        self.protein_figure = FigureWidget(Layout(title="Layout: Protein-based"))
        self.maxent_figure = FigureWidget(Layout(title="Layout: Maxent-Stress"))
        self._client.attach(self.protein_figure, self.maxent_figure)
        self._initial_render()

    # ------------------------------------------------------------------
    @property
    def rin(self) -> DynamicRIN:
        """The dynamic RIN behind the widget."""
        return self._rin

    @property
    def measure(self) -> GraphMeasure:
        """Currently selected graph measure."""
        return self._measure

    @property
    def scores(self) -> np.ndarray:
        """Latest node scores."""
        assert self._scores is not None
        return self._scores

    @property
    def maxent_coordinates(self) -> np.ndarray:
        """Latest Maxent-Stress embedding."""
        assert self._maxent_coords is not None
        return self._maxent_coords

    @property
    def client(self) -> ClientSimulator:
        """The attached client cost simulator."""
        return self._client

    @property
    def engine_kind(self) -> str:
        """Where layout solves run: ``"thread"`` or ``"process"``."""
        return self._engine_kind

    def close(self) -> None:
        """Release the solver resources (idempotent).

        Closes the service lease: the cancel flag's segment is unlinked,
        the shared pool stays up for other sessions. No-op for the thread
        engine; safe to call repeatedly. The context manager form
        (``with UpdatePipeline(...) as pipe``) does this.
        """
        if self._solver_pool is not None:
            pool, self._solver_pool = self._solver_pool, None
            self._solver_flag = None
            pool.close()

    def __enter__(self) -> "UpdatePipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _check_cancel(self) -> None:
        if self._cancel_check is not None and self._cancel_check():
            raise UpdateCancelled

    def _compute_layout(self) -> None:
        # Every solve after the first warm-starts from the previous
        # embedding. A cancelled solve returns its partial coordinates:
        # they are kept as the warm start of the next solve (the event
        # that superseded this one starts from an already-relaxed
        # embedding).
        initial = self._maxent_coords
        if self._engine_kind == "process":
            if self._solver_pool is None:
                raise RuntimeError("pipeline is closed")
            # The service decides whether the hop pays (it does only
            # while other work is queued or running).
            with self._solver_pool.solo() as here:
                self._maxent_coords = (
                    self._solve_here(initial)
                    if here
                    else self._solve_out_of_process(initial)
                )
            return
        self._maxent_coords = self._solve_here(initial)

    def _solve_here(self, initial: np.ndarray | None) -> np.ndarray:
        return maxent_stress_layout(
            self._rin.csr,
            dim=3,
            k=1,
            seed=_LAYOUT_SEED,
            initial=initial,
            cancel=self._cancel_check,
        )

    def _solve_out_of_process(self, initial: np.ndarray | None) -> np.ndarray:
        """Run the layout solve in the worker process, bridging cancellation.

        The parent polls ``cancel_check`` (the async pipeline's generation
        counter) while the child solves; the first time it fires, the
        shared flag is raised and the child's next iteration poll sees it,
        returning partial coordinates — the exact behaviour of an
        in-process cancelled solve.
        """
        assert self._solver_pool is not None and self._solver_flag is not None
        self._solver_flag.clear()
        csr = self._rin.csr
        future = self._solver_pool.submit(
            _maxent_solve_shard,
            {
                "indptr": csr.indptr,
                "indices": csr.indices,
                "weights": csr.weights,
                "dim": 3,
                "k": 1,
                "seed": _LAYOUT_SEED,
                "initial": initial,
                "cancel": self._solver_flag,
            },
        )
        while True:
            try:
                return future.result(timeout=0.002)
            except FuturesTimeoutError:
                if self._cancel_check is not None and self._cancel_check():
                    self._solver_flag.set()

    def _colors(self) -> list[str]:
        assert self._scores is not None
        if self._measure.kind == "community":
            return labels_to_colors(self._scores)
        return scores_to_colors(self._scores)

    def _initial_render(self) -> None:
        self._compute_layout()
        self._scores = self._measure(self._rin.csr)
        g = self._rin.csr
        colors = self._colors()
        for fig, coords in (
            (self.protein_figure, self._rin.positions()),
            (self.maxent_figure, self._maxent_coords),
        ):
            nodes, edges = graph_traces(g, coords, scores=self._scores, colors=colors)
            if fig.n_traces == 0:
                fig.add_traces(nodes, edges)
            else:
                fig.replace_trace(0, nodes)
                fig.replace_trace(1, edges)
        # A full render syncs the figures to the RIN: all debt repaid.
        self._topology_dirty = False
        self._positions_dirty = False

    def _rebuild_figure(
        self, fig: FigureWidget, coords: np.ndarray, colors: list[str]
    ) -> None:
        nodes, edges = graph_traces(
            self._rin.csr, coords, scores=self._scores, colors=colors
        )
        fig.replace_trace(0, nodes)
        fig.replace_trace(1, edges)

    def _update_edges_only(
        self, fig: FigureWidget, coords: np.ndarray, colors: list[str]
    ) -> None:
        """Edge-only DOM update (protein plot on a cut-off change)."""
        ex, ey, ez = edge_coordinates(self._rin.csr, coords)
        fig.move_points(1, x=ex, y=ey, z=ez)
        # Node colors may change with the measure values on the new graph.
        fig.restyle_colors(0, colors)

    # ------------------------------------------------------------------
    # the event entry point (single events and coalesced bursts)
    # ------------------------------------------------------------------
    def apply_event(
        self,
        *,
        frame: int | None = None,
        cutoff: float | None = None,
        measure: str | None = None,
        generation: int = -1,
    ) -> UpdateTiming:
        """Apply one (possibly coalesced) slider event.

        Any subset of ``frame`` / ``cutoff`` / ``measure`` may be given;
        the update recomputes exactly what the combination invalidates.
        A frame change dominates the client-side semantics (both plots
        rebuild); a cut-off-only change keeps protein-plot node positions
        (edge-only DOM update there); a measure-only change recolors.

        Raises :class:`UpdateCancelled` — with the figures untouched — if
        the pipeline's ``cancel_check`` fires mid-update.
        """
        if frame is None and cutoff is None and measure is None:
            raise ValueError("apply_event needs frame, cutoff and/or measure")
        new_measure = self._measure if measure is None else get_measure(measure)
        topology_event = frame is not None or cutoff is not None

        self._check_cancel()
        t0 = _now_ms()
        diff = None
        if topology_event:
            diff = self._rin.set_state(frame=frame, cutoff=cutoff)
            # Raise the debt flags once the state has moved (set_state
            # validates before it mutates, so a rejected event leaves no
            # debt): if this update is cancelled later, the next publish
            # still knows the figures lag the RIN.
            self._topology_dirty = True
            if frame is not None:
                self._positions_dirty = True
        refresh_topology = self._topology_dirty  # this event's + unpaid debt
        positions_moved = self._positions_dirty
        t1 = _now_ms()
        if refresh_topology:
            self._compute_layout()
            self._check_cancel()
        t2 = _now_ms()
        scores = new_measure(self._rin.csr)
        self._check_cancel()
        # Commit the measure with its scores, only once they exist: a
        # measure that raises (or an update cancelled here) leaves the
        # previous measure selected and its scores published.
        self._measure, self._scores = new_measure, scores
        t3 = _now_ms()

        # Publication: everything below mutates the figures and must not
        # run for a superseded event (the checks above guarantee that a
        # cancelled update leaves the figures exactly as they were).
        self._client.reset()
        colors = self._colors()  # one score→colour mapping per event
        if positions_moved:
            # Node positions changed in both plots: full rebuilds.
            self._rebuild_figure(self.protein_figure, self._rin.positions(), colors)
            self._rebuild_figure(self.maxent_figure, self._maxent_coords, colors)
        elif refresh_topology:
            # Protein plot: node positions unchanged — edge elements only.
            self._update_edges_only(self.protein_figure, self._rin.positions(), colors)
            # Maxent plot: layout moved every node — full rebuild.
            self._rebuild_figure(self.maxent_figure, self._maxent_coords, colors)
        else:
            self.protein_figure.restyle_colors(0, colors)
            self.maxent_figure.restyle_colors(0, colors)
        if frame is not None:
            kind = EventKind.FRAME_SWITCH
        elif cutoff is not None:
            kind = EventKind.CUTOFF_SWITCH
        else:
            kind = EventKind.MEASURE_SWITCH
        self._topology_dirty = False
        self._positions_dirty = False
        t4 = _now_ms()
        return UpdateTiming(
            kind=kind,
            edge_update_ms=t1 - t0 if topology_event else 0.0,
            layout_ms=t2 - t1 if refresh_topology else 0.0,
            measure_ms=t3 - t2,
            data_handling_ms=t4 - t3,
            client_ms=self._client.simulated_ms(),
            edges_after=self._rin.n_edges,
            edges_changed=diff.total if diff is not None else 0,
            generation=generation,
        )

    # ------------------------------------------------------------------
    # the three benchmarked events (thin wrappers over apply_event)
    # ------------------------------------------------------------------
    def switch_measure(self, name: str) -> UpdateTiming:
        """Graph-measure slider moved (Figure 6): recompute + recolor."""
        return self.apply_event(measure=name)

    def switch_cutoff(self, cutoff: float) -> UpdateTiming:
        """Cut-off slider moved (Figure 7): edge diff + layout + measure."""
        return self.apply_event(cutoff=cutoff)

    def switch_frame(self, frame: int) -> UpdateTiming:
        """Trajectory slider moved (Figure 8): everything updates."""
        return self.apply_event(frame=frame)

    def full_render(self) -> UpdateTiming:
        """Recompute everything (the Recompute button)."""
        t0 = _now_ms()
        self._client.reset()
        self._initial_render()
        t1 = _now_ms()
        return UpdateTiming(
            kind=EventKind.FULL_RENDER,
            data_handling_ms=t1 - t0,
            client_ms=self._client.simulated_ms(),
            edges_after=self._rin.n_edges,
        )


@dataclass
class AsyncStats:
    """Bookkeeping of the async pipeline's queue behaviour."""

    submitted: int = 0  # events entering the queue
    solves_started: int = 0  # worker passes that began an update
    solves_cancelled: int = 0  # updates abandoned mid-flight (stale)
    published: int = 0  # results that reached the figures
    cancelled_by_user: int = 0  # explicit cancel() calls

    @property
    def coalesced(self) -> int:
        """Submitted events that never published a result of their own
        (debounced, superseded, or explicitly cancelled). Read after
        :meth:`AsyncUpdatePipeline.flush` for a consistent burst-level
        number."""
        return self.submitted - self.published


class AsyncUpdatePipeline:
    """Debounced, cancellable interaction pipeline (the async fast path).

    Wraps a blocking :class:`UpdatePipeline` engine and moves it onto a
    single worker thread:

    * :meth:`submit` enqueues a slider event and returns its *generation*
      (a monotonic counter) immediately — the GUI thread never blocks on a
      Maxent-Stress solve.
    * Pending events are **coalesced**: the worker always solves for the
      newest submitted state, so a burst of K slider moves performs O(1)
      full solves (plus at most one partial, abandoned solve).
    * **Stale-event cancellation**: the engine polls the generation
      counter between stages and at layout solver-iteration granularity;
      a superseded update raises :class:`UpdateCancelled` before touching
      the figures, so an old event can never overwrite a newer result.
      Partial layout coordinates survive as the next solve's warm start.
    * Results are delivered via completion callbacks
    (``on_result(generation, timing)``) and :meth:`flush`.

    The blocking engine remains reachable as :attr:`engine` — it is the
    reference twin that differential tests pin async results against.
    """

    def __init__(
        self,
        rin: DynamicRIN,
        *,
        measure: str = "Closeness Centrality",
        client: ClientSimulator | None = None,
        debounce_ms: float = 0.0,
        on_result: Callable[[int, UpdateTiming], None] | None = None,
        engine: str = "thread",
        compute_session: ComputeSession | None = None,
    ):
        self._lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        self._generation = 0
        # Matches _generation so the engine's initial render (which runs
        # synchronously in the constructor, below) is not seen as stale.
        self._active_generation = 0
        self._published_generation = -1
        self._latest: UpdateTiming | None = None
        self._pending: dict[str, object] = {}
        self._busy = False
        self._closed = False
        self._error: BaseException | None = None
        self._debounce_s = max(0.0, float(debounce_ms)) / 1e3
        self._callbacks: list[Callable[[int, UpdateTiming], None]] = (
            [on_result] if on_result is not None else []
        )
        self.stats = AsyncStats()
        self._engine = UpdatePipeline(
            rin,
            measure=measure,
            client=client,
            cancel_check=self._is_stale,
            engine=engine,
            compute_session=compute_session,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="rin-update"
        )

    # ------------------------------------------------------------------
    # engine delegation (read after flush() for a consistent view)
    # ------------------------------------------------------------------
    @property
    def engine(self) -> UpdatePipeline:
        """The blocking engine running on the worker (the reference twin)."""
        return self._engine

    @property
    def rin(self) -> DynamicRIN:
        """The dynamic RIN behind the widget."""
        return self._engine.rin

    @property
    def measure(self) -> GraphMeasure:
        """Currently selected graph measure."""
        return self._engine.measure

    @property
    def scores(self) -> np.ndarray:
        """Latest node scores."""
        return self._engine.scores

    @property
    def maxent_coordinates(self) -> np.ndarray:
        """Latest Maxent-Stress embedding."""
        return self._engine.maxent_coordinates

    @property
    def client(self) -> ClientSimulator:
        """The attached client cost simulator."""
        return self._engine.client

    @property
    def protein_figure(self) -> FigureWidget:
        """Left plot: protein-based layout."""
        return self._engine.protein_figure

    @property
    def maxent_figure(self) -> FigureWidget:
        """Right plot: Maxent-Stress layout."""
        return self._engine.maxent_figure

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Newest submitted generation (0 before the first submit)."""
        return self._generation

    @property
    def published_generation(self) -> int:
        """Generation of the latest published result (-1 if none)."""
        return self._published_generation

    @property
    def idle(self) -> bool:
        """True when no event is queued or in flight."""
        return self._idle.is_set()

    @property
    def latest_result(self) -> UpdateTiming | None:
        """The most recently published timing (None before any publish)."""
        return self._latest

    def add_result_callback(
        self, callback: Callable[[int, UpdateTiming], None]
    ) -> None:
        """Register a completion callback ``(generation, timing) -> None``."""
        self._callbacks.append(callback)

    def remove_result_callback(
        self, callback: Callable[[int, UpdateTiming], None]
    ) -> None:
        """Unregister a completion callback (no-op if absent)."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def _is_stale(self) -> bool:
        # Polled by the engine between stages and by the layout solver
        # once per iteration sweep: plain int comparison, no lock needed
        # (both fields are only ever advanced).
        return self._active_generation != self._generation

    # ------------------------------------------------------------------
    # submission / cancellation / synchronization
    # ------------------------------------------------------------------
    def submit(
        self,
        *,
        frame: int | None = None,
        cutoff: float | None = None,
        measure: str | None = None,
    ) -> int:
        """Enqueue a slider event; returns its generation immediately.

        Later submissions supersede earlier unprocessed ones per field
        (latest value wins); distinct fields coalesce into one combined
        update (e.g. a frame and a measure move → one solve).

        Each value is validated here, before a generation is allocated,
        with the blocking engine's typed errors: ``ValueError`` for a
        cut-off that is not finite and positive, ``IndexError`` for a
        frame outside the trajectory, ``KeyError`` for an unknown
        measure. A rejected call queues nothing.
        """
        if frame is None and cutoff is None and measure is None:
            raise ValueError("submit needs frame, cutoff and/or measure")
        event: dict[str, object] = {}
        if frame is not None:
            event["frame"] = int(frame)
            self.rin.trajectory.frame(event["frame"])  # IndexError
        if cutoff is not None:
            event["cutoff"] = check_cutoff(cutoff)
        if measure is not None:
            event["measure"] = str(measure)
            get_measure(event["measure"])  # KeyError
        with self._lock:
            if self._closed:
                raise RuntimeError("pipeline is closed")
            self._generation += 1
            gen = self._generation
            self.stats.submitted += 1
            self._pending.update(event)
            self._idle.clear()
            if not self._busy:
                self._busy = True
                self._executor.submit(self._drain)
        return gen

    def cancel(self) -> int:
        """Supersede every pending/in-flight event without replacement.

        The next generation is reserved as a tombstone: an in-flight solve
        sees itself stale at the next iteration poll and aborts; queued
        state is dropped. Already-published results are untouched. Returns
        the tombstone generation.
        """
        with self._lock:
            self._generation += 1
            self._pending.clear()
            self.stats.cancelled_by_user += 1
            if not self._busy:
                self._idle.set()
            return self._generation

    def flush(self, timeout: float | None = 60.0) -> UpdateTiming | None:
        """Block until the queue drains; returns the latest published timing.

        Raises any exception the worker hit (other than internal
        cancellations, which are expected) and ``TimeoutError`` if the
        queue does not drain in time.
        """
        if not self._idle.wait(timeout):
            raise TimeoutError(f"async pipeline did not drain within {timeout}s")
        with self._lock:
            err, self._error = self._error, None
        if err is not None:
            raise err
        return self._latest

    def close(self, *, raise_errors: bool = True) -> None:
        """Cancel pending work and stop the worker thread.

        Re-raises any worker/callback exception that was never surfaced by
        a :meth:`flush` — pass ``raise_errors=False`` to suppress (the
        context manager does when the body is already raising).
        """
        self.cancel()
        self._idle.wait(5.0)
        with self._lock:
            self._closed = True
            err, self._error = self._error, None
        self._executor.shutdown(wait=True)
        self._engine.close()  # releases the process-engine solver pool
        if raise_errors and err is not None:
            raise err

    def __enter__(self) -> "AsyncUpdatePipeline":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.close(raise_errors=exc_type is None)

    # ------------------------------------------------------------------
    # blocking facades (player / cloud-session compatibility)
    # ------------------------------------------------------------------
    def _run_blocking(self, **event) -> UpdateTiming:
        gen = self.submit(**event)
        self.flush()
        if self._published_generation != gen:
            raise UpdateCancelled(f"generation {gen} was superseded before publishing")
        assert self._latest is not None
        return self._latest

    def switch_measure(self, name: str) -> UpdateTiming:
        """Submit a measure switch and wait for its result."""
        return self._run_blocking(measure=name)

    def switch_cutoff(self, cutoff: float) -> UpdateTiming:
        """Submit a cut-off switch and wait for its result."""
        return self._run_blocking(cutoff=cutoff)

    def switch_frame(self, frame: int) -> UpdateTiming:
        """Submit a frame switch and wait for its result."""
        return self._run_blocking(frame=frame)

    def full_render(self) -> UpdateTiming:
        """Drain the queue, then run a blocking full render."""
        self.flush()
        with self._lock:
            # This render runs on the caller's thread, outside _drain: mark
            # it current so a stale generation left by cancel() does not
            # silently skip the layout solve.
            self._active_generation = self._generation
        return self._engine.full_render()

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Worker loop: repeatedly solve for the newest pending state."""
        while True:
            if self._debounce_s:
                # Debounce window: let a slider burst coalesce before
                # starting a solve — K rapid events then cost one solve.
                time.sleep(self._debounce_s)
            with self._lock:
                gen = self._generation
                target = dict(self._pending)
            timing: UpdateTiming | None = None
            failed = False
            if target:
                self._active_generation = gen
                try:
                    self.stats.solves_started += 1
                    timing = self._engine.apply_event(generation=gen, **target)
                except UpdateCancelled:
                    self.stats.solves_cancelled += 1
                except BaseException as exc:  # surfaced on the next flush()
                    failed = True
                    with self._lock:
                        self._error = exc
            with self._lock:
                if timing is not None:
                    # apply_event ran to completion, so the figures WERE
                    # mutated: always account for it, even if a cancel()
                    # or newer submit landed after the last in-flight
                    # check — otherwise latest_result/stats/widget.log
                    # would disagree with what is actually rendered.
                    # (A newer submit re-renders right after; ordering is
                    # preserved because the worker is serial.)
                    self._published_generation = gen
                    self._latest = timing
                    if gen == self._generation:
                        self._pending.clear()
                    self.stats.published += 1
                    callbacks = list(self._callbacks)
                else:
                    callbacks = []
                if failed:
                    # Drop exactly what we attempted (newer values that
                    # arrived meanwhile stay queued): a poisonous event
                    # must not be retried against every later submit.
                    # Identity, not ==: these are the objects submit
                    # queued, and a value unequal to itself still goes.
                    for key, value in target.items():
                        if self._pending.get(key) is value:
                            del self._pending[key]
            # Completion callbacks run before the pipeline reports idle, so
            # flush() returning guarantees every on_result has fired —
            # consumers (widget log, scrub reports) read a complete view.
            # A raising callback must not kill the worker loop (that would
            # wedge the pipeline with _busy stuck True): surface it on the
            # next flush() instead.
            for cb in callbacks:
                try:
                    cb(gen, timing)  # type: ignore[arg-type]
                except BaseException as exc:
                    with self._lock:
                        self._error = exc
            with self._lock:
                if gen == self._generation:
                    self._busy = False
                    self._idle.set()
                    return
                # newer events arrived while we worked: go around again
