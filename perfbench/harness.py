"""The two A3D slider-event workloads, their checks and their metrics.

Every workload drives the public ``repro`` API from one process and one
client thread, on A3D (73 residues) with a 24-frame trajectory at 6 Å,
with one compute thread per process (``run.py`` sets ``REPRO_THREADS``
and the BLAS thread variables to 1). The seed picks the trajectory and
the event sequence.

* ``a3d_frame_scrub`` — closed loop of trajectory-slider events on a
  blocking ``UpdatePipeline``, forward and back over all 24 frames. The
  24 frames overflow ``RINBuilder``'s 8-entry distance cache, so md, the
  rin edge diff, the layout, the measure and both figure rebuilds all
  work on every event (paper Fig. 8).
* ``a3d_cloud_drag`` — two ``CloudSession`` users (hub → proxy → pod)
  with async updates on the process engine and the shared
  ``ComputeService``. Each drag is 8 cut-off ticks due every 5 ms (open
  loop within the drag), then the client waits for the final publish;
  drags alternate between the users. A tick comes sooner than a solve
  ends, so each one cancels the solve in flight and only the last
  publishes, whatever the host's load. The only workload that exercises
  coalescing, cross-process cancellation and the service (paper Fig. 7,
  cloud setting).

An *event* is one slider event on the frame scrub and one whole drag on
the cloud workload. Its latency runs from the time it was due to the
publish of its result: for the closed loop that is the call's
wall time, for a drag it is the settle time from the last tick's due
time to the publish of that tick's generation.

The gated latency, ``best_event_ms_p50``, is the median over the
distinct inputs of a run of each input's fastest event. The frame scrub
sends its 46 scrub positions some 30 times each in a run, so an input's
best is the event its position costs while the host leaves the program
alone. No drag repeats, so on the cloud workload it is the median drag.
On the 2-vCPU development VM the cores ran up to 1.8 times slower for
seconds to minutes at a time as the neighbours' load came and went,
which moved the scrub's plain median by 14–41% between runs of the
same code and its per-position best by 4–16%; the cloud drag's median
stayed within 6–15%. A slower program moves every input's best; a cost
that only some repeats of an input pay does not, so the traced run
reports the plain median and p90 over all events beside the per-layer
metrics (p90 keeps at least ten of a cloud run's drags beyond it).

Every operation is checked outside the timed region; a failed check or
an exception counts the operation as failed.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import hostinfo
import spans

PROTEIN = "A3D"
N_FRAMES = 24
CUTOFF = 6.0
SETUP_REPS = 15
WARMUP_EVENTS = 8
# Odd, so that over a run the traced blocks cover every frame of the
# 46-event scrub cycle.
TRACE_BLOCK = 7
DRAG_TICKS = 8
# Shorter than a layout solve (about 16 ms on an idle core): at 25 ms
# ticks every solve finished before the next tick on an idle host and
# was cancelled on a busy one, so the host's load chose the drag's path.
TICK_S = 0.005
DRAG_RANGE = (5.0, 7.0)

END_TO_END_UNITS = {
    "best_event_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "event_ms_p50": "ms",
    "event_ms_p90": "ms",
    "ops_per_s": "1/s",
    "md.distance.calls_per_event": "count/event",
    "md.distance.ms_p50": "ms",
    "rin.builder.lookups_per_event": "count/event",
    "rin.builder.cache_hit_ratio": "ratio",
    "rin.set_state.ms_p50": "ms",
    "rin.edges_changed_p50": "count",
    "layout.solve.ms_p50": "ms",
    "layout.solves_per_event": "count/event",
    "measure.ms_p50": "ms",
    "vizbridge.graph_traces.ms_p50": "ms",
    "vizbridge.graph_traces.calls_per_event": "count/event",
    "vizbridge.elements_rebuilt_per_event": "count/event",
    "vizbridge.nodes_restyled_per_event": "count/event",
    "vizbridge.trace_rebuilds_per_event": "count/event",
    "client.model_ms_p50": "model_ms",
    "pipeline.edge_update_ms_p50": "ms",
    "pipeline.layout_ms_p50": "ms",
    "pipeline.measure_ms_p50": "ms",
    "pipeline.data_handling_ms_p50": "ms",
    "async.solves_per_burst": "count/event",
    "async.useful_ratio": "ratio",
    "service.jobs_per_burst": "count/event",
    "service.job.ms_p50": "ms",
    "service.jobs_failed": "count",
    "service.resubmissions": "count",
    "cloud.route_model_ms_p50": "model_ms",
    "trace.overhead_frac": "ratio",
    "host.calib_ms": "ms",
    "gen.tick_late_ms_p95": "ms",
}


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _now_ms() -> float:
    return time.perf_counter_ns() / 1e6


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


@dataclass
class Window:
    """What one measured window of a workload produced."""

    tally: Tally = field(default_factory=Tally)
    untraced_ms: list[float] = field(default_factory=list)
    traced_ms: list[float] = field(default_factory=list)
    # how long the user was occupied by each untraced event (ops_per_s)
    busy_ms: list[float] = field(default_factory=list)
    # the input each untraced event sent; equal keys repeat the same work
    keys: list = field(default_factory=list)
    # per-layer samples of traced events, keyed by metric stem
    layer: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    rec: spans.Recorder = field(default_factory=spans.Recorder)
    setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    info: dict = field(default_factory=dict)


def _guarded(problem_fn: Callable[[], str | None]) -> str | None:
    try:
        return problem_fn()
    except Exception as exc:  # a crashing check is a failed operation
        return f"check raised {type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# output checks (all outside the timed region)
# ----------------------------------------------------------------------
def check_widget(pipe) -> str | None:
    """RIN, scores and both figures agree with the slider state."""
    from repro.rin.construction import RINBuilder

    rin = pipe.rin
    csr = rin.csr
    n, m = csr.n, rin.n_edges
    got = {(int(u), int(v)) for u, v in csr.edge_array()}
    # a builder of its own, so no cached distances of the widget's are reused
    builder = rin.builder
    fresh = RINBuilder(
        builder.trajectory,
        criterion=builder.criterion,
        min_sequence_separation=builder.min_sequence_separation,
    )
    if got != fresh.build(rin.frame, rin.cutoff).edge_set():
        return f"rin.csr differs from a from-scratch build at frame {rin.frame}"
    scores = np.asarray(pipe.scores)
    if scores.shape != (n,) or not np.isfinite(scores).all():
        return f"{pipe.measure.name}: scores not {n} finite values"
    for fig in (pipe.protein_figure, pipe.maxent_figure):
        nodes, edges = fig.trace(0), fig.trace(1)
        if nodes.n_points != n or len(nodes.marker.color) != n:
            return f"{fig.layout.title}: node trace does not hold {n} nodes"
        if edges.n_points != 3 * m:
            return f"{fig.layout.title}: edge trace does not hold {m} edges"
    return None


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def _widget(traj_seed: int, *, frame: int):
    """Trajectory → DynamicRIN → blocking Closeness pipeline → full render."""
    from repro.core.pipeline import UpdatePipeline
    from repro.md import generate_trajectory, proteins
    from repro.rin.dynamic import DynamicRIN

    topo, native = proteins.build(PROTEIN)
    traj = generate_trajectory(
        topo, native, N_FRAMES, seed=traj_seed, unfold_events=0, breathing=0.02
    )
    rin = DynamicRIN(traj, frame=frame, cutoff=CUTOFF)
    pipe = UpdatePipeline(rin, measure="Closeness Centrality")
    pipe.full_render()
    return pipe


def _timed_setup(build: Callable[[], object], win: Window):
    """Time one set-up. The caller has dropped the previous session; it is
    collected first, so no set-up pays for freeing the one before it."""
    gc.collect()
    t0 = time.perf_counter()
    env = build()
    win.setup_s.append(time.perf_counter() - t0)
    return env


# ----------------------------------------------------------------------
# frame scrub (closed loop)
# ----------------------------------------------------------------------
def _closed_loop(pipe, events: list[dict], check: Callable[[], str | None],
                 seconds: float, trace: bool, win: Window, i: int = 0) -> int:
    """Send ``events`` round-robin from the ``i``-th, one at a time, for
    ``seconds`` after the run's warm-up, and check each; returns the index
    of the next event. With ``trace`` set, every other block of
    ``TRACE_BLOCK`` events is traced."""
    rec = win.rec
    deadline = None if i < WARMUP_EVENTS else time.perf_counter() + seconds
    while deadline is None or time.perf_counter() < deadline:
        if i == WARMUP_EVENTS:
            deadline = time.perf_counter() + seconds
        event = events[i % len(events)]
        warm = i < WARMUP_EVENTS
        traced = trace and not warm and (i // TRACE_BLOCK) % 2 == 1
        rec.event_id = i
        timing = None
        problem = None
        try:
            with spans.traced(rec) if traced else nullcontext():
                t0 = _now_ms()
                timing = pipe.apply_event(**event)
                dt = _now_ms() - t0
        except Exception as exc:
            problem = f"event raised {type(exc).__name__}: {exc}"
        if timing is not None:
            problem = _guarded(check)
            if traced:
                win.traced_ms.append(dt)
                _record_timing(win.layer, timing, pipe.client.collected_stats())
            elif not warm:
                win.untraced_ms.append(dt)
                win.busy_ms.append(dt)
                # the scrub position fixes the frame and the one before it
                win.keys.append(i % len(events))
        win.tally.record(problem)
        i += 1
    return i


def _record_timing(layer: dict, timing, stats) -> None:
    layer["pipeline.edge_update_ms"].append(timing.edge_update_ms)
    layer["pipeline.layout_ms"].append(timing.layout_ms)
    layer["pipeline.measure_ms"].append(timing.measure_ms)
    layer["pipeline.data_handling_ms"].append(timing.data_handling_ms)
    layer["client.model_ms"].append(timing.client_ms)
    layer["vizbridge.elements_rebuilt"].append(stats.elements_rebuilt)
    layer["vizbridge.nodes_restyled"].append(stats.nodes_restyled)
    layer["vizbridge.trace_rebuilds"].append(stats.trace_rebuilds)


def frame_scrub(seed: int, seconds: float, trace: bool) -> Window:
    """``SETUP_REPS`` sessions in turn, each set up afresh at the frame the
    last event left the slider on and then scrubbed for an equal share of
    ``seconds``, so set-up is sampled over the whole run like the events."""
    win = Window()
    rng = np.random.default_rng(seed)
    cycle = list(range(N_FRAMES)) + list(range(N_FRAMES - 2, 0, -1))
    start = int(rng.integers(len(cycle)))
    frames = cycle[start:] + cycle[:start]
    events = [{"frame": f} for f in frames]
    win.info["first_frame"] = frames[0]
    i = 0
    for rep in range(SETUP_REPS):
        pipe = None  # dropped before the next set-up is timed
        # each session on a trajectory of its own, so no input-keyed
        # cache can serve a later set-up
        pipe = _timed_setup(
            lambda: _widget(1000 * seed + rep, frame=frames[(i - 1) % len(frames)]), win
        )
        i = _closed_loop(pipe, events, lambda: check_widget(pipe),
                         seconds / SETUP_REPS, trace, win, i)
    win.peak_rss_mb = hostinfo.peak_rss_mb()
    return win


# ----------------------------------------------------------------------
# cloud drag (open loop within a drag)
# ----------------------------------------------------------------------
class CloudEnv:
    """Paper cluster, hub, proxy and two logged-in async process-engine users."""

    def __init__(self, traj_seed: int):
        from repro.cloud import CloudSession, JupyterHub, ServiceProxy, build_paper_cluster

        self.cluster = build_paper_cluster(workers=2)
        self.hub = JupyterHub(self.cluster)
        self.cluster.clock.advance(30)
        self.proxy = ServiceProxy(self.cluster)
        self.sessions = []
        self.addresses = []
        self.published: list[list[tuple]] = []
        for k in range(2):
            name = f"user{k}"
            self.hub.register_user(name, f"pw-{name}")
            address = f"198.51.100.{10 + k}"
            session = CloudSession(
                self.hub, self.proxy, name, f"pw-{name}",
                protein=PROTEIN, n_frames=N_FRAMES, seed=traj_seed + k,
                client_address=address, async_updates=True, engine="process",
            )
            self.sessions.append(session)
            self.addresses.append(address)
            self.published.append([])
        self.cluster.clock.advance(30)
        for session, log in zip(self.sessions, self.published):
            pipe = session.app.widget.pipeline
            pipe.full_render()
            pipe.add_result_callback(self._logger(pipe, log))
        if not all(s.pod.running for s in self.sessions):
            raise RuntimeError("a user pod is not running after login")

    @staticmethod
    def _logger(pipe, log: list):
        def on_result(generation, timing) -> None:
            log.append((generation, _now_ms(), timing, pipe.client.collected_stats()))

        return on_result

    def path(self, k: int) -> str:
        return f"{self.hub.config.service_path}/user/{self.sessions[k].username}"

    def close(self) -> None:
        """Log both users out and stop the shared worker pool, so the next
        set-up pays for the pool again, as the first session does."""
        from repro.graphkit.service import shutdown_compute_service

        try:
            for session in self.sessions:
                session.close()
        finally:
            shutdown_compute_service()


def _drag(env: CloudEnv, k: int, rng, traced: bool, win: Window, service):
    """One 8-tick cut-off drag by user ``k``.

    Returns ``(settle_ms, drag_ms, problem)``: settle runs from the last
    tick's due time, drag from the first tick's due time, both to the
    publish of the last tick's generation (``None`` when it never came).
    """
    session = env.sessions[k]
    pipe = session.app.widget.pipeline
    log = env.published[k]
    log.clear()
    current = pipe.rin.cutoff
    target = current
    while abs(target - current) < 0.5:
        target = float(rng.uniform(*DRAG_RANGE))
    values = np.linspace(current, target, DRAG_TICKS + 1)[1:]
    solves0, published0 = pipe.stats.solves_started, pipe.stats.published
    jobs0, failed0 = service.stats.jobs_submitted, service.stats.jobs_failed
    routes, late, generations = [], [], []
    first_due = _now_ms() + 2.0
    for i, value in enumerate(values):
        due = first_due + i * TICK_S * 1e3
        delay = (due - _now_ms()) / 1e3
        if delay > 0:
            time.sleep(delay)
        late.append(_now_ms() - due)
        routed = env.proxy.request(env.addresses[k], env.hub.config.host, env.path(k))
        if routed.pod is not session.pod:
            return None, None, f"tick routed to {routed.pod.name}, not {session.pod.name}"
        routes.append(routed.latency_ms)
        generations.append(pipe.submit(cutoff=float(value)))
    pipe.flush()
    published_at = {gen: t for gen, t, _timing, _stats in log}
    last = generations[-1]
    if pipe.published_generation != last or last not in published_at:
        return None, None, (
            f"published generation {pipe.published_generation}, last submitted {last}"
        )
    settle, drag = published_at[last] - due, published_at[last] - first_due
    if traced:
        layer = win.layer
        layer["async.solves"].append(pipe.stats.solves_started - solves0)
        layer["async.published"].append(pipe.stats.published - published0)
        layer["service.jobs"].append(service.stats.jobs_submitted - jobs0)
        layer["cloud.route_model_ms"].extend(routes)
        layer["gen.tick_late_ms"].extend(late)
        for _gen, _t, timing, stats in log:
            _record_timing(layer, timing, stats)
    if service.stats.jobs_failed != failed0:
        return settle, drag, "service.jobs_failed rose during the drag"
    if pipe.rin.cutoff != float(values[-1]):
        return settle, drag, f"rin.cutoff {pipe.rin.cutoff} after a drag to {values[-1]}"
    return settle, drag, None


def cloud_drag(seed: int, seconds: float, trace: bool) -> Window:
    """``SETUP_REPS`` cloud sessions in turn, each set up afresh (users
    logged in, pods and the worker pool started) and then dragged for an
    equal share of ``seconds``, so set-up is sampled over the whole run."""
    from repro.graphkit.service import get_compute_service, shutdown_compute_service

    win = Window()
    rng = np.random.default_rng(seed)
    shm_before = hostinfo.shm_segments()
    service_counts = dict.fromkeys(("jobs_failed", "resubmissions"), 0)
    env = service = None
    b = 0

    def drag_once() -> None:
        nonlocal b
        warm = b < 2  # one warm-up drag per user, at the start of the run
        # traced in blocks of two drags, one per user
        traced = trace and not warm and (b // 2) % 2 == 1
        pipe = env.sessions[b % 2].app.widget.pipeline
        win.rec.event_id = b
        try:
            with spans.traced(win.rec) if traced else nullcontext():
                settle, drag, problem = _drag(env, b % 2, rng, traced, win, service)
        except Exception as exc:
            settle, drag, problem = None, None, f"drag raised {type(exc).__name__}: {exc}"
        if problem is None and settle is not None:
            problem = _guarded(lambda: check_widget(pipe))
        if settle is not None and traced:
            win.traced_ms.append(settle)
        elif settle is not None and not warm:
            win.untraced_ms.append(settle)
            win.busy_ms.append(drag)
            win.keys.append(b)  # every drag has a target of its own
        win.tally.record(problem)
        b += 1

    try:
        for rep in range(SETUP_REPS):
            if env is not None:
                env.close()
                env = None
            env = _timed_setup(lambda: CloudEnv(1000 * seed + rep), win)
            service = get_compute_service()
            stats0 = service.stats.snapshot()
            while b < 2:
                drag_once()
            deadline = time.perf_counter() + seconds / SETUP_REPS
            while time.perf_counter() < deadline:
                drag_once()
            stats = service.stats.snapshot()
            for key in service_counts:
                service_counts[key] += stats[key] - stats0[key]
            # the worker pool ends with its session: read its peak first
            win.peak_rss_mb = max(win.peak_rss_mb, hostinfo.peak_rss_mb())
        win.info.update({f"service.{k}": v for k, v in service_counts.items()})
    finally:
        if env is not None:
            env.close()
        shutdown_compute_service()  # also when set-up failed half-way
        gc.collect()
    # closing the sessions and the service is one more checked operation
    leaked = hostinfo.shm_segments() - shm_before
    win.tally.record(f"/dev/shm segments left after close: {sorted(leaked)}" if leaked else None)
    return win


WORKLOADS: dict[str, Callable[[int, float, bool], Window]] = {
    "a3d_frame_scrub": frame_scrub,
    "a3d_cloud_drag": cloud_drag,
}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def best_event_ms(ms: list[float], keys: list) -> float:
    """Median over the distinct inputs of each input's fastest event."""
    best: dict = {}
    for key, value in zip(keys, ms):
        best[key] = min(value, best.get(key, value))
    return _pct(list(best.values()), 50)


def end_to_end(win: Window) -> dict[str, float]:
    """Metrics of the untraced events (the whole window when untraced)."""
    return {
        "best_event_ms_p50": best_event_ms(win.untraced_ms, win.keys),
        "setup_s": statistics.median(win.setup_s),
        "peak_rss_mb": win.peak_rss_mb,
    }


def per_layer(win: Window, calib_ms: float) -> dict[str, float]:
    """Metrics of the traced events, normalised per event (per drag)."""
    rec, layer = win.rec, win.layer
    n = max(1, len(win.traced_ms))
    samples, counts = rec.samples, rec.counts
    lookups = counts["rin.builder.lookups"]
    misses = len(samples["md.distance"])
    solves = sum(layer["async.solves"])
    busy_s = sum(win.busy_ms) / 1e3
    return {
        "event_ms_p50": _pct(win.untraced_ms, 50),
        "event_ms_p90": _pct(win.untraced_ms, 90),
        "ops_per_s": len(win.busy_ms) / busy_s if busy_s > 0 else 0.0,
        "md.distance.calls_per_event": misses / n,
        "md.distance.ms_p50": _pct(samples["md.distance"], 50),
        "rin.builder.lookups_per_event": lookups / n,
        "rin.builder.cache_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "rin.set_state.ms_p50": _pct(samples["rin.set_state"], 50),
        "rin.edges_changed_p50": _pct(samples["rin.edges_changed"], 50),
        "layout.solve.ms_p50": _pct(samples["layout.solve"], 50),
        "layout.solves_per_event": len(samples["layout.solve"]) / n,
        "measure.ms_p50": _pct(samples["measure"], 50),
        "vizbridge.graph_traces.ms_p50": _pct(samples["vizbridge.graph_traces"], 50),
        "vizbridge.graph_traces.calls_per_event": len(samples["vizbridge.graph_traces"]) / n,
        "vizbridge.elements_rebuilt_per_event": sum(layer["vizbridge.elements_rebuilt"]) / n,
        "vizbridge.nodes_restyled_per_event": sum(layer["vizbridge.nodes_restyled"]) / n,
        "vizbridge.trace_rebuilds_per_event": sum(layer["vizbridge.trace_rebuilds"]) / n,
        "client.model_ms_p50": _pct(layer["client.model_ms"], 50),
        "pipeline.edge_update_ms_p50": _pct(layer["pipeline.edge_update_ms"], 50),
        "pipeline.layout_ms_p50": _pct(layer["pipeline.layout_ms"], 50),
        "pipeline.measure_ms_p50": _pct(layer["pipeline.measure_ms"], 50),
        "pipeline.data_handling_ms_p50": _pct(layer["pipeline.data_handling_ms"], 50),
        "async.solves_per_burst": solves / n,
        "async.useful_ratio": sum(layer["async.published"]) / solves if solves else 0.0,
        "service.jobs_per_burst": sum(layer["service.jobs"]) / n,
        "service.job.ms_p50": _pct(samples["service.job"], 50),
        "service.jobs_failed": float(win.info.get("service.jobs_failed", 0)),
        "service.resubmissions": float(win.info.get("service.resubmissions", 0)),
        "cloud.route_model_ms_p50": _pct(layer["cloud.route_model_ms"], 50),
        "trace.overhead_frac": (
            _pct(win.traced_ms, 50) / _pct(win.untraced_ms, 50) - 1.0
            if win.traced_ms and win.untraced_ms else 0.0
        ),
        "host.calib_ms": calib_ms,
        "gen.tick_late_ms_p95": _pct(layer["gen.tick_late_ms"], 95),
    }
