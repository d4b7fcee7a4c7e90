"""The shared long-lived compute service — the one process-pool owner.

The paper's cloud deployment (§III-A) serves many concurrent JupyterHub
sessions from one NetworKit backend; the per-session cost is a solve or
scan *job*, not a worker pool. :class:`ComputeService` is the only code
in the package that creates a process pool, and its lease,
:class:`ServiceExecutor`, is the only executor handle:

* Sessions register with a *budget* (``service.session(name,
  budget_ms=...)``) and submit jobs through leases. A small
  cross-session scheduler orders the pending queue by **deficit fair
  share**: priority is ``spent_ms / budget_ms`` (lower runs sooner, FIFO
  tiebreak), so a session that has consumed little of its budget
  overtakes one that has been hogging the pool.
* :meth:`ComputeService.lease` returns a :class:`ServiceExecutor`
  (``share`` / ``cancel_flag`` / ``run`` / ``submit`` / ``solo`` /
  ``close``) — the shard→merge surface every sharded workload is
  written against. ``close()`` releases only the lease's datasets and
  flags, never the pool.
* ``lease.solo()`` decides where one small job pays to run: while the
  service is idle (nothing queued, in flight or running inline) the
  caller keeps the work on its own thread, because the process hop
  would cost more than a RIN-sized solve; otherwise it goes to the pool.
* Worker crashes are detected (``BrokenProcessPool``), the pool is
  rebuilt once per crash (generation-guarded, so a burst of failed
  futures from one dead worker triggers one rebuild), and the affected
  jobs are resubmitted with bounded retries.
* ``ComputeService(0)`` is the serial twin: every job runs inline on the
  parent-side arrays, bit-identical to the pooled run.
  :func:`scoped_executor` holds the one rule mapping a workload's
  ``workers=`` / ``executor=`` arguments to a lease.

Module-level :func:`get_compute_service` /
:func:`shutdown_compute_service` manage the per-process singleton; an
``atexit`` hook guarantees the pool and every outstanding segment are
released even when no caller ever closes anything.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing import get_context, resource_tracker
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .parallel import (
    SharedCancelFlag,
    SharedDataset,
    _close_resources,
    _run_shard,
    effective_workers,
)

__all__ = [
    "ComputeService",
    "ComputeSession",
    "ComputeStats",
    "ServiceExecutor",
    "configure_compute_service",
    "get_compute_service",
    "scoped_executor",
    "shutdown_compute_service",
]


def _shutdown_pool(state: dict) -> None:
    """Discard the pool without waiting (crash restart, finalizer)."""
    pool, state["pool"] = state["pool"], None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


class ComputeStats:
    """Counters exposed by :attr:`ComputeService.stats` (test/ops surface)."""

    __slots__ = (
        "pools_started",
        "jobs_submitted",
        "jobs_completed",
        "jobs_failed",
        "resubmissions",
        "worker_crashes",
        "solo_runs",
    )

    def __init__(self) -> None:
        self.pools_started = 0
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.resubmissions = 0
        self.worker_crashes = 0
        self.solo_runs = 0

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy (stable keys, safe to log or diff)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"ComputeStats({inner})"


class ComputeSession:
    """One tenant of the shared service.

    A session carries a *budget*: the scheduler orders pending jobs by
    the fraction of budget already spent (``spent_ms / budget_ms``), so
    budgets are relative weights, not hard caps — a session is never
    refused, only deprioritized once it has out-consumed its share.
    """

    __slots__ = ("name", "budget_ms", "spent_ms", "jobs_submitted", "_closed")

    def __init__(self, name: str, budget_ms: float = 1000.0):
        if budget_ms <= 0:
            raise ValueError(f"budget_ms must be > 0, got {budget_ms}")
        self.name = str(name)
        self.budget_ms = float(budget_ms)
        self.spent_ms = 0.0
        self.jobs_submitted = 0
        self._closed = False

    @property
    def priority(self) -> float:
        """Deficit fair share: fraction of budget consumed (lower first)."""
        return self.spent_ms / self.budget_ms

    def set_budget(self, budget_ms: float) -> None:
        """Re-weight this session live (the cloud layer's budget feed).

        Takes effect at the next dispatch decision — queued jobs are
        re-prioritized because priorities are read at dispatch time, not
        frozen at submit time.
        """
        if budget_ms <= 0:
            raise ValueError(f"budget_ms must be > 0, got {budget_ms}")
        self.budget_ms = float(budget_ms)

    def charge(self, ms: float) -> None:
        """Account externally-measured work against this session's share.

        The cloud simulator charges each tenant's *modeled* pod-side
        milliseconds here so deficit-fair ordering reflects cloud load
        even for work that never touched the pool; real solves submitted
        through a lease are charged automatically on completion and land
        in the same account.
        """
        if ms < 0:
            raise ValueError(f"charge must be non-negative, got {ms}")
        self.spent_ms += float(ms)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Mark the session inactive (already-queued jobs still run)."""
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputeSession({self.name!r}, budget_ms={self.budget_ms}, "
            f"spent_ms={self.spent_ms:.1f})"
        )


class _Job:
    """One unit of queued work: a shard call plus its public future."""

    __slots__ = (
        "fn",
        "payload",
        "dataset",
        "session",
        "future",
        "seq",
        "attempts",
        "pool_gen",
        "dispatched_at",
    )

    def __init__(self, fn, payload, dataset, session, future, seq):
        self.fn = fn
        self.payload = payload
        self.dataset = dataset
        self.session = session
        self.future = future
        self.seq = seq
        self.attempts = 0
        self.pool_gen = -1
        self.dispatched_at = 0.0


class ServiceExecutor:
    """A lease on a :class:`ComputeService`: the executor handle.

    Shard→merge call sites take an ``executor=`` whose surface is
    ``workers`` / ``serial`` / ``share`` / ``cancel_flag`` / ``run`` /
    ``submit`` / ``close``; a lease routes every job through the
    service's scheduler, and :meth:`solo` tells a caller when to keep a
    job on its own thread instead. ``workers`` is the *logical* width
    used for chunking (callers decide shard counts with it), independent
    of the physical pool width. ``close()`` releases the datasets and flags
    created through this lease — never the service's pool.

    The **shard→merge contract**: ``run(fn, payloads, dataset)`` executes
    ``fn(payload, arrays)`` for every payload and returns the results in
    payload order, regardless of which worker finished first. ``fn`` must
    be a module-level pure function of ``(payload, arrays)`` (workers
    import it by reference).
    """

    __slots__ = ("_service", "_workers", "_session", "_state", "_closed", "__weakref__")

    def __init__(self, service: "ComputeService", workers: int, session: ComputeSession):
        self._service = service
        self._workers = max(1, int(workers)) if not service.serial else 0
        self._session = session
        # Leak backstop: a lease dropped without close() still unlinks
        # its segments via the finalizer.
        self._state: list = []
        self._closed = False
        weakref.finalize(self, _close_resources, self._state)

    @property
    def workers(self) -> int:
        """Logical chunking width (0 when the service runs serially)."""
        return self._workers

    @property
    def serial(self) -> bool:
        return self._service.serial

    @property
    def session(self) -> ComputeSession:
        return self._session

    def share(self, **arrays: np.ndarray) -> SharedDataset:
        """Place arrays in shared memory; the lease owns their lifetime.

        Serial leases skip placement entirely — the dataset simply wraps
        the caller's arrays, keeping the serial twin allocation-free.
        """
        if self._closed:
            raise RuntimeError("lease is closed")
        ds = SharedDataset(arrays, place=not self.serial)
        self._track(ds)
        return ds

    def cancel_flag(self) -> SharedCancelFlag:
        """A poll-able cancellation token owned by this lease."""
        if self._closed:
            raise RuntimeError("lease is closed")
        flag = SharedCancelFlag()
        self._track(flag)
        return flag

    def _track(self, resource) -> None:
        self._state[:] = [r for r in self._state if not r.closed]
        self._state.append(resource)

    def submit(
        self,
        fn: Callable[[Any, dict[str, np.ndarray]], Any],
        payload: Any,
        dataset: SharedDataset | None = None,
    ) -> Future:
        """Enqueue one shard on the shared service; returns its future."""
        if self._closed:
            raise RuntimeError("lease is closed")
        return self._service.submit_job(fn, payload, dataset, session=self._session)

    def run(
        self,
        fn: Callable[[Any, dict[str, np.ndarray]], Any],
        payloads: Sequence[Any],
        dataset: SharedDataset | None = None,
    ) -> list:
        """Run every payload through the service; results in payload order."""
        if self._closed:
            raise RuntimeError("lease is closed")
        futures = [
            self._service.submit_job(fn, p, dataset, session=self._session)
            for p in payloads
        ]
        return [f.result() for f in futures]

    @contextmanager
    def solo(self) -> Iterator[bool]:
        """Ask whether to run one job on the calling thread instead.

        Yields ``True`` when the service was idle — no job queued, in
        flight or running inline — and this lease now holds the single
        inline slot: the caller runs its work inside the block, and the
        elapsed ms are charged to the lease's session on exit, as a
        pooled job's would be. Yields ``False`` otherwise; the caller
        then submits to the pool as usual.
        """
        if self._closed:
            raise RuntimeError("lease is closed")
        with self._service._solo(self._session) as here:
            yield here

    def close(self) -> None:
        """Release lease-owned datasets/flags (idempotent); pool untouched."""
        self._closed = True
        _close_resources(self._state)

    def __enter__(self) -> "ServiceExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServiceExecutor(workers={self._workers}, "
            f"session={self._session.name!r})"
        )


class ComputeService:
    """One persistent worker pool shared by every session in the process.

    Parameters
    ----------
    workers:
        Physical pool width. ``None`` resolves via
        :func:`~repro.graphkit.parallel.effective_workers`; ``0`` is the
        serial twin — jobs run inline, bit-identical to pooled runs.
    max_retries:
        How many times a job killed by a worker crash is resubmitted
        before its future fails with ``BrokenProcessPool``.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        max_retries: int = 2,
    ):
        self._workers = effective_workers() if workers is None else int(workers)
        if self._workers < 0:
            raise ValueError(f"workers must be >= 0, got {self._workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        # The pool lives in a state dict shared with a weakref finalizer:
        # a service dropped without close() still shuts its pool down.
        self._state: dict[str, ProcessPoolExecutor | None] = {"pool": None}
        weakref.finalize(self, _shutdown_pool, self._state)
        # Re-entrant: a pool future that is already done fires its
        # done-callback inline inside add_done_callback, i.e. while the
        # dispatching thread still holds the lock.
        self._lock = threading.RLock()
        self._pending: list[_Job] = []
        self._inflight: dict[Future, _Job] = {}
        self._solo_busy = False  # the one inline slot (see ServiceExecutor.solo)
        self._seq = itertools.count()
        self._pool_gen = 0
        self._max_retries = int(max_retries)
        self._closed = False
        self._sessions: dict[str, ComputeSession] = {}
        # Anonymous submissions (no session) share one house account with
        # a huge budget so they never starve real tenants of ordering.
        self._house = ComputeSession("__service__", budget_ms=1e9)
        self.stats = ComputeStats()

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Physical pool width (0 = serial twin)."""
        return self._workers

    @property
    def serial(self) -> bool:
        return self._workers == 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pending_jobs(self) -> int:
        """Jobs queued but not yet dispatched (introspection/tests)."""
        with self._lock:
            return len(self._pending)

    @property
    def inflight_jobs(self) -> int:
        """Jobs currently running on the pool (introspection/tests)."""
        with self._lock:
            return len(self._inflight)

    @property
    def pool_started(self) -> bool:
        """Whether a live worker pool exists right now."""
        return self._state["pool"] is not None

    def start(self) -> "ComputeService":
        """Create the pool and fork its workers now, on this thread.

        Pools default to the cheap ``fork`` start method, and forking is
        only guaranteed safe while the process is single-threaded — call
        this from the main thread during setup (the process-engine
        pipeline does, in its constructor) so the fork point never lands
        inside a threaded steady state, such as the first pooled solve
        of an async pipeline's worker thread. No-op for the serial twin.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("compute service is closed")
            self._ensure_pool_locked()
        return self

    # ------------------------------------------------------------------
    def session(self, name: str, *, budget_ms: float = 1000.0) -> ComputeSession:
        """Register (or replace) a named session with a scheduling budget."""
        with self._lock:
            if self._closed:
                raise RuntimeError("compute service is closed")
            sess = ComputeSession(name, budget_ms)
            self._sessions[name] = sess
            return sess

    def sessions(self) -> dict[str, ComputeSession]:
        """Live registered sessions by name (copy)."""
        with self._lock:
            return dict(self._sessions)

    def set_session_budget(self, name: str, budget_ms: float) -> ComputeSession:
        """Re-weight a registered session live (cloud budget feed).

        The next dispatch decision sees the new weight; raises
        ``KeyError`` for unknown sessions so a stale feed is loud.
        """
        with self._lock:
            sess = self._sessions[name]
            sess.set_budget(budget_ms)
            return sess

    def lease(
        self,
        workers: int | None = None,
        *,
        session: ComputeSession | None = None,
    ) -> ServiceExecutor:
        """An executor-shaped handle that schedules through this service.

        ``workers`` sets the lease's *logical* chunking width only
        (default: the physical pool width); the pool itself is shared
        and never resized by a lease.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("compute service is closed")
            width = self.workers if workers is None else int(workers)
            if width < 0:
                raise ValueError(f"workers must be >= 0, got {width}")
            return ServiceExecutor(self, width, session or self._house)

    # ------------------------------------------------------------------
    def submit_job(
        self,
        fn: Callable[[Any, dict[str, np.ndarray]], Any],
        payload: Any,
        dataset: SharedDataset | None = None,
        *,
        session: ComputeSession | None = None,
    ) -> Future:
        """Enqueue one shard job; the scheduler decides when it runs.

        Returns a future resolved with the shard's result, the shard's
        exception, or ``BrokenProcessPool`` after ``max_retries``
        crash-resubmissions were exhausted.
        """
        sess = session or self._house
        future: Future = Future()
        resolves: list[tuple] = []
        with self._lock:
            if self._closed:
                raise RuntimeError("compute service is closed")
            job = _Job(fn, payload, dataset, sess, future, next(self._seq))
            self.stats.jobs_submitted += 1
            sess.jobs_submitted += 1
            if not self.serial:
                self._pending.append(job)
                self._dispatch_locked(resolves)
        if self.serial:
            # The serial twin runs inline, outside the lock, in submission
            # order — same shard function, parent-side arrays, so results
            # are bit-identical to the pooled path.
            self._run_inline(job)
        self._apply(resolves)
        return future

    @contextmanager
    def _solo(self, session: ComputeSession) -> Iterator[bool]:
        with self._lock:
            if self._closed:
                raise RuntimeError("compute service is closed")
            here = not (self._solo_busy or self._pending or self._inflight)
            if here:
                self._solo_busy = True
        if not here:
            yield False
            return
        start = time.perf_counter()
        try:
            yield True
        finally:
            with self._lock:
                self._solo_busy = False
                session.spent_ms += (time.perf_counter() - start) * 1e3
                self.stats.solo_runs += 1

    def _run_inline(self, job: _Job) -> None:
        start = time.perf_counter()
        try:
            arrays = job.dataset.arrays if job.dataset is not None else {}
            result = job.fn(job.payload, arrays)
        except BaseException as exc:
            self.stats.jobs_failed += 1
            job.future.set_exception(exc)
            return
        job.session.spent_ms += (time.perf_counter() - start) * 1e3
        self.stats.jobs_completed += 1
        job.future.set_result(result)

    # -- scheduler ------------------------------------------------------
    @staticmethod
    def _apply(resolves: list[tuple]) -> None:
        # Public futures are resolved outside the service lock so a
        # caller's done-callback can re-enter the service freely.
        for setter, value in resolves:
            setter(value)

    def _ensure_pool_locked(self) -> ProcessPoolExecutor | None:
        if not self.serial and self._state["pool"] is None:
            # fork is the cheap default on POSIX (microsecond task setup,
            # inherited attach cache); spawn is the portable fallback and
            # the safe choice for heavily-threaded hosts (forking while
            # other threads hold locks can deadlock the child) — force it
            # with REPRO_START_METHOD=spawn.
            method = os.environ.get("REPRO_START_METHOD") or (
                "fork" if os.name == "posix" else "spawn"
            )
            # A forked worker shares the parent's resource tracker only if
            # the tracker runs before the fork (spawn starts it itself).
            # Otherwise the worker's first attach starts a tracker of its
            # own, which unlinks the parent's live segments when the
            # worker dies.
            resource_tracker.ensure_running()
            pool = ProcessPoolExecutor(
                max_workers=self._workers, mp_context=get_context(method)
            )
            # The executor forks lazily, inside submit: all workers on the
            # first one under fork, one per submit that finds no idle
            # worker under spawn. One no-op per worker forks them all
            # here, on the thread that creates the pool.
            for _ in range(self._workers):
                pool.submit(int)
            self._state["pool"] = pool
            self.stats.pools_started += 1
        return self._state["pool"]

    def _dispatch_locked(self, resolves: list[tuple]) -> None:
        # Keep at most pool-width jobs on the pool, so ordering is decided
        # here at dispatch time — by live session priorities — rather than
        # frozen at submit time in the pool's FIFO call queue.
        while (
            self._pending
            and not self._closed
            and len(self._inflight) < max(1, self.workers)
        ):
            job = min(self._pending, key=lambda j: (j.session.priority, j.seq))
            self._pending.remove(job)
            pool = self._ensure_pool_locked()
            job.pool_gen = self._pool_gen
            job.dispatched_at = time.perf_counter()
            specs = job.dataset.specs if job.dataset is not None else {}
            try:
                fut = pool.submit(_run_shard, (job.fn, job.payload, specs))
            except BrokenProcessPool:
                self._handle_crash_locked(job, resolves)
                continue
            self._inflight[fut] = job
            fut.add_done_callback(self._on_job_done)

    def _on_job_done(self, fut: Future) -> None:
        resolves: list[tuple] = []
        with self._lock:
            job = self._inflight.pop(fut, None)
            if job is None:  # resolved elsewhere (shutdown race)
                return
            if fut.cancelled():
                # Pool torn down under the job (restart/cancel_futures
                # race): treat like a crash so the job is re-enqueued.
                self._handle_crash_locked(job, resolves)
            elif (exc := fut.exception()) is not None and isinstance(
                exc, BrokenProcessPool
            ):
                self._handle_crash_locked(job, resolves)
            elif exc is not None:
                self.stats.jobs_failed += 1
                resolves.append((job.future.set_exception, exc))
            else:
                elapsed = (time.perf_counter() - job.dispatched_at) * 1e3
                job.session.spent_ms += elapsed
                self.stats.jobs_completed += 1
                resolves.append((job.future.set_result, fut.result()))
            self._dispatch_locked(resolves)
        self._apply(resolves)

    def _handle_crash_locked(self, job: _Job, resolves: list[tuple]) -> None:
        # One dead worker fails *every* in-flight future on the pool at
        # once; the generation guard makes the burst rebuild the pool
        # exactly once, and each affected job is re-enqueued (shared
        # segments outlive workers — fresh workers re-attach by name).
        # The broken pool is discarded without waiting; the next dispatch
        # creates a fresh one.
        if job.pool_gen == self._pool_gen:
            self.stats.worker_crashes += 1
            self._pool_gen += 1
            _shutdown_pool(self._state)
        job.attempts += 1
        if self._closed:
            # close() already drained the queue; nothing will re-dispatch
            # this job, so fail its future rather than strand the caller.
            self.stats.jobs_failed += 1
            resolves.append(
                (
                    job.future.set_exception,
                    RuntimeError("compute service is closed"),
                )
            )
            return
        if job.attempts > self._max_retries:
            self.stats.jobs_failed += 1
            resolves.append(
                (
                    job.future.set_exception,
                    BrokenProcessPool(
                        f"job for session {job.session.name!r} lost to worker "
                        f"crashes {job.attempts} times; retries exhausted"
                    ),
                )
            )
            return
        self.stats.resubmissions += 1
        self._pending.append(job)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and shut down: fail queued jobs, wait for in-flight ones,
        then release the pool. Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending, self._pending = self._pending, []
        for job in pending:
            job.future.set_exception(RuntimeError("compute service is closed"))
        # shutdown(wait=True) lets in-flight jobs finish; their done
        # callbacks resolve the public futures on the way out.
        pool, self._state["pool"] = self._state["pool"], None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._lock:
            self._sessions.clear()

    def __enter__(self) -> "ComputeService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"ComputeService(workers={self.workers}, {state})"


# ----------------------------------------------------------------------
# the per-process singleton
# ----------------------------------------------------------------------
_GLOBAL_LOCK = threading.Lock()
_GLOBAL: ComputeService | None = None


def get_compute_service() -> ComputeService:
    """The process-wide shared service (created on first use).

    Width defaults to :func:`~repro.graphkit.parallel.effective_workers`
    (``REPRO_WORKERS`` env var, else cores). Call
    :func:`configure_compute_service` first to pick a different shape.
    """
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None or _GLOBAL.closed:
            _GLOBAL = ComputeService()
        return _GLOBAL


def configure_compute_service(
    workers: int | None = None,
    *,
    max_retries: int = 2,
) -> ComputeService:
    """Replace the process-wide service (closing any existing one)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        previous, _GLOBAL = _GLOBAL, None
    if previous is not None and not previous.closed:
        previous.close()
    service = ComputeService(workers, max_retries=max_retries)
    with _GLOBAL_LOCK:
        _GLOBAL = service
    return service


@contextmanager
def scoped_executor(
    workers: int | None, executor: ServiceExecutor | None = None
) -> Iterator[ServiceExecutor]:
    """The executor a sharded workload runs on, for one call.

    The one rule behind every ``workers=`` / ``executor=`` pair: a
    caller's ``executor`` is used as-is and left open; otherwise
    ``workers=0`` is a lease on a fresh serial ``ComputeService(0)`` (no
    pool, no shared-memory placement), and any other width (``None`` =
    the pool width) is a lease on the process-wide service — repeated
    calls reuse one warm pool. A lease taken here is closed on exit,
    which unlinks its datasets and never touches the pool.
    """
    if executor is not None:
        yield executor
        return
    service = ComputeService(0) if workers == 0 else get_compute_service()
    with service.lease(workers) as lease:
        yield lease


def shutdown_compute_service() -> None:
    """Close the process-wide service (safe to call when none exists).

    Registered with :mod:`atexit`, so an interpreter that exits without
    any session ever calling ``close()`` still tears the pool down and
    unlinks every outstanding segment.
    """
    global _GLOBAL
    with _GLOBAL_LOCK:
        service, _GLOBAL = _GLOBAL, None
    if service is not None and not service.closed:
        service.close()


atexit.register(shutdown_compute_service)
