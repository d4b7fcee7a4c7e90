"""Shared-memory parallel utilities — the OpenMP stand-in and the
process-pool data plane.

Two layers live here:

* **Thread level** (:func:`parallel_for_chunks`) — NetworKit
  parallelizes per-source loops (Brandes, closeness BFS sweeps, Louvain
  move phases) with OpenMP ``parallel for``. In pure Python we expose
  the same decomposition: the iteration space is split into
  deterministic contiguous chunks (mirroring OpenMP static scheduling
  and the mpi4py block decomposition from the HPC guides) and the chunks
  are executed on a thread pool. NumPy kernels release the GIL inside
  vectorized calls, so thread-level parallelism helps the array-heavy
  per-source kernels — on graphs big enough to pay for the threads.

* **Process level data plane** — the pool itself is owned by
  :class:`~repro.graphkit.service.ComputeService`; this module holds what
  travels to its workers. Frozen input arrays (CSR arc arrays, condensed
  distance matrices, trajectory coordinates) are placed in
  :mod:`multiprocessing.shared_memory` **once** as a
  :class:`SharedDataset`, workers attach zero-copy by segment name
  (:func:`_run_shard`), and shard payloads/results travel through the
  (small) pickle channel. :class:`SharedCancelFlag` is the cross-process
  analog of the async pipeline's generation counter: one shared byte the
  parent raises and in-flight workers poll.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

__all__ = [
    "effective_threads",
    "chunk_ranges",
    "parallel_for_chunks",
    "set_num_threads",
    "get_num_threads",
    "effective_workers",
    "SharedDataset",
    "SharedCancelFlag",
]

_num_threads: int | None = None


def effective_threads() -> int:
    """Number of worker threads to use by default.

    Resolution order: :func:`set_num_threads` value, ``REPRO_THREADS``
    environment variable, then ``os.cpu_count()``.
    """
    if _num_threads is not None:
        return _num_threads
    env = os.environ.get("REPRO_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def set_num_threads(n: int | None) -> None:
    """Set (or with ``None`` reset) the global worker-thread count.

    Mirrors ``networkit.setNumberOfThreads``.
    """
    global _num_threads
    if n is not None and n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    _num_threads = n


def get_num_threads() -> int:
    """Current effective worker-thread count (NetworKit naming analog)."""
    return effective_threads()


def chunk_ranges(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``chunks`` contiguous [start, stop) spans.

    Uses the balanced block decomposition (first ``total % chunks`` spans get
    one extra element) — identical maths to the classic MPI block
    distribution, so chunk boundaries are deterministic for any input.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    chunks = min(chunks, max(total, 1))
    base, extra = divmod(total, chunks)
    spans = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


#: Iteration spaces smaller than this run serially on the calling thread.
#: The per-source kernels on a small graph finish before a second thread
#: pays for itself. Measured on a 2-core x86_64 host, OpenBLAS at 1
#: thread, Barabási–Albert graphs (m=3), 1-thread time / 2-thread time:
#: closeness 0.17 at 73 nodes, 0.89 at 200, 1.64 at 256; betweenness
#: 0.37, 1.35 and 1.67.
SERIAL_BELOW = 256


def parallel_for_chunks(
    fn: Callable[[int, int], None],
    total: int,
    *,
    threads: int | None = None,
) -> None:
    """Run ``fn(start, stop)`` over a static block decomposition of ``total``.

    The callable is expected to write results into pre-allocated shared
    arrays (disjoint slices per chunk), matching the OpenMP
    ``parallel for`` + shared-output idiom. Below :data:`SERIAL_BELOW`
    items the whole range runs as one chunk on the calling thread.
    """
    threads = effective_threads() if threads is None else max(1, threads)
    if total < SERIAL_BELOW:
        threads = 1
    spans = chunk_ranges(total, threads)
    if threads == 1 or len(spans) <= 1:
        for start, stop in spans:
            fn(start, stop)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda span: fn(*span), spans))


# ----------------------------------------------------------------------
# process-pool execution subsystem
# ----------------------------------------------------------------------
def effective_workers() -> int:
    """Default process-pool width: ``REPRO_WORKERS`` env var, else cores."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


# Per-worker-process cache of attached shared-memory segments, keyed by
# segment name. Attaching is a namespace lookup + mmap; caching it makes
# repeated shards over the same frozen dataset genuinely zero-copy.
# Bounded LRU: a long-lived worker sees a fresh segment per scan, so the
# cache would otherwise grow one mapping (plus one fd) per dataset for
# the life of the pool. Entries past the cap are evicted
# least-recently-used. Eviction only drops the *cache's* reference: each
# mapping's lifetime is tied to its numpy view by a finalizer (closing
# an attached ``SharedMemory`` unmaps the pages immediately — numpy does
# not keep the buffer exported, so an eager close under an in-flight
# shard would be a use-after-unmap). The mapping and its fd are released
# the moment the last view reference dies — whether that is the cache
# entry or a shard mid-job.
_ATTACH_CACHE_CAP = 32
_ATTACHED: dict[str, np.ndarray] = {}


def _attached_view(name: str, shape: tuple, dtype: str) -> np.ndarray:
    cached = _ATTACHED.get(name)
    if cached is not None:
        # LRU touch: pop + reinsert moves the entry to the young end.
        _ATTACHED[name] = _ATTACHED.pop(name)
        return cached
    shm = shared_memory.SharedMemory(name=name)
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    view.flags.writeable = False
    weakref.finalize(view, _close_attached, shm)
    while len(_ATTACHED) >= _ATTACH_CACHE_CAP:
        _ATTACHED.pop(next(iter(_ATTACHED)))
    _ATTACHED[name] = view
    return view


class SharedDataset:
    """Named read-only numpy arrays placed in shared memory once.

    Created by :meth:`ServiceExecutor.share
    <repro.graphkit.service.ServiceExecutor.share>`. The parent keeps the
    original arrays (serial fallback reads them directly — same memory,
    same results); worker processes resolve the pickled ``(name, shape,
    dtype)`` specs to zero-copy views of the same physical pages.
    """

    __slots__ = ("_arrays", "_segments", "_specs", "_closed", "__weakref__")

    def __init__(self, arrays: dict[str, np.ndarray], *, place: bool = True):
        self._arrays = {k: np.ascontiguousarray(v) for k, v in arrays.items()}
        self._segments: list[shared_memory.SharedMemory] = []
        self._specs: dict[str, tuple[str, tuple, str]] = {}
        self._closed = False
        if place:
            for key, arr in self._arrays.items():
                seg = shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes)
                )
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                view[...] = arr
                view.flags.writeable = False
                self._segments.append(seg)
                self._specs[key] = (seg.name, arr.shape, arr.dtype.str)
                # Workers read the placed copy; the parent does too, so the
                # serial fallback and the pool see identical bytes.
                self._arrays[key] = view
        weakref.finalize(self, _release_segments, self._segments)

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """The in-process (parent-side) arrays, keyed by name."""
        return self._arrays

    @property
    def specs(self) -> dict[str, tuple[str, tuple, str]]:
        """Picklable ``{key: (segment_name, shape, dtype)}`` resolution map."""
        return self._specs

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (owner may prune the dataset)."""
        return self._closed

    def close(self) -> None:
        """Unlink the shared segments (idempotent)."""
        self._closed = True
        self._arrays = {}
        _release_segments(self._segments)
        self._segments = []


def _release_segments(segments: list[shared_memory.SharedMemory]) -> None:
    for seg in segments:
        try:
            seg.close()
            seg.unlink()
        except (FileNotFoundError, OSError):  # already gone
            pass


def _close_attached(shm: shared_memory.SharedMemory) -> None:
    """Close (never unlink) a mapping attached in a receiving process."""
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - exiting anyway
        pass


def _close_resources(resources: list) -> None:
    """Close every tracked dataset/flag; one failure never strands the rest."""
    pending, resources[:] = list(resources), []
    for res in pending:
        try:
            res.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


class SharedCancelFlag:
    """One shared byte: the cross-process cancellation token.

    The owner (parent) raises/clears it; pickled copies attach to the
    same segment, so an out-of-process solver can poll it at iteration
    granularity exactly like an in-process ``cancel_check`` callable —
    the flag object itself is callable for drop-in use.
    """

    def __init__(self):
        self._shm = shared_memory.SharedMemory(create=True, size=1)
        self._shm.buf[0] = 0
        self._owner = True
        self._closed = False
        weakref.finalize(self, _release_segments, [self._shm])

    # pickling attaches (never re-creates) in the receiving process
    def __getstate__(self) -> str:
        return self._shm.name

    def __setstate__(self, name: str) -> None:
        self._shm = shared_memory.SharedMemory(name=name)
        self._owner = False
        self._closed = False
        # Every unpickle maps the segment anew: without a finalizer a
        # long-lived worker would accumulate one mapping per received job
        # for the life of the pool. Close-only — unlinking is the owner's.
        weakref.finalize(self, _close_attached, self._shm)

    def set(self) -> None:
        """Raise the flag (cancel in-flight shards)."""
        self._shm.buf[0] = 1

    def clear(self) -> None:
        """Lower the flag before dispatching new work."""
        self._shm.buf[0] = 0

    def is_set(self) -> bool:
        """Whether cancellation was requested."""
        return self._shm.buf[0] != 0

    __call__ = is_set

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (owner may prune the flag)."""
        return self._closed

    def close(self) -> None:
        """Release the segment (owner unlinks it)."""
        self._closed = True
        if self._owner:
            _release_segments([self._shm])
        else:
            try:
                self._shm.close()
            except OSError:  # pragma: no cover - already closed
                pass


def _run_shard(task: tuple) -> Any:
    """Worker-side trampoline: attach the dataset, run the shard function.

    ``fn`` must be a module-level callable (pickled by reference);
    it receives ``(payload, arrays)`` where ``arrays`` maps dataset keys
    to zero-copy views of the shared segments.
    """
    fn, payload, specs = task
    arrays = {
        key: _attached_view(name, tuple(shape), dtype)
        for key, (name, shape, dtype) in specs.items()
    }
    return fn(payload, arrays)
