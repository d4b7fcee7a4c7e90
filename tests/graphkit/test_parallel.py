"""Unit tests for the parallel utilities."""

import numpy as np
import pytest

from repro.graphkit import parallel
from repro.graphkit.parallel import (
    SharedCancelFlag,
    chunk_ranges,
    effective_threads,
    effective_workers,
    get_num_threads,
    parallel_for_chunks,
    set_num_threads,
)
from repro.graphkit.service import ComputeService


@pytest.fixture(autouse=True)
def reset_threads():
    yield
    set_num_threads(None)


class TestChunkRanges:
    def test_even_split(self):
        assert chunk_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split_balanced(self):
        spans = chunk_ranges(10, 3)
        sizes = [b - a for a, b in spans]
        assert sizes == [4, 3, 3]
        assert spans[0][0] == 0 and spans[-1][1] == 10

    def test_more_chunks_than_items(self):
        spans = chunk_ranges(2, 8)
        assert len(spans) == 2
        assert spans == [(0, 1), (1, 2)]

    def test_zero_total(self):
        assert chunk_ranges(0, 4) == [(0, 0)]

    def test_contiguous_cover(self):
        spans = chunk_ranges(17, 5)
        flat = []
        for a, b in spans:
            flat.extend(range(a, b))
        assert flat == list(range(17))

    def test_invalid(self):
        with pytest.raises(ValueError):
            chunk_ranges(-1, 2)
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)


class TestParallelForChunks:
    def test_writes_disjoint_slices(self):
        out = np.zeros(100)

        def fill(start, stop):
            out[start:stop] = np.arange(start, stop)

        parallel_for_chunks(fill, 100, threads=4)
        assert np.array_equal(out, np.arange(100.0))

    def test_serial_equals_parallel(self):
        a = np.zeros(50)
        b = np.zeros(50)

        def make(target):
            def fn(start, stop):
                target[start:stop] = np.arange(start, stop) ** 2

            return fn

        parallel_for_chunks(make(a), 50, threads=1)
        parallel_for_chunks(make(b), 50, threads=3)
        assert np.array_equal(a, b)

    def test_small_totals_run_on_the_calling_thread(self):
        import threading

        seen = []

        def record(start, stop):
            seen.append((threading.get_ident(), start, stop))

        parallel_for_chunks(record, parallel.SERIAL_BELOW - 1, threads=4)
        assert seen == [(threading.get_ident(), 0, parallel.SERIAL_BELOW - 1)]

    def test_large_totals_still_split_across_threads(self):
        spans = []
        total = parallel.SERIAL_BELOW * 2
        parallel_for_chunks(lambda a, b: spans.append((a, b)), total, threads=4)
        assert sorted(spans) == chunk_ranges(total, 4)


class TestThreadConfig:
    def test_set_and_get(self):
        set_num_threads(3)
        assert get_num_threads() == 3
        assert effective_threads() == 3

    def test_reset(self):
        set_num_threads(2)
        set_num_threads(None)
        assert effective_threads() >= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            set_num_threads(0)

    def test_env_var(self, monkeypatch):
        set_num_threads(None)
        monkeypatch.setenv("REPRO_THREADS", "7")
        assert effective_threads() == 7

    def test_env_var_garbage_ignored(self, monkeypatch):
        set_num_threads(None)
        monkeypatch.setenv("REPRO_THREADS", "lots")
        assert effective_threads() >= 1


def _sum_shard(payload, arrays):
    lo, hi = payload
    return float(arrays["x"][lo:hi].sum())


def _echo_flag(payload, arrays):
    return payload()


def _spanned(payload, arrays):
    lo, hi = payload
    return arrays["x"][lo:hi] * 2.0


def _lease(workers):
    """A lease on a private service of the given pool width."""
    service = ComputeService(workers)
    return service, service.lease()


class TestShardedExecutor:
    """The shard→merge contract, on serial and pooled service leases."""

    def test_serial_fallback_runs_inline(self):
        svc, ex = _lease(0)
        with svc, ex:
            assert ex.serial
            ds = ex.share(x=np.arange(10.0))
            assert ex.run(_sum_shard, [(0, 5), (5, 10)], ds) == [10.0, 35.0]
            assert not svc.pool_started

    def test_serial_share_is_zero_copy(self):
        svc, ex = _lease(0)
        with svc, ex:
            x = np.arange(4.0)
            ds = ex.share(x=x)
            assert ds.arrays["x"] is x  # the caller's array, untouched
            assert ds.specs == {}  # nothing placed in shared memory

    def test_pool_matches_serial(self):
        x = np.arange(100.0)
        payloads = [(0, 30), (30, 60), (60, 100)]
        svc0, ex0 = _lease(0)
        with svc0, ex0:
            serial = ex0.run(_sum_shard, payloads, ex0.share(x=x))
        svc2, ex2 = _lease(2)
        with svc2, ex2:
            pooled = ex2.run(_sum_shard, payloads, ex2.share(x=x))
        assert serial == pooled

    def test_merge_order_is_payload_order(self):
        x = np.arange(20.0)
        payloads = [(10, 20), (0, 10)]  # deliberately out of index order
        svc, ex = _lease(2)
        with svc, ex:
            parts = ex.run(_spanned, payloads, ex.share(x=x))
        assert np.array_equal(parts[0], x[10:20] * 2)
        assert np.array_equal(parts[1], x[:10] * 2)

    def test_submit_future(self):
        svc, ex = _lease(1)
        with svc, ex:
            fut = ex.submit(_sum_shard, (0, 3), ex.share(x=np.arange(4.0)))
            assert fut.result(timeout=30) == 3.0

    def test_submit_serial_resolved(self):
        svc, ex = _lease(0)
        with svc, ex:
            fut = ex.submit(_sum_shard, (0, 3), ex.share(x=np.arange(4.0)))
            assert fut.done() and fut.result() == 3.0

    def test_closed_executor_rejects_work(self):
        svc, ex = _lease(0)
        ex.close()
        with pytest.raises(RuntimeError):
            ex.run(_sum_shard, [(0, 1)])
        svc.close()
        with pytest.raises(RuntimeError):
            svc.lease()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ComputeService(workers=-1)
        with ComputeService(0) as svc, pytest.raises(ValueError):
            svc.lease(workers=-1)

    def test_effective_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert effective_workers() == 5
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert effective_workers() >= 1


class TestSharedCancelFlag:
    def test_flag_round_trip_in_process(self):
        flag = SharedCancelFlag()
        try:
            assert not flag.is_set() and not flag()
            flag.set()
            assert flag() is True
            flag.clear()
            assert not flag.is_set()
        finally:
            flag.close()

    def test_flag_visible_across_processes(self):
        svc, ex = _lease(1)
        with svc, ex:
            flag = ex.cancel_flag()
            assert ex.run(_echo_flag, [flag]) == [False]
            flag.set()
            assert ex.run(_echo_flag, [flag]) == [True]
