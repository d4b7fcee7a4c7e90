"""Tests for the shared long-lived compute service.

Covers the service contract end to end: one persistent pool across many
submitters, the serial (``workers=0``) twin, budget-driven cross-session
scheduling, lease lifecycle (datasets/flags released without touching
the pool), worker-crash detection with bounded resubmission, and the
no-leak guarantees (dropped-without-close executors and leases, pickled
cancel flags, bounded worker-side attach cache).
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.graphkit import parallel
from repro.graphkit.parallel import SharedCancelFlag
from repro.graphkit.service import (
    ComputeService,
    ComputeSession,
    configure_compute_service,
    get_compute_service,
    shutdown_compute_service,
)

pytestmark = pytest.mark.usefixtures("_fresh_global_service")


@pytest.fixture()
def _fresh_global_service():
    """Isolate the process-wide singleton per test."""
    shutdown_compute_service()
    yield
    shutdown_compute_service()


# ----------------------------------------------------------------------
# module-level shard functions (workers import them by reference)
# ----------------------------------------------------------------------
def _sum_shard(payload, arrays):
    lo, hi = payload
    return float(arrays["x"][lo:hi].sum())


def _pid_shard(payload, arrays):
    return os.getpid()


def _slow_sum_shard(payload, arrays):
    lo, hi, delay = payload
    time.sleep(delay)
    return float(arrays["x"][lo:hi].sum())


def _stamp_shard(payload, arrays):
    # CLOCK_MONOTONIC is system-wide on Linux: stamps taken in different
    # worker processes are comparable.
    return (payload, time.monotonic())


def _boom_shard(payload, arrays):
    raise ValueError(f"boom:{payload}")


def _multi_array_shard(payload, arrays):
    return float(sum(arrays[k].sum() for k in sorted(arrays)))


class TestServiceBasics:
    def test_serial_twin_runs_inline(self):
        with ComputeService(workers=0) as svc:
            assert svc.serial
            with svc.lease(workers=4) as lease:
                assert lease.serial and lease.workers == 0
                ds = lease.share(x=np.arange(10.0))
                assert ds.specs == {}  # nothing placed
                assert lease.run(_sum_shard, [(0, 5), (5, 10)], ds) == [10.0, 35.0]
            assert svc.stats.pools_started == 0

    def test_pool_matches_serial(self):
        x = np.arange(100.0)
        payloads = [(0, 30), (30, 60), (60, 100)]
        with ComputeService(workers=0) as s0, s0.lease() as l0:
            serial = l0.run(_sum_shard, payloads, l0.share(x=x))
        with ComputeService(workers=2) as s2, s2.lease() as l2:
            pooled = l2.run(_sum_shard, payloads, l2.share(x=x))
        assert serial == pooled

    def test_one_pool_across_many_leases(self):
        with ComputeService(workers=1) as svc:
            for _ in range(5):
                with svc.lease() as lease:
                    ds = lease.share(x=np.arange(8.0))
                    assert lease.run(_sum_shard, [(0, 8)], ds) == [28.0]
            assert svc.stats.pools_started == 1
            assert svc.stats.jobs_completed == 5

    def test_shard_exception_propagates(self):
        with ComputeService(workers=1) as svc, svc.lease() as lease:
            with pytest.raises(ValueError, match="boom:7"):
                lease.submit(_boom_shard, 7).result(timeout=30)
            assert svc.stats.jobs_failed == 1
            # the pool survives a shard exception (no crash, no rebuild)
            assert svc.stats.worker_crashes == 0
            assert lease.submit(_sum_shard, (0, 2), lease.share(x=np.arange(3.0))
                                ).result(timeout=30) == 1.0

    def test_closed_service_rejects_work(self):
        svc = ComputeService(workers=0)
        lease = svc.lease()
        svc.close()
        with pytest.raises(RuntimeError):
            svc.submit_job(_sum_shard, (0, 1))
        with pytest.raises(RuntimeError):
            svc.lease()
        with pytest.raises(RuntimeError):
            svc.session("late")
        # a pre-existing lease routes into the closed service and refuses too
        with pytest.raises(RuntimeError):
            lease.submit(_sum_shard, (0, 1))
        svc.close()  # idempotent

    def test_closed_lease_rejects_work(self):
        with ComputeService(workers=0) as svc:
            lease = svc.lease()
            lease.close()
            with pytest.raises(RuntimeError):
                lease.run(_sum_shard, [(0, 1)])
            with pytest.raises(RuntimeError):
                lease.share(x=np.arange(2.0))
            lease.close()  # idempotent

    def test_lease_close_releases_datasets_not_pool(self):
        with ComputeService(workers=1) as svc:
            lease = svc.lease()
            ds = lease.share(x=np.arange(16.0))
            (name, _, _) = ds.specs["x"]
            assert os.path.exists(f"/dev/shm/{name}")
            assert lease.run(_sum_shard, [(0, 16)], ds) == [120.0]
            lease.close()
            assert not os.path.exists(f"/dev/shm/{name}")
            assert svc.pool_started  # the shared pool outlives the lease
            with svc.lease() as lease2:
                ds2 = lease2.share(x=np.arange(4.0))
                assert lease2.run(_sum_shard, [(0, 4)], ds2) == [6.0]
            assert svc.stats.pools_started == 1

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ComputeSession("bad", budget_ms=0)
        with pytest.raises(ValueError):
            ComputeService(workers=0, max_retries=-1)


class TestScheduling:
    def test_priority_is_budget_fraction(self):
        light = ComputeSession("light", budget_ms=1000.0)
        heavy = ComputeSession("heavy", budget_ms=1000.0)
        heavy.spent_ms = 900.0
        light.spent_ms = 100.0
        assert light.priority < heavy.priority

    def test_low_spend_session_overtakes(self):
        """With the single slot blocked, queued jobs run in priority order."""
        with ComputeService(workers=1) as svc:
            starved = svc.session("starved", budget_ms=1000.0)
            hog = svc.session("hog", budget_ms=1000.0)
            hog.spent_ms = 990.0  # hog has all but exhausted its budget
            lease_starved = svc.lease(session=starved)
            lease_hog = svc.lease(session=hog)
            ds = lease_hog.share(x=np.arange(10.0))
            # Occupy the only slot long enough to enqueue the contenders.
            blocker = lease_hog.submit(_slow_sum_shard, (0, 10, 0.4), ds)
            # FIFO would run hog's job first (submitted earlier)...
            f_hog = lease_hog.submit(_stamp_shard, "hog")
            f_starved = lease_starved.submit(_stamp_shard, "starved")
            _, t_hog = f_hog.result(timeout=60)
            _, t_starved = f_starved.result(timeout=60)
            blocker.result(timeout=60)
            # ...but the scheduler dispatches the starved session first.
            assert t_starved < t_hog
            lease_starved.close()
            lease_hog.close()

    def test_spend_is_charged_per_session(self):
        with ComputeService(workers=1) as svc:
            sess = svc.session("tenant", budget_ms=500.0)
            with svc.lease(session=sess) as lease:
                ds = lease.share(x=np.arange(10.0))
                lease.submit(_slow_sum_shard, (0, 10, 0.05), ds).result(timeout=60)
            assert sess.spent_ms >= 50.0
            assert sess.jobs_submitted == 1

    def test_sessions_registry(self):
        with ComputeService(workers=0) as svc:
            a = svc.session("a", budget_ms=10.0)
            assert svc.sessions() == {"a": a}
            b = svc.session("a", budget_ms=20.0)  # replace
            assert svc.sessions()["a"] is b


class TestSolo:
    """The one inline slot ``lease.solo()`` hands out while the service idles."""

    def test_refused_while_a_job_is_in_flight(self):
        with ComputeService(workers=1) as svc, svc.lease() as lease:
            ds = lease.share(x=np.arange(10.0))
            blocker = lease.submit(_slow_sum_shard, (0, 10, 0.3), ds)
            with lease.solo() as here:
                assert not here
            blocker.result(timeout=60)
            with lease.solo() as here:
                assert here
                with lease.solo() as nested:
                    assert not nested  # the slot is single
            assert svc.stats.solo_runs == 1

    def test_closed_lease_refuses(self):
        with ComputeService(workers=1) as svc:
            lease = svc.lease()
            lease.close()
            with pytest.raises(RuntimeError):
                with lease.solo():
                    pass

    def test_threads_never_share_the_slot(self):
        threads_n, rounds = 8, 200
        svc = ComputeService(workers=1)  # the pool is never created
        sess = svc.session("tenant")
        holders, peak, claims = [0], [0], [0]
        guard = threading.Lock()

        def contend() -> None:
            with svc.lease(session=sess) as lease:
                for _ in range(rounds):
                    with lease.solo() as here:
                        if not here:
                            continue
                        with guard:
                            holders[0] += 1
                            claims[0] += 1
                            peak[0] = max(peak[0], holders[0])
                        time.sleep(0)
                        with guard:
                            holders[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=contend) for _ in range(threads_n)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in workers)
        finally:
            sys.setswitchinterval(interval)
            svc.close()
        assert peak[0] == 1
        assert claims[0] == svc.stats.solo_runs > 0
        assert not svc.pool_started and svc.stats.jobs_submitted == 0
        assert sess.spent_ms > 0.0


class TestCrashRecovery:
    def test_sigkill_mid_job_resubmits_bit_identical(self):
        """Satellite: SIGKILL a worker mid-job — the service resubmits,
        the result matches the workers=0 twin, and nothing leaks."""
        x = np.arange(50.0)
        with ComputeService(workers=0) as s0, s0.lease() as l0:
            expected = l0.run(_sum_shard, [(0, 50)], l0.share(x=x))[0]

        with ComputeService(workers=1, max_retries=2) as svc:
            lease = svc.lease()
            ds = lease.share(x=x)
            (seg_name, _, _) = ds.specs["x"]
            victim = lease.submit(_pid_shard, None).result(timeout=30)
            fut = lease.submit(_slow_sum_shard, (0, 50, 0.6), ds)
            time.sleep(0.2)  # let the job start before the hit
            os.kill(victim, signal.SIGKILL)
            assert fut.result(timeout=120) == expected
            assert svc.stats.worker_crashes >= 1
            assert svc.stats.resubmissions >= 1
            assert svc.stats.pools_started >= 2
            # fresh workers re-attached to the *same* surviving segment
            assert os.path.exists(f"/dev/shm/{seg_name}")
            lease.close()
            assert not os.path.exists(f"/dev/shm/{seg_name}")

    def test_crash_after_eager_start_keeps_the_segments(self):
        """Workers forked by ``start()`` before any segment exists must
        share the parent's resource tracker: a tracker of their own would
        unlink the parent's live dataset when the worker is killed."""
        import subprocess

        code = (
            "import os, signal\n"
            "import numpy as np\n"
            "from repro.graphkit.service import ComputeService\n"
            "from tests.graphkit.test_service import _pid_shard, _sum_shard\n"
            "with ComputeService(1).start() as svc, svc.lease() as lease:\n"
            "    ds = lease.share(x=np.arange(64.0))\n"
            "    assert lease.run(_sum_shard, [(0, 64)], ds) == [2016.0]\n"
            "    os.kill(lease.submit(_pid_shard, None).result(), signal.SIGKILL)\n"
            "    assert lease.run(_sum_shard, [(0, 64)], ds) == [2016.0]\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), root, env.get("PYTHONPATH"))
            if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr

    def test_retries_are_bounded(self):
        from concurrent.futures.process import BrokenProcessPool

        with ComputeService(workers=1, max_retries=0) as svc:
            lease = svc.lease()
            victim = lease.submit(_pid_shard, None).result(timeout=30)
            ds = lease.share(x=np.arange(10.0))
            fut = lease.submit(_slow_sum_shard, (0, 10, 5.0), ds)
            time.sleep(0.2)
            os.kill(victim, signal.SIGKILL)
            with pytest.raises(BrokenProcessPool, match="retries exhausted"):
                fut.result(timeout=120)
            assert svc.stats.jobs_failed == 1
            # the rebuilt pool still serves later jobs
            assert lease.submit(_sum_shard, (0, 10), ds).result(timeout=60) == 45.0
            lease.close()


class TestBudgetFeed:
    """The per-session budget feed the cloud autoscaler drives live."""

    def test_set_budget_reweights_at_next_dispatch(self):
        sess = ComputeSession("tenant", budget_ms=1000.0)
        sess.spent_ms = 500.0
        before = sess.priority
        sess.set_budget(5000.0)  # bigger budget → lower spend fraction
        assert sess.priority < before
        with pytest.raises(ValueError):
            sess.set_budget(0.0)
        with pytest.raises(ValueError):
            sess.set_budget(-10.0)

    def test_charge_accounts_external_milliseconds(self):
        sess = ComputeSession("tenant", budget_ms=1000.0)
        sess.charge(250.0)
        sess.charge(50.0)
        assert sess.spent_ms == 300.0
        with pytest.raises(ValueError):
            sess.charge(-1.0)

    def test_charged_spend_competes_with_real_spend(self):
        """Cloud-modeled milliseconds land in the same deficit-fair
        account: a session charged externally is deprioritized exactly
        like one that burned the pool."""
        modeled = ComputeSession("modeled", budget_ms=1000.0)
        real = ComputeSession("real", budget_ms=1000.0)
        modeled.charge(900.0)
        real.spent_ms = 100.0
        assert real.priority < modeled.priority

    def test_service_level_rebudget(self):
        with ComputeService(workers=0) as svc:
            sess = svc.session("tenant", budget_ms=100.0)
            svc.set_session_budget("tenant", 7000.0)
            assert sess.budget_ms == 7000.0
            with pytest.raises(KeyError):
                svc.set_session_budget("ghost", 100.0)

    def test_cloud_session_requires_shared_compute(self):
        """CloudSession.set_solve_budget refuses silently-inert calls."""
        from repro.cloud import JupyterHub, ServiceProxy, build_paper_cluster

        cluster = build_paper_cluster(workers=2)
        hub = JupyterHub(cluster)
        cluster.clock.advance(30)
        proxy = ServiceProxy(cluster)
        hub.register_user("u", "pw")
        from repro.cloud.session import CloudSession

        session = CloudSession(
            hub, proxy, "u", "pw", engine="thread", client_address="10.0.0.1"
        )
        try:
            with pytest.raises(RuntimeError, match="no shared compute"):
                session.set_solve_budget(500.0)
        finally:
            session.close()


class TestGlobalSingleton:
    def test_get_creates_once(self):
        svc = get_compute_service()
        assert get_compute_service() is svc
        shutdown_compute_service()
        assert svc.closed
        replacement = get_compute_service()
        assert replacement is not svc and not replacement.closed

    def test_configure_replaces_and_closes(self):
        first = configure_compute_service(workers=0)
        second = configure_compute_service(workers=0)
        assert first.closed and not second.closed
        assert get_compute_service() is second

    def test_shutdown_without_service_is_noop(self):
        shutdown_compute_service()
        shutdown_compute_service()


class TestNoLeaks:
    def test_dropped_lease_finalizer_unlinks_segments(self):
        with ComputeService(workers=1) as svc:
            lease = svc.lease()
            ds = lease.share(x=np.arange(32.0))
            (name, _, _) = ds.specs["x"]
            assert lease.run(_sum_shard, [(0, 32)], ds) == [496.0]
            assert os.path.exists(f"/dev/shm/{name}")
            del lease, ds  # dropped without close()
            gc.collect()
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_dropped_executor_finalizer_unlinks_segments(self):
        """A service *and* its lease dropped without close(): the lease's
        finalizer unlinks the segment, the service's shuts the pool down."""
        svc = ComputeService(workers=1)
        ex = svc.lease()
        ds = ex.share(x=np.arange(8.0))
        (name, _, _) = ds.specs["x"]
        assert ex.run(_sum_shard, [(0, 8)], ds) == [28.0]
        assert os.path.exists(f"/dev/shm/{name}")
        state = svc._state
        assert state["pool"] is not None
        del svc, ex, ds
        gc.collect()
        assert not os.path.exists(f"/dev/shm/{name}")
        assert state["pool"] is None

    def test_cancel_flag_pickle_round_trip_closes_attachment(self):
        flag = SharedCancelFlag()
        try:
            clone = pickle.loads(pickle.dumps(flag))
            flag.set()
            assert clone.is_set()
            del clone  # finalizer closes the attached mapping, no unlink
            gc.collect()
            assert flag.is_set()  # owner's segment untouched
        finally:
            flag.close()

    def test_unclosed_stack_exits_without_tracker_warnings(self):
        """A process that never calls close() on anything must still exit
        with no resource_tracker leaked-segment warnings (the atexit +
        finalizer backstops)."""
        import subprocess
        import sys

        code = (
            "import numpy as np\n"
            "from repro.graphkit.service import get_compute_service\n"
            "from tests.graphkit.test_service import _sum_shard\n"
            "svc = get_compute_service()\n"
            "lease = svc.lease(workers=1)\n"
            "ds = lease.share(x=np.arange(64.0))\n"
            "assert lease.run(_sum_shard, [(0, 64)], ds) == [2016.0]\n"
            # no lease.close(), no svc.close(): rely on atexit
        )
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), root, env.get("PYTHONPATH"))
            if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr


class TestAttachCacheLRU:
    def test_parked_eviction_never_corrupts_in_flight_job(self, monkeypatch):
        """With a cache cap of 1, attaching each subsequent array of one
        job evicts the previous one *while its view is in use* — the
        parked-eviction path must keep the pages alive for the shard."""
        monkeypatch.setattr(parallel, "_ATTACH_CACHE_CAP", 1)
        with ComputeService(workers=1) as svc, svc.lease() as lease:
            a, b, c = np.arange(4.0), np.arange(8.0), np.arange(16.0)
            ds = lease.share(a=a, b=b, c=c)
            expected = float(a.sum() + b.sum() + c.sum())
            for _ in range(3):  # repeated jobs re-attach evicted segments
                assert lease.run(_multi_array_shard, [None], ds) == [expected]

    def test_eviction_across_many_datasets(self, monkeypatch):
        """A long-lived worker cycling through more datasets than the cap
        keeps answering correctly (stale mappings are evicted, segments
        re-attached on demand)."""
        monkeypatch.setattr(parallel, "_ATTACH_CACHE_CAP", 2)
        with ComputeService(workers=1) as svc, svc.lease() as lease:
            datasets = [
                (i, lease.share(x=np.full(16, float(i)))) for i in range(6)
            ]
            for _ in range(2):
                for i, ds in datasets:
                    assert lease.run(_sum_shard, [(0, 16)], ds) == [16.0 * i]
