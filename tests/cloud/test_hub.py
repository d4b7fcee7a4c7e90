"""Unit/integration tests for JupyterHub, proxy and cloud sessions."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cloud import (
    CloudSession,
    JupyterHub,
    PodPhase,
    RoutingError,
    ServiceProxy,
    build_paper_cluster,
)


@pytest.fixture
def stack():
    cluster = build_paper_cluster(workers=2)
    hub = JupyterHub(cluster)
    cluster.clock.advance(30)  # hub pod boots
    proxy = ServiceProxy(cluster)
    return cluster, hub, proxy


class TestDeployment:
    def test_figure2_entities_created(self, stack):
        cluster, hub, _ = stack
        ns = cluster.namespace("rin-exploration")
        assert "networkit-hub" in ns.deployments
        assert "hub-service" in ns.services
        assert "hub-route" in ns.routes
        assert "hub-secret-vault" in ns.secrets
        assert "hub-account" in ns.service_accounts
        assert "hub-volume-claim" in ns.claims
        assert hub.volume_name in cluster.volumes

    def test_hub_pod_running(self, stack):
        _, hub, _ = stack
        assert hub.hub_pods[0].phase is PodPhase.RUNNING

    def test_config_persisted_on_volume(self, stack):
        cluster, hub, _ = stack
        config = cluster.volumes[hub.volume_name].data["jupyterhub_config.py"]
        assert config["cpu_limit_milli"] == 10_000  # paper's 10 vCores
        assert config["mem_limit_mib"] == 16_384  # paper's 16 GB

    def test_sa_has_paper_permissions(self, stack):
        # §III-B: view events + spawn/list/delete pods.
        _, hub, _ = stack
        sa = hub.service_account
        for verb in ("create", "list", "delete"):
            assert sa.allows("pods", verb)
        assert sa.allows("events", "get")
        assert not sa.allows("secrets", "delete")


class TestAuthentication:
    def test_register_and_login(self, stack):
        cluster, hub, _ = stack
        hub.register_user("alice", "pw1")
        pod = hub.login("alice", "pw1")
        assert pod.name == "jupyter-alice"
        assert "alice" in hub.active_users

    def test_wrong_password(self, stack):
        _, hub, _ = stack
        hub.register_user("bob", "secret")
        with pytest.raises(PermissionError):
            hub.login("bob", "wrong")

    def test_unregistered_user(self, stack):
        _, hub, _ = stack
        with pytest.raises(PermissionError):
            hub.login("ghost", "x")

    def test_duplicate_registration(self, stack):
        _, hub, _ = stack
        hub.register_user("carol", "pw")
        with pytest.raises(ValueError):
            hub.register_user("carol", "pw2")

    def test_login_idempotent(self, stack):
        _, hub, _ = stack
        hub.register_user("dave", "pw")
        p1 = hub.login("dave", "pw")
        p2 = hub.login("dave", "pw")
        assert p1 is p2

    def test_user_db_persisted(self, stack):
        cluster, hub, _ = stack
        hub.register_user("erin", "pw")
        assert "erin" in cluster.volumes[hub.volume_name].data["user_db"]


class TestSpawner:
    def test_spawned_pod_limits_match_paper(self, stack):
        cluster, hub, _ = stack
        hub.register_user("frank", "pw")
        pod = hub.login("frank", "pw")
        assert pod.limits.cpu_milli == 10_000
        assert pod.limits.memory_mib == 16_384

    def test_pod_spawned_in_hub_namespace(self, stack):
        _, hub, _ = stack
        hub.register_user("gina", "pw")
        assert hub.login("gina", "pw").namespace == "rin-exploration"

    def test_logout_deletes_pod(self, stack):
        cluster, hub, _ = stack
        hub.register_user("hank", "pw")
        hub.login("hank", "pw")
        hub.logout("hank")
        assert "jupyter-hank" not in cluster.namespace("rin-exploration").pods

    def test_logout_without_login(self, stack):
        _, hub, _ = stack
        with pytest.raises(KeyError):
            hub.logout("nobody")

    def test_multiple_users_separate_pods(self, stack):
        cluster, hub, _ = stack
        for i in range(4):
            hub.register_user(f"user{i}", "pw")
            hub.login(f"user{i}", "pw")
        cluster.clock.advance(30)
        pods = hub.spawner.user_pods()
        assert len(pods) == 4
        assert len({p.name for p in pods}) == 4


class TestProxy:
    def test_route_to_hub(self, stack):
        cluster, hub, proxy = stack
        routed = proxy.request("1.2.3.4", hub.config.host, "/service-path")
        assert routed.pod.labels["app"] == "jupyterhub"
        assert 0 < routed.latency_ms < 50

    def test_user_path_routes_to_user_pod(self, stack):
        cluster, hub, proxy = stack
        hub.register_user("iris", "pw")
        hub.login("iris", "pw")
        cluster.clock.advance(30)
        routed = proxy.request(
            "1.2.3.4", hub.config.host, "/service-path/user/iris/lab"
        )
        assert routed.pod.name == "jupyter-iris"

    def test_unknown_host_rejected(self, stack):
        _, hub, proxy = stack
        with pytest.raises(RoutingError):
            proxy.request("1.2.3.4", "evil.com", "/service-path")

    def test_no_endpoints_rejected(self, stack):
        cluster, hub, proxy = stack
        hub.register_user("jan", "pw")
        hub.login("jan", "pw")
        # Pod still starting: no running endpoint yet.
        with pytest.raises(RoutingError):
            proxy.request("1.2.3.4", hub.config.host, "/service-path/user/jan")

    def test_source_balancing_spreads_load(self, stack):
        cluster, hub, proxy = stack
        for i in range(40):
            proxy.request(f"10.0.0.{i}", hub.config.host, "/service-path")
        dist = proxy.source_distribution()
        assert len(dist) == 2  # both workers used
        assert min(dist.values()) >= 5

    def test_same_source_sticky(self, stack):
        _, hub, proxy = stack
        first = proxy.request("9.9.9.9", hub.config.host, "/service-path")
        second = proxy.request("9.9.9.9", hub.config.host, "/service-path")
        assert first.via_node == second.via_node

    def test_service_node_down(self, stack):
        cluster, hub, proxy = stack
        cluster.nodes["service-0"].ready = False
        with pytest.raises(RoutingError):
            proxy.request("1.2.3.4", hub.config.host, "/service-path")


class TestCloudSession:
    def make_session(self, stack, name="leon"):
        cluster, hub, proxy = stack
        hub.register_user(name, "pw")
        session = CloudSession(
            hub, proxy, name, "pw", protein="2JOF", n_frames=5
        )
        cluster.clock.advance(30)
        return session

    def test_interactions_end_to_end(self, stack):
        session = self.make_session(stack)
        r = session.switch_cutoff(7.0)
        assert r.total_ms == pytest.approx(
            r.network_ms + r.server_ms + r.client_ms
        )
        assert r.network_ms > 0 and r.server_ms > 0 and r.client_ms > 0

    def test_no_bottleneck_no_slowdown(self, stack):
        # Paper: "as long as the resource provisioning does not create
        # bottlenecks ... the server-based performance metrics are stable".
        session = self.make_session(stack)
        r = session.switch_measure("Degree Centrality")
        assert r.slowdown == pytest.approx(1.0)

    def test_async_slider_burst_coalesces(self, stack):
        cluster, hub, proxy = stack
        hub.register_user("mona", "pw")
        session = CloudSession(
            hub, proxy, "mona", "pw", protein="2JOF", n_frames=5,
            async_updates=True, debounce_ms=30,
        )
        cluster.clock.advance(30)
        try:
            r = session.slider_burst("cutoff", [5.0, 5.5, 6.0, 6.5, 7.0])
            assert r.action == "cutoff-burst"
            assert r.server_ms > 0
            pipeline = session.app.widget.pipeline
            # The drag coalesced: far fewer solves than slider values.
            assert pipeline.stats.published < 5
            assert pipeline.rin.cutoff == 7.0
        finally:
            session.close()  # tears down the async worker with the pod

    def test_burst_requires_async_widget(self, stack):
        session = self.make_session(stack, name="nils")
        with pytest.raises(TypeError):
            session.slider_burst("cutoff", [5.0])

    def test_pod_must_be_running(self, stack):
        cluster, hub, proxy = stack
        hub.register_user("kate", "pw")
        session = CloudSession(hub, proxy, "kate", "pw", protein="2JOF",
                               n_frames=5)
        # No clock advance: pod still Pending.
        with pytest.raises(RuntimeError):
            session.switch_cutoff(5.0)

    def test_process_engine_registers_budgeted_compute_session(self, stack):
        from repro.graphkit.service import (
            get_compute_service,
            shutdown_compute_service,
        )

        shutdown_compute_service()
        cluster, hub, proxy = stack
        hub.register_user("iris", "pw")
        session = CloudSession(
            hub, proxy, "iris", "pw", protein="2JOF", n_frames=5,
            engine="process", solve_budget_ms=250.0,
        )
        cluster.clock.advance(30)
        try:
            service = get_compute_service()
            assert session.compute_session is service.sessions()["iris"]
            assert session.compute_session.budget_ms == 250.0
            session.switch_cutoff(6.0)
            # the session's solves were charged against its budget
            assert session.compute_session.spent_ms > 0.0
            assert service.stats.pools_started == 1
        finally:
            session.close()
            shutdown_compute_service()
        assert session.compute_session.closed

    def test_thread_engine_needs_no_compute_session(self, stack):
        session = self.make_session(stack, name="theo")
        assert session.compute_session is None
        session.close()

    def test_throttled_pod_slows_down(self, stack):
        from repro.cloud import Resources

        cluster, hub, proxy = stack
        # Shrink the per-instance limit below the widget demand (4 cores).
        hub.config.instance_limit = Resources.cores(1, 8)
        hub.config.instance_request = Resources.cores(1, 4)
        session = self.make_session(stack, name="throttled")
        r = session.switch_cutoff(6.0)
        assert r.slowdown > 1.5

    def test_session_close(self, stack):
        session = self.make_session(stack, name="mo")
        session.close()
        _, hub, _ = stack
        assert "mo" not in hub.active_users

    def test_default_address_independent_of_hash_seed(self):
        # The proxy balances on the source address, so a seed-dependent
        # default would move network_ms from one interpreter run to the
        # next.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "from repro.cloud.session import _default_address;"
            "print([_default_address(f'user{i}') for i in range(8)])"
        )

        def addresses(seed):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True, timeout=60,
            ).stdout

        assert addresses(1) == addresses(2)

    def test_mean_latency(self, stack):
        session = self.make_session(stack, name="nina")
        session.switch_cutoff(6.0)
        session.switch_frame(2)
        assert session.mean_total_ms() > 0
