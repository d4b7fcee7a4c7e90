"""User sessions: running widget workloads on cloud pods.

Ties the stack together: a :class:`CloudSession` owns a
:class:`~repro.core.widget.RINWidget` that conceptually executes inside
the user's notebook pod. Interactions are routed through the
:class:`~repro.cloud.proxy.ServiceProxy`, and the server-side milliseconds
are scaled by the pod's *CPU pressure* — when the widget's compute demand
exceeds the pod limit (or the node is oversubscribed), updates slow down
proportionally, which is exactly the paper's observation that "as long as
the resource provisioning does not create bottlenecks on the cloud
infrastructure, the server-based performance metrics are stable".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.app import RINExplorer
from ..core.events import UpdateTiming
from ..graphkit.service import get_compute_service
from .cluster import Cluster
from .jupyterhub import JupyterHub
from .objects import Pod
from .proxy import ServiceProxy, _stable_hash
from .resources import Resources

__all__ = ["CloudSession", "SessionRequest"]

#: CPU the widget's update pipeline wants while recomputing (threads).
_WIDGET_DEMAND = Resources.cores(4, 3)


def _default_address(username: str) -> str:
    """The client address of a session that names none.

    Derived with the proxy's crc32 hash, not ``hash()``: a str's
    ``hash()`` changes with ``PYTHONHASHSEED``, and the proxy balances on
    the source address, so ``network_ms`` would change between runs.
    """
    return f"198.51.100.{_stable_hash(username) % 250}"


@dataclass(frozen=True)
class SessionRequest:
    """One user interaction executed over the cloud."""

    action: str
    network_ms: float  # proxy path latency
    server_ms: float  # pod-side compute (pressure-scaled)
    client_ms: float  # simulated browser
    slowdown: float  # CPU-pressure factor applied (1.0 = unthrottled)

    @property
    def total_ms(self) -> float:
        """End-to-end perceived latency."""
        return self.network_ms + self.server_ms + self.client_ms


class CloudSession:
    """An authenticated user driving the RIN widget on their pod."""

    def __init__(
        self,
        hub: JupyterHub,
        proxy: ServiceProxy,
        username: str,
        password: str,
        *,
        protein: str = "A3D",
        n_frames: int = 10,
        client_address: str | None = None,
        seed: int = 7,
        async_updates: bool = False,
        debounce_ms: float = 0.0,
        engine: str = "thread",
        solve_budget_ms: float = 1000.0,
    ):
        self._hub = hub
        self._proxy = proxy
        self._cluster: Cluster = hub.spawner._cluster
        self.username = username
        self._address = client_address or _default_address(username)
        self.pod: Pod = hub.login(username, password)
        # engine="process" moves this session's layout solves out of the
        # hub process's GIL. Every session's solves run on the one
        # process-wide ComputeService — the paper's shared NetworKit
        # backend — and this session is registered there under its
        # username with ``solve_budget_ms`` as its fair-share weight: a
        # user who has burned through their budget yields the queue to
        # lighter users.
        self.compute_session = None
        if engine == "process":
            self.compute_session = get_compute_service().session(
                username, budget_ms=solve_budget_ms
            )
        self.app = RINExplorer(
            protein,
            n_frames=n_frames,
            seed=seed,
            async_updates=async_updates,
            debounce_ms=debounce_ms,
            engine=engine,
            compute_session=self.compute_session,
        )
        self.requests: list[SessionRequest] = []

    # ------------------------------------------------------------------
    def _pressure(self) -> float:
        """CPU slowdown factor from pod limits and node oversubscription.

        cgroup throttling: demand beyond the pod limit is compressed.
        Node pressure: if the host node's total requested CPU exceeds its
        capacity-share actually available, everyone slows down.
        """
        granted = self.pod.use(_WIDGET_DEMAND)
        limit_factor = _WIDGET_DEMAND.cpu_milli / max(granted.cpu_milli, 1)
        node = self._cluster.nodes.get(self.pod.node or "", None)
        node_factor = 1.0
        if node is not None and node.capacity.cpu_milli > 0:
            over = node.allocated.cpu_milli / node.capacity.cpu_milli
            node_factor = max(1.0, over)
        return max(limit_factor, node_factor)

    def _route(self) -> float:
        path = (
            f"{self._hub.config.service_path}/user/{self.username}"
        )
        routed = self._proxy.request(
            self._address, self._hub.config.host, path
        )
        return routed.latency_ms

    def _execute(self, action: str, fn) -> SessionRequest:
        if not self.pod.running:
            raise RuntimeError(
                f"pod {self.pod.name} is not running (phase {self.pod.phase})"
            )
        network_ms = self._route()
        timing: UpdateTiming = fn()
        slowdown = self._pressure()
        request = SessionRequest(
            action=action,
            network_ms=network_ms,
            server_ms=timing.server_ms * slowdown,
            client_ms=timing.client_ms,
            slowdown=slowdown,
        )
        self.requests.append(request)
        return request

    # ------------------------------------------------------------------
    def switch_measure(self, name: str) -> SessionRequest:
        """Measure-slider interaction over the cloud."""
        return self._execute(
            "measure", lambda: self.app.widget.pipeline.switch_measure(name)
        )

    def switch_cutoff(self, cutoff: float) -> SessionRequest:
        """Cut-off-slider interaction over the cloud."""
        return self._execute(
            "cutoff", lambda: self.app.widget.pipeline.switch_cutoff(cutoff)
        )

    def switch_frame(self, frame: int) -> SessionRequest:
        """Trajectory-slider interaction over the cloud."""
        return self._execute(
            "frame", lambda: self.app.widget.pipeline.switch_frame(frame)
        )

    def slider_burst(self, action: str, values: list) -> SessionRequest:
        """A rapid slider drag executed as one coalesced async update.

        Requires the session's widget to run with ``async_updates=True``.
        All ``values`` are submitted back-to-back (the user dragging the
        slider); the pod only pays for the O(1) solves the async pipeline
        actually runs, and the request's ``server_ms`` is the published
        final result's timing — the paper-era per-event replay would have
        cost one full solve per value.
        """
        from ..core.pipeline import AsyncUpdatePipeline

        pipeline = self.app.widget.pipeline
        if not isinstance(pipeline, AsyncUpdatePipeline):
            raise TypeError(
                "slider_burst needs async_updates=True on the CloudSession"
            )
        if action not in ("frame", "cutoff"):
            raise ValueError(f"burst action must be 'frame' or 'cutoff', got {action!r}")
        if not values:
            raise ValueError("burst needs at least one slider value")

        def run() -> UpdateTiming:
            for v in values:
                pipeline.submit(**{action: v})
            timing = pipeline.flush()
            assert timing is not None
            return timing

        return self._execute(f"{action}-burst", run)

    def set_solve_budget(self, budget_ms: float) -> None:
        """Re-weight this user's share of the shared compute service.

        The autoscaler (or an operator) feeds per-session budgets live:
        shrinking a hog's budget deprioritizes its queued solves at the
        next dispatch without cancelling anything. No-op scaffolding is
        refused — a thread-engine session has no compute session to feed.
        """
        if self.compute_session is None:
            raise RuntimeError(
                "session has no shared compute session to re-budget "
                '(needs engine="process")'
            )
        self.compute_session.set_budget(budget_ms)

    def close(self) -> None:
        """End the session: stop the widget's worker and delete the pod.

        The pod is released even if the worker latched an error; the
        error (if any) is re-raised after logout.
        """
        try:
            self.app.close()
        finally:
            if self.compute_session is not None:
                self.compute_session.close()
            self._hub.logout(self.username)

    def mean_total_ms(self) -> float:
        """Mean end-to-end latency over this session's interactions."""
        if not self.requests:
            return 0.0
        return sum(r.total_ms for r in self.requests) / len(self.requests)
