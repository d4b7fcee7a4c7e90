"""Widget update events and their timing records.

Every slider interaction produces an :class:`UpdateTiming` that splits the
cycle exactly the way the paper's figures do:

* ``edge_update_ms`` — NetworKit edge add/remove (Fig. 7d),
* ``layout_ms`` — Maxent-Stress recomputation (Fig. 7e),
* ``measure_ms`` — centrality/community computation (Fig. 6a/b),
* ``server_ms`` — sum of the above + figure data handling,
* ``client_ms`` — simulated browser DOM update (the gap between
  "NetworKit update time" and "Total update time" in Figs. 6-8),
* ``total_ms`` — what the user perceives (Figs. 6c, 7f, 8i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["EventKind", "UpdateTiming", "EventLog"]


class EventKind(Enum):
    """The three slider interactions benchmarked in the paper + misc."""

    MEASURE_SWITCH = "measure"
    CUTOFF_SWITCH = "cutoff"
    FRAME_SWITCH = "frame"
    FULL_RENDER = "render"


@dataclass(frozen=True)
class UpdateTiming:
    """Timing decomposition of one widget update cycle (milliseconds)."""

    kind: EventKind
    edge_update_ms: float = 0.0
    layout_ms: float = 0.0
    measure_ms: float = 0.0
    data_handling_ms: float = 0.0
    client_ms: float = 0.0
    edges_after: int = 0
    edges_changed: int = 0
    #: Generation counter stamped by the async pipeline (-1 = synchronous).
    generation: int = -1

    @property
    def server_ms(self) -> float:
        """Server-side (NetworKit + Python data handling) time."""
        return (
            self.edge_update_ms
            + self.layout_ms
            + self.measure_ms
            + self.data_handling_ms
        )

    @property
    def networkit_ms(self) -> float:
        """The 'NetworKit update time' of Figures 6-8 (no data handling)."""
        return self.edge_update_ms + self.layout_ms + self.measure_ms

    @property
    def total_ms(self) -> float:
        """Client-perceived total (Figures 6c / 7f / 8i)."""
        return self.server_ms + self.client_ms


@dataclass
class EventLog:
    """Append-only log of update timings (drives the benchmark tables)."""

    entries: list[UpdateTiming] = field(default_factory=list)

    def record(self, timing: UpdateTiming) -> None:
        """Append one timing record."""
        self.entries.append(timing)

    def of_kind(self, kind: EventKind) -> list[UpdateTiming]:
        """All records of one event kind."""
        return [t for t in self.entries if t.kind is kind]

    def mean_total_ms(self, kind: EventKind) -> float:
        """Mean perceived latency for an event kind (0 if none)."""
        records = self.of_kind(kind)
        if not records:
            return 0.0
        return sum(t.total_ms for t in records) / len(records)

    def __len__(self) -> int:
        return len(self.entries)
