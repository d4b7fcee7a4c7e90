"""Delta-aware measure engine for insertion-only CSR walks.

The cut-off scans walk distance-sorted contact prefixes: the edge set at
each cut-off extends the previous one, so every step is an insertion-only
:class:`~repro.graphkit.csr.CSRDelta`. :class:`IncrementalMeasures`
carries degree, weighted degree, core numbers and connected components
forward along such a walk instead of recomputing them per prefix:

* **degree / weighted degree** — one ``bincount`` over the delta's
  endpoints per apply;
* **connected components** — the
  :class:`~repro.graphkit.components.IncrementalUnionFind` batch union;
* **core numbers** — traversal-bounded repair along the inserted edges
  (the classic streaming k-core result: one insertion raises any core
  number by at most 1, and only inside the touched subcore), falling
  back to the vectorized full peel
  (:func:`~repro.graphkit.kernels.core_numbers`) when the delta is large
  enough that per-edge repair would lose.

A delta that removes edges raises ``ValueError``: walks with removals
(the frame-to-frame series) recompute each snapshot instead, which
measured faster than maintaining state across mixed deltas.

**Maintained-state contract.** Every read
(:meth:`~IncrementalMeasures.degrees`,
:meth:`~IncrementalMeasures.core_numbers`, ...) is **bit-identical** to
the full-recompute twin (:func:`full_measures`) on the same snapshot,
for any sequence of insertion deltas and regardless of which internal
path (repair or forced full recompute) an apply took. Degree and
coreness are exact integer maintenance; weighted degree only ever adds
exact small floats; component labels are canonical (smallest member node
id), a pure function of the edge set. That purity is what lets the
sharded scan split a sweep at any prefix boundary and stay bit-identical.

Arrays returned by reads are immutable views that are never mutated in
place — an apply rebinds fresh arrays — so a caller may hold a read
across later applies and keep a consistent snapshot of *that* state.

See ``docs/ARCHITECTURE.md`` (*The incremental measure engine*) for
when a full recompute is forced.
"""

from __future__ import annotations

import numpy as np

from .components import IncrementalUnionFind, connected_components
from .csr import CSRDelta, CSRGraph
from .kernels import core_numbers

__all__ = [
    "IncrementalMeasures",
    "canonical_components",
    "full_measures",
]


def _empty_csr(n: int) -> CSRGraph:
    return CSRGraph(
        np.zeros(n + 1, dtype=np.int64),
        np.empty(0, dtype=np.int32),
        np.empty(0, dtype=np.float64),
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def canonical_components(g: CSRGraph) -> tuple[int, np.ndarray]:
    """Component count and canonical labels (smallest member node id).

    The full-recompute twin of the engine's maintained component state:
    scipy's compiled union-find, relabelled so every component is named
    by its smallest node. scipy assigns labels in first-occurrence order,
    so the first node carrying a label *is* the component's minimum — one
    ``unique`` pass canonicalizes.
    """
    count, raw = connected_components(g)
    if count == 0:
        return 0, np.empty(0, dtype=np.int64)
    _, first = np.unique(raw, return_index=True)
    return count, first[raw].astype(np.int64)


def full_measures(g: CSRGraph) -> dict[str, np.ndarray | int]:
    """All maintained quantities recomputed from scratch on one snapshot.

    The full-recompute twin every incremental read is pinned against:
    ``degrees`` / ``weighted_degrees`` straight off the CSR arrays,
    ``core_numbers`` via the vectorized bulk peel, ``components`` via
    :func:`canonical_components`.
    """
    count, labels = canonical_components(g)
    return {
        "degrees": g.degrees().astype(np.int64),
        "weighted_degrees": g.weighted_degrees(),
        "core_numbers": core_numbers(g),
        "component_count": count,
        "component_labels": labels,
    }


class IncrementalMeasures:
    """Maintained degree/coreness/component state across insertion deltas.

    Parameters
    ----------
    n:
        Number of nodes (fixed for the engine's lifetime).
    csr:
        Optional initial snapshot to seed from (default: empty graph).
        Must be unit-weight — deltas carry no weights, so the engine
        maintains strengths as +1.0 per incident edge.
    repair_threshold:
        Deltas touching at most this many edges repair core numbers by
        bounded traversal; larger deltas force the vectorized full peel
        (``None`` = auto: ``max(8, n // 16)``). Degree and component
        maintenance are vectorized and never fall back. The threshold
        only picks the cheaper *path* — results are bit-identical either
        way.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graphkit.csr import CSRDelta, CSRSnapshotBuffer, pack_edge_keys
    >>> buf = CSRSnapshotBuffer(4)
    >>> eng = IncrementalMeasures(4)
    >>> delta = CSRDelta(4, pack_edge_keys(4, [(0, 1), (1, 2), (0, 2)]),
    ...                  np.empty(0, dtype=np.int64))
    >>> eng.apply(delta, buf.apply(delta))
    >>> eng.core_numbers().tolist(), eng.component_count
    ([2, 2, 2, 0], 2)
    """

    __slots__ = (
        "_n",
        "_repair_threshold",
        "_csr",
        "_deg",
        "_wdeg",
        "_core",
        "_uf",
        "_adj",
    )

    def __init__(
        self,
        n: int,
        csr: CSRGraph | None = None,
        *,
        repair_threshold: int | None = None,
    ):
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self._n = int(n)
        self._repair_threshold = (
            max(8, self._n // 16) if repair_threshold is None else int(repair_threshold)
        )
        self.seed(_empty_csr(self._n) if csr is None else csr)

    # ------------------------------------------------------------------
    # seeding / full recompute
    # ------------------------------------------------------------------
    def seed(self, csr: CSRGraph) -> None:
        """(Re)initialize every maintained quantity from a snapshot.

        This is the forced-full-recompute path: it runs the exact twins
        of :func:`full_measures` and drops the traversal adjacency (which
        rebuilds lazily on the next bounded repair).

        Snapshots must be **unit-weight**: a :class:`CSRDelta` carries no
        weights, so maintained strengths grow by 1.0 per incident edge
        — seeding with arbitrary weights would silently diverge from the
        :func:`full_measures` twin, hence the explicit check here.
        """
        if csr.n != self._n:
            raise ValueError(f"snapshot has {csr.n} nodes, engine has {self._n}")
        if csr.nnz and not (csr.weights == 1.0).all():
            raise ValueError(
                "IncrementalMeasures maintains unit-weight snapshots only "
                "(CSRDelta carries no weights)"
            )
        self._csr = csr
        self._deg = csr.degrees().astype(np.int64)
        self._wdeg = csr.weighted_degrees()
        self._core = core_numbers(csr)
        count, labels = canonical_components(csr)
        self._uf = IncrementalUnionFind(self._n)
        if self._n:
            self._uf.seed(labels, count)
        self._adj = None

    # ------------------------------------------------------------------
    # reads (immutable views; applies rebind, never mutate in place)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def csr(self) -> CSRGraph:
        """The snapshot the maintained state currently reflects."""
        return self._csr

    @property
    def repair_threshold(self) -> int:
        """Max delta size repaired by bounded traversal (else full peel)."""
        return self._repair_threshold

    def degrees(self) -> np.ndarray:
        """Maintained per-node degree (int64, read-only view)."""
        return _frozen(self._deg)

    def weighted_degrees(self) -> np.ndarray:
        """Maintained per-node strength (float64, read-only view)."""
        return _frozen(self._wdeg)

    def core_numbers(self) -> np.ndarray:
        """Maintained per-node coreness (int64, read-only view)."""
        return _frozen(self._core)

    def max_core_number(self) -> int:
        """Degeneracy of the current graph."""
        return int(self._core.max()) if self._n else 0

    @property
    def component_count(self) -> int:
        """Maintained number of connected components."""
        return self._uf.count

    def component_labels(self) -> np.ndarray:
        """Maintained canonical component labels (read-only view)."""
        return self._uf.labels

    # ------------------------------------------------------------------
    # the delta entry point
    # ------------------------------------------------------------------
    def apply(self, delta: CSRDelta, csr: CSRGraph) -> None:
        """Advance the maintained state across one insertion-only delta.

        ``csr`` must be the post-delta snapshot (what
        :meth:`~repro.graphkit.csr.CSRSnapshotBuffer.apply` returned for
        the same delta); the engine keeps it as the state's snapshot of
        record and full-peels it when repair would lose. A delta with
        ``remove_keys`` raises ``ValueError`` and leaves the state as it
        was.
        """
        if delta.n != self._n or csr.n != self._n:
            raise ValueError("delta/snapshot node count does not match the engine")
        if delta.removed:
            raise ValueError(
                "IncrementalMeasures applies insertion-only deltas; "
                "recompute with full_measures() after edge removals"
            )
        if delta.total == 0:
            self._csr = csr
            return
        added, _ = delta.edges()

        # Degrees: one bincount over the inserted endpoints.
        deg_shift = np.bincount(added.ravel(), minlength=self._n)
        self._deg = self._deg + deg_shift
        self._wdeg = self._wdeg + deg_shift.astype(np.float64)

        # Components: insertions fold through the batch union on
        # canonical labels, so the result is a pure function of the edge
        # set.
        self._uf.union_edges(added)

        # Core numbers: bounded per-edge repair for small deltas, the
        # vectorized full peel otherwise. Both are exact, so the policy
        # is invisible in results. A repair that starts touching too much
        # of the graph (dense regions where a candidate walk approaches
        # peel cost) also bails out to the peel mid-batch.
        if delta.total > self._repair_threshold:
            self._core = core_numbers(csr)
            self._adj = None  # rebuilt lazily on the next bounded repair
        elif not self._repair_cores(added):
            # Aborted mid-batch: the adjacency mirror was still advanced
            # to the post-delta state, only the core repair is redone.
            self._core = core_numbers(csr)
        self._csr = csr

    # ------------------------------------------------------------------
    # traversal-bounded k-core repair (streaming k-core maintenance)
    # ------------------------------------------------------------------
    def _ensure_adj(self) -> list[set[int]]:
        """Set-of-neighbours mirror of the *pre-delta* snapshot (lazy).

        Only materialized when a bounded repair actually runs: scans with
        large per-step deltas keep taking the full-peel path and never
        pay the O(m) build.
        """
        if self._adj is None:
            csr = self._csr
            self._adj = [
                set(csr.neighbors(u).tolist()) for u in range(self._n)
            ]
        return self._adj

    def _repair_cores(self, added: np.ndarray) -> bool:
        """Per-edge core repair; False = aborted (caller must full-peel).

        The abort budget bounds how much of the graph one batch may walk:
        once a repair's candidate exploration crosses it, finishing with
        the vectorized peel is cheaper than continuing edge by edge. The
        adjacency mirror is always advanced to the post-delta state so a
        later bounded repair can pick up where this batch left off.
        """
        adj = self._ensure_adj()
        core = self._core.tolist()
        budget = max(64, 4 * self._repair_threshold)
        aborted = False
        for u, v in added.tolist():
            adj[u].add(v)
            adj[v].add(u)
            if not aborted:
                aborted = not self._repair_insertion(core, adj, u, v, budget)
        if not aborted:
            self._core = np.asarray(core, dtype=np.int64)
        return not aborted

    @staticmethod
    def _repair_insertion(
        core: list[int], adj: list[set[int]], u: int, v: int, budget: int
    ) -> bool:
        """Repair after inserting ``(u, v)`` (edge already in ``adj``).

        One insertion raises core numbers by at most 1, and only inside
        the *purecore* of the lower endpoint: promoted vertices form a
        connected set through the inserted edge, and a vertex can only
        be promoted if its support — neighbours of coreness ``>= k``,
        ``k = min(core[u], core[v])`` — exceeds ``k``. So the walk
        collects coreness-``k`` vertices reachable from the root through
        vertices satisfying that support bound (non-promotable vertices
        cannot carry promotion), then runs the classic eviction loop on
        candidate degrees (neighbours already above ``k`` plus surviving
        candidates); survivors rise to ``k + 1``.

        Returns False — leaving ``core`` untouched — when the candidate
        walk sees more than ``budget`` vertices: the caller then finishes
        the batch with the vectorized full peel instead.
        """
        k = min(core[u], core[v])
        root = u if core[u] <= core[v] else v

        def support_exceeds_k(x: int) -> bool:
            s = 0
            for y in adj[x]:
                if core[y] >= k:
                    s += 1
                    if s > k:
                        return True
            return False

        candidates = {root}
        seen = {root}
        stack = [root]
        while stack:
            for w in adj[stack.pop()]:
                if core[w] == k and w not in seen:
                    seen.add(w)
                    if support_exceeds_k(w):
                        candidates.add(w)
                        stack.append(w)
            if len(seen) > budget:
                return False
        cd = {}
        evict = []
        for x in candidates:
            c = 0
            for w in adj[x]:
                if core[w] > k or w in candidates:
                    c += 1
            cd[x] = c
            if c <= k:
                evict.append(x)
        while evict:
            x = evict.pop()
            if x not in candidates:
                continue
            candidates.discard(x)
            for w in adj[x]:
                if w in candidates:
                    cd[w] -= 1
                    if cd[w] <= k:
                        evict.append(w)
        for x in candidates:
            core[x] = k + 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalMeasures(n={self._n}, m={self._csr.m}, "
            f"components={self.component_count}, "
            f"degeneracy={self.max_core_number()})"
        )
