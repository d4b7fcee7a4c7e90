"""Maxent-Stress graph layout (Gansner-Hu-North 2012; Wegner et al. 2017).

This is the layout the paper's widget recomputes on every cut-off or frame
switch (Listing 1: ``nk.viz.MaxentStress(G, 3, 3)``). The model minimizes

.. math::

    H(x) = \\sum_{\\{i,j\\} \\in S} w_{ij}\\,(\\lVert x_i - x_j\\rVert - d_{ij})^2
           \\; - \\; \\alpha \\sum_{\\{i,j\\} \\notin S} \\ln \\lVert x_i - x_j \\rVert

where ``S`` contains node pairs with known target distances (graph
neighbourhoods up to ``k`` hops) and the entropy term keeps unknown pairs
apart. We use the local iteration of Gansner et al. with geometric
α-annealing, fully vectorized over arcs. The entropy gradient has two
engines: sampled repulsion (O(n·q) per sweep; the historical default) and
a Barnes-Hut octree (:mod:`~repro.graphkit.layout.bhtree`, O(n log n) per
sweep over *all* unknown pairs — the analog of NetworKit's
well-separated pair decomposition); ``impl="auto"`` switches to the tree
at :data:`BARNES_HUT_THRESHOLD` nodes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..csr import CSRGraph
from ..graph import Graph
from ..kernels import batched_bfs_distances, source_blocks
from .bhtree import BarnesHutTree

__all__ = [
    "MaxentStress",
    "maxent_stress_layout",
    "maxent_stress_value",
    "BARNES_HUT_THRESHOLD",
    "WARM_START_ALPHA",
]

_EPS = 1e-9
#: Entropy weight a warm-started solve resumes its anneal at (when the
#: requested ``alpha`` is larger): a near-converged embedding, such as the
#: previous slider event's layout, must not be re-heated to α = 1.
WARM_START_ALPHA = 0.05
#: ``impl="auto"`` switches from the sampled estimator to Barnes-Hut at
#: this node count: below it the O(n·q) sampled sweep is cheaper than a
#: tree build + evaluation; above it the O(n²)-equivalent variance of
#: sampling (and the cost of raising q to compensate) loses to the
#: O(n log n) tree.
BARNES_HUT_THRESHOLD = 4096
#: ``"sampled"`` is the vectorized sampled-repulsion engine;
#: ``"barnes_hut"`` replaces sampling with theta-gated
#: tree-approximated repulsion over *all* unknown pairs; ``"auto"`` picks
#: by node count (:data:`BARNES_HUT_THRESHOLD`).
_IMPLEMENTATIONS = ("auto", "barnes_hut", "sampled", "reference")

# Per-sweep displacement cap for the Barnes-Hut engine, in units of the
# layout scale (mean target distance). Large enough that legitimate
# majorization moves are never touched; small enough to stop the
# singular-gradient teleports described at the use site.
_BH_STEP_SCALES = 100.0


def _resolve_impl(impl: str, n: int) -> str:
    if impl not in _IMPLEMENTATIONS:
        raise ValueError(f"impl must be one of {_IMPLEMENTATIONS}, got {impl!r}")
    if impl == "auto":
        return "barnes_hut" if n >= BARNES_HUT_THRESHOLD else "sampled"
    return impl


def _khop_pairs_reference(
    csr: CSRGraph, k: int, max_pairs_per_node: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar truncated-BFS discovery of the 2..k-hop pairs (per node)."""
    n = csr.n
    extra_t: list[int] = []
    extra_h: list[int] = []
    extra_d: list[float] = []
    for u in range(n):
        # Truncated BFS: stop at depth k.
        seen = {u: 0}
        frontier = [u]
        depth = 0
        budget = max_pairs_per_node
        while frontier and depth < k and budget > 0:
            depth += 1
            nxt = []
            for x in frontier:
                for v in csr.neighbors(x):
                    v = int(v)
                    if v not in seen:
                        seen[v] = depth
                        nxt.append(v)
                        if depth >= 2 and budget > 0:
                            extra_t.append(u)
                            extra_h.append(v)
                            extra_d.append(float(depth))
                            budget -= 1
            frontier = nxt
    return (
        np.asarray(extra_t, dtype=np.int64),
        np.asarray(extra_h, dtype=np.int64),
        np.asarray(extra_d, dtype=np.float64),
    )


def _khop_pairs_vectorized(
    csr: CSRGraph, k: int, max_pairs_per_node: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched depth-capped BFS discovery of the 2..k-hop pairs.

    Multi-source BFS truncated at depth ``k``, processed in source blocks
    so peak memory stays O(block × n) rather than a dense (n, n) matrix;
    a node's pairs live entirely within its block, so the per-node budget
    (keep the lowest (depth, head) pairs, mirroring the reference
    heuristic's breadth-first preference) applies per block.
    """
    n = csr.n
    out_t: list[np.ndarray] = []
    out_h: list[np.ndarray] = []
    out_d: list[np.ndarray] = []
    for lo, hi in source_blocks(0, n, n):
        dist = batched_bfs_distances(csr, np.arange(lo, hi), max_depth=k)
        t, h = np.nonzero((dist >= 2) & (dist <= k))
        if len(t) == 0:
            continue
        d = dist[t, h].astype(np.float64)
        # Per-tail budget: keep the lowest (depth, head) pairs of each node.
        order = np.lexsort((h, d, t))
        t, h, d = t[order], h[order], d[order]
        starts = np.flatnonzero(np.concatenate([[True], t[1:] != t[:-1]]))
        run_lengths = np.diff(np.concatenate([starts, [len(t)]]))
        # Rank within each tail's run: position minus the run's start.
        rank = np.arange(len(t)) - np.repeat(starts, run_lengths)
        keep = rank < max_pairs_per_node
        out_t.append(t[keep].astype(np.int64) + lo)
        out_h.append(h[keep].astype(np.int64))
        out_d.append(d[keep])
    if not out_t:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    return np.concatenate(out_t), np.concatenate(out_h), np.concatenate(out_d)


def _known_pairs(
    csr: CSRGraph, k: int, max_pairs_per_node: int, *, impl: str = "vectorized"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arc list (tails, heads, target distance) for the ≤ k-hop pairs.

    k=1 returns the plain (symmetric) edge arcs with d = edge weight; for
    k>1 each node additionally pins up to ``max_pairs_per_node`` nodes at
    hop distance ≤ k (breadth-first truncated), with d = hop count.  The
    arc list contains both directions of every pair so per-node reductions
    are single bincount calls.

    The two engines agree exactly whenever the per-node budget does not
    bind. When it does bind, they intentionally truncate differently —
    reference keeps BFS discovery order, vectorized keeps the lowest
    (depth, head) pairs — so differential layout tests must use graphs
    whose 2..k-hop neighbourhoods stay within the budget.
    """
    n = csr.n
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    tails = [rows]
    heads = [csr.indices.astype(np.int64)]
    dists = [np.maximum(csr.weights, _EPS)]
    if k > 1:
        khop = (
            _khop_pairs_reference if impl == "reference" else _khop_pairs_vectorized
        )
        extra_t, extra_h, extra_d = khop(csr, k, max_pairs_per_node)
        if len(extra_t):
            tails.append(extra_t)
            heads.append(extra_h)
            dists.append(extra_d)
    return np.concatenate(tails), np.concatenate(heads), np.concatenate(dists)


def maxent_stress_layout(
    g: Graph | CSRGraph,
    dim: int = 3,
    k: int = 1,
    *,
    alpha: float = 1.0,
    alpha_min: float = 0.008,
    alpha_decay: float = 0.5,
    iterations_per_alpha: int = 12,
    repulsion_samples: int = 8,
    repulsion_theta: float = 0.8,
    tol: float = 1e-4,
    seed: int | None = 42,
    initial: np.ndarray | None = None,
    impl: str = "auto",
    cancel: Callable[[], bool] | None = None,
) -> np.ndarray:
    """Compute an ``(n, dim)`` Maxent-Stress embedding.

    Parameters
    ----------
    g:
        Undirected graph.
    dim:
        Embedding dimension (3 for the RIN widget).
    k:
        Neighbourhood radius for known-distance pairs.
    alpha / alpha_min / alpha_decay:
        Entropy weight annealing schedule (matches NetworKit defaults in
        spirit: α halves until 0.008). A cold solve starts at ``alpha``;
        a warm solve (``initial`` given) starts at
        ``min(alpha, WARM_START_ALPHA)``, so with the defaults it runs 4
        of the 8 stages.
    iterations_per_alpha:
        Local-iteration sweeps per annealing stage.
    repulsion_samples:
        Sampled far-pairs per node per sweep (q), used by the sampled
        engine only. 0 disables the entropy term (classic sparse stress)
        in *every* engine, Barnes-Hut included.
    repulsion_theta:
        Barnes-Hut opening angle (``impl="barnes_hut"`` only): smaller is
        more accurate and more expensive; the approximation error is
        bounded by :func:`~repro.graphkit.layout.bhtree.force_error_bound`.
    tol:
        Ends the current annealing stage early when the mean displacement
        of a sweep falls below ``tol × layout scale``; the solve goes on
        with the next stage, so ``tol`` never skips the schedule.
    initial:
        Warm-start coordinates, e.g. the previous frame's layout. The
        anneal resumes at :data:`WARM_START_ALPHA` instead of re-heating
        them, which halves the sweeps of a widget frame or cut-off switch.
    impl:
        ``"auto"`` (default) picks ``"barnes_hut"`` at or above
        :data:`BARNES_HUT_THRESHOLD` nodes and ``"sampled"`` below it.
        ``"sampled"`` uses batched BFS for pair discovery, bincount scatter-adds, and the
        sampled repulsion estimator; ``"barnes_hut"`` shares those sweep
        kernels but evaluates the entropy gradient over *all* unknown
        pairs through a theta-gated octree — deterministic (no sampling
        noise) and bounded-error rather than bit-identical to the exact
        sum. ``"reference"`` uses per-node BFS and ``np.add.at`` — same
        model, naive kernels.
    cancel:
        Optional zero-argument callable polled once per local-iteration
        sweep (solver-iteration granularity). When it returns True the
        solve stops early and the *partial* coordinates are returned —
        the async update pipeline uses this to abandon a stale slider
        event while keeping the partial embedding as the next warm start.
    """
    csr = g.csr()
    n = csr.n
    impl = _resolve_impl(impl, n)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n == 0:
        return np.zeros((0, dim))
    rng = np.random.default_rng(seed)
    if initial is not None:
        x = np.array(initial, dtype=np.float64, copy=True)
        if x.shape != (n, dim):
            raise ValueError(f"initial layout must be ({n}, {dim}), got {x.shape}")
    else:
        x = rng.standard_normal((n, dim))
    if csr.nnz == 0:
        return x  # nothing to optimize against

    tails, heads, d_target = _known_pairs(
        csr, max(1, k), max_pairs_per_node=24, impl=impl
    )
    w = 1.0 / np.maximum(d_target, _EPS) ** 2
    rho = np.maximum(np.bincount(tails, weights=w, minlength=n), _EPS)
    rho_col = rho[:, None]
    q = min(repulsion_samples, n - 1)
    # Sampled-repulsion scale: sample mean → the (n - 1 - deg) unknown pairs.
    unknown_per_sample = np.maximum(n - 1 - csr.degrees(), 0)[:, None] / max(q, 1)

    if impl == "reference":
        def scatter(contrib: np.ndarray) -> np.ndarray:
            agg = np.zeros((n, dim))
            np.add.at(agg, tails, contrib)
            return agg

        def attraction(x: np.ndarray):
            diff = x[tails] - x[heads]  # (nnz, dim)
            dist = np.linalg.norm(diff, axis=1)
            np.maximum(dist, _EPS, out=dist)
            # Attraction toward the target sphere around each neighbour.
            coeff = (w * d_target / dist)[:, None]
            return diff, dist, scatter(w[:, None] * x[heads] + coeff * diff)
    else:
        # Fused sweep: every per-arc constant is hoisted out of the loop,
        # x[heads] is gathered once, and the segment scatter is a single
        # compiled bincount over all axes (arc e, axis c lands in flat bin
        # tails[e] * dim + c) instead of one per axis or np.add.at.
        flat = (tails[:, None] * dim + np.arange(dim)).ravel()
        w_col = w[:, None]
        wd = w * d_target

        def scatter(contrib: np.ndarray) -> np.ndarray:
            agg = np.bincount(flat, weights=contrib.ravel(), minlength=n * dim)
            return agg.reshape(n, dim)

        def attraction(x: np.ndarray):
            xh = x[heads]
            diff = x[tails] - xh
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            np.maximum(dist, _EPS, out=dist)
            return diff, dist, scatter(w_col * xh + (wd / dist)[:, None] * diff)

    a = float(alpha) if initial is None else min(float(alpha), WARM_START_ALPHA)
    scale = float(np.mean(d_target))
    while True:
        for _ in range(iterations_per_alpha):
            if cancel is not None and cancel():
                return x
            diff, dist, agg = attraction(x)

            if repulsion_samples > 0 and a > 0.0 and n > 1:
                if impl == "barnes_hut":
                    # All-pairs repulsion through the theta-gated tree,
                    # minus the exact contribution of the known (stress)
                    # arcs so the entropy gradient covers precisely the
                    # unknown pairs. Deterministic: no rng draw here, so
                    # warm-started re-solves are reproducible.
                    rep = BarnesHutTree(x).repulsion(repulsion_theta)
                    rep -= scatter(diff / np.maximum(dist * dist, _EPS)[:, None])
                else:
                    far = rng.integers(0, n, size=(n, q))
                    rdiff = x[:, None, :] - x[far]  # (n, q, dim)
                    rdist2 = np.einsum("ijk,ijk->ij", rdiff, rdiff)
                    np.maximum(rdist2, _EPS, out=rdist2)
                    rep = (rdiff / rdist2[:, :, None]).sum(axis=1)
                    rep *= unknown_per_sample
                x_new = agg / rho_col + (a / rho)[:, None] * rep
                if impl == "barnes_hut":
                    # Trust region. The entropy gradient is unbounded for
                    # pair-free nodes (rho floored to _EPS turns the
                    # repulsion term into a ~1/_EPS kick) and near-singular
                    # at coincident points, both of which stress-majorized
                    # warm starts produce in bulk: one uncapped sweep can
                    # teleport such nodes nine orders of magnitude out,
                    # wrecking the embedding and collapsing the octree to a
                    # handful of cells (its O(n log n) evaluation degrades
                    # to O(n²)). The cap is deterministic, so warm-started
                    # re-solves stay bit-identical.
                    step = x_new - x
                    norm = np.linalg.norm(step, axis=1)
                    limit = _BH_STEP_SCALES * max(scale, _EPS)
                    hot = norm > limit
                    if hot.any():
                        shrink = np.where(hot, limit / np.maximum(norm, _EPS), 1.0)
                        x_new = x + step * shrink[:, None]
            else:
                x_new = agg / rho_col

            move = float(np.linalg.norm(x_new - x, axis=1).mean())
            x = x_new
            if move < tol * max(scale, _EPS):
                break
        if a <= alpha_min or repulsion_samples == 0:
            break
        a = max(a * alpha_decay, alpha_min)
    return x


def maxent_stress_value(
    g: Graph | CSRGraph, coords: np.ndarray, k: int = 1
) -> float:
    """The stress term of the maxent objective at ``coords``.

    ``Σ w_ij (‖x_i - x_j‖ - d_ij)²`` over the known-pair arc list (both
    directions of every pair, so each pair counts twice — only ratios
    between layouts of the same graph are meaningful). This is the
    quality metric the layout benchmarks compare engines at: two layouts
    are "matched" when their stress values agree within tolerance.
    """
    csr = g.csr()
    x = np.asarray(coords, dtype=np.float64)
    if x.shape[0] != csr.n:
        raise ValueError(f"coords must have {csr.n} rows, got {x.shape[0]}")
    if csr.nnz == 0:
        return 0.0
    tails, heads, d_target = _known_pairs(csr, max(1, k), max_pairs_per_node=24)
    w = 1.0 / np.maximum(d_target, _EPS) ** 2
    dist = np.linalg.norm(x[tails] - x[heads], axis=1)
    return float((w * (dist - d_target) ** 2).sum())


class MaxentStress:
    """NetworKit-style runner: ``MaxentStress(G, 3, 3).run().getCoordinates()``.

    Parameters mirror :func:`maxent_stress_layout`; ``dim`` and ``k`` are
    positional to match the paper's Listing 1 call signature.
    """

    def __init__(
        self,
        g: Graph | CSRGraph,
        dim: int = 3,
        k: int = 1,
        *,
        seed: int | None = 42,
        initial: np.ndarray | None = None,
        impl: str = "auto",
        **kwargs,
    ):
        self._g = g
        self._dim = dim
        self._k = k
        self._seed = seed
        self._initial = initial
        self._kwargs = dict(kwargs, impl=impl)
        self._coords: np.ndarray | None = None

    def run(self) -> "MaxentStress":
        """Compute the embedding."""
        self._coords = maxent_stress_layout(
            self._g,
            self._dim,
            self._k,
            seed=self._seed,
            initial=self._initial,
            **self._kwargs,
        )
        return self

    def getCoordinates(self) -> np.ndarray:  # noqa: N802 - NetworKit naming
        """The ``(n, dim)`` coordinates; requires :meth:`run`."""
        if self._coords is None:
            raise RuntimeError("call run() first")
        return self._coords

    def get_coordinates(self) -> np.ndarray:
        """PEP8 alias of :meth:`getCoordinates`."""
        return self.getCoordinates()
