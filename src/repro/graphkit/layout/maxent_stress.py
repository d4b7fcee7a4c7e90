"""Maxent-Stress graph layout (Gansner-Hu-North 2013; Wegner et al. 2017).

This is the layout the paper's widget recomputes on every cut-off or frame
switch (Listing 1: ``nk.viz.MaxentStress(G, 3, 3)``). The model minimizes

.. math::

    H(x) = \\sum_{\\{i,j\\} \\in S} w_{ij}\\,(\\lVert x_i - x_j\\rVert - d_{ij})^2
           \\; - \\; \\alpha \\sum_{\\{i,j\\} \\notin S} \\ln \\lVert x_i - x_j \\rVert

where ``S`` contains node pairs with known target distances (graph
neighbourhoods up to ``k`` hops) and the entropy term keeps unknown pairs
apart. Every outer iteration majorizes the stress term and solves the
weighted-Laplacian system ``L_w x = L_{w,d}(x) x + α·rep(x)``, under
geometric α-annealing. Three engines solve it:

* ``"laplacian"`` follows Gansner et al. and NetworKit: a dense Cholesky
  factor of ``L_w``, grounded at one node per connected component and
  built once per call, solves the system exactly, with the exact entropy
  gradient over all unknown pairs. It draws nothing from the rng after
  the cold start, so a warm re-solve is reproducible bit for bit.
* ``"sampled"`` replaces the solve with one Jacobi sweep,
  ``x_i ← (Σ_j …)/ρ_i``, and the entropy gradient with q sampled pairs
  per node (O(n·q) per sweep).
* ``"barnes_hut"`` runs the same sweeps with a Barnes-Hut octree
  (:mod:`~repro.graphkit.layout.bhtree`, O(n log n) per sweep over *all*
  unknown pairs — the analog of NetworKit's well-separated pair
  decomposition).

``impl="auto"`` picks the dense engine up to :data:`LAPLACIAN_THRESHOLD`
nodes, the tree from :data:`BARNES_HUT_THRESHOLD`, and sampling between.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf as _potrf, dpotrs as _potrs

from ..components import connected_components
from ..csr import CSRGraph
from ..graph import Graph
from ..kernels import batched_bfs_distances, source_blocks
from .bhtree import BarnesHutTree

__all__ = [
    "MaxentStress",
    "maxent_stress_layout",
    "maxent_stress_value",
    "maxent_stress_engine",
    "BARNES_HUT_THRESHOLD",
    "LAPLACIAN_THRESHOLD",
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
#: ``impl="auto"`` solves with the dense ``"laplacian"`` engine at or below
#: this node count. A warm solve beats the sampled engine's at 256 nodes
#: on random geometric and RIN-like graphs (1.2-2.3x in three runs), wins
#: on one family and loses on the other at 384, and loses on both from 512
#: (x86_64, 1 BLAS thread): the O(n³) factor and the O(n²) repulsion per
#: solve outgrow the sweeps.
LAPLACIAN_THRESHOLD = 256
#: ``"laplacian"`` is the dense grounded-Cholesky engine with exact
#: repulsion; ``"sampled"`` is the Jacobi-sweep engine with sampled
#: repulsion; ``"barnes_hut"`` replaces sampling with theta-gated
#: tree-approximated repulsion over *all* unknown pairs; ``"auto"`` picks
#: by node count (:func:`maxent_stress_engine`).
_IMPLEMENTATIONS = ("auto", "laplacian", "barnes_hut", "sampled", "reference")

# Per-sweep displacement cap for the Barnes-Hut engine, in units of the
# layout scale (mean target distance). Large enough that legitimate
# majorization moves are never touched; small enough to stop the
# singular-gradient teleports described at the use site.
_BH_STEP_SCALES = 100.0


def maxent_stress_engine(n: int, impl: str = "auto") -> str:
    """The engine ``maxent_stress_layout(impl=impl)`` runs on ``n`` nodes."""
    if impl not in _IMPLEMENTATIONS:
        raise ValueError(f"impl must be one of {_IMPLEMENTATIONS}, got {impl!r}")
    if impl == "auto":
        if n <= LAPLACIAN_THRESHOLD:
            return "laplacian"
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


class _GroundedLaplacian:
    """The dense weighted-Laplacian system of one ``"laplacian"`` solve.

    Built once per call from the known-pair arcs: ``W∘D`` as a dense
    symmetric matrix (``W = (W∘D)²`` since ``w = 1/d²``), the unknown-pair
    mask, and the Cholesky factor of ``L_w`` grounded at one node per
    connected component (the component's first node gets +1 on its
    diagonal, which removes the component's null vector). Every n × n
    array dies with the instance.
    """

    def __init__(
        self,
        csr: CSRGraph,
        dim: int,
        tails: np.ndarray,
        heads: np.ndarray,
        d_target: np.ndarray,
        scale: float,
    ):
        n = csr.n
        wd = np.zeros((n, n))
        wd[tails, heads] = 1.0 / np.maximum(d_target, _EPS)
        # k-hop budgets can pin a pair from one side only; a pair known
        # to either node is known to both, so L_w is symmetric.
        np.maximum(wd, wd.T, out=wd)
        np.fill_diagonal(wd, 0.0)
        self.wd = wd
        self.unknown = (wd == 0.0).astype(np.float64)
        np.fill_diagonal(self.unknown, 0.0)
        lap = np.negative(wd * wd)
        rho = -lap.sum(axis=1)

        n_comp, labels = connected_components(csr)
        roots = np.unique(labels, return_index=True)[1]
        lap[np.diag_indices(n)] = rho
        lap[roots, roots] += 1.0
        # LAPACK potrf/potrs directly: scipy's cho_factor/cho_solve run
        # the same routines behind argument checks that cost as much as
        # the 73-node solve itself.
        self.chol, info = _potrf(lap, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"grounded L_w is singular (info {info})")

        self.labels = labels
        self.size = np.bincount(labels, minlength=n_comp)[:, None]
        self._flat = (labels[:, None] * dim + np.arange(dim)).ravel()
        # A pair-free node (rho = 0) drifts as if it held one known pair
        # at the layout scale; dividing its repulsion by a floored rho
        # would kick it ~1/_EPS scales out in one solve.
        self.rho = np.where(rho > 0.0, rho, 1.0 / max(scale, _EPS) ** 2)[:, None]
        self.rho_comp = self.component_sum(np.repeat(self.rho, dim, axis=1))
        # Work buffers of rhs(): [-2x | 1 | |x|²] · [x | |x|² | 1]ᵀ gives
        # the squared distances in one matmul and k · [x | 1] gives k·x
        # with k's row sums in another.
        self._left = np.ones((n, dim + 2))
        self._right = np.ones((dim + 2, n))
        self._inv2 = np.empty((n, n))
        self._k = np.empty((n, n))

    def component_sum(self, v: np.ndarray) -> np.ndarray:
        """Per-component column sums of an ``(n, dim)`` array."""
        sums = np.bincount(self._flat, weights=v.ravel())
        return sums.reshape(len(self.size), v.shape[1])

    def rhs(self, x: np.ndarray, a: float) -> np.ndarray:
        """``b(x) = L_{w,d}(x)·x + a·rep(x)``, rep over all unknown pairs."""
        dim = x.shape[1]
        left, right = self._left, self._right
        # Shifted to node 0, the Gram matrix loses no digits to the
        # layout's offset from the origin.
        xc = x - x[0]
        sq = np.einsum("ij,ij->i", xc, xc)
        np.multiply(xc, -2.0, out=left[:, :dim])
        left[:, dim + 1] = sq
        right[:dim] = xc.T
        right[dim] = sq
        inv2 = np.matmul(left, right, out=self._inv2)
        np.maximum(inv2, _EPS, out=inv2)
        np.reciprocal(inv2, out=inv2)
        # Both terms are Σ_j k_ij (x_i - x_j): stress k = w d / dist on the
        # known pairs, entropy k = a / dist² on the unknown ones.
        k = np.sqrt(inv2, out=self._k)
        k *= self.wd
        if a > 0.0:
            inv2 *= self.unknown
            inv2 *= a
            k += inv2
        left[:, :dim] = x
        kx = k @ left[:, : dim + 1]
        return kx[:, dim:] * x - kx[:, :dim]

    def step(self, x: np.ndarray, a: float) -> np.ndarray:
        """One outer iteration: solve ``L_w y = b_proj(x)``, then translate.

        ``b_proj`` is ``b`` minus its per-component mean, which puts it in
        the range of ``L_w``; ``y`` then fixes each component's shape only
        (its root sits at the origin). The projected-out sum of ``b``
        moves the component's rho-weighted centroid by the Jacobi rule
        ``Σ_C b / Σ_C rho``, which is how disconnected components drift
        apart under the entropy term.
        """
        b = self.rhs(x, a)
        b_sum = self.component_sum(b)
        b -= (b_sum / self.size)[self.labels]
        y, _ = _potrs(self.chol, b, lower=1)
        shift = (self.component_sum(self.rho * (x - y)) + b_sum) / self.rho_comp
        return y + shift[self.labels]


def maxent_stress_layout(
    g: Graph | CSRGraph,
    dim: int = 3,
    k: int = 1,
    *,
    alpha: float = 1.0,
    alpha_min: float = 0.008,
    alpha_decay: float = 0.5,
    iterations_per_alpha: int | None = None,
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
        of the 8 stages. ``alpha_min`` must be positive and
        ``alpha_decay`` in (0, 1), or the anneal never ends.
    iterations_per_alpha:
        Outer iterations per annealing stage: Laplacian solves for
        ``"laplacian"``, local Jacobi sweeps for the other engines.
        None (default) means 3 solves or 12 sweeps.
    repulsion_samples:
        Sampled far-pairs per node per sweep (q), used by the sampled
        engine only. 0 disables the entropy term (classic sparse stress)
        in *every* engine.
    repulsion_theta:
        Barnes-Hut opening angle (``impl="barnes_hut"`` only): smaller is
        more accurate and more expensive; the approximation error is
        bounded by :func:`~repro.graphkit.layout.bhtree.force_error_bound`.
    tol:
        Ends the current annealing stage early when the mean displacement
        of an iteration falls below ``tol × layout scale``; the solve goes
        on with the next stage, so ``tol`` never skips the schedule.
    initial:
        Warm-start coordinates, e.g. the previous frame's layout; they
        must be finite. The anneal resumes at :data:`WARM_START_ALPHA`
        instead of re-heating them, which halves the iterations of a
        widget frame or cut-off switch.
    impl:
        ``"auto"`` (default) picks ``"laplacian"`` at or below
        :data:`LAPLACIAN_THRESHOLD` nodes, ``"barnes_hut"`` at or above
        :data:`BARNES_HUT_THRESHOLD` and ``"sampled"`` between.
        ``"laplacian"`` solves each outer iteration exactly with a dense
        grounded Cholesky factor and exact repulsion (O(n³) once, O(n²)
        per solve; deterministic). ``"sampled"`` uses batched BFS for
        pair discovery, bincount scatter-adds, and the sampled repulsion
        estimator; ``"barnes_hut"`` shares those sweep kernels but
        evaluates the entropy gradient over *all* unknown pairs through a
        theta-gated octree — deterministic (no sampling noise) and
        bounded-error rather than bit-identical to the exact sum.
        ``"reference"`` uses per-node BFS and ``np.add.at`` — the sampled
        engine's model on naive kernels.
    cancel:
        Optional zero-argument callable polled once per outer iteration
        (solver-iteration granularity). When it returns True the solve
        stops early and the *partial* coordinates are returned — the
        async update pipeline uses this to abandon a stale slider event
        while keeping the partial embedding as the next warm start.
    """
    csr = g.csr()
    n = csr.n
    impl = maxent_stress_engine(n, impl)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 0.0 < alpha_decay < 1.0:
        raise ValueError(f"alpha_decay must be in (0, 1), got {alpha_decay}")
    if not alpha_min > 0.0:
        raise ValueError(f"alpha_min must be > 0, got {alpha_min}")
    if n == 0:
        return np.zeros((0, dim))
    rng = np.random.default_rng(seed)
    if initial is not None:
        x = np.array(initial, dtype=np.float64, copy=True)
        if x.shape != (n, dim):
            raise ValueError(f"initial layout must be ({n}, {dim}), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("initial layout must be finite")
    else:
        x = rng.standard_normal((n, dim))
    if csr.nnz == 0:
        return x  # nothing to optimize against
    if iterations_per_alpha is None:
        # An exact solve moves as far as many local Jacobi sweeps.
        iterations_per_alpha = 3 if impl == "laplacian" else 12

    tails, heads, d_target = _known_pairs(
        csr, max(1, k), max_pairs_per_node=24, impl=impl
    )
    scale = float(np.mean(d_target))
    entropy = repulsion_samples > 0

    if impl == "laplacian":
        iterate = _GroundedLaplacian(csr, dim, tails, heads, d_target, scale).step
    else:
        iterate = _sweep(
            csr, dim, tails, heads, d_target, scale, impl, rng,
            repulsion_samples, repulsion_theta,
        )

    a = float(alpha) if initial is None else min(float(alpha), WARM_START_ALPHA)
    while True:
        for _ in range(iterations_per_alpha):
            if cancel is not None and cancel():
                return x
            x_new = iterate(x, a if entropy else 0.0)
            move = float(np.linalg.norm(x_new - x, axis=1).mean())
            x = x_new
            if move < tol * max(scale, _EPS):
                break
        if a <= alpha_min or not entropy:
            break
        a = max(a * alpha_decay, alpha_min)
    return x


def _sweep(
    csr: CSRGraph,
    dim: int,
    tails: np.ndarray,
    heads: np.ndarray,
    d_target: np.ndarray,
    scale: float,
    impl: str,
    rng: np.random.Generator,
    repulsion_samples: int,
    repulsion_theta: float,
) -> Callable[[np.ndarray, float], np.ndarray]:
    """The outer iteration of the sweep engines: one local Jacobi sweep
    ``x_i ← (Σ_j …)/ρ_i``, with sampled or Barnes-Hut repulsion."""
    n = csr.n
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

    def sweep(x: np.ndarray, a: float) -> np.ndarray:
        diff, dist, agg = attraction(x)
        if a <= 0.0 or n <= 1:
            return agg / rho_col
        if impl == "barnes_hut":
            # All-pairs repulsion through the theta-gated tree, minus the
            # exact contribution of the known (stress) arcs so the entropy
            # gradient covers precisely the unknown pairs. Deterministic:
            # no rng draw here, so warm-started re-solves are reproducible.
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
            # Trust region. The entropy gradient is unbounded for pair-free
            # nodes (rho floored to _EPS turns the repulsion term into a
            # ~1/_EPS kick) and near-singular at coincident points, both of
            # which stress-majorized warm starts produce in bulk: one
            # uncapped sweep can teleport such nodes nine orders of
            # magnitude out, wrecking the embedding and collapsing the
            # octree to a handful of cells (its O(n log n) evaluation
            # degrades to O(n²)). The cap is deterministic, so
            # warm-started re-solves stay bit-identical.
            step = x_new - x
            norm = np.linalg.norm(step, axis=1)
            limit = _BH_STEP_SCALES * max(scale, _EPS)
            hot = norm > limit
            if hot.any():
                shrink = np.where(hot, limit / np.maximum(norm, _EPS), 1.0)
                x_new = x + step * shrink[:, None]
        return x_new

    return sweep


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
