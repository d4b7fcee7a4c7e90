"""Vectorized CSR compute kernels — the shared hot-path layer.

Every performance-critical algorithm in :mod:`repro.graphkit` (and the RIN
scanning/diffing code in :mod:`repro.rin`) is expressed in terms of a small
set of NumPy kernels over :class:`~repro.graphkit.csr.CSRGraph` arrays:

* **arc gathers** — expand a set of rows into their (tail, head) arc lists
  with one ``repeat`` + one fancy-index gather (no ``searchsorted`` per
  level, no Python loop over nodes);
* **segment reductions** — per-row sums/minima over the CSR value array;
* **SpMV** — ``A @ x`` and ``Aᵀ @ x`` without materializing scipy objects;
* **batched BFS** — level-synchronous breadth-first search from *many*
  sources at once, advancing a dense ``(b, n)`` frontier with one
  sparse-dense product per level (the closeness workhorse);
* **bit-packed frontiers** — the same level expansion with the source
  axis packed 64-per-word into ``np.uint64`` bitset rows (one
  ``bitwise_or.reduceat`` per level instead of a float SpMM, popcount
  via a byte LUT), selected automatically for unweighted traversals
  above :data:`BITPACK_THRESHOLD` nodes;
* **batched Brandes** — the betweenness forward/backward sweeps with
  sigma/delta carried as dense ``(b, n)`` matrices, one SpMM per BFS
  level for a whole block of sources;
* **coordinate kernels** — pairwise residue distances and the sorted
  contact order that turns a cut-off sweep into ``searchsorted`` prefixes.

The kernels are deliberately allocation-light and loop-free so that the
interactive paths the paper benchmarks (measure/cut-off/frame switches,
Figs. 6-8) spend their time inside compiled NumPy/SciPy code. The block
math behind the batched Brandes kernel is documented in
``docs/KERNELS.md`` (the algorithms handbook); every kernel keeps a
scalar reference twin for differential testing.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph

__all__ = [
    "DENSE_BLOCK_ENTRIES",
    "source_blocks",
    "expand_arcs",
    "segment_sum",
    "spmv",
    "spmv_transpose",
    "BITPACK_THRESHOLD",
    "popcount64",
    "pack_bits",
    "unpack_bits",
    "packed_spmm_or",
    "batched_bfs_distances",
    "batched_brandes_dependencies",
    "pairwise_distances",
    "sorted_contact_order",
    "morton_codes",
    "core_numbers",
]

UNREACHED = -1

#: Target entry count for dense (sources, n) blocks — the single memory
#: cap shared by the batched BFS kernel and its block-iterating callers.
DENSE_BLOCK_ENTRIES = 2_000_000


def source_blocks(start: int, stop: int, n: int):
    """Sub-ranges of ``[start, stop)`` whose dense ``(block, n)`` matrix
    stays around :data:`DENSE_BLOCK_ENTRIES` entries.

    Callers that consume per-source reductions of
    :func:`batched_bfs_distances` iterate these blocks so peak memory is
    O(block × n), independent of how many sources they process.
    """
    block = max(1, DENSE_BLOCK_ENTRIES // max(n, 1))
    for lo in range(start, stop, block):
        yield lo, min(lo + block, stop)


# ----------------------------------------------------------------------
# arc gathers and segment reductions
# ----------------------------------------------------------------------
def expand_arcs(
    csr: CSRGraph, frontier: np.ndarray, *, with_weights: bool = False
) -> tuple[np.ndarray, ...]:
    """All arcs ``(tail, head[, weight])`` leaving the ``frontier`` nodes.

    Tails repeat per out-degree so ``tails[i] -> heads[i]`` enumerates the
    frontier's outgoing arcs; this is the shared primitive behind BFS
    frontier expansion and the Brandes forward/backward sweeps.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    gather, counts = csr.arc_gather(frontier)
    tails = np.repeat(frontier, counts)
    heads = csr.indices[gather].astype(np.int64, copy=False)
    if with_weights:
        return tails, heads, csr.weights[gather]
    return tails, heads


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums of a CSR-aligned value array (0 for empty rows)."""
    n = len(indptr) - 1
    if len(values) == 0:
        return np.zeros(n, dtype=np.float64)
    cumulative = np.concatenate([[0.0], np.cumsum(values, dtype=np.float64)])
    return cumulative[indptr[1:]] - cumulative[indptr[:-1]]


# ----------------------------------------------------------------------
# sparse matrix-vector products
# ----------------------------------------------------------------------
def spmv(csr: CSRGraph, x: np.ndarray) -> np.ndarray:
    """``A @ x`` over the CSR rows (weighted neighbourhood sum)."""
    x = np.asarray(x, dtype=np.float64)
    if csr.nnz == 0:
        return np.zeros(csr.n, dtype=np.float64)
    return segment_sum(csr.weights * x[csr.indices], csr.indptr)


def spmv_transpose(csr: CSRGraph, x: np.ndarray) -> np.ndarray:
    """``Aᵀ @ x`` via a bincount scatter over arc heads.

    Equals :func:`spmv` on undirected (symmetric) adjacencies; on directed
    graphs this is the "pull along in-edges" product Katz needs.
    """
    x = np.asarray(x, dtype=np.float64)
    n = csr.n
    if csr.nnz == 0:
        return np.zeros(n, dtype=np.float64)
    return np.bincount(
        csr.indices, weights=csr.weights * x[csr.arc_tails()], minlength=n
    )[:n].astype(np.float64, copy=False)


# ----------------------------------------------------------------------
# bit-packed frontiers
#
# For unweighted traversals the per-level state is purely boolean, so the
# dense (b, n) float frontier of the SpMM path wastes 64x the memory
# bandwidth the information content needs. The packed representation
# transposes and packs it into an (n, W) np.uint64 matrix with
# W = ceil(b / 64): bit s of word `packed[v, s // 64]` means "source s
# has reached node v". Level expansion is then one
# `np.bitwise_or.reduceat` over the CSR rows — the boolean-semiring SpMM
# — and set sizes come from a byte-LUT popcount. Above
# BITPACK_THRESHOLD nodes the packed path wins despite the
# pack/unpack overhead and is selected automatically.
# ----------------------------------------------------------------------

#: Node count above which unweighted batched traversals switch to the
#: bit-packed frontier representation automatically (``packed=None``).
BITPACK_THRESHOLD = 10_000

#: Set-bit count of every byte value — the LUT behind :func:`popcount64`.
_BYTE_POPCOUNT = np.array(
    [bin(v).count("1") for v in range(256)], dtype=np.uint8
)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element set-bit count of a ``np.uint64`` array.

    Views each word as 8 bytes and sums their LUT popcounts — one fancy
    index + one reduction, no Python-level bit twiddling. Shape is
    preserved; the result dtype is ``int64``.
    """
    x = np.ascontiguousarray(np.atleast_1d(x), dtype=np.uint64)
    counts = _BYTE_POPCOUNT[x.view(np.uint8)]
    return counts.reshape(x.shape + (8,)).sum(axis=-1, dtype=np.int64)


def pack_bits(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(r, k)`` matrix into ``(r, ceil(k/64))`` words.

    Column ``j`` of the input becomes bit ``j % 64`` of word ``j // 64``
    (little-endian bit order, matching ``np.packbits(bitorder="little")``
    with the bytes of each word in memory order). Inverse of
    :func:`unpack_bits`.
    """
    mask = np.ascontiguousarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D (rows, bits), got {mask.shape}")
    r, k = mask.shape
    words = (k + 63) // 64
    packed_bytes = np.packbits(mask, axis=1, bitorder="little")
    full = np.zeros((r, words * 8), dtype=np.uint8)
    full[:, : packed_bytes.shape[1]] = packed_bytes
    return full.view(np.uint64)


def unpack_bits(packed: np.ndarray, k: int) -> np.ndarray:
    """Unpack ``(r, W)`` uint64 words back to a boolean ``(r, k)`` matrix.

    ``k`` must not exceed ``W * 64``; bits beyond ``k`` are discarded.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ValueError(f"packed must be 2-D, got {packed.shape}")
    if k > packed.shape[1] * 64:
        raise ValueError(
            f"cannot unpack {k} bits from {packed.shape[1]} words"
        )
    bits = np.unpackbits(
        packed.view(np.uint8), axis=1, count=k, bitorder="little"
    )
    return bits.astype(bool)


def packed_spmm_or(csr: CSRGraph, packed: np.ndarray) -> np.ndarray:
    """Boolean-semiring SpMM on packed rows: OR each row's neighbours.

    ``packed`` is an ``(n, W)`` uint64 bitset matrix; the result holds, at
    row ``v``, the OR of the rows of ``v``'s CSR-listed neighbours — one
    frontier expansion step for all 64·W packed sources at once. Rows are
    the graph's *out*-adjacency, so on a symmetric (undirected) CSR this
    is exactly the neighbourhood union; empty rows yield zero words.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    n, words = packed.shape
    if n != csr.n:
        raise ValueError(f"packed rows {n} != csr.n {csr.n}")
    out = np.zeros((n, words), dtype=np.uint64)
    if csr.nnz == 0 or words == 0:
        return out
    nz = np.flatnonzero(np.diff(csr.indptr) > 0)
    # reduceat over only the nonempty-row starts: consecutive starts are
    # exactly one row's arc span (rows between them are empty), so each
    # segment ORs precisely that row's neighbour words. Passing empty
    # rows' offsets would instead return a stray element (reduceat's
    # repeated-offset rule).
    gathered = packed[csr.indices]
    out[nz] = np.bitwise_or.reduceat(gathered, csr.indptr[nz], axis=0)
    return out


def _packed_seed(block: np.ndarray, n: int) -> np.ndarray:
    """Seed ``(n, W)`` bitsets: bit ``j`` set at row ``block[j]``."""
    b = len(block)
    words = (b + 63) // 64
    seeds = np.zeros((n, words), dtype=np.uint64)
    rows = np.arange(b)
    bit = np.uint64(1) << (rows & 63).astype(np.uint64)
    # Duplicate sources share a node row, so scatter with or.at.
    np.bitwise_or.at(seeds, (block, rows >> 6), bit)
    return seeds


def _bfs_block_packed(
    csr: CSRGraph,
    block: np.ndarray,
    d: np.ndarray,
    max_depth: int | None,
) -> None:
    """Fill the pre-seeded ``(b, n)`` distance block via packed frontiers.

    ``d`` arrives with 0 at each row's source and ``UNREACHED`` elsewhere.
    """
    n = csr.n
    b = len(block)
    frontier = _packed_seed(block, n)
    reached = frontier.copy()
    # Track reached (source, node) pairs with the LUT popcount so a
    # final all-pairs level can skip its trailing empty expansion.
    covered = int(popcount64(frontier).sum())
    level = 0
    while True:
        level += 1
        if max_depth is not None and level > max_depth:
            break
        fresh = packed_spmm_or(csr, frontier)
        np.bitwise_and(fresh, np.invert(reached), out=fresh)
        live = np.flatnonzero(fresh.any(axis=1))
        if len(live) == 0:
            break
        reached |= fresh
        bits = unpack_bits(fresh[live], b)  # (len(live), b)
        node_pos, src_idx = np.nonzero(bits)
        d[src_idx, live[node_pos]] = level
        covered += len(node_pos)
        if covered == b * n:
            break
        frontier = fresh


def _use_packed(csr: CSRGraph, packed: bool | None) -> bool:
    """Resolve the shared ``packed=`` tri-state of the unweighted kernels."""
    if packed is None:
        return csr.n >= BITPACK_THRESHOLD and not csr.directed
    if packed and csr.directed:
        raise NotImplementedError(
            "bit-packed frontiers require an undirected CSR"
        )
    return bool(packed)


# ----------------------------------------------------------------------
# batched BFS
# ----------------------------------------------------------------------
def batched_bfs_distances(
    csr: CSRGraph,
    sources: np.ndarray,
    *,
    max_depth: int | None = None,
    chunk_size: int | None = None,
    packed: bool | None = None,
) -> np.ndarray:
    """Hop distances from every source at once — ``(len(sources), n)``.

    Runs a level-synchronous BFS whose frontier is a dense ``(b, n)``
    boolean matrix advanced by one sparse-dense product per level, so the
    per-level cost is one compiled SpMM instead of ``b`` Python-level
    frontier expansions. Unreachable entries are ``-1``; ``max_depth``
    truncates the sweep (used by the k-hop neighbourhood kernels).

    ``packed`` selects the bit-packed frontier representation (64 sources
    per ``np.uint64`` word, level expansion via :func:`packed_spmm_or`):
    ``None`` (default) picks it automatically on undirected graphs with
    at least :data:`BITPACK_THRESHOLD` nodes, ``True``/``False`` force
    the choice (``True`` requires an undirected CSR). Both engines
    produce identical distance matrices.

    Sources are processed in chunks of ``chunk_size`` (default sized to
    keep the dense frontier block around ~2M entries) so memory stays
    bounded on large graphs.
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = csr.n
    k = len(sources)
    if k == 0:
        return np.empty((0, n), dtype=np.int32)
    if n == 0:
        raise IndexError("BFS sources on an empty graph")
    if sources.min() < 0 or sources.max() >= n:
        raise IndexError(f"BFS source out of range [0, {n})")
    if chunk_size is None:
        chunk_size = max(1, min(k, DENSE_BLOCK_ENTRIES // max(n, 1)))
    use_packed = _use_packed(csr, packed)
    pattern = None if use_packed else csr.to_scipy_pattern()
    dist = np.full((k, n), UNREACHED, dtype=np.int32)
    for lo in range(0, k, chunk_size):
        hi = min(lo + chunk_size, k)
        block = sources[lo:hi]
        b = len(block)
        d = dist[lo:hi]
        d[np.arange(b), block] = 0
        if use_packed:
            _bfs_block_packed(csr, block, d, max_depth)
            continue
        frontier = np.zeros((b, n), dtype=np.float64)
        frontier[np.arange(b), block] = 1.0
        level = 0
        while True:
            level += 1
            if max_depth is not None and level > max_depth:
                break
            reached = frontier @ pattern  # dense (b, n) SpMM
            fresh = (reached > 0.0) & (d == UNREACHED)
            if not fresh.any():
                break
            d[fresh] = level
            frontier = fresh.astype(np.float64)
    return dist


# ----------------------------------------------------------------------
# batched Brandes (multi-source betweenness dependencies)
#
# The forward phase is the SpMM BFS above with the frontier carrying
# *path counts* instead of 0/1 flags: `cur @ pattern` lands, at every
# newly discovered node, exactly the sum of sigma over its predecessors
# (all shortest paths into BFS level L enter from level L-1). The
# backward phase replays the levels in reverse with one more SpMM per
# level: pushing (1 + delta)/sigma from level L through the symmetric
# adjacency and masking to level L-1 is precisely Brandes' dependency
# recurrence, for the whole source block at once.
#
# The packed variant discovers levels with bit-packed frontiers and then
# restricts the float sigma/delta work to the *fresh* (source, node)
# pairs of each level: per level it gathers only the arcs leaving those
# pairs and scatter-adds into the level's own pair set, so the total
# float work over the whole sweep is O(b·nnz) instead of the SpMM path's
# O(levels·b·nnz).
# ----------------------------------------------------------------------
def _brandes_block_packed(
    csr: CSRGraph, block: np.ndarray, dependency: np.ndarray
) -> None:
    """Accumulate one source block's Brandes dependencies, packed engine.

    Path counts are identical to the SpMM engine (integer-valued floats);
    dependency sums may differ at float rounding order (~1e-16 relative)
    because per-level contributions accumulate in arc order rather than
    SpMM column order — the tolerance the differential suite documents.
    """
    n = csr.n
    b = len(block)
    rows = np.arange(b, dtype=np.int64)
    block = block.astype(np.int64, copy=False)
    heads_all = csr.indices.astype(np.int64, copy=False)
    dist = np.full((b, n), UNREACHED, dtype=np.int32)
    dist[rows, block] = 0
    # sigma/delta live flat (b·n) so (row, node) pairs are single keys
    # for the per-level gathers and sorted-target scatter adds.
    sigma = np.zeros(b * n, dtype=np.float64)
    sigma[rows * n + block] = 1.0
    frontier = _packed_seed(block, n)
    reached = frontier.copy()
    # Per level, the fresh (source-row, node) pairs; level 0 is the seeds.
    pair_levels: list[tuple[np.ndarray, np.ndarray]] = [(rows, block)]
    while True:
        fresh = packed_spmm_or(csr, frontier)
        np.bitwise_and(fresh, np.invert(reached), out=fresh)
        live = np.flatnonzero(fresh.any(axis=1))
        if len(live) == 0:
            break
        reached |= fresh
        bits = unpack_bits(fresh[live], b)
        node_pos, src_idx = np.nonzero(bits)
        pair_rows = src_idx.astype(np.int64, copy=False)
        pair_nodes = live[node_pos]
        dist[pair_rows, pair_nodes] = len(pair_levels)
        pair_levels.append((pair_rows, pair_nodes))
        frontier = fresh
    # Forward: push sigma from each level's pairs along arcs that land on
    # the next level. Within a level every (row, head) target is a fresh
    # pair, so a compact bincount over the sorted target keys replaces the
    # dense SpMM.
    for lev in range(1, len(pair_levels)):
        prev_rows, prev_nodes = pair_levels[lev - 1]
        cur_rows, cur_nodes = pair_levels[lev]
        tgt = np.sort(cur_rows * n + cur_nodes)
        gather, counts = csr.arc_gather(prev_nodes)
        if len(gather) == 0:
            continue
        rr = np.repeat(prev_rows, counts)
        hh = heads_all[gather]
        sel = dist[rr, hh] == lev
        if not sel.any():
            continue
        rs = rr[sel]
        us = np.repeat(prev_nodes, counts)[sel]
        pos = np.searchsorted(tgt, rs * n + hh[sel])
        sigma[tgt] += np.bincount(
            pos, weights=sigma[rs * n + us], minlength=len(tgt)
        )
    # Backward: pull (1 + delta)/sigma from each level's pairs to their
    # level-(L-1) predecessors, again over only the live arcs.
    delta = np.zeros(b * n, dtype=np.float64)
    for lev in range(len(pair_levels) - 1, 0, -1):
        w_rows, w_nodes = pair_levels[lev]
        keys_w = w_rows * n + w_nodes
        coeff = (1.0 + delta[keys_w]) / sigma[keys_w]
        tgt_rows, tgt_nodes = pair_levels[lev - 1]
        tgt = np.sort(tgt_rows * n + tgt_nodes)
        gather, counts = csr.arc_gather(w_nodes)
        if len(gather) == 0:
            continue
        rr = np.repeat(w_rows, counts)
        vv = heads_all[gather]
        sel = dist[rr, vv] == lev - 1
        if not sel.any():
            continue
        rs = rr[sel]
        keys_v = rs * n + vv[sel]
        pos = np.searchsorted(tgt, keys_v)
        delta[tgt] += np.bincount(
            pos,
            weights=sigma[keys_v] * np.repeat(coeff, counts)[sel],
            minlength=len(tgt),
        )
    delta[rows * n + block] = 0.0
    dependency += delta.reshape(b, n).sum(axis=0)


def batched_brandes_dependencies(
    csr: CSRGraph,
    sources: np.ndarray,
    *,
    chunk_size: int | None = None,
    packed: bool | None = None,
) -> np.ndarray:
    """Summed Brandes dependencies of ``sources`` — an ``(n,)`` vector.

    Runs the unweighted Brandes forward/backward sweeps for *blocks* of
    sources simultaneously: path counts (``sigma``) and partial
    dependencies (``delta``) live in dense ``(b, n)`` matrices advanced
    by one sparse-dense product per BFS level, so per-level cost is one
    compiled SpMM for the whole block instead of ``b`` per-source
    sweeps. Each ordered source contributes its full dependency vector
    (the caller halves for the undirected convention).

    Sources are processed in chunks of ``chunk_size`` (default sized to
    keep each dense block near :data:`DENSE_BLOCK_ENTRIES` entries); the
    result is independent of the chunking — a property the differential
    suite pins.

    ``packed`` selects the bit-packed frontier engine (auto above
    :data:`BITPACK_THRESHOLD` nodes when ``None``): level discovery runs
    on uint64 bitsets and sigma/delta work is restricted to the fresh
    pairs of each level. Dependencies agree with the SpMM engine within
    float rounding order (path counts are identical).

    Undirected (symmetric) adjacencies only: the backward push reuses
    the forward pattern matrix as its own transpose.
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = csr.n
    k = len(sources)
    dependency = np.zeros(n, dtype=np.float64)
    if k == 0:
        return dependency
    if n == 0:
        raise IndexError("Brandes sources on an empty graph")
    if sources.min() < 0 or sources.max() >= n:
        raise IndexError(f"Brandes source out of range [0, {n})")
    if csr.directed:
        raise NotImplementedError(
            "batched_brandes_dependencies requires an undirected CSR"
        )
    if chunk_size is None:
        chunk_size = max(1, min(k, DENSE_BLOCK_ENTRIES // max(n, 1)))
    use_packed = _use_packed(csr, packed)
    if use_packed:
        for lo in range(0, k, chunk_size):
            _brandes_block_packed(csr, sources[lo : lo + chunk_size], dependency)
        return dependency
    pattern = csr.to_scipy_pattern()
    for lo in range(0, k, chunk_size):
        block = sources[lo : lo + chunk_size]
        b = len(block)
        rows = np.arange(b)
        dist = np.full((b, n), UNREACHED, dtype=np.int32)
        dist[rows, block] = 0
        sigma = np.zeros((b, n), dtype=np.float64)
        sigma[rows, block] = 1.0
        cur = sigma.copy()  # sigma restricted to the current frontier
        level = 0
        while True:
            level += 1
            reached = cur @ pattern  # dense (b, n) SpMM
            fresh = (reached > 0.0) & (dist == UNREACHED)
            if not fresh.any():
                break
            dist[fresh] = level
            sigma[fresh] = reached[fresh]
            cur = np.where(fresh, reached, 0.0)
        delta = np.zeros((b, n), dtype=np.float64)
        for lev in range(level - 1, 0, -1):
            on_level = dist == lev
            coeff = np.zeros((b, n), dtype=np.float64)
            np.divide(1.0 + delta, sigma, out=coeff, where=on_level)
            contrib = coeff @ pattern  # symmetric: pattern is its own transpose
            delta += np.where(dist == lev - 1, sigma * contrib, 0.0)
        delta[rows, block] = 0.0
        dependency += delta.sum(axis=0)
    return dependency


# ----------------------------------------------------------------------
# coordinate kernels (RIN scanning)
# ----------------------------------------------------------------------
def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix of ``(n, d)`` coordinates.

    Uses the Gram-matrix identity ``|a-b|² = |a|² + |b|² - 2a·b`` — one
    BLAS matmul instead of an ``(n, n, d)`` broadcast — with a clip for
    the tiny negatives float cancellation produces on the diagonal. The
    coordinates are centred on their mean first: the identity's rounding
    error grows with ``|a|²``, so centring keeps it at the scale of the
    point set rather than of its distance from the origin.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if len(coords):
        coords = coords - coords.mean(axis=0)
    sq = np.einsum("ij,ij->i", coords, coords)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (coords @ coords.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def sorted_contact_order(
    distance_matrix: np.ndarray, *, min_separation: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangle pairs ordered by ascending distance.

    Returns ``(pairs, distances)`` with ``pairs[i] = (u, v)``, ``u < v``,
    ``|u - v| >= min_separation`` and ``distances`` sorted ascending.
    A cut-off sweep then reduces to ``searchsorted`` prefixes of this
    order: the edge set at cut-off ``c`` is ``pairs[:searchsorted(d, c)]``
    — the distance matrix is thresholded *once* for the whole sweep.
    """
    n = distance_matrix.shape[0]
    iu, iv = np.triu_indices(n, k=max(1, int(min_separation)))
    d = distance_matrix[iu, iv]
    order = np.argsort(d, kind="stable")
    pairs = np.column_stack([iu[order], iv[order]]).astype(np.int64)
    return pairs, d[order]


def morton_codes(
    points: np.ndarray,
    *,
    bits: int = 10,
    origin: np.ndarray | None = None,
    extent: float | None = None,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Morton (Z-order) codes of a point set on a ``2**bits`` grid.

    Quantizes each axis of ``points`` (``(n, dim)``, any ``dim >= 1``) to
    ``bits``-bit cell indices over the set's bounding cube (one shared
    edge length, so cells are square/cubic at every refinement level) and
    bit-interleaves the axes into one int64 code per point. Sorting the
    codes sorts the points along the Z-order curve: every tree cell of
    the implied quad/octree is a *contiguous run* of the sorted order,
    and the cell at refinement level ``l`` containing a point is simply
    its code right-shifted by ``dim * (bits - l)`` — the property the
    Barnes-Hut tree build keys on.

    ``origin`` and ``extent`` override the quantization frame (default:
    the set's own bounding cube). Points outside an explicit frame are
    *clamped* into the boundary cells — callers that pass an
    outlier-robust frame (see ``BarnesHutTree``) keep full grid
    resolution over the bulk of the set at the cost of boundary cells
    whose geometric box understates their true point spread.

    Returns ``(codes, extent, origin)``: the unsorted per-point codes,
    the frame's edge length (cell width at level ``l`` is
    ``extent / 2**l``), and the frame's lower corner. Degenerate inputs
    (a single point, duplicated points) get ``extent=1.0`` so the
    quantization below never divides by zero.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, dim), got shape {pts.shape}")
    n, dim = pts.shape
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if bits < 1 or bits * dim > 62:
        raise ValueError(f"need 1 <= bits and bits*dim <= 62, got bits={bits}")
    if n == 0:
        return np.empty(0, dtype=np.int64), 1.0, np.zeros(dim)
    origin = pts.min(axis=0) if origin is None else np.asarray(origin, dtype=np.float64)
    if extent is None:
        extent = float((pts.max(axis=0) - origin).max())
    extent = float(extent)
    if not extent > 0.0:
        extent = 1.0
    side = np.int64(1) << bits
    cells = ((pts - origin) * (float(side) / extent)).astype(np.int64)
    np.clip(cells, 0, int(side) - 1, out=cells)
    codes = np.zeros(n, dtype=np.int64)
    # Bit-interleave: axis a contributes bit b to code bit b*dim + a.
    # bits*dim vectorized passes over int64 arrays — negligible next to
    # the sort that consumes the codes.
    for b in range(bits):
        for a in range(dim):
            codes |= ((cells[:, a] >> b) & 1) << (b * dim + a)
    return codes, extent, origin


# ----------------------------------------------------------------------
# k-core (bulk peeling)
# ----------------------------------------------------------------------
def core_numbers(csr: CSRGraph) -> np.ndarray:
    """Per-node coreness via vectorized bulk peeling.

    Instead of removing one minimum-degree node at a time (the scalar
    Batagelj-Zaveršnik order), each round removes *every* node at the
    current peeling floor in whole waves: gather the wave's arcs, drop the
    removed endpoints, decrement survivor degrees with one ``bincount``.
    Round count is bounded by the degeneracy, wave count by the peeling
    depth — both tiny for RIN-like graphs.
    """
    n = csr.n
    core = np.zeros(n, dtype=np.int64)
    if n == 0:
        return core
    indptr, indices = csr.indptr, csr.indices
    # Removed nodes get a sentinel degree of n (no real degree reaches n),
    # which folds the aliveness test into the degree comparison — one
    # array op per wave instead of three.
    deg = csr.degrees().astype(np.int64).copy()
    remaining = n
    floor = 0
    while remaining:
        floor = max(floor, int(deg.min()))
        wave = (deg <= floor).nonzero()[0]
        while len(wave):
            core[wave] = floor
            deg[wave] = n
            remaining -= len(wave)
            if len(wave) <= 32:
                # Cascade waves are usually a handful of nodes: direct
                # slice concatenation beats the vectorized gather's fixed
                # call overhead at this size.
                heads = (
                    np.concatenate(
                        [indices[indptr[u] : indptr[u + 1]] for u in wave]
                    )
                    if len(wave) > 1
                    else indices[indptr[wave[0]] : indptr[wave[0] + 1]]
                )
            else:
                _, heads = expand_arcs(csr, wave)
            touched = heads[deg[heads] < n]
            if len(touched) == 0:
                break
            deg -= np.bincount(touched, minlength=n)
            wave = (deg <= floor).nonzero()[0]
    return core
