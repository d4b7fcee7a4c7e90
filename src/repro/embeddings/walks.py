"""Biased second-order random walks (node2vec, Grover & Leskovec 2016).

Paper §VII names node2vec ("which is already part of NetworKit") as the
path to ML workflows on RIN features. The walk generator implements the
p/q-biased second-order transition rule exactly:

* return to the previous node — weight ``1/p``;
* move to a neighbour of the previous node (distance 1) — weight ``1``;
* move outward (distance 2) — weight ``1/q``.
"""

from __future__ import annotations

import numpy as np

from ..graphkit.csr import CSRGraph
from ..graphkit.graph import Graph

__all__ = ["random_walks"]


def random_walks(
    g: Graph | CSRGraph,
    *,
    walks_per_node: int = 10,
    walk_length: int = 40,
    p: float = 1.0,
    q: float = 1.0,
    seed: int | None = 42,
) -> np.ndarray:
    """Generate node2vec walks; returns ``(n_walks, walk_length)`` ids.

    Walks from isolated nodes stay in place (self-padded), so every node
    contributes context. Deterministic under a fixed seed.
    """
    if walks_per_node < 1 or walk_length < 2:
        raise ValueError("need walks_per_node >= 1 and walk_length >= 2")
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    csr = g.csr()
    n = csr.n
    rng = np.random.default_rng(seed)
    walks = np.empty((n * walks_per_node, walk_length), dtype=np.int64)
    row = 0
    inv_p, inv_q = 1.0 / p, 1.0 / q
    neighbor_sets = [set(csr.neighbors(u).tolist()) for u in range(n)]
    for _ in range(walks_per_node):
        for start in range(n):
            walk = walks[row]
            walk[0] = start
            nbrs = csr.neighbors(start)
            if len(nbrs) == 0:
                walk[1:] = start
                row += 1
                continue
            walk[1] = nbrs[rng.integers(len(nbrs))]
            for step in range(2, walk_length):
                current = int(walk[step - 1])
                previous = int(walk[step - 2])
                nbrs = csr.neighbors(current)
                if len(nbrs) == 0:
                    walk[step:] = current
                    break
                weights = np.where(
                    nbrs == previous,
                    inv_p,
                    np.where(
                        [int(v) in neighbor_sets[previous] for v in nbrs],
                        1.0,
                        inv_q,
                    ),
                )
                probs = weights / weights.sum()
                walk[step] = nbrs[rng.choice(len(nbrs), p=probs)]
            row += 1
    return walks
