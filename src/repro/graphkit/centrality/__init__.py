"""Centrality measures (NetworKit ``centrality`` module analog).

Every exact measure accepts ``impl="vectorized"`` (batched CSR kernel
engine, default) or ``impl="reference"`` (naive scalar engine, for
differential testing); ``Betweenness`` with ``weighted=True`` also
keeps the seeded pivot estimator as ``impl="sampled"`` (Hoeffding error bound
via ``sampled_betweenness_error_bound``). Shortest-path measures take
``weighted=True`` to read edge weights as distances (SpMM BFS swaps for
multi-source delta-stepping); ``Betweenness(directed=True)`` runs the
directed batched Brandes kernel. Sampling approximations
(EstimateBetweenness, ApproxCloseness) have no scalar twin and raise
``NotImplementedError`` on ``impl="reference"`` rather than silently
running the fast engine. See ``docs/KERNELS.md`` for the kernel block
math and the full selection rules.
"""

from . import reference
from .base import Centrality
from .betweenness import (
    Betweenness,
    EstimateBetweenness,
    sampled_betweenness_error_bound,
)
from .closeness import ApproxCloseness, Closeness, HarmonicCloseness
from .degree import DegreeCentrality
from .eigenvector import EigenvectorCentrality
from .katz import KatzCentrality
from .pagerank import PageRank, PageRankNorm

__all__ = [
    "Centrality",
    "Betweenness",
    "EstimateBetweenness",
    "Closeness",
    "ApproxCloseness",
    "HarmonicCloseness",
    "DegreeCentrality",
    "EigenvectorCentrality",
    "KatzCentrality",
    "PageRank",
    "PageRankNorm",
    "sampled_betweenness_error_bound",
    "reference",
]
