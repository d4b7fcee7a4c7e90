"""Centrality measures (NetworKit ``centrality`` module analog).

The five centralities of the widget's measure switch (paper Fig. 6),
plus ``HarmonicCloseness`` and ``PageRank`` (with the Berberich et al.
normalization of paper §II-A), which the library offers but the widget
does not. Every measure that takes ``impl=`` accepts ``"vectorized"``
(batched CSR kernel engine, default) or ``"reference"`` (naive scalar
engine, for differential testing). The shortest-path measures read hop
distances on undirected graphs; ``DegreeCentrality`` (with its
``weighted`` flag) and ``PageRank`` read edge weights. See
``docs/KERNELS.md`` for the kernel block math and the selection rules.
"""

from . import reference
from .base import Centrality
from .betweenness import Betweenness
from .closeness import Closeness, HarmonicCloseness
from .degree import DegreeCentrality
from .eigenvector import EigenvectorCentrality
from .katz import KatzCentrality
from .pagerank import PageRank, PageRankNorm

__all__ = [
    "Centrality",
    "Betweenness",
    "Closeness",
    "HarmonicCloseness",
    "DegreeCentrality",
    "EigenvectorCentrality",
    "KatzCentrality",
    "PageRank",
    "PageRankNorm",
    "reference",
]
