"""Community detection (NetworKit ``community`` module analog).

Algorithms: :class:`PLM` (parallel Louvain) and :class:`PLP` (label
propagation), the widget's two community measures; quality measures
(modularity, coverage) and partition similarity (McDaid NMI).
"""

from .nmi import NMIDistance, entropy, mutual_information, nmi
from .partition import Partition
from .plm import PLM
from .plp import PLP
from .quality import Modularity, coverage, modularity

__all__ = [
    "PLM",
    "PLP",
    "Partition",
    "Modularity",
    "NMIDistance",
    "modularity",
    "coverage",
    "nmi",
    "mutual_information",
    "entropy",
]
