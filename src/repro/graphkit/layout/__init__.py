"""Graph drawing algorithms (NetworKit ``viz`` module analog)."""

from .bhtree import (
    BarnesHutTree,
    barnes_hut_repulsion,
    exact_repulsion,
    force_error_bound,
)
from .fruchterman_reingold import FruchtermanReingold, fruchterman_reingold_layout
from .maxent_stress import (
    BARNES_HUT_THRESHOLD,
    WARM_START_ALPHA,
    MaxentStress,
    maxent_stress_layout,
    maxent_stress_value,
)
from .spectral import spectral_layout

__all__ = [
    "MaxentStress",
    "maxent_stress_layout",
    "maxent_stress_value",
    "BARNES_HUT_THRESHOLD",
    "WARM_START_ALPHA",
    "BarnesHutTree",
    "barnes_hut_repulsion",
    "exact_repulsion",
    "force_error_bound",
    "FruchtermanReingold",
    "fruchterman_reingold_layout",
    "spectral_layout",
]
