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
    LAPLACIAN_THRESHOLD,
    WARM_START_ALPHA,
    MaxentStress,
    maxent_stress_layout,
    maxent_stress_value,
    maxent_stress_engine,
)
from .spectral import spectral_layout

__all__ = [
    "MaxentStress",
    "maxent_stress_layout",
    "maxent_stress_value",
    "maxent_stress_engine",
    "BARNES_HUT_THRESHOLD",
    "LAPLACIAN_THRESHOLD",
    "WARM_START_ALPHA",
    "BarnesHutTree",
    "barnes_hut_repulsion",
    "exact_repulsion",
    "force_error_bound",
    "FruchtermanReingold",
    "fruchterman_reingold_layout",
    "spectral_layout",
]
