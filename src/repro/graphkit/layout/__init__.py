"""Graph drawing (NetworKit ``viz`` module analog): Maxent-Stress.

One layout family serves both widgets: :func:`maxent_stress_layout` in 3-D
for plotlybridge and in 2-D for csbridge; :func:`maxent_stress_engine`
names the engine ``impl="auto"`` picks. :mod:`.bhtree` is the Barnes-Hut
repulsion field of its large-graph engine.
"""

from .bhtree import (
    BarnesHutTree,
    barnes_hut_repulsion,
    exact_repulsion,
    force_error_bound,
)
from .maxent_stress import (
    BARNES_HUT_THRESHOLD,
    LAPLACIAN_THRESHOLD,
    WARM_START_ALPHA,
    MaxentStress,
    maxent_stress_layout,
    maxent_stress_value,
    maxent_stress_engine,
)

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
]
