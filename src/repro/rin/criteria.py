"""Distance criteria for protein→RIN translation (paper §IV).

The paper: "the residue-residue distance can be determined in different
ways, such as the distance between the C-α atoms of each residue, the
centers of mass of the residues, or the distance between whichever two
atoms are closest to each other" — with cut-offs usually between 4 and
8.5 Å depending on criterion and question.
"""

from __future__ import annotations

import math
from enum import Enum

__all__ = ["DistanceCriterion", "DEFAULT_CUTOFFS", "check_cutoff"]


def check_cutoff(cutoff: float) -> float:
    """The contact cut-off as a float; ``ValueError`` unless finite and > 0.

    NaN fails every comparison, and an infinite cut-off would make every
    residue pair a contact (the complete graph), so both are rejected.
    """
    value = float(cutoff)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"cutoff must be finite and positive, got {cutoff}")
    return value


class DistanceCriterion(Enum):
    """How residue-residue distance is measured."""

    CA = "ca"
    CENTER_OF_MASS = "com"
    MINIMUM = "min"

    @classmethod
    def parse(cls, value: "DistanceCriterion | str") -> "DistanceCriterion":
        """Accept either an enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            valid = [m.value for m in cls]
            raise ValueError(
                f"unknown distance criterion {value!r}; use one of {valid}"
            ) from None


#: Literature-typical cut-off ranges (Å) per criterion (paper §IV cites
#: 4 Å – 8.5 Å depending on the distance definition).
DEFAULT_CUTOFFS: dict[DistanceCriterion, tuple[float, float]] = {
    DistanceCriterion.CA: (6.0, 8.5),
    DistanceCriterion.CENTER_OF_MASS: (6.0, 8.5),
    DistanceCriterion.MINIMUM: (4.0, 5.0),
}
