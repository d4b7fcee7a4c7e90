"""The paper's three benchmark proteins as synthetic structures.

The paper benchmarks RINs of fast-folding proteins from the Lindorff-Larsen
et al. (2011) simulation set — those trajectories are proprietary, so we
substitute synthetic structures with the correct residue counts and
secondary-structure organization. The substitution holds as long as each
protein's contact-edge counts at the paper's 3 Å and 10 Å cut-offs land
within 2x of the counts the paper reports (Fig. 6; checked by
``tests/md/test_distances.py``):

* ``A3D``  — α3D, 73 residues, three-α-helix bundle (PDB 2A3D).
* ``2JOF`` — Trp-cage variant TC10b, 20 residues, one α-helix + 3_10/coil.
* ``NTL9`` — N-terminal domain of ribosomal protein L9, 39 residues,
  mixed α/β (three-stranded sheet + one helix).

Sequences are synthetic but composition-plausible; topology (lengths +
segment layout) is what the RIN benchmarks actually exercise.
"""

from __future__ import annotations

import numpy as np

from .builder import SegmentPlacement, StructureBuilder
from .topology import Topology

__all__ = ["PROTEINS", "ProteinSpec", "build", "names", "spec"]


class ProteinSpec:
    """Specification of one benchmark protein."""

    def __init__(
        self,
        name: str,
        sequence: str,
        secondary: str,
        placements: list[SegmentPlacement],
        *,
        description: str,
        sidechain_reach: float = 1.6,
    ):
        if len(sequence) != len(secondary):
            raise ValueError(
                f"{name}: sequence length {len(sequence)} != secondary "
                f"length {len(secondary)}"
            )
        self.name = name
        self.sequence = sequence
        self.secondary = secondary
        self.placements = placements
        self.description = description
        self.sidechain_reach = sidechain_reach

    @property
    def n_residues(self) -> int:
        """Residue count."""
        return len(self.sequence)

    def topology(self) -> Topology:
        """Build the :class:`Topology` for this protein."""
        return Topology.from_sequence(
            self.sequence, name=self.name, secondary=self.secondary
        )


def _helix_bundle_placements() -> list[SegmentPlacement]:
    """Three antiparallel helices on a triangle (α3D fold).

    Spacing calibrated so the min-distance RIN at the paper's cut-offs has
    edge counts in the reported band (≈245 @ 3 Å, ≈989 @ 10 Å).
    """
    r = 9.4
    return [
        SegmentPlacement(lateral=(0.0, 0.0), flip=False, phase=0.0),
        SegmentPlacement(lateral=(r, r * 0.9), flip=True, phase=2.0),
        SegmentPlacement(lateral=(2 * r * 0.95, 0.0), flip=False, phase=4.0),
    ]


# fmt: off
PROTEINS: dict[str, ProteinSpec] = {
    "A3D": ProteinSpec(
        "A3D",
        # 73 residues: H1 (2-20), loop, H2 (27-46), loop, H3 (53-72)
        sequence=(
            "MGSWAEFKQRLAAIKTRLQAL"      # 21
            "GGSEAE"                     # 6  loop
            "LAAFEKEIAAFESELQAYKG"       # 20
            "KGNPEV"                     # 6  loop
            "EALRKEAAAIRDELQAYRHN"       # 20
        ),
        secondary=(
            "C" + "H" * 19 + "C"
            + "CCCCCC"
            + "H" * 20
            + "CCCCCC"
            + "H" * 19 + "C"
        ),
        placements=_helix_bundle_placements(),
        description="α3D: de-novo three-helix bundle (73 aa)",
        sidechain_reach=1.9,
    ),
    "2JOF": ProteinSpec(
        "2JOF",
        # 20 residues: one α-helix (2-9), short 3_10-ish turn, Pro-rich tail
        sequence="DAYAQWLKDGGPSSGRPPPS",
        secondary="C" + "H" * 8 + "CC" + "H" * 3 + "CCCCCC",
        placements=[
            SegmentPlacement(lateral=(0.0, 0.0), flip=False, phase=0.0),
            SegmentPlacement(lateral=(3.4, 1.8), flip=True, phase=1.2),
        ],
        description="Trp-cage TC10b: 20-aa miniprotein",
        sidechain_reach=2.0,
    ),
    "NTL9": ProteinSpec(
        "NTL9",
        # 39 residues: β1 (1-7), loop, β2 (10-16), loop, α (19-30), β3 (33-39)
        sequence="MKVIFLKDVKGKGKKGEIKNVADGYANNFLFKQGLAIEA",
        secondary=(
            "E" * 7 + "CC" + "E" * 7 + "CC" + "H" * 12 + "CC" + "E" * 7
        ),
        placements=[
            SegmentPlacement(lateral=(0.0, 0.0), flip=False),          # β1
            SegmentPlacement(lateral=(4.2, 0.0), flip=True),           # β2
            SegmentPlacement(lateral=(3.4, 8.2), flip=False, phase=0.7),  # α
            SegmentPlacement(lateral=(8.4, 0.0), flip=False),          # β3
        ],
        description="NTL9(1-39): mixed α/β fast folder",
        sidechain_reach=2.1,
    ),
}
# fmt: on


def names() -> list[str]:
    """Available benchmark protein names."""
    return list(PROTEINS)


def spec(name: str) -> ProteinSpec:
    """Look up a protein spec (KeyError lists valid names)."""
    try:
        return PROTEINS[name]
    except KeyError:
        raise KeyError(
            f"unknown protein {name!r}; available: {sorted(PROTEINS)}"
        ) from None


def build(
    name: str, *, seed: int | None = 1234
) -> tuple[Topology, np.ndarray]:
    """Build (topology, native heavy-atom coordinates) for a protein."""
    s = spec(name)
    topo = s.topology()
    builder = StructureBuilder(
        topo, s.placements, seed=seed, sidechain_reach=s.sidechain_reach
    )
    return topo, builder.build()
