"""Protein topology: residues, atoms, secondary structure annotation.

The topology is the static part of an MD system — which atoms exist, which
residue each belongs to — while a :class:`~repro.md.trajectory.Trajectory`
holds the moving coordinates. This mirrors the MDtraj split the paper's
pipeline uses (``Topology`` + coordinate frames).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .elements import ATOMIC_MASS

__all__ = [
    "AMINO_ACIDS",
    "AminoAcid",
    "Atom",
    "Residue",
    "Topology",
    "SecondaryStructure",
]


@dataclass(frozen=True)
class AminoAcid:
    """Static amino-acid data for the pseudo-atom model.

    ``sidechain_atoms`` lists heavy side-chain atoms as (name, element)
    beyond the backbone N/CA/C/O; glycine has none.
    """

    code: str  # one-letter
    three: str  # three-letter
    sidechain_atoms: tuple[tuple[str, str], ...]

    @property
    def heavy_atom_count(self) -> int:
        """Backbone (4) + side-chain heavy atoms."""
        return 4 + len(self.sidechain_atoms)


def _sc(*atoms: str) -> tuple[tuple[str, str], ...]:
    """Helper: atom names like 'CB','CG','OD1' → (name, element) pairs."""
    return tuple((a, a[0]) for a in atoms)


#: The 20 standard amino acids with their heavy side-chain atom lists.
AMINO_ACIDS: dict[str, AminoAcid] = {
    aa.code: aa
    for aa in [
        AminoAcid("A", "ALA", _sc("CB")),
        AminoAcid("R", "ARG", _sc("CB", "CG", "CD", "NE", "CZ", "NH1", "NH2")),
        AminoAcid("N", "ASN", _sc("CB", "CG", "OD1", "ND2")),
        AminoAcid("D", "ASP", _sc("CB", "CG", "OD1", "OD2")),
        AminoAcid("C", "CYS", _sc("CB", "SG")),
        AminoAcid("Q", "GLN", _sc("CB", "CG", "CD", "OE1", "NE2")),
        AminoAcid("E", "GLU", _sc("CB", "CG", "CD", "OE1", "OE2")),
        AminoAcid("G", "GLY", ()),
        AminoAcid("H", "HIS", _sc("CB", "CG", "ND1", "CD2", "CE1", "NE2")),
        AminoAcid("I", "ILE", _sc("CB", "CG1", "CG2", "CD1")),
        AminoAcid("L", "LEU", _sc("CB", "CG", "CD1", "CD2")),
        AminoAcid("K", "LYS", _sc("CB", "CG", "CD", "CE", "NZ")),
        AminoAcid("M", "MET", _sc("CB", "CG", "SD", "CE")),
        AminoAcid("F", "PHE", _sc("CB", "CG", "CD1", "CD2", "CE1", "CE2", "CZ")),
        AminoAcid("P", "PRO", _sc("CB", "CG", "CD")),
        AminoAcid("S", "SER", _sc("CB", "OG")),
        AminoAcid("T", "THR", _sc("CB", "OG1", "CG2")),
        AminoAcid("W", "TRP", _sc("CB", "CG", "CD1", "CD2", "NE1", "CE2", "CE3",
                                  "CZ2", "CZ3", "CH2")),
        AminoAcid("Y", "TYR", _sc("CB", "CG", "CD1", "CD2", "CE1", "CE2", "CZ",
                                  "OH")),
        AminoAcid("V", "VAL", _sc("CB", "CG1", "CG2")),
    ]
}

THREE_TO_ONE = {aa.three: aa.code for aa in AMINO_ACIDS.values()}


class SecondaryStructure:
    """Per-residue secondary structure codes."""

    HELIX = "H"
    STRAND = "E"
    COIL = "C"
    VALID = frozenset({"H", "E", "C"})


@dataclass(frozen=True)
class Atom:
    """One heavy atom: global index, name, element, owning residue index."""

    index: int
    name: str
    element: str
    residue_index: int

    @property
    def mass(self) -> float:
        """Atomic mass in Dalton."""
        return ATOMIC_MASS[self.element]


@dataclass(frozen=True)
class Residue:
    """One residue: index in chain, amino-acid code, atom index range."""

    index: int
    code: str
    atom_start: int
    atom_count: int
    secondary: str = SecondaryStructure.COIL

    @property
    def three(self) -> str:
        """Three-letter residue name."""
        return AMINO_ACIDS[self.code].three

    @property
    def atom_indices(self) -> np.ndarray:
        """Global indices of this residue's atoms."""
        return np.arange(self.atom_start, self.atom_start + self.atom_count)


@dataclass
class Topology:
    """Immutable-ish protein topology: residues with their atoms.

    Build with :meth:`from_sequence`; the atom order per residue is
    N, CA, C, O followed by side-chain atoms, matching PDB conventions.
    """

    name: str
    residues: list[Residue]
    atoms: list[Atom]
    _ca_indices: np.ndarray = field(default=None, repr=False)  # type: ignore
    #: ``min_distance_matrix``'s atom-slot plan, built on its first call.
    _slot_plan: object = field(default=None, repr=False, compare=False)

    @classmethod
    def from_sequence(
        cls,
        sequence: str,
        *,
        name: str = "protein",
        secondary: str | Sequence[str] | None = None,
    ) -> "Topology":
        """Create a topology from a one-letter sequence.

        Parameters
        ----------
        sequence:
            One-letter amino-acid codes (must all be standard).
        secondary:
            Optional per-residue secondary structure string of the same
            length using H/E/C (defaults to all-coil).
        """
        sequence = sequence.upper()
        if not sequence:
            raise ValueError("sequence must be non-empty")
        for ch in sequence:
            if ch not in AMINO_ACIDS:
                raise ValueError(f"unknown amino acid code {ch!r}")
        if secondary is None:
            secondary = SecondaryStructure.COIL * len(sequence)
        if len(secondary) != len(sequence):
            raise ValueError(
                f"secondary structure length {len(secondary)} != sequence "
                f"length {len(sequence)}"
            )
        for ch in secondary:
            if ch not in SecondaryStructure.VALID:
                raise ValueError(f"unknown secondary structure code {ch!r}")

        residues: list[Residue] = []
        atoms: list[Atom] = []
        cursor = 0
        for i, (code, ss) in enumerate(zip(sequence, secondary)):
            aa = AMINO_ACIDS[code]
            names = [("N", "N"), ("CA", "C"), ("C", "C"), ("O", "O")]
            names += list(aa.sidechain_atoms)
            for name_, element in names:
                atoms.append(Atom(len(atoms), name_, element, i))
            residues.append(Residue(i, code, cursor, len(names), ss))
            cursor += len(names)
        return cls(name=name, residues=residues, atoms=atoms)

    # ------------------------------------------------------------------
    @property
    def n_residues(self) -> int:
        """Residue count."""
        return len(self.residues)

    @property
    def n_atoms(self) -> int:
        """Heavy atom count."""
        return len(self.atoms)

    @property
    def sequence(self) -> str:
        """One-letter sequence."""
        return "".join(r.code for r in self.residues)

    @property
    def secondary(self) -> str:
        """Per-residue secondary structure string."""
        return "".join(r.secondary for r in self.residues)

    def ca_indices(self) -> np.ndarray:
        """Global atom indices of the C-alpha atoms (cached)."""
        if self._ca_indices is None:
            idx = [
                a.index
                for a in self.atoms
                if a.name == "CA"
            ]
            object.__setattr__(self, "_ca_indices", np.asarray(idx, dtype=np.int64))
        return self._ca_indices

    def atom_residue_map(self) -> np.ndarray:
        """Per-atom owning residue index."""
        return np.asarray([a.residue_index for a in self.atoms], dtype=np.int64)

    def atom_masses(self) -> np.ndarray:
        """Per-atom masses (Da)."""
        return np.asarray([a.mass for a in self.atoms])

    def residue_atom_slices(self) -> list[tuple[int, int]]:
        """[start, stop) atom ranges per residue (atoms are contiguous)."""
        return [
            (r.atom_start, r.atom_start + r.atom_count) for r in self.residues
        ]

    def segments(self) -> list[tuple[str, int, int]]:
        """Contiguous secondary-structure runs as (code, start, stop)."""
        out: list[tuple[str, int, int]] = []
        ss = self.secondary
        start = 0
        for i in range(1, len(ss) + 1):
            if i == len(ss) or ss[i] != ss[start]:
                out.append((ss[start], start, i))
                start = i
        return out

    def helix_partition(self) -> np.ndarray:
        """Per-residue labels grouping each helix/strand segment.

        Coil residues get label 0; each H/E segment gets its own label —
        the ground truth used by the Figure 3 community-overlap analysis.
        """
        labels = np.zeros(self.n_residues, dtype=np.int64)
        next_label = 1
        for code, start, stop in self.segments():
            if code in (SecondaryStructure.HELIX, SecondaryStructure.STRAND):
                labels[start:stop] = next_label
                next_label += 1
        return labels

    def __iter__(self) -> Iterator[Residue]:
        return iter(self.residues)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology({self.name!r}, residues={self.n_residues}, "
            f"atoms={self.n_atoms})"
        )
