"""Unit tests for XYZ IO and geometric secondary-structure assignment."""

import numpy as np
import pytest

from repro.md import (
    Trajectory,
    assign_secondary_structure,
    generate_trajectory,
    helix_content,
    proteins,
    read_xyz,
    write_xyz,
)


@pytest.fixture(scope="module")
def a3d():
    return proteins.build("A3D")


class TestXYZ:
    def test_roundtrip(self, a3d, tmp_path):
        topo, native = a3d
        traj = generate_trajectory(topo, native, 3, seed=1)
        path = tmp_path / "traj.xyz"
        write_xyz(traj, path)
        loaded = read_xyz(path)
        assert loaded.n_frames == 3
        assert loaded.topology.sequence == topo.sequence
        assert loaded.topology.secondary == topo.secondary
        assert np.allclose(loaded.coordinates, traj.coordinates, atol=1e-4)

    def test_single_frame(self, a3d, tmp_path):
        topo, native = a3d
        path = tmp_path / "one.xyz"
        write_xyz(Trajectory(topo, native), path)
        assert read_xyz(path).n_frames == 1

    def test_atom_count_line(self, a3d, tmp_path):
        topo, native = a3d
        path = tmp_path / "n.xyz"
        write_xyz(Trajectory(topo, native), path)
        first = path.read_text().splitlines()[0]
        assert int(first) == topo.n_atoms

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("not-a-count\ncomment\n")
        with pytest.raises(ValueError):
            read_xyz(path)

    def test_missing_seq_tag_rejected(self, tmp_path):
        path = tmp_path / "tagless.xyz"
        path.write_text("1\nno tags here\nC 0.0 0.0 0.0\n")
        with pytest.raises(ValueError):
            read_xyz(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("")
        with pytest.raises(ValueError):
            read_xyz(path)

    def test_truncated_last_frame_rejected(self, a3d, tmp_path):
        topo, native = a3d
        path = tmp_path / "cut.xyz"
        write_xyz(Trajectory(topo, np.stack([native, native])), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        second_frame = topo.n_atoms + 3
        with pytest.raises(ValueError, match=f"cut.xyz: frame at line {second_frame}"):
            read_xyz(path)

    @pytest.mark.parametrize("row", ["C 1.0 2.0", "C 1.0 abc 2.0"])
    def test_bad_coordinate_row_rejected(self, a3d, tmp_path, row):
        topo, native = a3d
        path = tmp_path / "bad_row.xyz"
        write_xyz(Trajectory(topo, native), path)
        lines = path.read_text().splitlines()
        lines[4] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="bad_row.xyz: line 5 "):
            read_xyz(path)

    @staticmethod
    def _two_frames(a3d, path, second_count):
        """A two-frame file whose second frame declares ``second_count``
        atoms and holds that many rows; returns the count line's number."""
        topo, native = a3d
        write_xyz(Trajectory(topo, np.stack([native, native])), path)
        lines = path.read_text().splitlines()
        n = topo.n_atoms
        first, second = lines[: n + 2], lines[n + 2:]
        second = [str(second_count), second[1], *second[2: 2 + max(second_count, 0)]]
        path.write_text("\n".join(first + second) + "\n")
        return n + 3

    @pytest.mark.parametrize("delta", [-1, "zero"], ids=["one-fewer", "zero"])
    def test_uneven_later_frame_names_its_count_line(self, a3d, tmp_path, delta):
        topo, _ = a3d
        count = 0 if delta == "zero" else topo.n_atoms + delta
        path = tmp_path / "uneven.xyz"
        line = self._two_frames(a3d, path, count)
        with pytest.raises(
            ValueError, match=f"uneven.xyz: line {line}: frame declares {count} atoms"
        ):
            read_xyz(path)

    def test_negative_count_names_its_line(self, a3d, tmp_path):
        path = tmp_path / "negative.xyz"
        line = self._two_frames(a3d, path, -3)
        with pytest.raises(
            ValueError, match=f"negative.xyz: line {line}: negative atom count -3"
        ):
            read_xyz(path)

    @pytest.mark.parametrize(
        "comment", ["seq=AXA", "seq=AA ss=HHH"], ids=["residue", "secondary"]
    )
    def test_bad_topology_tag_names_its_line(self, tmp_path, comment):
        path = tmp_path / "tag.xyz"
        path.write_text(f"1\n{comment}\nC 0 0 0\n")
        with pytest.raises(ValueError, match="tag.xyz: line 2: "):
            read_xyz(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coordinate_names_its_line(self, a3d, tmp_path, value):
        topo, native = a3d
        path = tmp_path / "nan.xyz"
        write_xyz(Trajectory(topo, native), path)
        lines = path.read_text().splitlines()
        lines[4] = f"C 1.0 {value} 2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="nan.xyz: line 5 .*non-finite"):
            read_xyz(path)


class TestSecondaryAssignment:
    @pytest.mark.parametrize("name", ["A3D", "2JOF", "NTL9"])
    def test_recovers_builder_annotation(self, name):
        topo, native = proteins.build(name)
        assigned = assign_secondary_structure(topo, native)
        truth = topo.secondary
        agreement = sum(a == t for a, t in zip(assigned, truth)) / len(truth)
        assert agreement > 0.8

    def test_all_valid_codes(self, a3d):
        topo, native = a3d
        assigned = assign_secondary_structure(topo, native)
        assert set(assigned) <= {"H", "E", "C"}
        assert len(assigned) == topo.n_residues

    def test_min_run_demotes_fragments(self, a3d):
        topo, native = a3d
        strict = assign_secondary_structure(topo, native, min_run=8)
        loose = assign_secondary_structure(topo, native, min_run=1)
        assert strict.count("C") >= loose.count("C")

    def test_random_coil_not_helix(self):
        from repro.md import Topology

        topo = Topology.from_sequence("A" * 30)
        rng = np.random.default_rng(0)
        # A self-avoiding-ish random walk: no helical geometry.
        ca = np.cumsum(rng.normal(scale=1.0, size=(30, 3)) + 1.5, axis=0)
        from repro.md.builder import build_structure

        coords = build_structure(topo, ca, seed=1)
        assert helix_content(topo, coords) < 0.3

    def test_helix_content_drops_on_unfolding(self, a3d):
        topo, native = a3d
        traj = generate_trajectory(
            topo, native, 40, seed=3, unfold_events=1, unfold_scale=1.8,
            sigma=0.2,
        )
        rg = traj.radius_of_gyration()
        folded = helix_content(topo, traj.frame(0))
        unfolded = helix_content(topo, traj.frame(int(np.argmax(rg))))
        assert folded > 0.5
        assert unfolded < folded / 2

    def test_tiny_protein(self):
        from repro.md import Topology

        topo = Topology.from_sequence("AGA")
        coords = np.zeros((topo.n_atoms, 3))
        coords[:, 0] = np.arange(topo.n_atoms)
        assigned = assign_secondary_structure(topo, coords)
        assert assigned == "CCC"
