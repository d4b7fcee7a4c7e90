"""Unit tests for Trajectory, the OU generator and PDB IO."""

import numpy as np
import pytest

from repro.md import (
    Trajectory,
    TrajectoryGenerator,
    generate_trajectory,
    proteins,
    read_pdb,
    write_pdb,
)


@pytest.fixture(scope="module")
def a3d():
    return proteins.build("A3D")


@pytest.fixture(scope="module")
def traj(a3d):
    topo, native = a3d
    return generate_trajectory(topo, native, 20, seed=11)


class TestTrajectory:
    def test_shapes(self, traj):
        assert traj.n_frames == 20
        assert traj.coordinates.shape == (20, traj.n_atoms, 3)

    def test_single_frame_promoted(self, a3d):
        topo, native = a3d
        t = Trajectory(topo, native)
        assert t.n_frames == 1

    def test_atom_count_mismatch_rejected(self, a3d):
        topo, _ = a3d
        with pytest.raises(ValueError):
            Trajectory(topo, np.zeros((2, 5, 3)))

    def test_bad_rank_rejected(self, a3d):
        topo, _ = a3d
        with pytest.raises(ValueError):
            Trajectory(topo, np.zeros((topo.n_atoms,)))

    def test_frame_indexing(self, traj):
        assert traj.frame(0).shape == (traj.n_atoms, 3)
        with pytest.raises(IndexError):
            traj.frame(100)

    def test_negative_frame_rejected(self, traj):
        with pytest.raises(IndexError, match=r"out of range \[0, 20\)"):
            traj.frame(-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, traj, bad):
        coords = traj.coordinates.copy()
        coords[7, 3, 1] = bad
        with pytest.raises(ValueError, match="non-finite coordinate in frame 7, atom 3"):
            Trajectory(traj.topology, coords)

    def test_slicing(self, traj):
        sub = traj[5:10]
        assert sub.n_frames == 5
        assert np.array_equal(sub.frame(0), traj.frame(5))

    def test_single_index_slicing(self, traj):
        one = traj[3]
        assert one.n_frames == 1

    def test_ca_coordinates(self, traj):
        ca = traj.ca_coordinates(0)
        assert ca.shape == (traj.topology.n_residues, 3)
        all_ca = traj.ca_coordinates()
        assert all_ca.shape == (traj.n_frames, traj.topology.n_residues, 3)

    def test_radius_of_gyration_positive(self, traj):
        rg = traj.radius_of_gyration()
        assert rg.shape == (traj.n_frames,)
        assert (rg > 0).all()

    def test_rmsd_zero_at_reference(self, traj):
        rmsd = traj.rmsd(0)
        assert rmsd[0] == pytest.approx(0.0, abs=1e-9)
        assert (rmsd >= 0).all()

    def test_rmsd_alignment_removes_rigid_motion(self, a3d):
        topo, native = a3d
        # Frame 1 = rotated + translated native: aligned RMSD must be ~0.
        from repro.md.geometry import rotation_about_axis

        rot = rotation_about_axis(np.array([1.0, 2.0, 0.5]), 0.8)
        moved = native @ rot.T + np.array([5.0, -3.0, 2.0])
        t = Trajectory(topo, np.stack([native, moved]))
        assert t.rmsd(0, align=True)[1] == pytest.approx(0.0, abs=1e-8)
        assert t.rmsd(0, align=False)[1] > 1.0

    def test_superposed(self, traj):
        sup = traj.superposed(0)
        assert sup.rmsd(0)[1] <= traj.rmsd(0, align=False)[1] + 1e-9

    def test_npz_roundtrip(self, traj, tmp_path):
        path = tmp_path / "traj.npz"
        traj.save_npz(path)
        loaded = Trajectory.load_npz(path)
        assert loaded.topology.sequence == traj.topology.sequence
        assert loaded.topology.secondary == traj.topology.secondary
        assert np.allclose(loaded.coordinates, traj.coordinates)


class TestGenerator:
    def test_frame_zero_is_native(self, a3d):
        topo, native = a3d
        t = generate_trajectory(topo, native, 5, seed=1, breathing=0.0)
        assert np.allclose(t.frame(0), native)

    def test_deterministic(self, a3d):
        topo, native = a3d
        a = generate_trajectory(topo, native, 8, seed=42).coordinates
        b = generate_trajectory(topo, native, 8, seed=42).coordinates
        assert np.array_equal(a, b)

    def test_fluctuation_scale(self, a3d):
        topo, native = a3d
        sigma = 0.5
        t = TrajectoryGenerator(
            topo, native, sigma=sigma, tau=2.0, breathing=0.0, seed=3
        ).generate(300)
        # Stationary OU std should approach sigma (per coordinate).
        dev = t.coordinates[50:] - native
        assert abs(dev.std() - sigma) < 0.15

    def test_temporal_correlation(self, a3d):
        topo, native = a3d
        t = TrajectoryGenerator(
            topo, native, sigma=0.5, tau=20.0, breathing=0.0, seed=3
        ).generate(60)
        dev = (t.coordinates - native).reshape(60, -1)
        step = np.linalg.norm(np.diff(dev, axis=0), axis=1).mean()
        spread = np.linalg.norm(dev[40:], axis=1).mean()
        # Successive frames move much less than the total fluctuation.
        assert step < spread

    def test_unfold_event_expands(self, a3d):
        topo, native = a3d
        t = TrajectoryGenerator(
            topo,
            native,
            sigma=0.1,
            breathing=0.0,
            unfold_events=1,
            unfold_scale=1.8,
            seed=5,
        ).generate(50)
        rg = t.radius_of_gyration()
        assert rg.max() > 1.3 * rg[0]

    def test_unfold_changes_contacts(self, a3d):
        from repro.md import contact_pairs, residue_distance_matrix

        topo, native = a3d
        t = TrajectoryGenerator(
            topo, native, sigma=0.1, breathing=0.0, unfold_events=1,
            unfold_scale=1.8, seed=5,
        ).generate(50)
        rg = t.radius_of_gyration()
        peak = int(np.argmax(rg))
        e_native = len(contact_pairs(residue_distance_matrix(topo, t.frame(0)), 10.0))
        e_peak = len(contact_pairs(residue_distance_matrix(topo, t.frame(peak)), 10.0))
        assert e_peak < e_native

    def test_invalid_params(self, a3d):
        topo, native = a3d
        with pytest.raises(ValueError):
            TrajectoryGenerator(topo, native, sigma=-1.0)
        with pytest.raises(ValueError):
            TrajectoryGenerator(topo, native, tau=0.0)
        with pytest.raises(ValueError):
            TrajectoryGenerator(topo, native, unfold_scale=0.5)
        with pytest.raises(ValueError):
            TrajectoryGenerator(topo, native).generate(0)

    def test_native_shape_checked(self, a3d):
        topo, _ = a3d
        with pytest.raises(ValueError):
            TrajectoryGenerator(topo, np.zeros((3, 3)))


class TestPDB:
    def test_roundtrip_single_frame(self, a3d, tmp_path):
        topo, native = a3d
        path = tmp_path / "a3d.pdb"
        write_pdb((topo, native), path)
        loaded = read_pdb(path)
        assert loaded.topology.sequence == topo.sequence
        assert np.allclose(loaded.frame(0), native, atol=1e-3)

    def test_roundtrip_multiframe(self, traj, tmp_path):
        path = tmp_path / "traj.pdb"
        write_pdb(traj[:3], path)
        loaded = read_pdb(path)
        assert loaded.n_frames == 3
        assert np.allclose(loaded.coordinates, traj[:3].coordinates, atol=1e-3)

    def test_empty_pdb_rejected(self, tmp_path):
        path = tmp_path / "empty.pdb"
        path.write_text("HEADER    nothing\nEND\n")
        with pytest.raises(ValueError):
            read_pdb(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda row: row[:35] + "\n",  # truncated inside the x field
            lambda row: row[:38] + "   abc  " + row[46:],  # non-numeric y
            lambda row: row[:22] + "  ? " + row[26:],  # non-numeric residue
        ],
        ids=["truncated", "non-numeric-coordinate", "non-numeric-residue"],
    )
    def test_malformed_atom_row_names_line(self, a3d, tmp_path, edit):
        topo, native = a3d
        path = tmp_path / "bad_row.pdb"
        write_pdb((topo, native), path)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[3].startswith("ATOM")
        lines[3] = edit(lines[3])
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="bad_row.pdb: line 4: ATOM record"):
            read_pdb(path)

    @pytest.mark.parametrize("value", ["     nan", "     inf"], ids=["nan", "inf"])
    def test_non_finite_coordinate_names_line(self, a3d, tmp_path, value):
        topo, native = a3d
        path = tmp_path / "nan.pdb"
        write_pdb((topo, native), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3][:46] + value + lines[3][54:]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="nan.pdb: line 4: non-finite"):
            read_pdb(path)

    def test_pdb_format_columns(self, a3d, tmp_path):
        topo, native = a3d
        path = tmp_path / "cols.pdb"
        write_pdb((topo, native), path)
        lines = [l for l in path.read_text().splitlines() if l.startswith("ATOM")]
        assert len(lines) == topo.n_atoms
        first = lines[0]
        assert len(first) >= 78
        assert first[17:20].strip() == topo.residues[0].three
