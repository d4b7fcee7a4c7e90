"""The residue distance kernels against direct-difference oracles.

``direct_*`` compute every distance as ``sqrt(Σ (a - b)²)`` over the
coordinate differences, so they do not depend on where the protein sits
and are exactly symmetric. The kernels use the Gram identity on centred
coordinates instead, and the ``min`` kernel only computes each atom pair
in one orientation, so kernel and oracle agree up to rounding (1e-12 Å),
also on frames shifted far from the origin. ``oracle_min_distance_matrix``
is the all-atom kernel ``min_distance_matrix`` used before the residue
blocks; it stays as the timing reference of the skewed topologies.
"""

import time

import numpy as np
import pytest

from repro.graphkit.kernels import pairwise_distances
from repro.md import (
    CRITERIA,
    Atom,
    Residue,
    Topology,
    contact_pairs,
    min_distance_matrix,
    residue_distance_matrix,
)
from repro.md.distances import _slot_plan

ATOL = 1e-12  # Å
CUTOFFS = np.arange(3.0, 12.5, 0.5)
TRAJECTORIES = ["trp_traj", "ntl9_traj", "a3d_traj"]


def oracle_min_distance_matrix(topology, frame):
    atom_d = pairwise_distances(frame)
    starts = np.asarray([r.atom_start for r in topology.residues], dtype=np.int64)
    rows = np.minimum.reduceat(atom_d, starts, axis=0)
    return np.minimum.reduceat(rows, starts, axis=1)


def direct_distances(points):
    return np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))


def direct_min(topology, frame):
    atom_d = direct_distances(frame)
    spans = topology.residue_atom_slices()
    return np.array([[atom_d[a0:a1, b0:b1].min() for b0, b1 in spans]
                     for a0, a1 in spans])


def direct_com(topology, frame):
    masses = topology.atom_masses()
    com = np.array([np.average(frame[a0:a1], axis=0, weights=masses[a0:a1])
                    for a0, a1 in topology.residue_atom_slices()])
    return direct_distances(com)


DIRECT = {
    "ca": lambda topology, frame: direct_distances(frame[topology.ca_indices()]),
    "com": direct_com,
    "min": direct_min,
}


@pytest.mark.parametrize("traj_fixture", TRAJECTORIES)
def test_every_frame_matches_the_oracle(request, traj_fixture):
    traj = request.getfixturevalue(traj_fixture)
    topo = traj.topology
    for f in range(traj.n_frames):
        frame = traj.frame(f)
        got = min_distance_matrix(topo, frame)
        want = direct_min(topo, frame)
        np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)
        assert (np.diag(got) == 0.0).all()
        for cutoff in CUTOFFS:
            np.testing.assert_array_equal(
                contact_pairs(got, cutoff), contact_pairs(want, cutoff)
            )


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("traj_fixture", TRAJECTORIES)
def test_shifted_frames_match_the_oracle(request, traj_fixture, criterion):
    # 1e3 Å from the origin, the uncentred Gram identity was 1.9e-10 Å
    # (ca) and 3.2e-9 Å (min) off the direct differences on A3D.
    traj = request.getfixturevalue(traj_fixture)
    topo = traj.topology
    for f in range(traj.n_frames):
        frame = traj.frame(f) + 1e3
        got = residue_distance_matrix(topo, frame, criterion)
        want = DIRECT[criterion](topo, frame)
        np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)
        for cutoff in CUTOFFS:
            np.testing.assert_array_equal(
                contact_pairs(got, cutoff), contact_pairs(want, cutoff)
            )


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("traj_fixture", TRAJECTORIES)
def test_every_criterion_is_exactly_symmetric(request, traj_fixture, criterion):
    traj = request.getfixturevalue(traj_fixture)
    topo = traj.topology
    for f in range(traj.n_frames):
        for shift in (0.0, 1e3):
            m = residue_distance_matrix(topo, traj.frame(f) + shift, criterion)
            assert (m == m.T).all(), (f, shift, int((m != m.T).sum()))


def test_the_slot_plan_is_built_once_per_topology(a3d_traj):
    topo = a3d_traj.topology
    plan = _slot_plan(topo)
    min_distance_matrix(topo, a3d_traj.frame(0))
    assert _slot_plan(topo) is plan
    # Slot-major: every atom once, and slot k holds the k-th atom of
    # each of the widths[k] largest residues.
    inverse, perm, widths, _ = plan
    assert np.array_equal(np.sort(perm), np.arange(topo.n_atoms))
    starts = np.asarray([r.atom_start for r in topo.residues])
    order = np.argsort(inverse)
    off = 0
    for k, w in enumerate(widths):
        assert np.array_equal(perm[off : off + w], starts[order[:w]] + k)
        off += w


def skewed_topology(counts):
    """Topology whose residue ``i`` holds ``counts[i]`` carbon atoms."""
    residues, atoms, cursor = [], [], 0
    for i, count in enumerate(counts):
        residues.append(Residue(i, "G", cursor, count))
        atoms += [Atom(cursor + j, f"C{j}", "C", i) for j in range(count)]
        cursor += count
    return Topology("skewed", residues, atoms)


def packed_frame(n_atoms, seed):
    """Protein-scale coordinates: atoms about 1.5 Å apart in a ball."""
    rng = np.random.default_rng(seed)
    return rng.normal(scale=1.5 * n_atoms ** (1 / 3), size=(n_atoms, 3))


@pytest.mark.parametrize("traj_fixture", ["trp_traj", "ntl9_traj", "a3d_traj"])
def test_every_frame_matches_the_oracle(request, traj_fixture):
    traj = request.getfixturevalue(traj_fixture)
    topo = traj.topology
    for f in range(traj.n_frames):
        frame = traj.frame(f)
        got = min_distance_matrix(topo, frame)
        want = oracle_min_distance_matrix(topo, frame)
        np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)
        assert (np.diag(got) == 0.0).all()
        for cutoff in np.arange(3.0, 12.5, 0.5):
            np.testing.assert_array_equal(
                contact_pairs(got, cutoff), contact_pairs(want, cutoff)
            )


SKEWED = {
    "one_200_atom_residue": [8] * 10 + [200] + [8] * 10,
    "single_atom_residues": [1] * 150,
    "single_residue": [60],
    "mixed_sizes": [1, 30, 2, 9, 9, 17, 3, 1, 12, 5, 40, 4],
}


@pytest.mark.parametrize("name", sorted(SKEWED))
def test_skewed_topologies_match_the_oracle(name):
    topo = skewed_topology(SKEWED[name])
    frame = packed_frame(topo.n_atoms, seed=len(name))
    got = min_distance_matrix(topo, frame)
    want = direct_min(topo, frame)
    assert got.shape == (topo.n_residues, topo.n_residues)
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)
    assert (got == got.T).all()


def _best_ms(fn, *args, reps=15):
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def test_a_200_atom_residue_is_not_slower_than_the_oracle():
    # Only residues that have a k-th atom take part in slot k, so one huge
    # residue must not multiply the work by its size.
    topo = skewed_topology(SKEWED["one_200_atom_residue"])
    frame = packed_frame(topo.n_atoms, seed=3)
    min_distance_matrix(topo, frame)
    oracle_min_distance_matrix(topo, frame)
    blocked = _best_ms(min_distance_matrix, topo, frame)
    oracle = _best_ms(oracle_min_distance_matrix, topo, frame)
    assert blocked <= oracle, (blocked, oracle)
