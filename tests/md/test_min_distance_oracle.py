"""The residue-blocked ``min`` kernel against the all-atom oracle.

The oracle is the kernel ``min_distance_matrix`` used before: one dense
atom-atom distance matrix reduced to residue blocks with two
``minimum.reduceat`` passes. The blocked kernel computes the same
squared distances in the same order of operations, so the two agree up
to BLAS rounding on row-subset shapes.
"""

import time

import numpy as np
import pytest

from repro.graphkit.kernels import pairwise_distances
from repro.md import Atom, Residue, Topology, contact_pairs, min_distance_matrix

ATOL = 1e-12  # Å


def oracle_min_distance_matrix(topology, frame):
    atom_d = pairwise_distances(frame)
    starts = np.asarray([r.atom_start for r in topology.residues], dtype=np.int64)
    rows = np.minimum.reduceat(atom_d, starts, axis=0)
    return np.minimum.reduceat(rows, starts, axis=1)


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
    want = oracle_min_distance_matrix(topo, frame)
    assert got.shape == (topo.n_residues, topo.n_residues)
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


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
