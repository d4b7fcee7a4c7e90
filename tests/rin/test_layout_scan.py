"""Warm-start determinism tests for :func:`trajectory_layout_scan`.

The contract under test: per-frame layouts are a pure function of the
frame *set* — never of the worker count or the order frames were asked
for. Chains of ``LAYOUT_CHAIN_LENGTH`` frames are the determinism unit
(chain head = cold solve, later frames warm-start from their
predecessor), and the chain partition depends only on the sorted unique
frame list, so scrubbing forward, backward, or across a process pool
yields bit-identical coordinates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rin import (
    LAYOUT_CHAIN_LENGTH,
    TrajectoryLayoutScan,
    trajectory_layout_scan,
)

CUTOFF = 6.5


def assert_layout_scans_identical(a: TrajectoryLayoutScan, b: TrajectoryLayoutScan):
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.coordinates, b.coordinates), "coordinates differ"
    assert np.array_equal(a.stress, b.stress), "stress differs"
    assert np.array_equal(a.cold, b.cold)


class TestWorkerDeterminism:
    @pytest.mark.parametrize("workers", [1, 8])
    def test_bit_identical_across_worker_counts(self, trp_traj, workers):
        serial = trajectory_layout_scan(
            trp_traj, CUTOFF, frames=range(6), workers=0
        )
        sharded = trajectory_layout_scan(
            trp_traj, CUTOFF, frames=range(6), workers=workers
        )
        assert_layout_scans_identical(sharded, serial)

    def test_more_workers_than_chains(self, trp_traj):
        serial = trajectory_layout_scan(
            trp_traj, CUTOFF, frames=range(3), workers=0
        )
        sharded = trajectory_layout_scan(
            trp_traj, CUTOFF, frames=range(3), workers=8
        )
        assert_layout_scans_identical(sharded, serial)


class TestScrubOrderDeterminism:
    def test_forward_backward_bit_identical(self, trp_traj):
        fwd = trajectory_layout_scan(trp_traj, CUTOFF, frames=range(8))
        bwd = trajectory_layout_scan(
            trp_traj, CUTOFF, frames=list(reversed(range(8)))
        )
        for f in range(8):
            assert np.array_equal(
                fwd.frame_coordinates(f), bwd.frame_coordinates(f)
            ), f"frame {f} differs between forward and backward scrub"
        assert np.array_equal(bwd.coordinates, fwd.coordinates[::-1])
        assert np.array_equal(bwd.stress, fwd.stress[::-1])

    def test_shuffled_scrub_bit_identical(self, trp_traj):
        order = [5, 0, 3, 1, 4, 2]
        fwd = trajectory_layout_scan(trp_traj, CUTOFF, frames=range(6))
        shuffled = trajectory_layout_scan(trp_traj, CUTOFF, frames=order)
        for row, f in enumerate(order):
            assert np.array_equal(
                shuffled.coordinates[row], fwd.frame_coordinates(f)
            ), f"frame {f} differs under shuffled scrub"

    def test_duplicate_frames_gather_same_solve(self, trp_traj):
        scan = trajectory_layout_scan(trp_traj, CUTOFF, frames=[2, 5, 2])
        assert np.array_equal(scan.coordinates[0], scan.coordinates[2])
        assert scan.stress[0] == scan.stress[2]
        # Duplicates don't change the solve: {2, 5} is the canonical set.
        plain = trajectory_layout_scan(trp_traj, CUTOFF, frames=[2, 5])
        assert np.array_equal(scan.coordinates[1], plain.coordinates[1])


class TestChainStructure:
    def test_cold_flags_mark_chain_heads(self, trp_traj):
        scan = trajectory_layout_scan(trp_traj, CUTOFF, frames=range(6))
        assert LAYOUT_CHAIN_LENGTH == 4
        assert scan.cold.tolist() == [True, False, False, False, True, False]

    def test_chain_length_one_is_all_cold(self, trp_traj):
        scan = trajectory_layout_scan(
            trp_traj, CUTOFF, frames=range(3), chain_length=1
        )
        assert scan.cold.all()

    def test_warm_stress_matches_cold_solve(self, trp_traj):
        """Warm-started frames converge to cold-solve stress quality."""
        warm = trajectory_layout_scan(trp_traj, CUTOFF, frames=range(6))
        cold = trajectory_layout_scan(
            trp_traj, CUTOFF, frames=range(6), chain_length=1
        )
        # Stress is scale-dependent per frame; compare frame-by-frame.
        ratio = warm.stress / cold.stress
        assert np.all(ratio < 1.5), f"warm stress blew up: ratios {ratio}"
        assert ratio.mean() < 1.2

    def test_chain_heads_match_single_frame_scan(self, trp_traj):
        """A chain head is a plain cold solve — same result standalone."""
        scan = trajectory_layout_scan(trp_traj, CUTOFF, frames=range(5))
        solo = trajectory_layout_scan(trp_traj, CUTOFF, frames=[4])
        assert np.array_equal(scan.frame_coordinates(4), solo.coordinates[0])


class TestLayoutParams:
    def test_params_forwarded_to_every_solve(self, trp_traj):
        base = trajectory_layout_scan(trp_traj, CUTOFF, frames=range(2))
        tuned = trajectory_layout_scan(
            trp_traj,
            CUTOFF,
            frames=range(2),
            layout_params={"iterations_per_alpha": 2},
        )
        assert not np.array_equal(base.coordinates, tuned.coordinates)

    def test_explicit_impl_param(self, trp_traj):
        scan = trajectory_layout_scan(
            trp_traj,
            CUTOFF,
            frames=range(2),
            layout_params={"impl": "laplacian"},
        )
        # 2JOF is far below LAPLACIAN_THRESHOLD, so auto == laplacian.
        auto = trajectory_layout_scan(trp_traj, CUTOFF, frames=range(2))
        assert np.array_equal(scan.coordinates, auto.coordinates)

    def test_alpha_forwarded_to_every_solve(self, trp_traj):
        """``alpha`` is an ordinary schedule knob: cold heads start at it,
        warm frames at ``min(alpha, WARM_START_ALPHA)``."""
        base = trajectory_layout_scan(trp_traj, CUTOFF, frames=range(2))
        cool = trajectory_layout_scan(
            trp_traj, CUTOFF, frames=range(2), layout_params={"alpha": 0.02}
        )
        assert not np.array_equal(base.coordinates[0], cool.coordinates[0])
        assert not np.array_equal(base.coordinates[1], cool.coordinates[1])

    @pytest.mark.parametrize("key", ["initial", "seed"])
    def test_reserved_params_rejected(self, trp_traj, key):
        with pytest.raises(ValueError, match=key):
            trajectory_layout_scan(
                trp_traj, CUTOFF, frames=[0], layout_params={key: 1}
            )


class TestValidation:
    def test_bad_cutoff(self, trp_traj):
        with pytest.raises(ValueError):
            trajectory_layout_scan(trp_traj, -1.0, frames=[0])

    def test_nan_cutoff(self, trp_traj):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive"):
                trajectory_layout_scan(trp_traj, bad, frames=[0])

    def test_negative_frame(self, trp_traj):
        with pytest.raises(IndexError, match=r"out of range \[0, 12\)"):
            trajectory_layout_scan(trp_traj, CUTOFF, frames=[-1])

    def test_bad_chain_length(self, trp_traj):
        with pytest.raises(ValueError):
            trajectory_layout_scan(trp_traj, CUTOFF, frames=[0], chain_length=0)

    def test_empty_frames(self, trp_traj):
        with pytest.raises(ValueError):
            trajectory_layout_scan(trp_traj, CUTOFF, frames=[])

    def test_out_of_range_frame(self, trp_traj):
        with pytest.raises(IndexError):
            trajectory_layout_scan(trp_traj, CUTOFF, frames=[99])

    def test_frame_coordinates_unknown_frame(self, trp_traj):
        scan = trajectory_layout_scan(trp_traj, CUTOFF, frames=[0, 1])
        with pytest.raises(KeyError):
            scan.frame_coordinates(7)

    def test_result_shapes(self, trp_traj):
        scan = trajectory_layout_scan(trp_traj, CUTOFF, frames=range(4), dim=2)
        assert scan.n_frames == 4
        assert scan.coordinates.shape == (4, trp_traj.topology.n_residues, 2)
        assert scan.stress.shape == (4,)
        assert np.isfinite(scan.stress).all()
