"""Unit tests for layout algorithms."""

import numpy as np
import pytest

from repro.graphkit import Graph
from repro.graphkit.layout import (
    WARM_START_ALPHA,
    FruchtermanReingold,
    MaxentStress,
    fruchterman_reingold_layout,
    maxent_stress_layout,
    maxent_stress_value,
    spectral_layout,
)
from repro.graphkit.generators import grid_2d, random_geometric
from repro.md import generate_trajectory, proteins
from repro.rin import DynamicRIN


def layout_stress(g, coords):
    """Mean squared deviation from unit target distance over edges."""
    err = 0.0
    m = 0
    for u, v in g.iter_edges():
        d = np.linalg.norm(coords[u] - coords[v])
        err += (d - 1.0) ** 2
        m += 1
    return err / max(m, 1)


class TestMaxentStress:
    def test_shape_and_finite(self, karate):
        coords = maxent_stress_layout(karate, dim=3, k=2, seed=1)
        assert coords.shape == (karate.number_of_nodes(), 3)
        assert np.isfinite(coords).all()

    def test_improves_over_random(self, karate):
        rng = np.random.default_rng(0)
        random_coords = rng.standard_normal((karate.number_of_nodes(), 3))
        optimized = maxent_stress_layout(karate, dim=3, k=2, seed=1)
        assert layout_stress(karate, optimized) < layout_stress(
            karate, random_coords
        )

    def test_deterministic(self, karate):
        a = maxent_stress_layout(karate, dim=3, seed=5)
        b = maxent_stress_layout(karate, dim=3, seed=5)
        assert np.array_equal(a, b)

    def test_warm_start_converges_faster(self, karate):
        cold = maxent_stress_layout(karate, dim=3, seed=1)
        warm = maxent_stress_layout(karate, dim=3, seed=2, initial=cold)
        # Warm start must not blow up the layout scale.
        assert np.isfinite(warm).all()
        assert layout_stress(karate, warm) < 2 * layout_stress(karate, cold) + 1.0

    def test_separates_non_adjacent(self):
        # Two disjoint edges: entropy term must keep the pairs apart.
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        coords = maxent_stress_layout(g, dim=3, seed=3)
        assert np.linalg.norm(coords[0] - coords[2]) > 0.05

    def test_grid_geometry_recovered(self):
        # On a 2D grid, corner-to-corner distance should clearly exceed
        # the unit edge length (layout reflects graph geometry).
        g = grid_2d(5, 5)
        coords = maxent_stress_layout(g, dim=2, k=2, seed=1)
        edge_len = np.mean(
            [np.linalg.norm(coords[u] - coords[v]) for u, v in g.iter_edges()]
        )
        corner = np.linalg.norm(coords[0] - coords[24])
        assert corner > 2.5 * edge_len

    def test_runner_api_matches_listing1(self, karate):
        # Paper Listing 1: nk.viz.MaxentStress(G, 3, 3).run().getCoordinates()
        layout = MaxentStress(karate, 3, 3)
        layout.run()
        coords = layout.getCoordinates()
        assert coords.shape == (karate.number_of_nodes(), 3)

    def test_runner_requires_run(self, karate):
        with pytest.raises(RuntimeError):
            MaxentStress(karate, 3, 1).getCoordinates()

    def test_empty_graph(self):
        assert maxent_stress_layout(Graph(0), dim=3).shape == (0, 3)

    def test_edgeless_graph(self):
        coords = maxent_stress_layout(Graph(5), dim=2, seed=1)
        assert coords.shape == (5, 2)
        assert np.isfinite(coords).all()

    def test_invalid_dim(self, triangle):
        with pytest.raises(ValueError):
            maxent_stress_layout(triangle, dim=0)

    def test_bad_initial_shape(self, triangle):
        with pytest.raises(ValueError):
            maxent_stress_layout(triangle, dim=3, initial=np.zeros((2, 3)))

    def test_no_repulsion_mode(self, karate):
        coords = maxent_stress_layout(karate, dim=3, repulsion_samples=0, seed=1)
        assert np.isfinite(coords).all()


def count_sweeps(g, **kwargs) -> int:
    """Sweeps one solve runs, counted through the per-sweep cancel poll."""
    polls = []

    def cancel() -> bool:
        polls.append(None)
        return False

    maxent_stress_layout(g, 3, seed=1, cancel=cancel, **kwargs)
    return len(polls)


class TestWarmStartRule:
    """A warm start resumes the anneal at ``min(alpha, WARM_START_ALPHA)``
    instead of re-heating the previous layout at alpha = 1."""

    @pytest.mark.parametrize("ipa", [3, 12])
    def test_warm_solve_runs_half_the_schedule(self, karate, ipa):
        # Defaults: alpha 1 -> 0.008 halving is 8 stages; from 0.05 it is 4.
        # tol=0 so no stage ends early and the count is the schedule's.
        x0 = maxent_stress_layout(karate, 3, seed=1)
        assert count_sweeps(karate, iterations_per_alpha=ipa, tol=0.0) == 8 * ipa
        warm = count_sweeps(karate, iterations_per_alpha=ipa, tol=0.0, initial=x0)
        assert warm == 4 * ipa

    def test_lower_alpha_is_kept(self, karate):
        # The rule only caps alpha: a cooler requested start stays as is.
        assert WARM_START_ALPHA > 0.01
        x0 = maxent_stress_layout(karate, 3, seed=1)
        kw = dict(alpha=0.01, iterations_per_alpha=2, tol=0.0)
        assert count_sweeps(karate, initial=x0, **kw) == count_sweeps(karate, **kw)

    def test_warm_solves_match_cold_quality_on_a3d(self):
        """Slider sequences chained the way the widget chains them.

        A 24-frame scrub forward and back, then 40 random cut-offs in
        5-7 Å; every warm solve's stress is compared with a cold solve of
        the same graph.
        """
        topo, native = proteins.build("A3D")
        traj = generate_trajectory(topo, native, 24, seed=5)
        rin = DynamicRIN(traj, frame=0, cutoff=6.0)
        rng = np.random.default_rng(5)
        frames = list(range(1, 24)) + list(range(22, -1, -1))
        states = [{"frame": f} for f in frames]
        states += [{"cutoff": float(c)} for c in rng.uniform(5.0, 7.0, 40)]
        x = maxent_stress_layout(rin.csr, 3, 1, seed=42)
        ratios = []
        for state in states:
            rin.set_state(**state)
            x = maxent_stress_layout(rin.csr, 3, 1, seed=42, initial=x)
            cold = maxent_stress_layout(rin.csr, 3, 1, seed=42)
            ratios.append(
                maxent_stress_value(rin.csr, x) / maxent_stress_value(rin.csr, cold)
            )
        assert max(ratios) <= 1.10, f"worst warm/cold stress ratio {max(ratios)}"
        assert np.median(ratios) <= 1.0


class TestBarnesHutTrustRegion:
    """Pair-free nodes divide by a rho floored to _EPS, so the entropy
    term hands them a ~1/_EPS kick; the Barnes-Hut engine caps per-sweep
    displacement at 100 layout scales so one sweep cannot teleport them
    out of the embedding (and collapse the octree's cell structure)."""

    @staticmethod
    def _ring_with_isolated(n_ring=32, n_iso=32):
        edges = [(i, (i + 1) % n_ring) for i in range(n_ring)]
        return Graph.from_edges(n_ring + n_iso, edges)

    def test_single_sweep_displacement_capped(self):
        g = self._ring_with_isolated()
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((g.number_of_nodes(), 3))
        x1 = maxent_stress_layout(
            g, 3, initial=x0, impl="barnes_hut",
            alpha=0.008, alpha_min=0.008, iterations_per_alpha=1, tol=0.0,
        )
        step = np.linalg.norm(x1 - x0, axis=1)
        # scale == mean target distance == 1 on an unweighted graph.
        assert step.max() <= 100.0 * (1.0 + 1e-9)
        # The cap must actually bind for the isolated tail: uncapped,
        # the rho ~ _EPS denominator kicks those nodes ~1e7 scales out
        # in this single sweep, so a capped step sits exactly at the
        # trust-region boundary.
        assert step[32:].max() > 99.0

    def test_isolated_nodes_stay_bounded_and_finite(self):
        g = self._ring_with_isolated()
        x = maxent_stress_layout(
            g, 3, impl="barnes_hut", alpha=0.008,
            iterations_per_alpha=3, seed=0, tol=0.0,
        )
        assert np.isfinite(x).all()
        assert np.abs(x).max() < 500.0

    def test_polish_improves_sampled_embedding(self):
        # The sampled estimator is biased on large sparse graphs (rare
        # near-neighbour hits dominate its variance); polishing its
        # embedding with the tree engine's bounded-error field lowers
        # the stress.
        g = random_geometric(1000, 0.084, seed=1)
        x0 = maxent_stress_layout(
            g, dim=3, k=1, seed=1, iterations_per_alpha=2,
            repulsion_samples=4, impl="sampled",
        )
        xb = maxent_stress_layout(
            g, dim=3, k=1, seed=1, initial=x0, alpha=0.008,
            iterations_per_alpha=4, impl="barnes_hut",
        )
        assert np.isfinite(xb).all()
        csr = g.csr()
        assert maxent_stress_value(csr, xb) < maxent_stress_value(csr, x0)

    def test_cap_inactive_on_well_behaved_graphs(self, karate):
        # Every karate node has known pairs, so no step approaches the
        # trust region: a Barnes-Hut polish sweep from a stress-only
        # warm start moves nodes by a small fraction of the cap.
        x0 = maxent_stress_layout(karate, dim=3, seed=5, repulsion_samples=0)
        x1 = maxent_stress_layout(
            karate, 3, initial=x0, impl="barnes_hut",
            alpha=0.008, alpha_min=0.008, iterations_per_alpha=1, tol=0.0,
        )
        assert np.linalg.norm(x1 - x0, axis=1).max() < 100.0


class TestFruchtermanReingold:
    def test_shape(self, karate):
        coords = fruchterman_reingold_layout(karate, dim=2, seed=1)
        assert coords.shape == (karate.number_of_nodes(), 2)
        assert np.isfinite(coords).all()

    def test_adjacent_closer_than_random_pairs(self, karate):
        coords = fruchterman_reingold_layout(karate, dim=2, seed=1, iterations=80)
        edge_d = np.mean(
            [np.linalg.norm(coords[u] - coords[v]) for u, v in karate.iter_edges()]
        )
        rng = np.random.default_rng(0)
        pair_d = np.mean(
            [
                np.linalg.norm(coords[u] - coords[v])
                for u, v in rng.integers(0, len(coords), size=(300, 2))
                if u != v and not karate.has_edge(int(u), int(v))
            ]
        )
        assert edge_d < pair_d

    def test_sampled_mode_for_large_graph(self):
        g = random_geometric(300, 0.12, seed=1)
        coords = fruchterman_reingold_layout(
            g, dim=3, seed=1, exact_threshold=100, iterations=10
        )
        assert coords.shape == (300, 3)
        assert np.isfinite(coords).all()

    def test_runner(self, triangle):
        coords = FruchtermanReingold(triangle, 3).run().getCoordinates()
        assert coords.shape == (3, 3)

    def test_single_node(self):
        assert fruchterman_reingold_layout(Graph(1), dim=2).shape == (1, 2)


class TestSpectral:
    def test_shape(self, karate):
        coords = spectral_layout(karate, dim=2)
        assert coords.shape == (karate.number_of_nodes(), 2)
        assert np.isfinite(coords).all()

    def test_path_orders_nodes(self):
        g = Graph.from_edges(10, [(i, i + 1) for i in range(9)])
        coords = spectral_layout(g, dim=1)
        x = coords[:, 0]
        # Fiedler vector of a path is monotone along the path.
        assert np.all(np.diff(x) > 0) or np.all(np.diff(x) < 0)

    def test_tiny_graph_fallback(self):
        coords = spectral_layout(Graph.from_edges(2, [(0, 1)]), dim=3)
        assert coords.shape == (2, 3)

    def test_invalid_dim(self, triangle):
        with pytest.raises(ValueError):
            spectral_layout(triangle, dim=0)
