"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. warm-start vs cold Maxent-Stress layout (the widget's frame-switch
   optimization);
2. incremental edge diffs (DynamicRIN) vs rebuilding the RIN from
   scratch (the paper's add/remove-edges routine vs naive);
3. per-source parallel decomposition for betweenness (the OpenMP
   stand-in) vs serial;
4. sampled vs exact betweenness (NetworKit's approximation strategy,
   §II: "approximation is often the only feasible technique").
"""

import numpy as np
import pytest

from repro.bench import protein_trajectory
from repro.graphkit.centrality import Betweenness, EstimateBetweenness
from repro.graphkit.generators import random_geometric
from repro.graphkit.layout import maxent_stress_layout
from repro.graphkit.parallel import set_num_threads
from repro.rin import DynamicRIN, build_rin


@pytest.fixture(scope="module")
def a3d_traj():
    return protein_trajectory("A3D")


class TestLayoutWarmStart:
    def test_warm_layout(self, benchmark, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=10.0)
        cold = maxent_stress_layout(rin.csr, dim=3, seed=1)

        def warm():
            return maxent_stress_layout(
                rin.csr, dim=3, seed=1, initial=cold, alpha=0.25
            )

        coords = benchmark(warm)
        assert np.isfinite(coords).all()

    def test_cold_layout(self, benchmark, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=10.0)
        coords = benchmark(
            lambda: maxent_stress_layout(rin.csr, dim=3, seed=1)
        )
        assert np.isfinite(coords).all()


class TestIncrementalVsRebuild:
    def test_incremental_update(self, benchmark, a3d_traj):
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        state = {"flip": False}

        def update():
            state["flip"] = not state["flip"]
            return rin.set_cutoff(5.0 if state["flip"] else 4.5)

        benchmark(update)

    def test_full_rebuild(self, benchmark, a3d_traj):
        topo = a3d_traj.topology
        frame = a3d_traj.frame(0)
        state = {"flip": False}

        def rebuild():
            state["flip"] = not state["flip"]
            return build_rin(topo, frame, 5.0 if state["flip"] else 4.5)

        benchmark(rebuild)

    def test_shape_small_diffs_cheaper_than_rebuild(self, a3d_traj):
        """A 0.1 Å nudge touches few edges; the diff must beat a rebuild
        in touched-edge count (the quantity that scales DOM work)."""
        rin = DynamicRIN(a3d_traj, frame=0, cutoff=4.5)
        diff = rin.set_cutoff(4.6)
        assert diff.total < rin.csr.number_of_edges() / 4


class TestBetweennessParallel:
    @pytest.fixture(scope="class")
    def big_graph(self):
        return random_geometric(400, 0.09, seed=2)

    @pytest.fixture(autouse=True)
    def reset_threads(self):
        yield
        set_num_threads(None)

    def test_serial(self, benchmark, big_graph):
        set_num_threads(1)
        benchmark(lambda: Betweenness(big_graph).run())

    def test_threaded(self, benchmark, big_graph):
        set_num_threads(2)
        benchmark(lambda: Betweenness(big_graph).run())

    def test_shape_results_identical(self, big_graph):
        set_num_threads(1)
        serial = Betweenness(big_graph).run().scores_array()
        set_num_threads(2)
        threaded = Betweenness(big_graph).run().scores_array()
        assert np.allclose(serial, threaded)


class TestApproximationTradeoff:
    @pytest.fixture(scope="class")
    def graph(self):
        return random_geometric(500, 0.08, seed=4)

    def test_exact_betweenness(self, benchmark, graph):
        benchmark(lambda: Betweenness(graph).run())

    def test_sampled_betweenness(self, benchmark, graph):
        benchmark(lambda: EstimateBetweenness(graph, nsamples=50, seed=1).run())

    def test_shape_estimator_converges_with_samples(self, graph):
        """More pivots → better agreement with exact scores, reaching
        exactness at full sampling (the approximation trade-off knob)."""
        exact = Betweenness(graph).run().scores_array()

        def corr(nsamples):
            est = EstimateBetweenness(
                graph, nsamples=nsamples, seed=1
            ).run().scores_array()
            return float(np.corrcoef(exact, est)[0, 1])

        c50, c150 = corr(50), corr(150)
        assert c150 > c50
        assert c150 > 0.8
        full = EstimateBetweenness(
            graph, nsamples=graph.number_of_nodes(), seed=1
        ).run().scores_array()
        assert np.allclose(full, exact)
