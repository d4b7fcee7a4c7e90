"""Unit tests for centrality measures on graphs with known answers."""

import numpy as np
import pytest

from repro.graphkit import Graph
from repro.graphkit.centrality import (
    ApproxCloseness,
    Betweenness,
    Closeness,
    DegreeCentrality,
    EigenvectorCentrality,
    EstimateBetweenness,
    HarmonicCloseness,
    KatzCentrality,
    PageRank,
    PageRankNorm,
)
from tests.helpers import num_threads


class TestRunPattern:
    def test_requires_run(self, triangle):
        with pytest.raises(RuntimeError):
            Betweenness(triangle).scores()

    def test_run_returns_self(self, triangle):
        alg = DegreeCentrality(triangle)
        assert alg.run() is alg

    def test_score_single_node(self, star5):
        alg = DegreeCentrality(star5).run()
        assert alg.score(0) == 4.0

    def test_ranking_sorted(self, star5):
        ranking = DegreeCentrality(star5).run().ranking()
        assert ranking[0] == (0, 4.0)
        assert [r[0] for r in ranking[1:]] == [1, 2, 3, 4]

    def test_maximum(self, star5):
        assert DegreeCentrality(star5).run().maximum() == 4.0

    def test_centralization_star_is_one(self, star5):
        # The star is the most centralized graph under degree.
        assert DegreeCentrality(star5).run().centralization() == pytest.approx(1.0)


class TestDegree:
    def test_scores(self, path4):
        assert DegreeCentrality(path4).run().scores() == [1, 2, 2, 1]

    def test_normalized(self, star5):
        scores = DegreeCentrality(star5, normalized=True).run().scores()
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(0.25)

    def test_weighted(self):
        g = Graph.from_weighted_edges(3, [(0, 1, 2.0), (0, 2, 3.0)])
        scores = DegreeCentrality(g, weighted=True).run().scores()
        assert scores == [5.0, 2.0, 3.0]


class TestBetweenness:
    def test_path_middle_nodes(self, path4):
        # Node 1 lies on paths 0-2, 0-3; node 2 on 0-3, 1-3.
        scores = Betweenness(path4).run().scores()
        assert scores == [0.0, 2.0, 2.0, 0.0]

    def test_star_center(self, star5):
        scores = Betweenness(star5).run().scores()
        assert scores[0] == 6.0  # C(4,2) leaf pairs
        assert scores[1:] == [0.0] * 4

    def test_triangle_zero(self, triangle):
        assert Betweenness(triangle).run().scores() == [0.0] * 3

    def test_bridge_dominates(self, two_triangles):
        scores = Betweenness(two_triangles).run().scores()
        assert scores[2] == max(scores)
        assert scores[3] == scores[2]

    def test_normalized_range(self, karate):
        scores = Betweenness(karate, normalized=True).run().scores_array()
        assert scores.min() >= 0.0
        assert scores.max() <= 1.0

    def test_disconnected_ok(self, disconnected):
        assert Betweenness(disconnected).run().scores() == [0.0] * 3

    def test_serial_equals_threaded(self, karate):
        with num_threads(1):
            serial = Betweenness(karate).run().scores_array()
        with num_threads(4):
            threaded = Betweenness(karate).run().scores_array()
        assert np.allclose(serial, threaded)

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"weighted": True}],
        ids=["vectorized", "weighted"],
    )
    def test_chunk_completion_order_keeps_bits(self, monkeypatch, kwargs):
        """Threads finish chunks in any order; the sum must not care."""
        from repro.graphkit.centrality import betweenness as mod
        from repro.graphkit.generators import barabasi_albert
        from repro.graphkit.parallel import chunk_ranges

        g = barabasi_albert(300, 3, seed=5)

        def chunks_in(order):
            def run(fn, total):
                for start, stop in order(chunk_ranges(total, 4)):
                    fn(start, stop)

            return run

        runs = []
        for order in (list, reversed):
            monkeypatch.setattr(mod, "parallel_for_chunks", chunks_in(order))
            runs.append(Betweenness(g, **kwargs).run().scores_array())
        assert np.array_equal(runs[0], runs[1])

    def test_directed_not_implemented(self):
        g = Graph(3, directed=True)
        g.add_edge(0, 1)
        with pytest.raises(NotImplementedError):
            Betweenness(g).run()


class TestEstimateBetweenness:
    def test_full_sampling_is_exact(self, karate):
        exact = Betweenness(karate).run().scores_array()
        est = EstimateBetweenness(karate, nsamples=karate.number_of_nodes()).run()
        assert np.allclose(est.scores_array(), exact)

    def test_partial_sampling_correlates(self, karate):
        exact = Betweenness(karate).run().scores_array()
        est = EstimateBetweenness(karate, nsamples=16, seed=5).run().scores_array()
        corr = np.corrcoef(exact, est)[0, 1]
        assert corr > 0.9

    def test_deterministic_given_seed(self, karate):
        a = EstimateBetweenness(karate, nsamples=8, seed=3).run().scores_array()
        b = EstimateBetweenness(karate, nsamples=8, seed=3).run().scores_array()
        assert np.array_equal(a, b)

    def test_invalid_samples(self, karate):
        with pytest.raises(ValueError):
            EstimateBetweenness(karate, nsamples=0)


class TestCloseness:
    def test_star_center_highest(self, star5):
        scores = Closeness(star5).run().scores()
        assert scores[0] == max(scores)

    def test_path_values(self, path4):
        scores = Closeness(path4, normalized=False).run().scores()
        assert scores[0] == pytest.approx(3 / 6)
        assert scores[1] == pytest.approx(3 / 4)

    def test_generalized_on_disconnected(self, disconnected):
        scores = Closeness(disconnected, normalized=True).run().scores()
        # Isolated node has zero closeness; the pair has (r-1)/(n-1) scaling.
        assert scores[2] == 0.0
        assert scores[0] == pytest.approx((1 / 1) * (1 / 2))

    def test_harmonic_on_disconnected(self, disconnected):
        scores = HarmonicCloseness(disconnected, normalized=False).run().scores()
        assert scores == [1.0, 1.0, 0.0]

    def test_harmonic_star(self, star5):
        scores = HarmonicCloseness(star5, normalized=False).run().scores()
        assert scores[0] == pytest.approx(4.0)
        assert scores[1] == pytest.approx(1.0 + 3 * 0.5)

    def test_approx_correlates_with_exact(self, karate):
        exact = np.array(Closeness(karate).run().scores())
        approx = np.array(ApproxCloseness(karate, nsamples=20, seed=1).run().scores())
        assert np.corrcoef(exact, approx)[0, 1] > 0.85


class TestEigenvector:
    def test_star_center_highest(self, star5):
        scores = EigenvectorCentrality(star5).run().scores()
        assert scores[0] == max(scores)
        assert scores[1] == pytest.approx(scores[4])

    def test_regular_graph_uniform(self, triangle):
        scores = EigenvectorCentrality(triangle).run().scores_array()
        assert np.allclose(scores, scores[0])

    def test_l2_normalized(self, karate):
        scores = EigenvectorCentrality(karate).run().scores_array()
        assert np.linalg.norm(scores) == pytest.approx(1.0)

    def test_empty_edges(self):
        scores = EigenvectorCentrality(Graph(3)).run().scores()
        assert scores == [0.0] * 3

    def test_invalid_params(self, triangle):
        with pytest.raises(ValueError):
            EigenvectorCentrality(triangle, tol=0.0)
        with pytest.raises(ValueError):
            EigenvectorCentrality(triangle, max_iterations=0)


class TestKatz:
    def test_star_center_highest(self, star5):
        scores = KatzCentrality(star5).run().scores()
        assert scores[0] == max(scores)

    def test_series_matches_direct(self, karate):
        direct = KatzCentrality(karate, method="direct").run().scores_array()
        series = KatzCentrality(karate, method="series").run().scores_array()
        assert np.allclose(direct, series, atol=1e-6)

    def test_effective_alpha_below_bound(self, karate):
        alg = KatzCentrality(karate)
        max_deg = int(karate.degrees().max())
        assert alg.effective_alpha() < 1.0 / np.sqrt(max_deg)

    def test_explicit_alpha_used(self, triangle):
        assert KatzCentrality(triangle, alpha=0.2).effective_alpha() == 0.2

    def test_unknown_method(self, triangle):
        with pytest.raises(ValueError):
            KatzCentrality(triangle, method="bogus")


class TestPageRank:
    def test_probability_distribution(self, karate):
        scores = PageRank(karate).run().scores_array()
        assert scores.sum() == pytest.approx(1.0)
        assert scores.min() > 0

    def test_dangling_nodes_handled(self):
        g = Graph(3, directed=True)
        g.add_edge(0, 1)
        g.add_edge(1, 2)  # node 2 dangles
        scores = PageRank(g).run().scores_array()
        assert scores.sum() == pytest.approx(1.0)

    def test_evolving_normalization(self, karate):
        raw = PageRank(karate).run().scores_array()
        ev = PageRank(karate, norm=PageRankNorm.EVOLVING).run().scores_array()
        n = karate.number_of_nodes()
        assert np.allclose(ev, raw / ((1 - 0.85) / n))

    def test_evolving_no_inlink_node_scores_one(self):
        # Berberich et al.: a node without in-links gets exactly the
        # teleport mass (1-d)/n, i.e. normalized score 1 — regardless of n.
        # (Needs out-links everywhere so no dangling mass is redistributed.)
        for n in (5, 50):
            g2 = Graph(n, directed=True)
            for u in range(n - 1):
                g2.add_edge(u, (u + 1) % (n - 1))  # cycle over 0..n-2
            g2.add_edge(n - 1, 0)  # last node points in, nobody points at it
            scores = PageRank(g2, norm=PageRankNorm.EVOLVING).run().scores_array()
            assert scores[n - 1] == pytest.approx(1.0, rel=1e-6)

    def test_l1_normalization(self, karate):
        scores = PageRank(karate, norm=PageRankNorm.L1).run().scores_array()
        assert scores.sum() == pytest.approx(1.0)

    def test_invalid_damping(self, triangle):
        with pytest.raises(ValueError):
            PageRank(triangle, damp=1.0)
        with pytest.raises(ValueError):
            PageRank(triangle, damp=0.0)
