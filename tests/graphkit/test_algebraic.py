"""Unit tests for TopCloseness."""

import numpy as np
import pytest

from repro.graphkit.centrality import Closeness, TopCloseness
from repro.graphkit.generators import erdos_renyi, random_geometric


class TestTopCloseness:
    def test_matches_exact_on_karate(self, karate):
        top = TopCloseness(karate, k=5).run()
        exact = Closeness(karate, normalized=True).run().ranking()[:5]
        assert top.topkNodesList() == [u for u, _ in exact]
        assert np.allclose(top.topkScoresList(), [s for _, s in exact])

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_matches_exact_on_random(self, seed):
        g = erdos_renyi(60, 0.07, seed=seed)  # may be disconnected
        top = TopCloseness(g, k=8).run()
        exact = Closeness(g, normalized=True).run().ranking()[:8]
        assert np.allclose(
            top.topkScoresList(), [s for _, s in exact], atol=1e-12
        )

    def test_pruning_happens(self):
        g = random_geometric(200, 0.07, seed=5)
        top = TopCloseness(g, k=3).run()
        assert top.pruned_bfs_count > 0

    def test_k_larger_than_n(self, triangle):
        top = TopCloseness(triangle, k=10).run()
        assert len(top.topkNodesList()) == 3

    def test_requires_run(self, karate):
        with pytest.raises(RuntimeError):
            TopCloseness(karate).topkNodesList()

    def test_invalid_k(self, karate):
        with pytest.raises(ValueError):
            TopCloseness(karate, k=0)

    def test_on_fragmented_rin(self):
        # Low-cutoff RINs are disconnected: bound must stay sound.
        from repro.md import proteins
        from repro.rin import build_rin

        topo, native = proteins.build("A3D")
        g = build_rin(topo, native, 3.0)
        top = TopCloseness(g, k=5).run()
        exact = Closeness(g, normalized=True).run().ranking()[:5]
        assert np.allclose(
            top.topkScoresList(), [s for _, s in exact], atol=1e-12
        )
