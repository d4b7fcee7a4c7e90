"""Unit tests for community detection algorithms and quality measures."""

import networkx as nx
import numpy as np
import pytest

from repro.graphkit import Graph
from repro.graphkit.community import (
    PLM,
    PLP,
    Partition,
    coverage,
    modularity,
    nmi,
)
from repro.graphkit.generators import planted_partition

ALGOS = {
    "plm": lambda g: PLM(g, seed=1),
    "plm-refine": lambda g: PLM(g, refine=True, seed=1),
    "plp": lambda g: PLP(g, seed=1),
}


@pytest.fixture
def sbm():
    return planted_partition(60, 3, p_in=0.5, p_out=0.02, seed=4)


class TestAllAlgorithms:
    @pytest.mark.parametrize("name", list(ALGOS))
    def test_valid_partition(self, name, karate):
        part = ALGOS[name](karate).run().get_partition()
        assert len(part) == karate.number_of_nodes()
        assert part.number_of_subsets() >= 1

    @pytest.mark.parametrize("name", list(ALGOS))
    def test_recovers_planted_partition(self, name, sbm):
        g, truth = sbm
        part = ALGOS[name](g).run().get_partition()
        assert nmi(part, truth) > 0.9

    @pytest.mark.parametrize("name", list(ALGOS))
    def test_deterministic_with_seed(self, name, karate):
        a = ALGOS[name](karate).run().get_partition()
        b = ALGOS[name](karate).run().get_partition()
        assert np.array_equal(a.labels(), b.labels())

    @pytest.mark.parametrize("name", list(ALGOS))
    def test_requires_run(self, name, karate):
        with pytest.raises(RuntimeError):
            ALGOS[name](karate).get_partition()

    @pytest.mark.parametrize("name", list(ALGOS))
    def test_two_triangles_separated(self, name, two_triangles):
        part = ALGOS[name](two_triangles).run().get_partition()
        labels = part.labels()
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]


class TestPLM:
    def test_karate_modularity_good(self, karate):
        part = PLM(karate, seed=1).run().get_partition()
        q = modularity(karate, part)
        # The known optimum for karate is ~0.4198; Louvain should get close.
        assert q > 0.38

    def test_matches_networkx_louvain_quality(self, karate):
        part = PLM(karate, seed=1).run().get_partition()
        q_ours = modularity(karate, part)
        nxg = nx.karate_club_graph()
        nx_comms = nx.algorithms.community.louvain_communities(nxg, seed=1)
        q_nx = nx.algorithms.community.modularity(nxg, nx_comms)
        assert q_ours >= q_nx - 0.03

    def test_refine_not_worse(self, karate):
        q_plain = modularity(karate, PLM(karate, seed=1).run().get_partition())
        q_refined = modularity(
            karate, PLM(karate, refine=True, seed=1).run().get_partition()
        )
        assert q_refined >= q_plain - 1e-9

    def test_gamma_resolution(self, karate):
        coarse = PLM(karate, gamma=0.3, seed=1).run().get_partition()
        fine = PLM(karate, gamma=3.0, seed=1).run().get_partition()
        assert coarse.number_of_subsets() <= fine.number_of_subsets()

    def test_number_of_levels(self, karate):
        alg = PLM(karate, seed=1).run()
        assert alg.number_of_levels() >= 1

    def test_empty_graph(self):
        part = PLM(Graph(0)).run().get_partition()
        assert len(part) == 0

    def test_edgeless_graph(self):
        part = PLM(Graph(5)).run().get_partition()
        assert part.number_of_subsets() == 5

    def test_directed_rejected(self):
        g = Graph(3, directed=True)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            PLM(g).run()


class TestPLP:
    def test_iterations_reported(self, karate):
        alg = PLP(karate).run()
        assert 1 <= alg.number_of_iterations() <= 100

    def test_converges_fast_on_cliques(self, two_triangles):
        alg = PLP(two_triangles).run()
        assert alg.number_of_iterations() <= 5

    def test_invalid_max_iterations(self, karate):
        with pytest.raises(ValueError):
            PLP(karate, max_iterations=0)


class TestQualityMeasures:
    def test_modularity_single_block(self, karate):
        n = karate.number_of_nodes()
        part = Partition(np.zeros(n, dtype=int))
        assert modularity(karate, part) == pytest.approx(0.0)

    def test_modularity_singletons_negative(self, karate):
        part = Partition(karate.number_of_nodes())
        assert modularity(karate, part) < 0

    def test_modularity_matches_networkx(self, karate):
        part = PLM(karate, seed=2).run().get_partition()
        nxg = nx.karate_club_graph()
        comms = [set(b.tolist()) for b in part.subsets()]
        # weight=None: our fixture drops nx's karate edge weights.
        assert modularity(karate, part) == pytest.approx(
            nx.algorithms.community.modularity(nxg, comms, weight=None)
        )

    def test_coverage_bounds(self, karate):
        part = PLM(karate, seed=1).run().get_partition()
        c = coverage(karate, part)
        assert 0.0 <= c <= 1.0
        # Single block covers everything.
        whole = Partition(np.zeros(karate.number_of_nodes(), dtype=int))
        assert coverage(karate, whole) == pytest.approx(1.0)

    def test_modularity_empty_graph(self):
        assert modularity(Graph(3), Partition(3)) == 0.0

    def test_partition_size_mismatch_rejected(self, karate):
        with pytest.raises(ValueError):
            modularity(karate, Partition(5))
