"""Property-based tests (hypothesis) on graphkit invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphkit import Graph, connected_components
from repro.graphkit.centrality import Betweenness, DegreeCentrality, PageRank
from repro.graphkit.kernels import batched_bfs_distances
from repro.graphkit.community import PLM, Partition, modularity, nmi
from repro.graphkit.layout import maxent_stress_layout


@st.composite
def small_graphs(draw, max_nodes=24):
    """Random simple undirected graphs."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=min(60, len(possible)))
        if possible
        else st.just([])
    )
    return Graph.from_edges(n, edges)


@st.composite
def labelings(draw, max_n=30, max_blocks=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_blocks - 1),
            min_size=n,
            max_size=n,
        )
    )
    return Partition(labels)


class TestGraphInvariants:
    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_handshake_lemma(self, g):
        assert int(g.degrees().sum()) == 2 * g.number_of_edges()

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_csr_symmetry(self, g):
        mat = g.csr().to_scipy().toarray()
        assert np.array_equal(mat, mat.T)

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_edge_removal_inverts_addition(self, g):
        before = g.edge_set()
        n = g.number_of_nodes()
        if n >= 2 and not g.has_edge(0, n - 1) and 0 != n - 1:
            g.add_edge(0, n - 1)
            g.remove_edge(0, n - 1)
        assert g.edge_set() == before


class TestDistanceInvariants:
    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_bfs_triangle_inequality_step(self, g):
        # Adjacent nodes differ by at most 1 in BFS distance.
        d = batched_bfs_distances(g.csr(), np.array([0]))[0]
        for u, v in g.iter_edges():
            if d[u] >= 0 and d[v] >= 0:
                assert abs(d[u] - d[v]) <= 1

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_components_consistent_with_bfs(self, g):
        _, labels = connected_components(g)
        d = batched_bfs_distances(g.csr(), np.array([0]))[0]
        reachable = set(np.flatnonzero(d >= 0).tolist())
        same_comp = set(np.flatnonzero(labels == labels[0]).tolist())
        assert reachable == same_comp


class TestCentralityInvariants:
    @given(small_graphs())
    @settings(max_examples=25, deadline=None)
    def test_betweenness_nonnegative(self, g):
        scores = Betweenness(g).run().scores_array()
        assert (scores >= -1e-12).all()

    @given(small_graphs())
    @settings(max_examples=25, deadline=None)
    def test_pagerank_is_distribution(self, g):
        scores = PageRank(g).run().scores_array()
        assert abs(scores.sum() - 1.0) < 1e-6
        assert (scores >= 0).all()

    @given(small_graphs())
    @settings(max_examples=25, deadline=None)
    def test_degree_matches_graph(self, g):
        scores = DegreeCentrality(g).run().scores_array()
        assert np.array_equal(scores, g.degrees().astype(float))


class TestCommunityInvariants:
    @given(small_graphs())
    @settings(max_examples=20, deadline=None)
    def test_plm_partition_covers_all(self, g):
        part = PLM(g, seed=0).run().get_partition()
        assert len(part) == g.number_of_nodes()
        labels = part.labels()
        assert (labels >= 0).all()

    @given(small_graphs())
    @settings(max_examples=20, deadline=None)
    def test_modularity_bounds(self, g):
        part = PLM(g, seed=0).run().get_partition()
        q = modularity(g, part)
        assert -1.0 <= q <= 1.0

    @given(labelings(), labelings())
    @settings(max_examples=40, deadline=None)
    def test_nmi_symmetric_and_bounded(self, p1, p2):
        if len(p1) != len(p2):
            return
        a, b = nmi(p1, p2), nmi(p2, p1)
        assert abs(a - b) < 1e-9
        assert 0.0 <= a <= 1.0

    @given(labelings())
    @settings(max_examples=40, deadline=None)
    def test_nmi_self_is_one(self, p):
        assert abs(nmi(p, p) - 1.0) < 1e-12

    @given(labelings())
    @settings(max_examples=40, deadline=None)
    def test_compact_preserves_structure(self, p):
        c = p.compact()
        assert c.number_of_subsets() == p.number_of_subsets()
        # Same co-membership relation.
        la, lb = p.labels(), c.labels()
        for i in range(min(len(p), 10)):
            for j in range(min(len(p), 10)):
                assert (la[i] == la[j]) == (lb[i] == lb[j])


class TestLayoutInvariants:
    @given(small_graphs(max_nodes=14))
    @settings(max_examples=10, deadline=None)
    def test_layout_finite(self, g):
        coords = maxent_stress_layout(
            g, dim=3, seed=0, iterations_per_alpha=4, alpha_min=0.25
        )
        assert coords.shape == (g.number_of_nodes(), 3)
        assert np.isfinite(coords).all()
