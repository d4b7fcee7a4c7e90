"""Differential tests: vectorized engines vs impl="reference" naive paths.

Every hot-path algorithm carries two engines; these tests pin them to each
other (and transitively to networkx, which the reference engines are
cross-validated against elsewhere) on canonical fixtures and edge cases.
The measure configurations come from the shared engine registry
(``tests/helpers.ENGINE_MATRIX``) — the same table the cross-engine
matrix harness (``test_kernel_matrix.py``) runs — so a new engine or
measure joins both suites by editing one table. The batched
shortest-path engines additionally pin three-way (batched vs the
superseded per-source sweep vs the textbook scalar) and carry a
chunking-invariance property: the source-block size can never change a
result.
"""

import numpy as np
import pytest

from repro.graphkit import Graph, core_decomposition
from repro.graphkit.centrality import Betweenness
from repro.graphkit.generators import erdos_renyi
from repro.graphkit.kernels import batched_brandes_dependencies
from repro.graphkit.layout import maxent_stress_layout
from tests.helpers import ENGINE_MATRIX, SEEDS, num_threads


def _twin_cases(group: str) -> list:
    """Registry cases of one group that carry a scalar reference twin."""
    return [
        pytest.param(case, id=case.id)
        for case in ENGINE_MATRIX
        if case.group == group and "reference" in case.impls
    ]


def _case(case_id: str):
    (case,) = [c for c in ENGINE_MATRIX if c.id == case_id]
    return case


CENTRALITY_FACTORIES = _twin_cases("hop")


def both_impls(case, g):
    return case.run(g, "vectorized"), case.run(g, "reference")


class TestCentralityDifferential:
    @pytest.mark.parametrize("case", CENTRALITY_FACTORIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_graphs(self, case, seed):
        g = erdos_renyi(45, 0.1, seed=seed)
        fast, slow = both_impls(case, g)
        assert np.allclose(fast, slow, atol=1e-8)

    @pytest.mark.parametrize("case", CENTRALITY_FACTORIES)
    def test_karate(self, case, karate):
        fast, slow = both_impls(case, karate)
        assert np.allclose(fast, slow, atol=1e-8)

    @pytest.mark.parametrize("case", CENTRALITY_FACTORIES)
    def test_disconnected_with_isolated_node(self, case, disconnected):
        fast, slow = both_impls(case, disconnected)
        assert np.allclose(fast, slow, atol=1e-10)

    @pytest.mark.parametrize("case", CENTRALITY_FACTORIES)
    def test_empty_graph(self, case):
        fast, slow = both_impls(case, Graph(0))
        assert fast.shape == (0,) and slow.shape == (0,)

    @pytest.mark.parametrize("case", CENTRALITY_FACTORIES)
    def test_edgeless_graph(self, case):
        fast, slow = both_impls(case, Graph(4))
        assert np.allclose(fast, slow)

    def test_invalid_impl_rejected(self, triangle):
        with pytest.raises(ValueError):
            Betweenness(triangle, impl="magic")

    def test_rin_graph(self, a3d_traj):
        from repro.rin import build_rin

        g = build_rin(a3d_traj.topology, a3d_traj.frame(0), 6.0)
        for case_id in ("closeness", "betweenness", "degree"):
            fast, slow = both_impls(_case(case_id), g)
            assert np.allclose(fast, slow, atol=1e-8)


class TestBetweennessEngineTriangle:
    """Batched SpMM Brandes vs textbook scalar Brandes."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_three_way_agreement(self, seed):
        g = erdos_renyi(45, 0.1, seed=seed)
        batched = Betweenness(g).run().scores_array()
        ref = Betweenness(g, impl="reference").run().scores_array()
        assert np.allclose(batched, ref, atol=1e-8)

    def test_fixtures(self, karate, disconnected, star5):
        for g in (karate, disconnected, star5):
            batched = Betweenness(g).run().scores_array()
            ref = Betweenness(g, impl="reference").run().scores_array()
            assert np.allclose(batched, ref, atol=1e-10)


class TestBlockSizeInvariance:
    """Property: the source-block (chunk) size never changes results."""

    CHUNKS = [1, 3, 7, 1000]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_brandes(self, seed):
        csr = erdos_renyi(40, 0.12, seed=seed).csr()
        sources = np.arange(csr.n)
        base = batched_brandes_dependencies(csr, sources)
        for chunk in self.CHUNKS:
            out = batched_brandes_dependencies(csr, sources, chunk_size=chunk)
            assert np.allclose(base, out, atol=1e-12)

    def test_thread_count_invariance(self, karate):
        # Thread-level chunking composes with kernel-level blocking; the
        # combination must stay invariant too.
        with num_threads(1):
            base = Betweenness(karate).run().scores_array()
        for threads in (2, 5):
            with num_threads(threads):
                out = Betweenness(karate).run().scores_array()
            assert np.allclose(base, out, atol=1e-12)


class TestCorenessDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_graphs(self, seed):
        g = erdos_renyi(70, 0.07, seed=seed)
        assert (
            core_decomposition(g, impl="vectorized").tolist()
            == core_decomposition(g, impl="reference").tolist()
        )

    def test_star_and_triangle(self, star5, triangle):
        for g in (star5, triangle):
            assert (
                core_decomposition(g, impl="vectorized").tolist()
                == core_decomposition(g, impl="reference").tolist()
            )


class TestLayoutDifferential:
    @pytest.mark.parametrize("k", [1, 3])
    def test_same_seed_same_layout(self, two_triangles, k):
        fast = maxent_stress_layout(
            two_triangles, 3, k, seed=5, impl="sampled"
        )
        slow = maxent_stress_layout(
            two_triangles, 3, k, seed=5, impl="reference"
        )
        assert np.allclose(fast, slow, atol=1e-6)

    def test_khop_pair_sets_match_when_cap_unbinding(self):
        # On a cycle every node has exactly two nodes per hop distance, so
        # the per-node pair budget never binds and the two discovery
        # strategies must select the *same* pair set.
        from repro.graphkit.layout.maxent_stress import (
            _khop_pairs_reference,
            _khop_pairs_vectorized,
        )

        ring = Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)])
        for k in (2, 3, 4):
            ft, fh, fd = _khop_pairs_vectorized(ring.csr(), k, 24)
            st, sh, sd = _khop_pairs_reference(ring.csr(), k, 24)
            fast = set(zip(ft.tolist(), fh.tolist(), fd.tolist()))
            slow = set(zip(st.tolist(), sh.tolist(), sd.tolist()))
            assert fast == slow

    def test_ring_layout_k3(self):
        ring = Graph.from_edges(16, [(i, (i + 1) % 16) for i in range(16)])
        fast = maxent_stress_layout(
            ring, 2, 3, seed=2, repulsion_samples=0, impl="sampled"
        )
        slow = maxent_stress_layout(
            ring, 2, 3, seed=2, repulsion_samples=0, impl="reference"
        )
        assert np.allclose(fast, slow, atol=1e-6)

    def test_empty_and_edgeless(self):
        assert maxent_stress_layout(Graph(0), 3, 1, impl="sampled").shape == (0, 3)
        out = maxent_stress_layout(Graph(3), 2, 1, seed=1, impl="sampled")
        assert out.shape == (3, 2)

    def test_invalid_impl_rejected(self, triangle):
        with pytest.raises(ValueError):
            maxent_stress_layout(triangle, 3, 1, impl="nope")
