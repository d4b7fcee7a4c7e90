"""Cross-engine differential matrix: every engine × every measure.

The single table driving this suite lives in ``tests/helpers.py``
(:data:`ENGINE_MATRIX`). For each measure configuration the matrix runs
every registered ``impl=`` engine on every fixture — a real protein RIN,
random/grid/disconnected graphs, and a hand-built self-loop CSR — and
pins the results together (``EXACT_ATOL`` unless a case documents its
own tolerance). Two drift guards keep the table honest:

* every :class:`~repro.graphkit.centrality.base.Centrality` subclass
  must have at least one matrix case, and each case must either run or
  explicitly exclude *every* engine of the shared ``IMPLEMENTATIONS``
  pair — so a newly registered ``impl=`` fails the suite until it
  joins the matrix;
* every excluded engine must actually *raise* when requested, so the
  documented exclusions can never silently rot into untested paths.
"""

import numpy as np
import pytest

from repro.graphkit import Graph
from repro.graphkit.centrality import Centrality
from repro.graphkit.centrality.base import IMPLEMENTATIONS
from repro.graphkit.csr import CSRGraph
from repro.graphkit.generators import erdos_renyi, grid_2d
from repro.rin.construction import build_rin
from tests.helpers import ENGINE_MATRIX

FIXTURE_NAMES = ["protein", "random", "grid", "disconnected", "selfloop"]


def _selfloop() -> CSRGraph:
    # 4-node symmetric CSR with self-loops at 0 and 2 — built by hand
    # because the Graph builder keeps simple graphs. Exercises the
    # kernels' loop-arc handling on every engine.
    indptr = np.array([0, 2, 4, 7, 8], dtype=np.int64)
    indices = np.array([0, 1, 0, 2, 1, 2, 3, 2], dtype=np.int32)
    return CSRGraph(indptr, indices, np.ones(8))


@pytest.fixture(scope="module")
def matrix_graphs(a3d_traj):
    """name -> graph for every matrix fixture."""
    return {
        "protein": build_rin(a3d_traj.topology, a3d_traj.frame(0), 5.0),
        "random": erdos_renyi(60, 0.08, seed=11),
        "grid": grid_2d(6, 7),
        # two components (one with a near-tie triangle) + isolated node 3
        "disconnected": Graph.from_edges(
            7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)]
        ),
        "selfloop": _selfloop(),
    }


class TestEngineMatrix:
    @pytest.mark.parametrize("case", ENGINE_MATRIX, ids=lambda c: c.id)
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_engines_agree(self, case, name, matrix_graphs):
        g = matrix_graphs[name]
        base = case.run(g, case.impls[0])
        assert np.all(np.isfinite(base))
        for impl in case.impls[1:]:
            got = case.run(g, impl)
            assert got.shape == base.shape
            assert np.allclose(got, base, atol=case.atol(impl)), (
                f"{case.id}: impl={impl!r} disagrees with "
                f"{case.impls[0]!r} on fixture {name!r} beyond "
                f"atol={case.atol(impl)}"
            )

    @pytest.mark.parametrize("case", ENGINE_MATRIX, ids=lambda c: c.id)
    def test_excluded_engines_raise(self, case, matrix_graphs):
        """A documented exclusion must be enforced by the library itself."""
        g = matrix_graphs["random"]
        for impl in case.excluded:
            with pytest.raises((ValueError, NotImplementedError, TypeError)):
                case.run(g, impl)


def _centrality_subclasses() -> set[type]:
    seen: set[type] = set()
    stack = [Centrality]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)
    return seen


class TestMatrixDriftGuard:
    def test_every_centrality_class_has_a_case(self):
        covered = {case.cls for case in ENGINE_MATRIX if case.cls is not None}
        missing = _centrality_subclasses() - covered
        assert not missing, (
            f"Centrality subclasses without a cross-engine matrix case: "
            f"{sorted(c.__name__ for c in missing)}; add an EngineCase to "
            f"tests/helpers.ENGINE_MATRIX"
        )

    @pytest.mark.parametrize("case", ENGINE_MATRIX, ids=lambda c: c.id)
    def test_case_accounts_for_every_impl(self, case):
        want = set(IMPLEMENTATIONS)
        covered = set(case.impls) | set(case.excluded)
        assert covered == want, (
            f"case {case.id!r} runs/excludes {sorted(covered)} but the class "
            f"registers {sorted(want)} — a new impl= must join the matrix "
            f"(or be excluded with a documented reason)"
        )

    @pytest.mark.parametrize("case", ENGINE_MATRIX, ids=lambda c: c.id)
    def test_exclusion_reasons_documented(self, case):
        for impl, reason in case.excluded.items():
            assert isinstance(reason, str) and len(reason) >= 10, (
                f"case {case.id!r} excludes {impl!r} without a reason"
            )
        assert not (set(case.impls) & set(case.excluded))
        assert case.impls, f"case {case.id!r} lists no runnable engine"
