"""Randomized differential harness for the incremental measure engine.

Seeded random insertion scripts — insert batches, duplicate targets and
no-op deltas, the shapes a cut-off scan's prefix walk produces — run
over four graph families (protein RIN, Erdős–Rényi, grid lattice,
deliberately disconnected), asserting after **every** step and snapshot
swap that the maintained degree / weighted degree / core-number /
component state is bit-identical to the full-recompute twins
(:func:`repro.graphkit.incremental.full_measures`); a removal delta must
raise ``ValueError`` and leave the state untouched. Both internal core
paths are pinned: ``repair_threshold`` is forced high (always
traversal-bounded repair) and negative (always the vectorized full
peel), alongside the default auto policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphkit import generators
from repro.graphkit.csr import CSRDelta, CSRSnapshotBuffer, pack_edge_keys
from repro.graphkit.incremental import (
    IncrementalMeasures,
    canonical_components,
    full_measures,
)
from repro.rin import build_rin

#: (name, threshold) — the engine-policy variants every script runs under.
POLICIES = [("auto", None), ("always-repair", 10**9), ("always-peel", -1)]


def protein_pairs(a3d_traj) -> tuple[int, np.ndarray]:
    g = build_rin(a3d_traj.topology, a3d_traj.frame(0), 7.5)
    return g.number_of_nodes(), g.edge_array()


def random_pairs(seed: int) -> tuple[int, np.ndarray]:
    g = generators.erdos_renyi(48, 0.08, seed=seed)
    return g.number_of_nodes(), g.edge_array()


def grid_pairs() -> tuple[int, np.ndarray]:
    g = generators.grid_2d(6, 8)
    return g.number_of_nodes(), g.edge_array()


def disconnected_pairs(seed: int) -> tuple[int, np.ndarray]:
    """Two dense blocks plus isolated nodes; no edge ever crosses."""
    a = generators.erdos_renyi(20, 0.25, seed=seed)
    b = generators.erdos_renyi(18, 0.3, seed=seed + 1)
    edges = np.vstack([a.edge_array(), b.edge_array() + 20])
    return 20 + 18 + 4, edges


def assert_state_matches(engine: IncrementalMeasures, csr, context: str) -> None:
    ref = full_measures(csr)
    assert np.array_equal(engine.degrees(), ref["degrees"]), context
    assert np.array_equal(engine.weighted_degrees(), ref["weighted_degrees"]), context
    assert np.array_equal(engine.core_numbers(), ref["core_numbers"]), context
    assert engine.component_count == ref["component_count"], context
    assert np.array_equal(
        engine.component_labels(), ref["component_labels"]
    ), context
    assert engine.max_core_number() == int(
        ref["core_numbers"].max() if len(ref["core_numbers"]) else 0
    ), context


def random_target(rng, universe: np.ndarray, kind: str, current: np.ndarray):
    """Next target key set under one scripted edit kind."""
    if kind == "noop":
        return current
    assert kind == "insert"
    absent = np.setdiff1d(universe, current, assume_unique=True)
    k = int(rng.integers(0, max(1, len(absent) // 6) + 1))
    picked = rng.choice(absent, size=min(k, len(absent)), replace=False)
    return np.union1d(current, picked)


def run_script(n: int, base_pairs: np.ndarray, seed: int, threshold) -> None:
    rng = np.random.default_rng(seed)
    universe = pack_edge_keys(n, base_pairs)
    assert len(universe) > 0
    buffer = CSRSnapshotBuffer(n)
    engine = IncrementalMeasures(n, repair_threshold=threshold)
    current = np.empty(0, dtype=np.int64)
    kinds = ["insert", "insert", "noop", "insert", "duplicate", "insert"]
    previous_target = universe
    for step in range(24):
        kind = kinds[step % len(kinds)]
        if kind == "duplicate":
            # Re-applying the last target: the delta must be empty and
            # the maintained state must not drift.
            target = previous_target
        else:
            target = random_target(rng, universe, kind, current)
        delta = CSRDelta.between(n, current, target)
        if kind in ("noop", "duplicate"):
            assert delta.total == 0
        before = buffer.current
        csr = buffer.apply(delta)
        engine.apply(delta, csr)
        # Snapshot swap contract: the engine tracks the new front while
        # the old front stays alive (and unchanged) as .previous.
        assert engine.csr is buffer.current
        assert buffer.previous is before
        assert_state_matches(engine, csr, f"seed={seed} step={step} kind={kind}")
        current = target
        previous_target = target


class TestRandomizedEditScripts:
    @pytest.mark.parametrize("policy,threshold", POLICIES, ids=[p for p, _ in POLICIES])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_protein(self, a3d_traj, policy, threshold, seed):
        n, pairs = protein_pairs(a3d_traj)
        run_script(n, pairs, seed, threshold)

    @pytest.mark.parametrize("policy,threshold", POLICIES, ids=[p for p, _ in POLICIES])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_random(self, policy, threshold, seed):
        n, pairs = random_pairs(seed)
        run_script(n, pairs, seed, threshold)

    @pytest.mark.parametrize("policy,threshold", POLICIES, ids=[p for p, _ in POLICIES])
    @pytest.mark.parametrize("seed", [6, 7])
    def test_grid(self, policy, threshold, seed):
        n, pairs = grid_pairs()
        run_script(n, pairs, seed, threshold)

    @pytest.mark.parametrize("policy,threshold", POLICIES, ids=[p for p, _ in POLICIES])
    @pytest.mark.parametrize("seed", [8, 9])
    def test_disconnected(self, policy, threshold, seed):
        n, pairs = disconnected_pairs(seed)
        run_script(n, pairs, seed, threshold)
        # The isolated tail nodes always stay their own components.
        engine = IncrementalMeasures(
            n, CSRGraph_from(n, pairs), repair_threshold=threshold
        )
        labels = engine.component_labels()
        assert np.array_equal(labels[-4:], np.arange(n - 4, n))


def CSRGraph_from(n: int, pairs: np.ndarray):
    from repro.graphkit.csr import CSRGraph

    return CSRGraph.from_unique_edge_array(n, pairs)


class TestEngineContract:
    def test_reads_are_immutable_stable_views(self):
        n, pairs = grid_pairs()
        buffer = CSRSnapshotBuffer(n)
        engine = IncrementalMeasures(n)
        delta = buffer.delta_to(pack_edge_keys(n, pairs))
        engine.apply(delta, buffer.apply(delta))
        deg = engine.degrees()
        core = engine.core_numbers()
        with pytest.raises(ValueError):
            deg[0] = 99
        held = (deg.copy(), core.copy())
        # A later apply rebinds fresh arrays; held views keep their state.
        chord = buffer.delta_to(
            np.union1d(buffer.keys, pack_edge_keys(n, [(0, n - 1)]))
        )
        engine.apply(chord, buffer.apply(chord))
        assert np.array_equal(deg, held[0])
        assert np.array_equal(core, held[1])
        assert engine.degrees().sum() == deg.sum() + 2

    def test_removal_delta_raises(self):
        """Removals are out of contract: a typed error, no silent drift."""
        n, pairs = grid_pairs()
        buffer = CSRSnapshotBuffer(n, pack_edge_keys(n, pairs))
        engine = IncrementalMeasures(n, buffer.current)
        mixed = buffer.delta_to(
            np.union1d(buffer.keys[1:], pack_edge_keys(n, [(0, n - 1)]))
        )
        assert mixed.added == 1 and mixed.removed == 1
        with pytest.raises(ValueError, match="insertion-only"):
            engine.apply(mixed, buffer.apply(mixed))
        assert engine.csr is buffer.previous
        assert_state_matches(engine, buffer.previous, "after rejected removal")

    def test_rejects_weighted_snapshots(self):
        from repro.graphkit.csr import CSRGraph

        weighted = CSRGraph.from_edge_array(
            4, np.array([(0, 1), (1, 2)]), np.array([2.5, 1.0])
        )
        with pytest.raises(ValueError, match="unit-weight"):
            IncrementalMeasures(4, weighted)

    def test_empty_graph_and_validation(self):
        engine = IncrementalMeasures(0)
        assert engine.max_core_number() == 0
        assert engine.component_count == 0
        with pytest.raises(ValueError):
            IncrementalMeasures(-1)
        with pytest.raises(ValueError):
            IncrementalMeasures(5).seed(CSRGraph_from(4, np.empty((0, 2))))
        n, pairs = grid_pairs()
        engine = IncrementalMeasures(n)
        bad = CSRDelta(
            n + 1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        with pytest.raises(ValueError):
            engine.apply(bad, CSRGraph_from(n + 1, np.empty((0, 2))))

    def test_seed_matches_full_measures(self, a3d_traj):
        n, pairs = protein_pairs(a3d_traj)
        csr = CSRGraph_from(n, pairs)
        engine = IncrementalMeasures(n, csr)
        assert_state_matches(engine, csr, "seeded")
        count, labels = canonical_components(csr)
        assert engine.component_count == count
        assert np.array_equal(engine.component_labels(), labels)

    def test_canonical_components_empty(self):
        count, labels = canonical_components(CSRGraph_from(0, np.empty((0, 2))))
        assert count == 0 and len(labels) == 0

    def test_huge_purecore_aborts_to_exact_peel(self):
        """A candidate walk past the budget bails out, results exact.

        A long path is all coreness 1 with every interior vertex's
        support above 1, so one inserted long-range edge makes the
        purecore walk see the whole path — far past the exploration
        budget. The repair must abort to the vectorized peel and still
        produce exact core numbers (the created cycle rises to 2).
        """
        n = 256
        path = np.array([(i, i + 1) for i in range(n - 1)])
        buffer = CSRSnapshotBuffer(n, pack_edge_keys(n, path))
        engine = IncrementalMeasures(n, buffer.current)
        assert engine.max_core_number() == 1
        chord = buffer.delta_to(
            np.union1d(buffer.keys, pack_edge_keys(n, [(10, 200)]))
        )
        engine.apply(chord, buffer.apply(chord))
        assert_state_matches(engine, buffer.current, "aborted repair")
        assert engine.max_core_number() == 2
        assert engine.core_numbers()[10] == 2 and engine.core_numbers()[0] == 1

    def test_noop_apply_keeps_snapshot_of_record(self):
        n, pairs = grid_pairs()
        csr = CSRGraph_from(n, pairs)
        engine = IncrementalMeasures(n, csr)
        empty = CSRDelta(
            n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        engine.apply(empty, csr)
        assert engine.csr is csr
        assert engine.n == n
        assert engine.repair_threshold == max(8, n // 16)


class TestUnionFindRemoval:
    """Direct coverage of the union-find's seeding contract."""

    def test_seed_validation(self):
        from repro.graphkit.components import IncrementalUnionFind

        uf = IncrementalUnionFind(4)
        with pytest.raises(ValueError):
            uf.seed(np.zeros(3, dtype=np.int64), 1)
        uf.seed(np.zeros(4, dtype=np.int64), 1)
        assert uf.count == 1 and uf.labels.tolist() == [0, 0, 0, 0]
