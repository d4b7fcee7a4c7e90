"""Vectorized-vs-reference speedup benchmark (Figs. 6-8 workloads).

Times every hot path that gained a CSR-kernel engine against its
``impl="reference"`` naive twin on the paper's benchmark RINs:

* Fig. 6 (measure switch): closeness / betweenness on the high-cut-off
  RIN of each protein; plus ``measure_switch``, the widget's slider
  cycling all seven paper measures through the registry
  (``get_measure(name)(rin.csr)``) against the scalar twins where a
  measure has one, with ``calib_ms`` beside it — the bench gate reads
  the registry arm in calibration units;
* Fig. 7 (cut-off switch): the full cut-off scan and the DynamicRIN
  cut-off diff sequence; plus the sharded scanning engine —
  ``multiframe_scan`` times the multi-frame trajectory scan on a warm
  ``workers=8`` process pool (shared-memory coordinate block, incremental
  union-find along sorted-contact prefixes) against the serial naive
  sweep that rebuilds the RIN per cut-off per frame (its record holds
  ``calib_ms``; the bench gate reads the pooled arm in calibration
  units), and ``dynrin_scan``
  times the widget's mid-session scan view (``DynamicRIN.scan`` on the
  warm distance-matrix cache) against the same naive sweep — its record
  also holds ``calib_ms``, and the bench gate reads the warm arm in
  calibration units; plus the
  delta-aware measure engine — ``incremental_measures`` walks a fine
  multi-frame sweep of the interactive cut-off neighbourhood and
  compares maintained degree/coreness/component state
  (``IncrementalMeasures`` advancing per delta) against a per-snapshot
  full recompute of the same descriptors;
* Fig. 8 (frame switch): the DynamicRIN frame-sweep diff loop and the
  Maxent-Stress layout (k=3, the paper's Listing 1 parameters); plus
  ``layout_warm``, the widget's warm layout over a 24-frame scrub
  forward and back (46 warm solves) on ``impl="auto"`` against the
  sampled engine, with the engine ``auto`` resolved to in the row and
  ``calib_ms`` beside it — the bench gate reads the ``auto`` arm in
  calibration units;
* Fig. 4 (layout scale): the repulsion field on the 50k-node RGG —
  the theta-gated Barnes-Hut octree against the exact O(n²)
  unknown-pair sum at matched accuracy (the sampled estimator is
  biased at this scale, so the exact field is the only fair baseline),
  with ``calib_ms`` beside it — the bench gate reads the tree arm in
  calibration units;
* kernel frontier: ``betweenness_bitpacked`` (uint64 bitset frontiers
  vs the boolean SpMM engine they compress, 256 Brandes pivots on a
  12k-node RGG);
* interactive latency: a burst of rapid cut-off slider events replayed
  synchronously (one full update per event — the paper-era interaction
  model, ``reference``) vs submitted to the debounced/cancellable
  ``AsyncUpdatePipeline`` (``vectorized``). Both timings are
  *time-to-last-consistent-frame*: the wall time until the final burst
  state is fully published to the figures. The record also holds
  ``calib_ms``, a fixed host-calibration loop timed beside it, which the
  bench gate divides the async arm by;
* multi-session compute placement: N concurrent process-engine widget
  sessions (first layout + the mid-session scan view each), timed as
  time-to-first-result across all of them — ``reference`` forks a
  dedicated solver pool per session and a fresh scan pool per scan call
  (the pre-service placement), ``vectorized`` leases every session from
  the one long-lived shared ``ComputeService`` pool;
* cloud scale: the seeded 10x arrival spike from the autoscaler
  acceptance scenario (``cloud_scale``) — ``reference`` replays >=2000
  simulated widget sessions against a static 4-worker cluster,
  ``vectorized`` against the same cluster under the closed-loop
  detect->propose->verify autoscaler; the recorded "ms" numbers are the
  *simulated* post-ramp window p99s (deterministic from the seed), and a
  sessions-vs-p99 curve over spike rates lands under the ``cloud`` key.

Writes ``BENCH_vectorized.json`` at the repo root and prints a table.
Run:  PYTHONPATH=src python benchmarks/bench_vectorized.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench import PAPER_HIGH_CUTOFF, PAPER_PROTEINS, protein_trajectory
from repro.bench.reporting import run_json_payload, write_run_json
from repro.bench.workloads import layout_scale_graph
from repro.cloud import (
    DEFAULT_MIX,
    BurstArrivals,
    LoadGenConfig,
    LoadHarness,
    SLOConfig,
)
from repro.cloud.metrics import percentile as cloud_percentile
from repro.core import AsyncUpdatePipeline, UpdatePipeline
from repro.graphkit.centrality import (
    Betweenness,
    Closeness,
    DegreeCentrality,
    KatzCentrality,
)
from repro.graphkit.csr import CSRDelta, CSRSnapshotBuffer, pack_edge_keys
from repro.graphkit.incremental import IncrementalMeasures, full_measures
from repro.graphkit.kernels import batched_brandes_dependencies, sorted_contact_order
from repro.graphkit.layout import maxent_stress_engine, maxent_stress_layout
from repro.graphkit.layout.bhtree import BarnesHutTree, exact_repulsion
from repro.graphkit.service import (
    ComputeService,
    configure_compute_service,
    get_compute_service,
    shutdown_compute_service,
)
from repro.md.distances import residue_distance_matrix
from repro.rin import (
    PAPER_MEASURES,
    DynamicRIN,
    build_rin,
    cutoff_scan,
    get_measure,
    trajectory_cutoff_scan,
)

# The widget's cut-off slider range; the scan uses the §IV-style 0.5 Å
# grid (criterion_comparison's own default resolution).
SWITCH_CUTOFFS = [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
SCAN_CUTOFFS = [3.0 + 0.5 * i for i in range(15)]
#: Frames of the multi-frame scanning scenarios (the Fig. 8 time axis).
SCAN_FRAMES = list(range(12))
#: Pool width of the sharded-scan scenarios (the acceptance-gate knob);
#: the fig7_multiframe_scan row caps its pool at the host's cores.
SCAN_WORKERS = 8
#: Concurrent process-engine sessions of the multi_session scenario
#: (the §III-B multi-user regime: one widget per hub user).
MULTI_SESSIONS = 4
#: The incremental-measures scenario: a fine sweep of the interactive
#: cut-off neighbourhood (the slider's micro-move regime, where per-step
#: edge deltas are a handful of contacts), walked over several frames.
FINE_SCAN_CUTOFFS = np.linspace(4.0, 5.0, 200)
FINE_SCAN_FRAMES = list(range(6))
#: The warm layout scrub: the frame slider 24 frames forward and back at
#: 6 Å, 46 solves each warm-started from the previous layout.
SCRUB_CUTOFF = 6.0
SCRUB_FRAMES = list(range(1, 24)) + list(range(22, -1, -1))
#: Scalar twins the measure_switch reference arm runs in place of the
#: registry entry; the other paper measures have none and run as is.
SCALAR_TWINS = {
    "Betweenness Centrality": lambda csr: Betweenness(
        csr, normalized=True, impl="reference"
    ).run(),
    "Closeness Centrality": lambda csr: Closeness(
        csr, normalized=True, impl="reference"
    ).run(),
    "Degree Centrality": lambda csr: DegreeCentrality(
        csr, normalized=True, impl="reference"
    ).run(),
    "Katz Centrality": lambda csr: KatzCentrality(csr, impl="reference").run(),
}


def best_ms(fn, *, repeats: int = 3, warmup: int = 1) -> float:
    """Best-of-N wall time in milliseconds (after warmup calls)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


def _calibration_once() -> float:
    t0 = time.perf_counter_ns()
    a = np.linspace(0.0, 1.0, 200_000)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0) - 0.5
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return (time.perf_counter_ns() - t0) / 1e6


def layout_warm_scrub(traj):
    """``(run, engine)`` of the layout_warm row.

    ``run(impl)`` chains the 46 warm solves of :data:`SCRUB_FRAMES`:
    ``"vectorized"`` on ``impl="auto"``, ``"reference"`` on the sampled
    engine ``auto`` chose before the dense Laplacian engine. The RIN
    snapshots and the cold start are built here, outside the timing;
    ``engine`` is what ``auto`` resolves to on this protein.
    """
    rin = DynamicRIN(traj, frame=0, cutoff=SCRUB_CUTOFF)
    x0 = maxent_stress_layout(rin.csr, 3, 1, seed=42)
    snapshots = []
    for f in SCRUB_FRAMES:
        rin.set_frame(f)
        snapshots.append(rin.csr)  # immutable: each event publishes a new one

    def run(impl):
        engine = "auto" if impl == "vectorized" else "sampled"
        x = x0
        for csr in snapshots:
            x = maxent_stress_layout(csr, 3, 1, seed=42, initial=x, impl=engine)
        return x

    return run, maxent_stress_engine(rin.csr.n)


def calibration_ms(reps: int = 5) -> float:
    """Median ms of a fixed numpy + pure-Python loop: the host's speed now.

    The loop is the one ``perfbench`` records as ``host.calib_ms``.
    Latency gates divide a measured time by this, so a host that is
    slower for a while (shared cores) does not read as a regression.
    """
    return sorted(_calibration_once() for _ in range(reps))[reps // 2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="single protein, 1 repeat")
    parser.add_argument(
        "--out", default=None, help="output JSON path (default: repo root)"
    )
    args = parser.parse_args()

    proteins = PAPER_PROTEINS[:1] if args.quick else PAPER_PROTEINS
    repeats = 1 if args.quick else 5
    results: dict[str, dict[str, float]] = {}

    def record(name: str, run, *, warmup: int = 1, min_repeats: int = 1) -> None:
        reps = max(repeats, min_repeats)
        ref = best_ms(lambda: run("reference"), repeats=reps, warmup=warmup)
        fast = best_ms(lambda: run("vectorized"), repeats=reps, warmup=warmup)
        results[name] = {
            "reference_ms": round(ref, 3),
            "vectorized_ms": round(fast, 3),
            "speedup": round(ref / fast, 2) if fast > 0 else float("inf"),
        }

    def record_single(name: str, run) -> None:
        """``record`` for deterministic kernels whose reference arm is too
        slow to repeat: one reference timing, the best of 3 vectorized
        ones, no warmup."""
        ref = best_ms(lambda: run("reference"), repeats=1, warmup=0)
        fast = best_ms(lambda: run("vectorized"), repeats=3, warmup=0)
        results[name] = {
            "reference_ms": round(ref, 3),
            "vectorized_ms": round(fast, 3),
            "speedup": round(ref / fast, 2) if fast > 0 else float("inf"),
        }

    def record_calibrated(name: str, run, *, timer=record, **kwargs) -> None:
        """``timer`` (``record`` or ``record_single``) plus ``calib_ms``,
        the host calibration timed right beside the row: the bench gate
        reads such rows in calibration units (see check_bench_gate.py)."""
        calib_before = calibration_ms()
        timer(name, run, **kwargs)
        results[name]["calib_ms"] = round((calib_before + calibration_ms()) / 2, 3)

    for protein in proteins:
        traj = protein_trajectory(protein)
        topo, frame0 = traj.topology, traj.frame(0)
        g_high = build_rin(topo, frame0, PAPER_HIGH_CUTOFF)

        # Fig. 6 — measure switches on the dense (cut-off 10 Å) RIN.
        record(
            f"fig6_closeness_{protein}",
            lambda impl: Closeness(g_high, normalized=True, impl=impl).run(),
        )
        record(
            f"fig6_betweenness_{protein}",
            lambda impl: Betweenness(g_high, normalized=True, impl=impl).run(),
        )

        # Fig. 6 — the widget's measure slider: the seven paper measures
        # in legend order on the high-cut-off RIN snapshot, each through
        # the registry as the pipeline calls it. Gated as a latency budget
        # on the registry arm (calibration units).
        switch_csr = DynamicRIN(traj, frame=0, cutoff=PAPER_HIGH_CUTOFF).csr

        def measure_switch(impl):
            for name in PAPER_MEASURES:
                twin = SCALAR_TWINS.get(name) if impl == "reference" else None
                if twin is not None:
                    twin(switch_csr)
                else:
                    get_measure(name)(switch_csr)

        record_calibrated(f"fig6_measure_switch_{protein}", measure_switch)

        # Fig. 7 — the cut-off scan (the §IV topology sweep). Gated as a
        # latency budget on the vectorized arm (calibration units).
        record_calibrated(
            f"fig7_cutoff_scan_{protein}",
            lambda impl: cutoff_scan(topo, frame0, SCAN_CUTOFFS, impl=impl),
        )

        # Fig. 7 × Fig. 8 — the multi-frame scan on the sharded engine.
        # 'reference' is the serial naive sweep (rebuild the RIN per
        # cut-off, per frame); 'vectorized' fans the frames across a warm
        # process pool of SCAN_WORKERS, capped at the host's cores so the
        # row times the shard engine, not oversubscription: the
        # trajectory coordinate block lives in shared memory, each worker
        # walks sorted-contact prefixes with an incremental union-find.
        # The pool is created once per protein (service steady state).
        scan_service = ComputeService(min(SCAN_WORKERS, os.cpu_count() or 1))
        scan_pool = scan_service.lease()

        def multiframe_scan(impl):
            if impl == "reference":
                for f in SCAN_FRAMES:
                    cutoff_scan(topo, traj.frame(f), SCAN_CUTOFFS, impl=impl)
            else:
                trajectory_cutoff_scan(
                    traj, SCAN_CUTOFFS, frames=SCAN_FRAMES, executor=scan_pool
                )

        # Gated as a latency budget on the pooled arm (calibration units);
        # one pooled scan varies by more than the tolerance from run to
        # run, so it takes the best of 3 repeats under --quick too.
        record_calibrated(
            f"fig7_multiframe_scan_{protein}", multiframe_scan, min_repeats=3
        )

        # Fig. 7 — the widget's scan view: a cut-off sweep issued mid-
        # session, where DynamicRIN.scan reuses the builder's cached
        # distance matrix and walks sorted-contact prefixes with the
        # incremental union-find. 'reference' is the naive sweep the
        # widget would otherwise run (rebuild per cut-off, fresh distance
        # matrix each time).
        warm_rin = DynamicRIN(traj, frame=0, cutoff=4.5)
        warm_rin.scan([4.0])  # primes the distance-matrix cache

        def dynrin_scan(impl):
            if impl == "reference":
                cutoff_scan(topo, frame0, SCAN_CUTOFFS, impl=impl)
            else:
                warm_rin.scan(SCAN_CUTOFFS)

        record_calibrated(f"fig7_dynrin_scan_{protein}", dynrin_scan)
        scan_pool.close()
        scan_service.close()

        # Fig. 7 — delta-aware measure maintenance on the multi-frame
        # fine scan. Both engines walk identical sorted-contact prefixes
        # (the contact orders are precomputed per frame, as the widget's
        # warm distance-matrix cache would hold them); per snapshot,
        # 'reference' recomputes every maintained descriptor from
        # scratch (degrees, strengths, the core-number bulk peel,
        # canonical components) while 'vectorized' advances the
        # IncrementalMeasures engine across the delta (bincount degree
        # folds, union-find/bounded re-scan components, traversal-
        # bounded k-core repair) and reads maintained state.
        contact_orders = []
        for f in FINE_SCAN_FRAMES:
            dm_f = residue_distance_matrix(topo, traj.frame(f), "min")
            pairs_f, sorted_f = sorted_contact_order(dm_f, min_separation=1)
            contact_orders.append(
                (pairs_f, np.searchsorted(sorted_f, FINE_SCAN_CUTOFFS, side="right"))
            )
        n_res = topo.n_residues
        no_removals = np.empty(0, dtype=np.int64)

        def incremental_measures(impl):
            for pairs_f, prefix in contact_orders:
                snapshots = CSRSnapshotBuffer(n_res)
                engine = IncrementalMeasures(n_res)
                prev = 0
                for m in prefix:
                    delta = CSRDelta(
                        n_res,
                        pack_edge_keys(n_res, pairs_f[prev:m]),
                        no_removals,
                    )
                    csr = snapshots.apply(delta)
                    prev = m
                    if impl == "reference":
                        full_measures(csr)
                    else:
                        engine.apply(delta, csr)
                        engine.degrees()
                        engine.weighted_degrees()
                        engine.core_numbers()
                        engine.component_labels()

        record(f"fig7_incremental_measures_{protein}", incremental_measures)

        # Fig. 7d — the widget's cut-off diff sequence.
        def cutoff_sequence(impl):
            rin = DynamicRIN(traj, frame=0, cutoff=6.0, impl=impl)
            for c in SWITCH_CUTOFFS:
                rin.set_cutoff(c)

        record(f"fig7_cutoff_diffs_{protein}", cutoff_sequence)

        # Fig. 8 — frame-sweep diff loop (warm distance-matrix cache so the
        # timing isolates the diff kernel, as in the widget's steady state).
        def frame_sweep(impl):
            rin = DynamicRIN(traj, frame=0, cutoff=4.5, impl=impl)
            for f in list(range(8)) * 2:
                rin.set_frame(f)

        record(f"fig8_frame_diffs_{protein}", frame_sweep)

        # Fig. 7e/8 — Maxent-Stress layout, paper's Listing 1 (dim=3, k=3);
        # the fast arm is the sampled-repulsion engine.
        record(
            f"layout_maxent_k3_{protein}",
            lambda impl: maxent_stress_layout(
                g_high, 3, 3, seed=42,
                impl="reference" if impl == "reference" else "sampled",
            ),
        )

        # Fig. 8 — the widget's warm layout over a frame scrub. Gated as a
        # latency budget on the auto arm (calibration units); one ~80 ms
        # chain varies by a third from run to run, so it takes the best of
        # 3 repeats under --quick too.
        scrub, engine = layout_warm_scrub(traj)
        record_calibrated(f"layout_warm_{protein}", scrub, min_repeats=3)
        results[f"layout_warm_{protein}"]["engine"] = engine

        # Interactive latency — N rapid cut-off events; the number reported
        # is time-to-last-consistent-frame. 'reference' replays every event
        # through the blocking pipeline; 'vectorized' submits the burst to
        # the async pipeline (debounce + stale-event cancellation), which
        # coalesces it into O(1) solves.
        sync_pipe = UpdatePipeline(
            DynamicRIN(traj, frame=0, cutoff=4.5), measure="Degree Centrality"
        )
        async_pipe = AsyncUpdatePipeline(
            DynamicRIN(traj, frame=0, cutoff=4.5),
            measure="Degree Centrality",
            debounce_ms=5,
        )

        def interactive_burst(impl):
            if impl == "reference":
                for c in SWITCH_CUTOFFS:
                    sync_pipe.switch_cutoff(c)
            else:
                for c in SWITCH_CUTOFFS:
                    async_pipe.submit(cutoff=c)
                async_pipe.flush()

        record_calibrated(f"interactive_burst_{protein}", interactive_burst)
        async_pipe.close()

    # Fig. 4 — the repulsion field at layout scale (the 50k-node RGG of
    # the layout-scale sweep, at the stress-majorized warm start the
    # sweep polishes from). The arms compare *matched accuracy*: the
    # Barnes-Hut octree (theta=0.8, relative field error bounded by
    # force_error_bound) against the exact O(n²) unknown-pair field.
    # The sampled estimator is not a valid reference arm here — its
    # field error against the exact sum is >= 1.0 at q=4 and grows with
    # q at this scale (the sample-mean extrapolation over n-1-deg
    # unknown pairs is biased), so no sample count matches the
    # Barnes-Hut answer. Both arms are deterministic numeric kernels,
    # so the exact arm is timed once (no warmup — it costs minutes) and
    # the scenario runs under --quick too. The gate reads the tree arm
    # (best of 3) in calibration units: the ratio moves with the exact
    # arm, which no user waits for.
    g50 = layout_scale_graph(50_000)
    x50 = maxent_stress_layout(g50, 3, repulsion_samples=0, impl="sampled", seed=42)

    def layout_scale_field(impl):
        if impl == "reference":
            exact_repulsion(x50)
        else:
            BarnesHutTree(x50).repulsion(0.8)

    record_calibrated(
        "layout_scale_50k_rgg", layout_scale_field, timer=record_single
    )
    del g50, x50

    # Kernel frontier — the bit-packed BFS frontier against the boolean
    # SpMM engine it compresses. Both arms are deterministic numeric
    # kernels under a fixed seed, so one reference timing suffices and
    # the scenario runs under --quick too. The scenario also cross-checks
    # its two arms: a silently-drifting kernel fails the bench run
    # itself, not just the differential suite.
    #
    # A 256-pivot Brandes sweep on the 12k-node RGG, uint64 bitset
    # frontiers (packed=True) against the boolean SpMM engine the bitsets
    # compress 8x (packed=False). Acceptance floor: 2x on a >=10k-node
    # unweighted betweenness workload.
    csr12 = layout_scale_graph(12_000).csr()
    pivots = np.random.default_rng(11).choice(csr12.n, 256, replace=False)
    packed_scores: dict[str, np.ndarray] = {}

    def bitpacked_brandes(impl):
        packed_scores[impl] = batched_brandes_dependencies(
            csr12, pivots, packed=(impl == "vectorized")
        )

    record_single("betweenness_bitpacked_rgg", bitpacked_brandes)
    assert np.allclose(
        packed_scores["reference"], packed_scores["vectorized"], atol=1e-8
    ), "bit-packed Brandes diverged from the boolean SpMM engine"
    del csr12, packed_scores

    # Multi-session compute placement — N concurrent process-engine
    # sessions (the §III-B regime: one widget per hub user), timed as
    # time-to-first-result across all sessions. Each session opens a
    # widget pipeline, publishes its first layout, and runs the widget's
    # mid-session scan view. 'reference' is the pre-service placement:
    # every session starts — and shuts down — its own one-worker solver
    # service, and every scan invocation spins up — and tears down — a
    # private ``ComputeService(SCAN_WORKERS)`` pool. 'vectorized' leases
    # all of it from the one long-lived shared ``ComputeService`` pool,
    # whose single startup is paid by the warmup call. Both arms must
    # stay bit-identical to the serial in-process twins, and the service
    # must leave /dev/shm clean once shut down. Pinned to the smallest
    # paper protein: the scenario measures pool lifecycle, not graph size.
    ms_traj = protein_trajectory("2JOF")
    ms_topo, ms_frame0 = ms_traj.topology, ms_traj.frame(0)
    with UpdatePipeline(
        DynamicRIN(ms_traj, frame=0, cutoff=4.5),
        measure="Degree Centrality",
    ) as twin:
        twin.switch_cutoff(6.0)
        twin_coords = twin.maxent_coordinates.copy()
    twin_scan = cutoff_scan(ms_topo, ms_frame0, SCAN_CUTOFFS, workers=0)
    shm_before = (
        set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    )

    def one_session(impl):
        if impl == "reference":
            configure_compute_service(workers=1)
        pipe = UpdatePipeline(
            DynamicRIN(ms_traj, frame=0, cutoff=4.5),
            measure="Degree Centrality",
            engine="process",
        )
        try:
            pipe.switch_cutoff(6.0)
            assert np.array_equal(
                pipe.maxent_coordinates, twin_coords
            ), "multi_session layout diverged from the serial twin"
            if impl == "reference":
                with ComputeService(SCAN_WORKERS) as svc, svc.lease() as ex:
                    scan = cutoff_scan(
                        ms_topo, ms_frame0, SCAN_CUTOFFS, executor=ex
                    )
            else:
                scan = cutoff_scan(
                    ms_topo, ms_frame0, SCAN_CUTOFFS, workers=SCAN_WORKERS
                )
            assert np.array_equal(scan.edges, twin_scan.edges), (
                "multi_session scan diverged from the serial twin"
            )
        finally:
            pipe.close()
            if impl == "reference":
                shutdown_compute_service()

    def multi_session(impl):
        if impl == "vectorized":
            get_compute_service().start()
        for _ in range(MULTI_SESSIONS):
            one_session(impl)

    record("multi_session_2JOF", multi_session)
    shutdown_compute_service()
    if os.path.isdir("/dev/shm"):
        leaked = set(os.listdir("/dev/shm")) - shm_before
        assert not leaked, (
            f"multi_session leaked shared-memory segments: {sorted(leaked)}"
        )

    # Cloud-scale autoscaler scenario: the same seeded 10x arrival spike
    # replayed through the full hub->proxy->pod path twice — once on the
    # static 4-worker cluster (``reference``) and once with the
    # closed-loop autoscaler (``vectorized``). The metric is the
    # *simulated* post-ramp window p99 in ms, not wall time, so the
    # numbers are bit-identical across hosts and ``--quick``; the gate
    # tolerance therefore only guards behavioural regressions.
    CLOUD_SEED = 42
    CLOUD_SLO_MS = 700.0
    CLOUD_WINDOW = (180.0, 280.0)  # post-ramp: scale-up had time to land
    cloud_rates = [10.0] if args.quick else [2.5, 5.0, 10.0]

    def cloud_arm(rate, autoscale):
        arrivals = BurstArrivals(
            ((60.0, 1.0), (220.0, rate), (60.0, 0.0001)), seed=CLOUD_SEED
        )
        auto_kwargs = (
            dict(
                slo=SLOConfig(p99_target_ms=CLOUD_SLO_MS, max_workers=32),
                node_startup_s=12.0,
                reconcile_every_s=10.0,
                drain_grace_s=120.0,
            )
            if autoscale
            else {}
        )
        report = LoadHarness(
            arrivals,
            DEFAULT_MIX,
            seed=CLOUD_SEED,
            config=LoadGenConfig(workers=4),
            autoscale=autoscale,
            **auto_kwargs,
        ).run()
        lo, hi = CLOUD_WINDOW
        samples = [
            e.latency_ms
            for e in report.recorder.events(since=lo)
            if e.time <= hi
        ]
        p99 = cloud_percentile(samples, 99) if samples else float("inf")
        return report, p99

    cloud_curve = []
    for rate in cloud_rates:
        static_report, static_p99 = cloud_arm(rate, autoscale=False)
        auto_report, auto_p99 = cloud_arm(rate, autoscale=True)
        cloud_curve.append(
            {
                "spike_rate_per_s": rate,
                "sessions": static_report.sessions,
                "static_p99_ms": round(static_p99, 3),
                "autoscaled_p99_ms": round(auto_p99, 3),
                "static_gave_up": static_report.gave_up,
                "autoscaled_gave_up": auto_report.gave_up,
            }
        )
        if rate == 10.0:
            results["cloud_scale_spike"] = {
                "reference_ms": round(static_p99, 3),
                "vectorized_ms": round(auto_p99, 3),
                "speedup": round(static_p99 / auto_p99, 2),
            }
    cloud = {
        "scenario": {
            "seed": CLOUD_SEED,
            "slo_p99_ms": CLOUD_SLO_MS,
            "window_s": list(CLOUD_WINDOW),
            "phases": "60s @ 1/s -> 220s @ rate -> 60s quiet",
            "workers": 4,
            "max_workers": 32,
            "metric": "simulated window p99 (ms), deterministic from seed",
        },
        "curve": cloud_curve,
    }

    # Aggregate per workload class (summed over proteins): the speedup
    # figure the acceptance gate reads, robust to tiny-protein overhead.
    classes: dict[str, dict[str, float]] = {}
    for name, r in results.items():
        key = name.rsplit("_", 1)[0]
        agg = classes.setdefault(key, {"reference_ms": 0.0, "vectorized_ms": 0.0})
        agg["reference_ms"] += r["reference_ms"]
        agg["vectorized_ms"] += r["vectorized_ms"]
    for agg in classes.values():
        agg["speedup"] = (
            round(agg["reference_ms"] / agg["vectorized_ms"], 2)
            if agg["vectorized_ms"] > 0
            else float("inf")
        )

    # Canonical run-JSON shape — validated at write time so the figure
    # registry (repro.bench.registry) never sees a malformed artifact.
    payload = run_json_payload(
        quick=bool(args.quick),
        repeats=repeats,
        workloads=results,
        aggregates=classes,
        extra={"cloud": cloud},
    )
    out_path = write_run_json(
        args.out
        if args.out
        else Path(__file__).resolve().parent.parent / "BENCH_vectorized.json",
        payload,
    )

    width = max(len(k) for k in results)
    print(f"{'workload'.ljust(width)}  reference_ms  vectorized_ms  speedup")
    for name, r in results.items():
        print(
            f"{name.ljust(width)}  {r['reference_ms']:12.3f}  "
            f"{r['vectorized_ms']:13.3f}  {r['speedup']:6.2f}x"
        )
    print("\naggregates (summed over proteins):")
    for name, r in classes.items():
        print(
            f"{name.ljust(width)}  {r['reference_ms']:12.3f}  "
            f"{r['vectorized_ms']:13.3f}  {r['speedup']:6.2f}x"
        )
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
