"""Benchmark: fused batched stage 1/2 vs the pre-PR blocked+callback path.

The reference is :func:`correlate_blocked_reference` driving
:class:`MergedNormalizer` — one tiny gemm per epoch per tile plus a
Python callback per tile, exactly the pre-batching optimized node.  The
fused engine replaces all of that with one epoch-batched 3D gemm and an
L2-sized voxel sweep of the vectorized normalizer, with the sweep width
chosen by the autotuned blocking planner.  This bench times both on the
face-scene-scaled task geometry, asserts the committed >= 3x speedup
floor, verifies the outputs agree, and records the measurement through
the benchmark history registry (plus the legacy ``BENCH_stage12.json``
mirror at the repo root) so regressions are diffable and checkable.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.blocking import PlanCache, plan_blocks
from repro.core.correlation import (
    NormalizationWorkspace,
    correlate_normalize_batched,
    normalize_epoch_data,
)
from repro.hw import E5_2670
from tests.oracles import MergedNormalizer, correlate_blocked_reference

#: Committed floor: the fused path must beat blocked+callback by this.
SPEEDUP_FLOOR = 3.0

BENCH_JSON = Path(__file__).parent.parent / "BENCH_stage12.json"

#: Face-scene-scaled task geometry: 120 assigned voxels (the paper's
#: task size), 6 subjects x 12 epochs, 1200 brain voxels, T=12.
V, N_SUBJECTS, E_PER_SUBJECT, N, T = 120, 6, 12, 1200, 12
E = N_SUBJECTS * E_PER_SUBJECT


@pytest.fixture(scope="module")
def stage12_task():
    rng = np.random.default_rng(2015)
    z = normalize_epoch_data(
        rng.standard_normal((E, N, T)).astype(np.float32)
    )
    assigned = np.arange(V, dtype=np.int64)
    return z, assigned


@pytest.fixture(scope="module")
def tuned_sweep(stage12_task):
    """Autotuned sweep width for this machine (memory-only cache)."""
    z, assigned = stage12_task
    plan = plan_blocks(
        E5_2670,
        epochs_per_subject=E_PER_SUBJECT,
        epoch_length=T,
        n_assigned=assigned.size,
        n_voxels=N,
        autotune=True,
        cache=PlanCache(),
    )
    return plan.voxel_block


class TestBatchedStage12:
    def test_fused_beats_blocked_callback_3x(
        self, benchmark, stage12_task, tuned_sweep, save_table,
        record_benchmark,
    ):
        z, assigned = stage12_task

        out = np.empty((V, E, N), dtype=np.float32)
        workspace = NormalizationWorkspace()

        # Reference: the pre-PR optimized node — blocked per-epoch gemms
        # with merged normalization through the tile callback.  The node
        # allocates its (V, E, N) output fresh on every task, so each
        # timed shot does too (the page faults are part of its per-task
        # cost).  Reference and fused shots are *interleaved* so both
        # sample the same noise windows of a shared host; the ratio of
        # ref-median to fused-min is then stable even when the machine
        # is not.
        interleave = not getattr(benchmark, "disabled", False)
        ref_shots: list[float] = []
        fused_shots: list[float] = []
        for _ in range(3 if interleave else 1):
            t0 = time.perf_counter()
            reference = correlate_blocked_reference(
                z,
                assigned,
                voxel_block=16,
                target_block=512,
                epoch_block=E_PER_SUBJECT,
                tile_callback=MergedNormalizer(E_PER_SUBJECT),
            )
            ref_shots.append(time.perf_counter() - t0)
            for _ in range(3 if interleave else 0):
                t0 = time.perf_counter()
                correlate_normalize_batched(
                    z,
                    assigned,
                    E_PER_SUBJECT,
                    voxel_sweep=tuned_sweep,
                    out=out,
                    workspace=workspace,
                )
                fused_shots.append(time.perf_counter() - t0)
        reference_seconds = sorted(ref_shots)[len(ref_shots) // 2]

        fused, _ = benchmark(
            correlate_normalize_batched,
            z,
            assigned,
            E_PER_SUBJECT,
            voxel_sweep=tuned_sweep,
            out=out,
            workspace=workspace,
        )

        # Both are Fisher-z + z-scored correlations of the same input.
        # Self-correlation columns (assigned ⊆ targets) have near-zero
        # within-subject variance after the clip, so their z-scores are
        # catastrophically cancellation-sensitive: zero them in both
        # before comparing.
        fused_cmp = fused.copy()
        ref_cmp = reference.copy()
        for vi, v in enumerate(assigned):
            fused_cmp[vi, :, v] = 0.0
            ref_cmp[vi, :, v] = 0.0
        np.testing.assert_allclose(fused_cmp, ref_cmp, atol=2e-4)

        if benchmark.stats is None:
            # --benchmark-disable (CI smoke): correctness checked above,
            # but there is no timing to assert or record.
            return

        fused_seconds = min(fused_shots + [benchmark.stats.stats.min])
        speedup = reference_seconds / fused_seconds
        assert speedup >= SPEEDUP_FLOOR, (
            f"fused batched stage 1/2 only {speedup:.2f}x over "
            f"blocked+callback (floor {SPEEDUP_FLOOR}x)"
        )

        record = {
            "benchmark": "fused batched stage 1/2 vs blocked+callback",
            "preset": (
                f"face-scene-scaled task (V={V}, E={E}, N={N}, T={T})"
            ),
            "voxel_sweep": int(tuned_sweep),
            "reference_seconds": round(reference_seconds, 4),
            "fused_seconds": round(fused_seconds, 4),
            "speedup": round(speedup, 2),
            "floor": SPEEDUP_FLOOR,
        }
        record_benchmark("bench_stage12", record, BENCH_JSON)
        save_table(
            "batched_stage12",
            f"fused batched stage 1/2: {speedup:.1f}x over blocked+callback "
            f"({reference_seconds * 1e3:.1f}ms -> {fused_seconds * 1e3:.1f}ms, "
            f"sweep={tuned_sweep}), floor {SPEEDUP_FLOOR}x "
            f"[also in {BENCH_JSON.name}]",
        )

    def test_batched_gemm_only(self, benchmark, stage12_task):
        """The epoch-batched gemm half in isolation, for profiling."""
        from repro.core.correlation import correlate_batched

        z, assigned = stage12_task
        out = np.empty((V, E, N), dtype=np.float32)
        result = benchmark(correlate_batched, z, assigned, out=out)
        assert result.shape == (V, E, N)
