"""Ablation — stage-1 tile sizes (DESIGN.md: optimization idea #1).

Two views of the same design choice:

* modeled: L2 miss count as the voxel block grows (more B re-passes vs
  fewer, traded against tile residency), at paper scale;
* measured: real blocked-correlation wall time across target-block
  sizes on scaled data, verifying the implementation tolerates any
  tiling and that extreme tilings cost real time.
"""

import numpy as np
import pytest

from repro.bench import render_table
from repro.core.correlation import normalize_epoch_data
from repro.data import FACE_SCENE
from repro.hw import PHI_5110P
from repro.perf import matmul_model
from tests.oracles import correlate_blocked


@pytest.fixture(scope="module")
def z():
    rng = np.random.default_rng(0)
    return normalize_epoch_data(
        rng.standard_normal((16, 1500, 12)).astype(np.float32)
    )


@pytest.mark.parametrize("target_block", [32, 128, 512, 1500])
def test_measured_target_block_sweep(benchmark, z, target_block):
    assigned = np.arange(32)
    out = benchmark(
        correlate_blocked, z, assigned,
        voxel_block=16, target_block=target_block,
    )
    assert out.shape == (32, 16, 1500)


def test_modeled_voxel_block_tradeoff(benchmark, save_table):
    """Larger voxel blocks mean fewer passes over B (fewer remote-L2
    refetches) — the reason the paper sizes blocks to the VPU width and
    no smaller."""

    def sweep():
        out = {}
        for vb in (4, 8, 16, 32):
            original = matmul_model.OURS_CORR_VOXEL_BLOCK
            matmul_model.OURS_CORR_VOXEL_BLOCK = vb
            try:
                est = matmul_model.model_correlation_matmul(
                    FACE_SCENE, 120, PHI_5110P, "ours"
                )
            finally:
                matmul_model.OURS_CORR_VOXEL_BLOCK = original
            out[vb] = est
        return out

    ests = benchmark(sweep)
    rows = [
        [
            str(vb),
            f"{est.counters.l2_remote_hits / 1e6:.1f}",
            f"{est.milliseconds:.0f}",
        ]
        for vb, est in ests.items()
    ]
    save_table(
        "ablation_voxel_block",
        render_table(
            ["voxel block", "remote-L2 refetches M", "modeled ms"],
            rows,
            title="Ablation: stage-1 voxel-block size (face-scene, 120-voxel task)",
        ),
    )
    # Monotone: fewer refetches with larger blocks.
    hits = [ests[vb].counters.l2_remote_hits for vb in (4, 8, 16, 32)]
    assert all(a >= b for a, b in zip(hits, hits[1:]))
