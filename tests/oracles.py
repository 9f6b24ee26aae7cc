"""Reference kernels the tests and benchmarks compare against.

These are the paper's Section-4 building blocks in their loop-for-loop
form — L2-sized stage-1 tiles with a per-tile merged normalization
callback, and the 96-deep panel syrk of Fig. 7.  The shipped pipeline
computes the same values through the tiled engine
(:func:`repro.core.engine.run_engine` + ``DenseEmitter``) and the
stacked-GEMM kernel (:func:`repro.core.kernels.kernel_matrix_batched`);
these versions live next to the suites that pin that equivalence and
the benchmarks that time the engine against them.

Import them as ``tests.oracles`` (``python -m pytest`` from the repo
root puts the root on ``sys.path``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.engine import check_stage1_inputs as _check_stage1_inputs
from repro.core.engine import validate_dense_out as _validate_out
from repro.core.kernels import MICRO_TILE, symmetrize_from_triangle
from repro.core.normalization import fisher_z, zscore_within_subject
from repro.core.tiling import iter_blocks

__all__ = [
    "PANEL_DEPTH",
    "TileCallback",
    "MergedNormalizer",
    "correlate_blocked",
    "correlate_blocked_reference",
    "kernel_matrix_blocked",
]

#: Panel depth along the long (N) dimension; "blocks of 96 rows (an
#: integral multiple of VPU length)" in the paper's Fig. 7 walkthrough.
PANEL_DEPTH = 96


#: Callback invoked on each finished tile of the blocked path.
#: Arguments: (tile, voxel_block, target_block, epoch_block) where
#: ``tile`` is the float32 view ``out[v0:v1, e0:e1, n0:n1]`` just
#: computed and may be modified in place (merged normalization).
TileCallback = Callable[[np.ndarray, tuple[int, int], tuple[int, int], tuple[int, int]], None]


def correlate_blocked(
    z: np.ndarray,
    assigned: np.ndarray,
    voxel_block: int = 16,
    target_block: int = 512,
    epoch_block: int | None = None,
    tile_callback: TileCallback | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Optimized stage 1: L2-sized tiles over (voxels x targets x epochs).

    The loop order mirrors Section 4.2: for each tile of ``voxel_block``
    assigned voxels by ``target_block`` brain voxels, all ``epoch_block``
    epochs of the tile are computed before moving on, so the tile is
    still cache-resident when ``tile_callback`` (the merged stage-2
    normalization) runs.  Each tile's epochs are computed in **one**
    batched 3D matmul (``(e, B, T) @ (e, T, B')``) rather than a Python
    loop — see :func:`correlate_blocked_reference` for the pre-batching
    per-epoch loop this replaces.  Results equal
    :func:`correlate_baseline` up to float32 rounding (BLAS may pick
    different accumulation kernels for different tile shapes; each
    output element is still the same mathematical dot product).

    ``epoch_block`` defaults to all epochs; the merged path passes one
    subject's epoch count so a tile holds exactly one normalization
    population.
    """
    z, assigned = _check_stage1_inputs(z, assigned)
    n_epochs, n_voxels, _ = z.shape
    if epoch_block is None:
        epoch_block = n_epochs
    if voxel_block < 1 or target_block < 1 or epoch_block < 1:
        raise ValueError("block sizes must be >= 1")
    shape = (assigned.size, n_epochs, n_voxels)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    else:
        _validate_out(out, shape)

    zt = z.swapaxes(1, 2)  # (E, T, N) view, no copy
    for v0, v1 in iter_blocks(assigned.size, voxel_block):
        # One contiguous (E, B, T) A-panel per voxel block, hoisted out
        # of the epoch/target loops (the reference re-sliced it per
        # epoch per tile).
        panel = z[:, assigned[v0:v1]]
        for e0, e1 in iter_blocks(n_epochs, epoch_block):
            for n0, n1 in iter_blocks(n_voxels, target_block):
                tile = out[v0:v1, e0:e1, n0:n1]
                np.matmul(
                    panel[e0:e1], zt[e0:e1, :, n0:n1], out=tile.swapaxes(0, 1)
                )
                if tile_callback is not None:
                    tile_callback(tile, (v0, v1), (n0, n1), (e0, e1))
    return out


def correlate_blocked_reference(
    z: np.ndarray,
    assigned: np.ndarray,
    voxel_block: int = 16,
    target_block: int = 512,
    epoch_block: int | None = None,
    tile_callback: TileCallback | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The pre-batching blocked loop: one tiny gemm per epoch per tile.

    Preserved verbatim as the reference the batched rewrite is measured
    against (``benchmarks/test_batched_stage12.py``) and as a bitwise
    anchor for the tiling semantics.  Use :func:`correlate_blocked` for
    real work.
    """
    z, assigned = _check_stage1_inputs(z, assigned)
    n_epochs, n_voxels, _ = z.shape
    if epoch_block is None:
        epoch_block = n_epochs
    if voxel_block < 1 or target_block < 1 or epoch_block < 1:
        raise ValueError("block sizes must be >= 1")
    shape = (assigned.size, n_epochs, n_voxels)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    else:
        _validate_out(out, shape)

    for v0, v1 in iter_blocks(assigned.size, voxel_block):
        rows = assigned[v0:v1]
        for e0, e1 in iter_blocks(n_epochs, epoch_block):
            for n0, n1 in iter_blocks(n_voxels, target_block):
                tile = out[v0:v1, e0:e1, n0:n1]
                for e in range(e0, e1):
                    np.matmul(
                        z[e, rows], z[e, n0:n1].T, out=tile[:, e - e0, :]
                    )
                if tile_callback is not None:
                    tile_callback(tile, (v0, v1), (n0, n1), (e0, e1))
    return out


class MergedNormalizer:
    """Tile callback implementing the merged stage-1/stage-2 pipeline.

    Pass an instance as ``tile_callback`` to :func:`correlate_blocked`
    with ``epoch_block=epochs_per_subject``: each tile then contains
    exactly one subject's worth of epochs for a (voxel-block x
    target-block) region, i.e. complete normalization populations, and
    is Fisher- and z-transformed before it leaves cache ("the data
    necessary for a complete normalization should reside in the same
    block", Section 4.3).
    """

    def __init__(self, epochs_per_subject: int):
        if epochs_per_subject < 1:
            raise ValueError("epochs_per_subject must be >= 1")
        self.epochs_per_subject = epochs_per_subject
        #: Number of tiles normalized (test/perf introspection).
        self.tiles_processed = 0

    def __call__(
        self,
        tile: np.ndarray,
        voxel_block: tuple[int, int],
        target_block: tuple[int, int],
        epoch_block: tuple[int, int],
    ) -> None:
        e0, e1 = epoch_block
        if (e1 - e0) != self.epochs_per_subject or e0 % self.epochs_per_subject:
            raise ValueError(
                "merged normalization requires epoch blocks aligned to one "
                f"subject ({self.epochs_per_subject} epochs); got [{e0}, {e1})"
            )
        fisher_z(tile, out=tile)
        zscore_within_subject(tile, self.epochs_per_subject)
        self.tiles_processed += 1


def kernel_matrix_blocked(
    data: np.ndarray,
    panel_depth: int = PANEL_DEPTH,
    micro_tile: tuple[int, int] | None = None,
) -> np.ndarray:
    """Optimized syrk: accumulate 96-deep panels, triangle only.

    Walks the long dimension in ``panel_depth`` slices (each panel is
    the ``A_local`` buffer of Fig. 7), accumulating partial products
    into ``C``.  Only the lower triangle is computed ("only upper or
    lower triangle of the resulting matrix needs to be computed"): each
    panel's contribution is accumulated as row-band tiles
    ``C[i0:i1, :i1] += panel[i0:i1] @ panel[:i1]^T`` that stop at the
    diagonal block, so — unlike a full ``panel @ panel.T`` followed by a
    mask — only the triangle plus a narrow diagonal band is ever
    computed, halving the temporary traffic exactly as the paper claims.
    Passing ``micro_tile`` additionally tiles each panel product into
    16x9 output blocks, reproducing the microkernel loop structure
    exactly (slower in Python; used by equivalence tests).
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be (samples, features), got {data.shape}")
    if panel_depth < 1:
        raise ValueError("panel_depth must be >= 1")
    data = np.ascontiguousarray(data, dtype=np.float32)
    m, n = data.shape
    out = np.zeros((m, m), dtype=np.float32)

    if micro_tile is None:
        row_band = MICRO_TILE[0]
        for n0, n1 in iter_blocks(n, panel_depth):
            panel = data[:, n0:n1]  # A_local of Fig. 7: (M, depth)
            for i0, i1 in iter_blocks(m, row_band):
                # Row-band tile ending at the diagonal block: every
                # column strictly right of i1 belongs to the upper
                # triangle and is never computed.
                out[i0:i1, :i1] += panel[i0:i1] @ panel[:i1].T
        # The diagonal bands picked up their (symmetric) upper corners;
        # drop them before mirroring.
        out = np.tril(out)
    else:
        tr, tc = micro_tile
        if tr < 1 or tc < 1:
            raise ValueError("micro_tile entries must be >= 1")
        for n0, n1 in iter_blocks(n, panel_depth):
            panel = data[:, n0:n1]
            for i0, i1 in iter_blocks(m, tr):
                for j0, j1 in iter_blocks(m, tc):
                    if j0 > i1 - 1:
                        continue  # strictly above the diagonal band
                    out[i0:i1, j0:j1] += panel[i0:i1] @ panel[j0:j1].T
        out = np.tril(out)
    return symmetrize_from_triangle(out)
