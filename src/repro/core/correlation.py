"""FCMA stage 1: correlation computation (paper Sections 3.1, 4.2).

Pearson correlation between voxel time courses is reduced to matrix
multiplication by the equation-2 normalization: subtract each epoch
vector's mean and divide by its root sum of squares, after which
``corr(X, Y) = X' . Y'``.  Stage 1 then computes, for every epoch, the
correlations between a task's *assigned* voxels and **all** brain voxels
— a multiplication of a small ``(V, T)`` matrix with a tall-skinny
``(T, N)`` matrix.

Numerically equivalent paths, slowest to fastest:

* :func:`correlate_baseline` — one BLAS gemm per epoch writing straight
  into the voxel-major output (the baseline's ``cblas_sgemm`` with
  ``ldc`` striding).
* :func:`correlate_batched` — the whole task as a single epoch-batched
  matmul ``(E, V, T) @ (E, T, N)`` written straight into the voxel-major
  output through an axis swap.
* :func:`correlate_normalize_batched` — the fused stage-1/2 engine: the
  single batched matmul followed by the L2-sized phased voxel sweep of
  :func:`repro.core.normalization.fused_normalize_sweep`.

Output layout is always **voxel-major**: ``out[v, e, :]`` is voxel ``v``'s
correlation vector for epoch ``e``, i.e. "all correlation vectors
corresponding to a single voxel are contiguous" (Fig. 4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.dataset import FMRIDataset
from ..data.epochs import Epoch
from .engine import DenseEmitter, check_stage1_inputs, run_engine, validate_dense_out
from .normalization import NormalizationWorkspace
from .tiling import iter_blocks

__all__ = [
    "normalize_epoch_data",
    "epoch_windows",
    "correlate_baseline",
    "correlate_batched",
    "correlate_normalize_batched",
    "iter_blocks",
    "stage1_input_copies",
]


def normalize_epoch_data(epoch_stack: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Equation-2 normalization of raw epoch windows.

    ``epoch_stack`` has shape ``(n_epochs, n_voxels, epoch_len)``.  Each
    voxel's epoch vector is mean-centered and scaled by its root sum of
    squares so that the dot product of two normalized vectors equals
    their Pearson correlation.  Zero-variance vectors are mapped to zero
    (their correlation with anything is defined as 0 rather than NaN).
    """
    epoch_stack = np.asarray(epoch_stack)
    if epoch_stack.ndim != 3:
        raise ValueError(
            f"epoch stack must be (epochs, voxels, time), got {epoch_stack.shape}"
        )
    x = epoch_stack.astype(np.float32, copy=True)
    x -= x.mean(axis=2, keepdims=True)
    norms = np.sqrt((x * x).sum(axis=2, keepdims=True))
    np.divide(x, norms, out=x, where=norms > eps)
    x[np.broadcast_to(norms <= eps, x.shape)] = 0.0
    return x


def epoch_windows(dataset: FMRIDataset, epochs: Sequence[Epoch] | None = None) -> np.ndarray:
    """Equation-2-normalized epoch windows straight from a dataset.

    Shape ``(n_epochs, n_voxels, epoch_len)``; epochs default to the
    dataset's table order.
    """
    return normalize_epoch_data(dataset.epoch_stack(epochs))


#: Input validation shared with the engine (kept under the historical
#: private names for the modules and tests that import them from here).
_check_stage1_inputs = check_stage1_inputs
_validate_out = validate_dense_out


def correlate_baseline(z: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """Baseline stage 1: one gemm per epoch (Section 3.2).

    Parameters
    ----------
    z:
        Equation-2-normalized data, shape ``(n_epochs, n_voxels, t)``.
    assigned:
        Indices of the task's voxels (the ``V`` rows of each gemm).

    Returns
    -------
    Voxel-major correlations, shape ``(V, n_epochs, n_voxels)`` float32.
    """
    z, assigned = _check_stage1_inputs(z, assigned)
    n_epochs, n_voxels, _ = z.shape
    out = np.empty((assigned.size, n_epochs, n_voxels), dtype=np.float32)
    for e in range(n_epochs):
        # A[V, T] @ B[T, N] -> strided write grouping results by voxel,
        # the cblas_sgemm + ldc trick of the baseline implementation.
        np.matmul(z[e, assigned], z[e].T, out=out[:, e, :])
    return out


def stage1_input_copies(z: np.ndarray) -> int:
    """Hidden array copies the batched gemm makes of this input.

    The batched paths feed ``z`` to one 3D gufunc matmul, which silently
    buffer-copies any operand that is not C-contiguous float32.  The
    *output* side is guarded by :func:`_validate_out` (strided or
    float64 ``out`` is rejected outright); the input side is legal but
    costs a full extra pass over the BOLD data.  This predicate is what
    the stage bodies feed the ``stage12_out_copies`` RunContext counter,
    so a trace exposes the copy instead of it hiding inside BLAS setup.
    """
    z = np.asarray(z)
    if z.dtype == np.float32 and z.flags.c_contiguous:
        return 0
    return 1


def correlate_batched(
    z: np.ndarray,
    assigned: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Stage 1 as one epoch-batched 3D matmul (no Python-level loops).

    Computes ``(E, V, T) @ (E, T, N)`` in a single gufunc call; the
    batched gemm writes through an axis-swapped view so the result still
    lands voxel-major ``(V, E, N)`` with no transpose pass.  Replaces
    ``E`` interpreter-dispatched gemms (and their fancy-indexed A-panel
    slices) with one dispatch — the stage-1 analogue of the stage-3
    stacked syrk.
    """
    z, assigned = _check_stage1_inputs(z, assigned)
    n_epochs, n_voxels, _ = z.shape
    shape = (assigned.size, n_epochs, n_voxels)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    else:
        _validate_out(out, shape)
    # A non-contiguous float32 z would be buffer-copied epoch slice by
    # epoch slice inside the gufunc; do the one whole-array copy up
    # front instead (same count, reported by stage1_input_copies).
    if z.dtype == np.float32 and not z.flags.c_contiguous:
        z = np.ascontiguousarray(z)
    # panel: (E, V, T) contiguous copy of the assigned rows; the gufunc
    # broadcasts the batch axis and writes each epoch's (V, N) slab into
    # the strided voxel-major view.
    panel = z[:, assigned]
    np.matmul(panel, z.swapaxes(1, 2), out=out.swapaxes(0, 1))
    return out


def correlate_normalize_batched(
    z: np.ndarray,
    assigned: np.ndarray,
    epochs_per_subject: int,
    voxel_sweep: int | None = None,
    out: np.ndarray | None = None,
    workspace: NormalizationWorkspace | None = None,
) -> tuple[np.ndarray, int]:
    """Fused batched stage 1/2: one epoch-batched gemm, then an L2-sized
    voxel sweep of the vectorized merged normalization.

    The gemm writes the whole task voxel-major in a single dispatch
    (:func:`correlate_batched`); normalization then walks the output in
    ``voxel_sweep``-voxel slices via
    :func:`~repro.core.normalization.fused_normalize_sweep`, which keeps
    the seven stage-2 vector passes slab-sized (cache-resident instead
    of streaming the full task from DRAM seven times) while hoisting the
    small side-buffer ops out of the sweep loop.  ``voxel_sweep`` is the
    fused engine's ``B``; the blocking planner (``plan_blocks``) chooses
    it, and the autotuner measures it per machine.  ``None`` normalizes
    the whole task in one slice.

    Normalized values are bitwise-equal to running
    ``normalize_separated`` on the same gemm output, for any sweep.

    This is a thin shim over the tiled engine: a
    :class:`~repro.core.engine.DenseEmitter` run in full-width mode
    reproduces the historical single-gemm + phased-sweep sequence
    bitwise (pinned by ``tests/core/test_stage12_equivalence.py``).

    Returns ``(out, n_tiles)`` where ``n_tiles`` is the number of sweep
    slices normalized (the ``stage12_tiles`` RunContext counter).
    """
    emitter = DenseEmitter(voxel_sweep=voxel_sweep, out=out)
    result: tuple[np.ndarray, int] = run_engine(
        z, assigned, epochs_per_subject, emitter, workspace=workspace
    )
    return result
