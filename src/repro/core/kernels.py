"""FCMA stage 3a: SVM kernel matrix precomputation (Section 4.4, Fig. 7).

For each voxel the linear-kernel matrix of its ``(M, N)`` correlation
data matrix is ``C = A A^T`` — a symmetric rank-k update with a very
large ``N`` ("syrk" in BLAS terms).  Precomputing it shrinks a voxel's
working set from an ``M x N`` data matrix (~60 MB at paper scale) to an
``M x M`` kernel (~160 KB), which is what lets the optimized pipeline
keep 240+ voxel problems resident on the coprocessor.

Two implementations are provided:

* :func:`kernel_matrix_baseline` — one BLAS call per voxel.
* :func:`kernel_matrix_batched` — **all V voxel kernels at once** as a
  stacked ``(V, M, N) @ (V, N, M)`` GEMM (optionally walked in the
  paper's 96-deep, triangle-only panels of Fig. 7), the batch axis that
  keeps many voxel problems in flight the way the paper keeps 240+
  problems resident on the coprocessor.

The unblocked batched slices equal the baseline bitwise (the same GEMM
per slice); the panel walk agrees up to float32 summation order.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .correlation import iter_blocks

__all__ = [
    "csr_gram_panel",
    "kernel_matrix_baseline",
    "kernel_matrix_batched",
    "symmetrize_from_triangle",
]

#: Microkernel output tile (rows x cols of C), the paper's
#: "auto-generated 16x9x96 assembly-level matrix multiply routine".
MICRO_TILE = (16, 9)


def kernel_matrix_baseline(data: np.ndarray) -> np.ndarray:
    """Baseline syrk: one BLAS call ``A A^T`` (``cblas_ssyrk``)."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be (samples, features), got {data.shape}")
    data = np.ascontiguousarray(data, dtype=np.float32)
    return data @ data.T


def kernel_matrix_batched(
    data: np.ndarray, panel_depth: int | None = None
) -> np.ndarray:
    """Batched syrk: all ``V`` voxel kernels in one stacked GEMM.

    ``data`` holds every voxel problem's data matrix stacked on a batch
    axis, shape ``(V, M, N)``; the result is the ``(V, M, M)`` stack of
    linear kernels ``data[v] @ data[v].T``.  With ``panel_depth=None``
    (the default) this is a single ``np.matmul`` over the stack — one
    BLAS dispatch for V problems instead of V Python-level calls.  An
    integer ``panel_depth`` instead accumulates 96-deep panels with
    triangle-only row bands across the whole batch at once, mirroring
    the Fig. 7 walk with the batch axis innermost in each BLAS call.

    Per-voxel slices equal :func:`kernel_matrix_baseline` up to float32
    summation order (bitwise for the unblocked path, which issues the
    identical GEMM per slice).

    ``data`` may also be a :class:`repro.core.sparse.SparseCorrelationResult`,
    in which case each voxel's ``(M, N)`` CSR row band is Gram-ed as
    sparse-times-sparse-transpose (:func:`csr_gram_panel`); the dense
    ``(V, M, M)`` kernel stack feeds the batched SMO unchanged, and at
    ``tau=0`` it equals the dense path within float32 tolerance (sparse
    dot products accumulate in a different order).  ``panel_depth`` has
    no meaning there and must stay ``None``.
    """
    from .sparse import SparseCorrelationResult

    if isinstance(data, SparseCorrelationResult):
        if panel_depth is not None:
            raise ValueError("panel_depth does not apply to CSR input")
        n_problems = data.shape[0]
        return csr_gram_panel(data, 0, n_problems)
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError(
            f"data must be (problems, samples, features), got {data.shape}"
        )
    data = np.ascontiguousarray(data, dtype=np.float32)
    if panel_depth is None:
        return data @ data.transpose(0, 2, 1)
    if panel_depth < 1:
        raise ValueError("panel_depth must be >= 1")
    v, m, n = data.shape
    out = np.zeros((v, m, m), dtype=np.float32)
    row_band = MICRO_TILE[0]
    for n0, n1 in iter_blocks(n, panel_depth):
        panel = data[:, :, n0:n1]
        panel_t = panel.transpose(0, 2, 1)
        for i0, i1 in iter_blocks(m, row_band):
            out[:, i0:i1, :i1] += panel[:, i0:i1, :] @ panel_t[:, :, :i1]
    return symmetrize_from_triangle(np.tril(out))


def csr_gram_panel(sparse: "Any", start: int, stop: int) -> np.ndarray:
    """Dense Gram kernels for a panel of voxels of a CSR stage-1/2 result.

    ``sparse`` is a :class:`repro.core.sparse.SparseCorrelationResult`
    whose rows are ``(voxel, epoch)`` pairs; for each voxel ``v`` in
    ``[start, stop)`` the ``(M, N)`` CSR band of its ``M`` epoch rows is
    multiplied with its own transpose — sparse times sparse-transpose,
    ``O(nnz)`` per output row instead of ``O(M * N)`` — and densified
    into the ``(stop - start, M, M)`` float32 kernel stack the batched
    SMO consumes.  Panel-wise so callers can balance ragged per-voxel
    nnz across score batches.
    """
    n_problems, m, _ = sparse.shape
    if not 0 <= start <= stop <= n_problems:
        raise ValueError(
            f"panel [{start}, {stop}) out of range for {n_problems} voxels"
        )
    matrix = sparse.to_scipy()
    out = np.empty((stop - start, m, m), dtype=np.float32)
    for i, v in enumerate(range(start, stop)):
        band = matrix[v * m : (v + 1) * m]
        out[i] = (band @ band.T).toarray()
    return out


def symmetrize_from_triangle(lower: np.ndarray) -> np.ndarray:
    """Mirror lower-triangular matrices into full symmetric ones.

    Accepts a single ``(M, M)`` matrix or a stack ``(..., M, M)`` (the
    batched syrk path); the mirror is applied to the last two axes.
    """
    lower = np.asarray(lower)
    if lower.ndim < 2 or lower.shape[-1] != lower.shape[-2]:
        raise ValueError(f"expected square matrices, got {lower.shape}")
    diag = np.diagonal(lower, axis1=-2, axis2=-1).copy()
    full = lower + np.swapaxes(lower, -1, -2)
    idx = np.arange(lower.shape[-1])
    full[..., idx, idx] = diag
    return full
