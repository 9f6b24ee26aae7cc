"""FCMA stage 3: voxel-wise SVM cross-validation (Section 3.1).

Each assigned voxel's normalized correlation vectors form an ``(M, N)``
data matrix (M epochs, N brain voxels).  The voxel's score is the
cross-validated accuracy of a linear SVM classifying those vectors by
epoch condition — computed over the precomputed linear kernel so the CV
folds are pure submatrix slices.

Two drivers are provided.  :func:`score_voxels` (the default path)
works **batch-at-a-time**: blocks of ``batch_voxels`` problems get their
kernels from one stacked GEMM and are cross-validated by the
multi-problem SMO solver, which keeps every problem in the block in
flight simultaneously — the software analogue of the paper's "240+
voxel problems resident on the coprocessor".
:func:`score_voxels_reference` is the one-voxel-at-a-time loop kept as
the reference implementation; the batched path reproduces its
trajectories exactly (see the solver equivalence tests).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..obs.runtime import kernel_span
from ..svm.cross_validation import (
    KernelBackend,
    grouped_cross_validation,
    grouped_cross_validation_batch,
)
from .kernels import csr_gram_panel, kernel_matrix_baseline, kernel_matrix_batched
from .results import VoxelScores
from .sparse import SparseCorrelationResult

__all__ = [
    "score_voxels",
    "score_voxels_reference",
    "score_voxels_sparse",
    "DEFAULT_BATCH_VOXELS",
]

KernelFn = Callable[[np.ndarray], np.ndarray]
BatchKernelFn = Callable[[np.ndarray], np.ndarray]

#: Default voxel problems per batch; mirrors the paper's observation
#: that ~2 x 120-voxel tasks stay resident on the coprocessor at once.
DEFAULT_BATCH_VOXELS = 64


def _check_inputs(
    correlations: np.ndarray,
    voxel_ids: np.ndarray,
    labels: np.ndarray,
    fold_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    correlations = np.asarray(correlations)
    if correlations.ndim != 3:
        raise ValueError(
            f"correlations must be (V, M, N), got {correlations.shape}"
        )
    voxel_ids = np.asarray(voxel_ids, dtype=np.int64)
    v, m, _ = correlations.shape
    if voxel_ids.shape != (v,):
        raise ValueError(f"voxel_ids must have shape ({v},)")
    labels = np.asarray(labels)
    fold_ids = np.asarray(fold_ids)
    if labels.shape != (m,) or fold_ids.shape != (m,):
        raise ValueError("labels and fold_ids must have one entry per epoch")
    return correlations, voxel_ids, labels, fold_ids


def score_voxels_reference(
    correlations: np.ndarray,
    voxel_ids: np.ndarray,
    labels: np.ndarray,
    fold_ids: np.ndarray,
    backend: KernelBackend,
    kernel_fn: KernelFn = kernel_matrix_baseline,
) -> VoxelScores:
    """Reference stage 3: one kernel + one sequential CV per voxel.

    Parameters
    ----------
    correlations:
        Normalized voxel-major correlations, shape ``(V, M, N)``.
    voxel_ids:
        The flat brain indices of the ``V`` assigned voxels (reported in
        the result).
    labels:
        Condition labels per epoch, shape ``(M,)``.
    fold_ids:
        CV fold assignment per epoch — subject ids for the offline LOSO
        analysis, k-fold ids for single-subject online analysis.
    backend:
        An SVM backend with ``fit_kernel`` (PhiSVM or LibSVMClassifier).
    kernel_fn:
        Per-voxel kernel precompute, ``(M, N) -> (M, M)``.
    """
    correlations, voxel_ids, labels, fold_ids = _check_inputs(
        correlations, voxel_ids, labels, fold_ids
    )
    v = correlations.shape[0]
    accuracies = np.empty(v, dtype=np.float64)
    for i in range(v):
        kernel = kernel_fn(correlations[i])
        result = grouped_cross_validation(backend, kernel, labels, fold_ids)
        accuracies[i] = result.accuracy
    return VoxelScores(voxels=voxel_ids, accuracies=accuracies)


def score_voxels(
    correlations: np.ndarray,
    voxel_ids: np.ndarray,
    labels: np.ndarray,
    fold_ids: np.ndarray,
    backend: KernelBackend,
    batch_voxels: int | None = DEFAULT_BATCH_VOXELS,
    batch_kernel_fn: BatchKernelFn = kernel_matrix_batched,
) -> VoxelScores:
    """Score every assigned voxel by grouped-CV accuracy (batched).

    Blocks of ``batch_voxels`` problems are scored at once: their
    kernels come from one stacked GEMM (``batch_kernel_fn``) and their
    cross-validation runs through the backend's multi-problem solver
    (``fit_kernel_batch``).  Falls back to
    :func:`score_voxels_reference` — per-voxel baseline kernels, bitwise
    equal to the batched GEMM's slices, and sequential CV — when
    batching is disabled
    (``batch_voxels=None``/``0``), when the backend has no batched
    trainer (e.g. the LibSVM-like baseline), or when the labels are
    multiclass (one-vs-one voting is per-problem).

    See :func:`score_voxels_reference` for the shared parameters.
    """
    correlations, voxel_ids, labels, fold_ids = _check_inputs(
        correlations, voxel_ids, labels, fold_ids
    )
    batchable = (
        batch_voxels is not None
        and batch_voxels > 0
        and hasattr(backend, "fit_kernel_batch")
        and np.unique(labels).size == 2
    )
    if not batchable:
        return score_voxels_reference(
            correlations, voxel_ids, labels, fold_ids, backend
        )
    v = correlations.shape[0]
    accuracies = np.empty(v, dtype=np.float64)
    for b0 in range(0, v, batch_voxels):
        b1 = min(b0 + batch_voxels, v)
        with kernel_span(
            "score_batch", attrs={"first_voxel": b0}
        ) as span:
            kernels = batch_kernel_fn(correlations[b0:b1])
            try:
                result = grouped_cross_validation_batch(
                    backend, kernels, labels, fold_ids
                )
            except NotImplementedError:
                # Backends advertising fit_kernel_batch only through a
                # wrapper (e.g. the one-vs-one shim over LibSVM) surface
                # here; score the whole task on the reference path instead.
                return score_voxels_reference(
                    correlations, voxel_ids, labels, fold_ids, backend
                )
            if span is not None:
                span.add_metric("voxels", float(b1 - b0))
                span.add_metric("bytes_moved", float(kernels.nbytes))
        accuracies[b0:b1] = result.accuracies
    return VoxelScores(voxels=voxel_ids, accuracies=accuracies)


def score_voxels_sparse(
    sparse: SparseCorrelationResult,
    voxel_ids: np.ndarray,
    labels: np.ndarray,
    fold_ids: np.ndarray,
    backend: KernelBackend,
    batch_voxels: int | None = DEFAULT_BATCH_VOXELS,
) -> VoxelScores:
    """Stage 3 straight from a CSR stage-1/2 result.

    Per-voxel Gram kernels come from sparse-times-sparse-transpose row
    bands (:func:`csr_gram_panel`) and feed the *same* batched SMO
    cross-validation as the dense path — at ``tau=0`` the scores equal
    :func:`score_voxels` within float32 kernel tolerance.

    Batches are row panels balanced by ragged per-voxel nnz
    (:func:`repro.exec.partition.partition_rows_by_nnz`): ``batch_voxels``
    sets the *average* panel width, and nnz-heavy voxels get narrower
    panels so every batch Grams a comparable number of stored entries.
    Falls back to sequential per-voxel CV when batching is disabled, the
    backend has no batched trainer, or the labels are multiclass.
    """
    if not isinstance(sparse, SparseCorrelationResult):
        raise TypeError(
            f"sparse must be a SparseCorrelationResult, got {type(sparse).__name__}"
        )
    from ..exec.partition import partition_rows_by_nnz

    v, m, _ = sparse.shape
    voxel_ids = np.asarray(voxel_ids, dtype=np.int64)
    if voxel_ids.shape != (v,):
        raise ValueError(f"voxel_ids must have shape ({v},)")
    labels = np.asarray(labels)
    fold_ids = np.asarray(fold_ids)
    if labels.shape != (m,) or fold_ids.shape != (m,):
        raise ValueError("labels and fold_ids must have one entry per epoch")
    batchable = (
        batch_voxels is not None
        and batch_voxels > 0
        and hasattr(backend, "fit_kernel_batch")
        and np.unique(labels).size == 2
    )
    accuracies = np.empty(v, dtype=np.float64)
    if not batchable:
        for i in range(v):
            kernel = csr_gram_panel(sparse, i, i + 1)[0]
            result = grouped_cross_validation(backend, kernel, labels, fold_ids)
            accuracies[i] = result.accuracy
        return VoxelScores(voxels=voxel_ids, accuracies=accuracies)
    voxel_nnz = sparse.row_nnz.reshape(v, m).sum(axis=1)
    assert batch_voxels is not None
    nnz_budget = max(1, int(batch_voxels) * max(1, int(voxel_nnz.mean()))) if v else 1
    for b0, b1 in partition_rows_by_nnz(
        voxel_nnz, nnz_budget, max_rows=int(batch_voxels)
    ):
        with kernel_span("score_batch", attrs={"first_voxel": b0}) as span:
            kernels = csr_gram_panel(sparse, b0, b1)
            try:
                result = grouped_cross_validation_batch(
                    backend, kernels, labels, fold_ids
                )
            except NotImplementedError:
                return score_voxels_sparse(
                    sparse, voxel_ids, labels, fold_ids, backend,
                    batch_voxels=None,
                )
            if span is not None:
                span.add_metric("voxels", float(b1 - b0))
                span.add_metric("nnz", float(voxel_nnz[b0:b1].sum()))
                span.add_metric("bytes_moved", float(kernels.nbytes))
        accuracies[b0:b1] = result.accuracies
    return VoxelScores(voxels=voxel_ids, accuracies=accuracies)
