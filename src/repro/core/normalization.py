"""FCMA stage 2: within-subject normalization (Sections 3.1, 4.3).

Correlation coefficients are Fisher-transformed (equation 4) and then
z-scored within subject (equation 5): for each (voxel, target-voxel,
subject) triple, the population is that subject's ``E`` epoch values —
the "sub-column of E values" of Fig. 4.

Three execution strategies, numerically identical:

* :func:`normalize_separated` — a standalone pass over the full
  correlation array (the baseline; re-reads everything from memory).
* :func:`fuse_normalize_tile` — the batched fast path: the same
  arithmetic as ``normalize_separated`` (bitwise, including degenerate
  populations) expressed as the minimum number of full-tile vector
  passes, with all scratch buffers owned by a reusable
  :class:`NormalizationWorkspace`.
* :func:`fused_normalize_sweep` — the same fast path restructured for
  the fused stage-1/2 engine
  (:func:`repro.core.correlation.correlate_normalize_batched`): the
  big vector passes sweep the task in L2-sized voxel slabs, while the
  small side-buffer ops (mean/variance scaling, sqrt, degenerate
  masking) are hoisted out of the sweep loop and issued once for the
  whole task, cutting per-slab Python dispatch from ~12 ufunc calls
  to 3.
"""

from __future__ import annotations

import numpy as np

from .tiling import block_bounds

__all__ = [
    "fisher_z",
    "zscore_within_subject",
    "normalize_separated",
    "NormalizationWorkspace",
    "fuse_normalize_tile",
    "fused_normalize_sweep",
]

#: Correlations are clipped to +-(1 - _CLIP_EPS) before arctanh so that
#: degenerate +-1 coefficients (a voxel correlated with itself, or
#: duplicated time courses) map to a large finite z instead of inf.
_CLIP_EPS = 1e-6


def fisher_z(corr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Equation 4: ``z = arctanh(r)``, computed in float32.

    Values are clipped into the open interval (-1, 1) first; see
    ``_CLIP_EPS``.  ``out`` may alias ``corr`` for in-place operation.
    """
    corr = np.asarray(corr)
    if out is None:
        out = np.empty_like(corr, dtype=np.float32)
    limit = np.float32(1.0 - _CLIP_EPS)
    np.clip(corr, -limit, limit, out=out)
    return np.arctanh(out, out=out)


def zscore_within_subject(
    z: np.ndarray, epochs_per_subject: int, eps: float = 1e-12
) -> np.ndarray:
    """Equation 5 applied in place along subject-contiguous epochs.

    ``z`` has voxel-major shape ``(V, M, N)`` with the ``M`` epochs
    grouped by subject (``M = n_subjects * epochs_per_subject``).  For
    every (voxel, subject, target) the ``epochs_per_subject`` values are
    standardized with the population standard deviation.  Zero-variance
    populations become 0.
    """
    z = np.asarray(z)
    if z.ndim != 3:
        raise ValueError(f"expected (V, M, N) correlations, got {z.shape}")
    n_rows, m, n = z.shape
    if epochs_per_subject < 1:
        raise ValueError("epochs_per_subject must be >= 1")
    if m % epochs_per_subject != 0:
        raise ValueError(
            f"epoch count {m} not divisible by epochs_per_subject "
            f"{epochs_per_subject}"
        )
    grouped = z.reshape(n_rows, m // epochs_per_subject, epochs_per_subject, n)
    mean = grouped.mean(axis=2, keepdims=True)
    std = grouped.std(axis=2, keepdims=True)
    grouped -= mean
    np.divide(grouped, std, out=grouped, where=std > eps)
    grouped[np.broadcast_to(std <= eps, grouped.shape)] = 0.0
    return z


def normalize_separated(
    corr: np.ndarray, epochs_per_subject: int
) -> np.ndarray:
    """Baseline stage 2: Fisher transform then z-score, full-array passes.

    Operates in place on the float32 correlation array and returns it.
    This is the "separated" variant of Table 7 — stage 1 finished
    completely before this runs, so every element is re-fetched from
    memory.
    """
    corr = np.asarray(corr)
    if corr.dtype != np.float32:
        raise TypeError(f"expected float32 correlations, got {corr.dtype}")
    fisher_z(corr, out=corr)
    return zscore_within_subject(corr, epochs_per_subject)


class NormalizationWorkspace:
    """Reusable scratch buffers for :func:`fuse_normalize_tile`.

    The fused sweep calls the normalizer once per voxel slice; fresh
    ``np.empty`` allocations per call would page-fault megabytes of
    scratch on every tile.  The workspace keeps the (mean, std, square)
    buffers alive across calls, re-allocating only when the tile shape
    changes (at most twice per sweep: the steady block and the ragged
    tail).
    """

    def __init__(self) -> None:
        self._shape: tuple[int, int, int, int] | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self._sq: np.ndarray | None = None
        self._sweep_key: tuple[tuple[int, int, int, int], int] | None = None
        self._sweep_mean: np.ndarray | None = None
        self._sweep_std: np.ndarray | None = None
        self._sweep_sq: np.ndarray | None = None

    def buffers(
        self, grouped_shape: tuple[int, int, int, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mean, std, sq) scratch for a ``(V, S, E, N)`` grouped tile."""
        if self._shape != grouped_shape:
            v, s, _, n = grouped_shape
            self._mean = np.empty((v, s, 1, n), dtype=np.float32)
            self._std = np.empty((v, s, 1, n), dtype=np.float32)
            self._sq = np.empty(grouped_shape, dtype=np.float32)
            self._shape = grouped_shape
        assert self._mean is not None and self._std is not None and self._sq is not None
        return self._mean, self._std, self._sq

    def sweep_buffers(
        self, grouped_shape: tuple[int, int, int, int], sweep: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scratch for :func:`fused_normalize_sweep` over a full
        ``(V, S, E, N)`` task: whole-task ``mean`` / ``std`` side buffers
        (so their scaling ops hoist out of the sweep loop) plus one
        slab-sized squaring scratch shared by every slab."""
        key = (grouped_shape, sweep)
        if self._sweep_key != key:
            v, s, e, n = grouped_shape
            self._sweep_mean = np.empty((v, s, 1, n), dtype=np.float32)
            self._sweep_std = np.empty((v, s, 1, n), dtype=np.float32)
            self._sweep_sq = np.empty((sweep, s, e, n), dtype=np.float32)
            self._sweep_key = key
        assert (
            self._sweep_mean is not None
            and self._sweep_std is not None
            and self._sweep_sq is not None
        )
        return self._sweep_mean, self._sweep_std, self._sweep_sq


def fuse_normalize_tile(
    tile: np.ndarray,
    epochs_per_subject: int,
    eps: float = 1e-12,
    workspace: NormalizationWorkspace | None = None,
) -> np.ndarray:
    """Fisher-z + within-subject z-score of a whole tile, fast path.

    Bitwise-equal to ``normalize_separated(tile, epochs_per_subject)``
    but with the redundant passes stripped out: ``np.std``'s internal
    re-computation of the centered values is replaced by reusing the
    in-place centered tile, the masked ``where=`` divide (4x the cost of
    a plain divide) becomes a plain divide against a std with degenerate
    entries set to ``inf``, and the final zero-fill of degenerate
    populations touches only the affected columns instead of the whole
    broadcast mask.  The op-for-op float32 sequence of the reference is
    otherwise preserved (same reductions, same order), which is what
    makes the equality exact rather than approximate.

    ``tile`` must be a C-contiguous float32 view of voxel-major
    correlations ``(V, M, N)`` with ``M`` divisible by
    ``epochs_per_subject``; it is normalized in place and returned.
    """
    tile = np.asarray(tile)
    if tile.dtype != np.float32:
        raise TypeError(f"expected float32 correlations, got {tile.dtype}")
    if tile.ndim != 3:
        raise ValueError(f"expected (V, M, N) correlations, got {tile.shape}")
    if not tile.flags.c_contiguous:
        raise TypeError("fuse_normalize_tile requires a C-contiguous tile")
    n_rows, m, n = tile.shape
    if epochs_per_subject < 1:
        raise ValueError("epochs_per_subject must be >= 1")
    if m % epochs_per_subject != 0:
        raise ValueError(
            f"epoch count {m} not divisible by epochs_per_subject "
            f"{epochs_per_subject}"
        )
    if workspace is None:
        workspace = NormalizationWorkspace()
    e = epochs_per_subject
    grouped = tile.reshape(n_rows, m // e, e, n)
    mean, std, sq = workspace.buffers(grouped.shape)

    # Equation 4 (fisher_z inlined so the clip limit stays identical).
    limit = np.float32(1.0 - _CLIP_EPS)
    np.clip(tile, -limit, limit, out=tile)
    np.arctanh(tile, out=tile)

    # Equation 5.  np.mean == umr_sum + true_divide(count); replicating
    # it keeps the accumulation order (and therefore the bits) of the
    # reference while writing into workspace buffers.
    np.add.reduce(grouped, axis=2, keepdims=True, out=mean)
    np.true_divide(mean, e, out=mean, casting="unsafe")
    np.subtract(grouped, mean, out=grouped)
    np.multiply(grouped, grouped, out=sq)
    np.add.reduce(sq, axis=2, keepdims=True, out=std)
    np.true_divide(std, e, out=std, casting="unsafe")
    np.sqrt(std, out=std)

    # Degenerate populations: x / inf underflows to +-0, so a plain
    # divide plus a targeted zero-fill of the affected columns matches
    # the reference's masked divide + broadcast zero-fill exactly.
    vi, si, ni = np.nonzero(std[:, :, 0, :] <= eps)
    if vi.size:
        std[vi, si, 0, ni] = np.inf
    np.divide(grouped, std, out=grouped)
    if vi.size:
        grouped[vi, si, :, ni] = 0.0
    return tile


def fused_normalize_sweep(
    corr: np.ndarray,
    epochs_per_subject: int,
    voxel_sweep: int | None = None,
    eps: float = 1e-12,
    workspace: NormalizationWorkspace | None = None,
) -> int:
    """Whole-task fused normalization as three phased voxel sweeps.

    Same bits as :func:`fuse_normalize_tile` (and therefore
    ``normalize_separated``), restructured to minimize Python dispatch:
    the sweep loop issues only the big slab-sized vector ops —

    * phase 1: clip, arctanh, epoch-sum per slab;
    * phase 2: subtract mean, square, epoch-sum-of-squares per slab;
    * phase 3: divide by std per slab —

    while every small side-buffer op (the ``1/E`` scalings, sqrt,
    degenerate-population masking) runs once on the whole-task ``mean``
    / ``std`` buffers between phases.  Per-slab reductions and
    elementwise ops are untouched, and the hoisted ops are elementwise
    on disjoint data, so the result is bitwise-identical for any sweep
    width.  Locality is unchanged too — a slab is streamed once per
    phase either way — so the ~9 dispatches saved per slab are pure
    win on dispatch-bound task shapes.

    ``corr`` is normalized in place; returns the number of sweep slabs
    (the ``stage12_tiles`` counter).
    """
    corr = np.asarray(corr)
    if corr.dtype != np.float32:
        raise TypeError(f"expected float32 correlations, got {corr.dtype}")
    if corr.ndim != 3:
        raise ValueError(f"expected (V, M, N) correlations, got {corr.shape}")
    if not corr.flags.c_contiguous:
        raise TypeError("fused_normalize_sweep requires a C-contiguous array")
    n_rows, m, n = corr.shape
    if epochs_per_subject < 1:
        raise ValueError("epochs_per_subject must be >= 1")
    if m % epochs_per_subject != 0:
        raise ValueError(
            f"epoch count {m} not divisible by epochs_per_subject "
            f"{epochs_per_subject}"
        )
    sweep = n_rows if voxel_sweep is None else min(voxel_sweep, n_rows)
    if sweep < 1:
        raise ValueError("voxel_sweep must be >= 1")
    if workspace is None:
        workspace = NormalizationWorkspace()
    e = epochs_per_subject
    grouped = corr.reshape(n_rows, m // e, e, n)
    mean, std, sq = workspace.sweep_buffers(grouped.shape, sweep)

    slabs = block_bounds(n_rows, sweep)
    limit = np.float32(1.0 - _CLIP_EPS)
    for v0, v1 in slabs:
        slab = grouped[v0:v1]
        np.clip(slab, -limit, limit, out=slab)
        np.arctanh(slab, out=slab)
        np.add.reduce(slab, axis=2, keepdims=True, out=mean[v0:v1])
    np.true_divide(mean, e, out=mean, casting="unsafe")
    for v0, v1 in slabs:
        slab = grouped[v0:v1]
        np.subtract(slab, mean[v0:v1], out=slab)
        sq_slab = sq[: v1 - v0]
        np.multiply(slab, slab, out=sq_slab)
        np.add.reduce(sq_slab, axis=2, keepdims=True, out=std[v0:v1])
    np.true_divide(std, e, out=std, casting="unsafe")
    np.sqrt(std, out=std)
    vi, si, ni = np.nonzero(std[:, :, 0, :] <= eps)
    if vi.size:
        std[vi, si, 0, ni] = np.inf
    for v0, v1 in slabs:
        np.divide(grouped[v0:v1], std[v0:v1], out=grouped[v0:v1])
    if vi.size:
        grouped[vi, si, :, ni] = 0.0
    return len(slabs)
