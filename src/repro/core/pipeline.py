"""The three-stage FCMA pipeline on one worker (Sections 3.1.2, 4).

:func:`run_task` executes what a single worker node does for one task:
given a dataset and an assigned set of voxels, it computes those voxels'
correlation vectors for every epoch (stage 1), normalizes them (stage 2),
and scores each voxel by SVM cross-validation (stage 3), returning the
accuracies the worker would send back to the master.

:class:`FCMAConfig` selects between the *baseline* implementation
(per-epoch gemm, separated normalization, LibSVM-like solver — Section
3.2) and the optimized one, ``optimized-batched`` (the tiled engine
normalizing L2-resident tiles, stacked-GEMM kernels, batched PhiSVM —
Section 4); both produce the same voxel ranking.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from ..data.dataset import FMRIDataset
from ..svm.cross_validation import KernelBackend
from .correlation import epoch_windows
from .results import VoxelScores
from .voxel_selection import DEFAULT_BATCH_VOXELS

__all__ = [
    "FCMAConfig",
    "run_task",
    "make_backend",
    "task_partition",
    "preprocess_dataset",
    "clear_preprocess_cache",
]

#: Pipeline variant / SVM backend names.  No longer ``Literal`` types:
#: any name registered with :mod:`repro.exec.registry` is valid, so
#: third-party variants and backends plug in without editing this file.
Variant = str
Backend = str

#: Engine emitter each engine-backed variant's stage graph materializes
#: through (the dispatch table ``resolved_emitter`` consults).
_NATIVE_EMITTERS = {
    "optimized-batched": "dense",
    "sparse-batched": "csr",
}


@dataclass(frozen=True)
class FCMAConfig:
    """Knobs of the single-worker pipeline.

    The defaults are the paper's optimized configuration
    (``optimized-batched``).  Setting ``variant="baseline"`` switches
    all three stages to the Section 3.2 implementation (and
    ``svm_backend`` to the LibSVM-like solver unless explicitly
    overridden).
    """

    variant: Variant = "optimized-batched"
    #: SVM backend; None picks the variant's native one (PhiSVM for the
    #: engine variants, LibSVM-like for baseline).
    svm_backend: Backend | None = None
    svm_c: float = 1.0
    svm_tol: float = 1e-3
    #: Assigned voxels per worker task (120 for face-scene in the paper).
    task_voxels: int = 120
    #: Column unit of the master-worker ``--partition tiles`` run:
    #: without ``--tile-cols``, each 2-D tile spans a multiple of it
    #: (see ``exec.partition.tile_cols_for``).
    target_block: int = 512
    #: ``optimized-batched`` only: autotune the blocking plan by
    #: measuring candidate voxel sweeps (see ``core.blocking``) instead
    #: of trusting the analytic model.
    autotune_blocks: bool = False
    #: JSON file for persisting autotuned plans across runs; None keeps
    #: the process-wide in-memory cache.
    plan_cache_path: str | None = None
    #: Folds for single-subject (online) CV, used when the dataset has
    #: only one subject and LOSO is impossible.
    online_folds: int = 4
    #: Voxel problems per stage-3 batch (stacked-GEMM kernels + the
    #: multi-problem SMO solver).  0 forces the per-voxel reference
    #: path; backends without a batched trainer fall back automatically.
    batch_voxels: int = DEFAULT_BATCH_VOXELS
    #: Tasks per worker message in ``parallel_voxel_selection``'s
    #: ``pool.map``; None picks ~4 chunks per worker.  The default
    #: chunksize of 1 would serialize one result round-trip per task.
    chunksize: int | None = None
    #: ``sparse-batched`` only: keep normalized correlations with
    #: ``|value| >= threshold`` (mutually exclusive with ``top_k``;
    #: exactly one is required by that variant, rejected elsewhere).
    threshold: float | None = None
    #: ``sparse-batched`` only: keep the k strongest correlations per
    #: (voxel, epoch) row.
    top_k: int | None = None
    #: Engine emitter (how stage-1/2 tiles are materialized): ``None``
    #: resolves to the variant's native one — ``dense`` for
    #: ``optimized-batched``, ``csr`` for ``sparse-batched``.  The
    #: ``incremental`` emitter is driven per TR by the streaming loop
    #: (:mod:`repro.rtfmri`), not by a batch variant.
    emitter: str | None = None
    #: Seconds before a blocked communicator receive/collective aborts.
    #: ``None`` falls back to the ``FCMA_COMM_TIMEOUT`` environment
    #: variable, then 120 s (see :func:`repro.parallel.comm.default_timeout`).
    comm_timeout: float | None = None

    def __post_init__(self) -> None:
        from ..exec.registry import available_backends, available_variants

        if self.variant not in available_variants():
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.svm_backend is not None and self.svm_backend not in available_backends():
            raise ValueError(f"unknown svm_backend {self.svm_backend!r}")
        if self.svm_c <= 0 or self.svm_tol <= 0:
            raise ValueError("svm_c and svm_tol must be positive")
        if self.task_voxels < 1:
            raise ValueError("task_voxels must be >= 1")
        if self.target_block < 1:
            raise ValueError("target_block must be >= 1")
        if self.online_folds < 2:
            raise ValueError("online_folds must be >= 2")
        if self.batch_voxels < 0:
            raise ValueError("batch_voxels must be >= 0")
        if self.chunksize is not None and self.chunksize < 1:
            raise ValueError("chunksize must be >= 1 (or None for auto)")
        if self.threshold is not None and not self.threshold >= 0.0:
            raise ValueError("threshold must be >= 0")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.comm_timeout is not None and not self.comm_timeout > 0:
            raise ValueError("comm_timeout must be positive (or None for auto)")
        if self.threshold is not None and self.top_k is not None:
            raise ValueError("threshold and top_k are mutually exclusive")
        sparse_mode = self.threshold is not None or self.top_k is not None
        if self.variant == "sparse-batched" and not sparse_mode:
            raise ValueError(
                "variant 'sparse-batched' requires threshold or top_k"
            )
        if sparse_mode and self.variant != "sparse-batched":
            raise ValueError(
                "threshold/top_k only apply to variant 'sparse-batched'"
            )
        if self.emitter is not None:
            from .engine import available_emitters

            if self.emitter not in available_emitters():
                raise ValueError(
                    f"unknown emitter {self.emitter!r}; "
                    f"available: {available_emitters()}"
                )
            if self.emitter == "incremental":
                raise ValueError(
                    "the incremental emitter is driven per TR by the "
                    "streaming loop (repro.rtfmri), not by a batch variant"
                )
            native = _NATIVE_EMITTERS.get(self.variant)
            if native is None:
                raise ValueError(
                    f"variant {self.variant!r} does not run through the "
                    "tiled engine; emitter only applies to engine-backed "
                    "variants"
                )
            if self.emitter != native:
                raise ValueError(
                    f"emitter {self.emitter!r} is incompatible with variant "
                    f"{self.variant!r} (its stage graph materializes "
                    f"{native!r} output)"
                )

    def resolved_emitter(self) -> str | None:
        """The engine emitter actually used (variant default resolved).

        ``None`` for the ``baseline`` variant, which never touches the
        tiled engine.
        """
        if self.emitter is not None:
            return self.emitter
        return _NATIVE_EMITTERS.get(self.variant)

    def resolved_backend(self) -> Backend:
        """The backend actually used, resolving the variant default."""
        if self.svm_backend is not None:
            return self.svm_backend
        return "libsvm" if self.variant == "baseline" else "phisvm"

    def with_variant(self, variant: Variant) -> "FCMAConfig":
        """Copy with a different variant (backend default re-resolves)."""
        return replace(self, variant=variant)


def make_backend(config: FCMAConfig) -> KernelBackend:
    """Instantiate the configured SVM backend.

    Resolves through the :mod:`repro.exec.registry` tables (the paper's
    backends are pre-registered; third-party ones register themselves).
    The built-in factories wrap for one-vs-one multiclass voting; binary
    problems (the paper's two-condition experiments) pass through to
    the bare solver with no overhead.
    """
    from ..exec.registry import create_backend

    return create_backend(config)


def task_partition(n_voxels: int, task_voxels: int) -> list[np.ndarray]:
    """Partition all brain voxels into master-assignable tasks.

    "The tasks are defined by partitioning the correlation matrices
    along their rows" (Section 3.1.1).  Compatibility alias for
    :func:`repro.exec.partition.partition_tasks`, the one place task
    carving lives now.
    """
    from ..exec.partition import partition_tasks

    return partition_tasks(n_voxels, task_voxels)


# Task-invariant preprocessing (subject-contiguous regrouping + eq.-2
# normalized epoch windows) cached per dataset *identity*: every task of
# a voxel-selection run shares the same dataset object, so serial and
# parallel drivers pay the O(epochs x voxels x time) preprocessing once
# instead of once per task.  Weak keys let datasets be garbage collected.
_PREPROCESS_CACHE: "weakref.WeakKeyDictionary[FMRIDataset, tuple[FMRIDataset, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)


def preprocess_dataset(dataset: FMRIDataset) -> tuple[FMRIDataset, np.ndarray]:
    """Subject-grouped dataset + normalized epoch windows, memoized.

    Returns ``(grouped_dataset, z)`` where ``z`` is the equation-2
    normalized epoch stack of the grouped dataset.  Cached by dataset
    identity; treat both returns as read-only.
    """
    hit = _PREPROCESS_CACHE.get(dataset)
    if hit is None:
        ds = dataset.grouped_by_subject()
        hit = (ds, epoch_windows(ds))
        _PREPROCESS_CACHE[dataset] = hit
    return hit


def clear_preprocess_cache() -> None:
    """Drop all memoized preprocessing (e.g. after mutating BOLD data)."""
    _PREPROCESS_CACHE.clear()


def run_task(
    dataset: FMRIDataset,
    assigned: np.ndarray,
    config: FCMAConfig = FCMAConfig(),
) -> VoxelScores:
    """Run the three-stage pipeline for one task's assigned voxels.

    The dataset's epochs are re-grouped subject-contiguously first (the
    layout stage 2 requires).  With a single-subject dataset the CV folds
    are contiguous epoch k-folds (online mode); otherwise folds are
    subjects (offline LOSO).

    Compatibility shim: the implementation lives in the stage graph
    (:func:`repro.exec.stage_graph.execute_task`); this wrapper runs it
    under a throwaway :class:`~repro.exec.context.RunContext` and
    returns bitwise-identical scores.  Pass a context of your own (via
    ``execute_task`` or an executor) to keep the per-stage timings.
    """
    from ..exec.context import RunContext
    from ..exec.stage_graph import execute_task

    return execute_task(dataset, assigned, RunContext(config))
