"""The FCMA core: the paper's three-stage pipeline, as the Section-3.2
baseline and the Section-4 optimized (fused tiled engine) implementation."""

from .blocking import (
    BlockingPlan,
    PlanCache,
    default_plan_cache,
    plan_blocks,
    plan_key,
)
from .correlation import (
    correlate_baseline,
    correlate_batched,
    correlate_normalize_batched,
    epoch_windows,
    iter_blocks,
    normalize_epoch_data,
    stage1_input_copies,
)
from .kernels import (
    csr_gram_panel,
    kernel_matrix_baseline,
    kernel_matrix_batched,
    symmetrize_from_triangle,
)
from .normalization import (
    NormalizationWorkspace,
    fisher_z,
    fuse_normalize_tile,
    fused_normalize_sweep,
    normalize_separated,
    zscore_within_subject,
)
from .pipeline import (
    FCMAConfig,
    clear_preprocess_cache,
    make_backend,
    preprocess_dataset,
    run_task,
    task_partition,
)
from .results import VoxelScores
from .sparse import (
    SparseCorrelationResult,
    SparseStage12Stats,
    correlate_normalize_sparse_batched,
    threshold_dense,
    topk_block,
)
from .voxel_selection import (
    score_voxels,
    score_voxels_reference,
    score_voxels_sparse,
)

__all__ = [
    "BlockingPlan",
    "FCMAConfig",
    "NormalizationWorkspace",
    "PlanCache",
    "SparseCorrelationResult",
    "SparseStage12Stats",
    "VoxelScores",
    "clear_preprocess_cache",
    "correlate_baseline",
    "correlate_batched",
    "correlate_normalize_batched",
    "correlate_normalize_sparse_batched",
    "csr_gram_panel",
    "default_plan_cache",
    "epoch_windows",
    "fisher_z",
    "fuse_normalize_tile",
    "fused_normalize_sweep",
    "iter_blocks",
    "kernel_matrix_baseline",
    "kernel_matrix_batched",
    "make_backend",
    "normalize_epoch_data",
    "normalize_separated",
    "plan_blocks",
    "plan_key",
    "preprocess_dataset",
    "run_task",
    "score_voxels",
    "score_voxels_reference",
    "score_voxels_sparse",
    "stage1_input_copies",
    "symmetrize_from_triangle",
    "task_partition",
    "threshold_dense",
    "topk_block",
    "zscore_within_subject",
]
