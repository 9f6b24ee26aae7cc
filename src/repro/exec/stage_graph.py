"""The FCMA pipeline as an explicit stage graph.

:class:`StageGraph` expresses the paper's three-stage pipeline —
correlate (Section 3.1 stage 1), normalize (stage 2), SVM-score
(stage 3) — as named nodes with declared inputs and outputs, replacing
the hard-coded sequencing that used to live inside ``run_task``.  Each
node's wall time is charged to the :class:`~repro.exec.context.RunContext`
under the node's name, so every executor emits identical per-stage
telemetry.

Three built-in graphs mirror ``FCMAConfig.variant``:

* ``baseline`` — three separate nodes (per-epoch gemm correlation,
  separated normalization, LibSVM-style scoring);
* ``optimized-batched`` (the default) — the paper's idea #2: the tiled
  engine (``run_engine`` + ``DenseEmitter``) normalizes correlations
  while they are still L2-resident, so the graph has one fused
  ``correlate+normalize`` node followed by ``score``; the sweep width
  comes from the blocking planner (optionally autotuned and
  plan-cached; see ``core.blocking``);
* ``sparse-batched`` — the same engine through ``CSREmitter``:
  thresholded CSR correlations and a sparse-Gram ``score`` node.

All graphs reproduce the legacy ``run_task`` results bitwise; the
equivalence is pinned by ``tests/exec/test_stage_graph.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np
from numpy.typing import NDArray

from ..core import blocking
from ..core.correlation import correlate_baseline, stage1_input_copies
from ..core.engine import DenseEmitter, run_engine
from ..core.normalization import normalize_separated
from ..core.results import VoxelScores
from ..core.sparse import CSREmitter, sparse_tile_plan
from ..core.voxel_selection import score_voxels, score_voxels_sparse
from ..svm.cross_validation import kfold_ids
from .context import RunContext
from .registry import create_backend, register_variant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.dataset import FMRIDataset

__all__ = [
    "Stage",
    "StageGraph",
    "StageGraphError",
    "baseline_graph",
    "optimized_batched_graph",
    "sparse_batched_graph",
    "build_graph",
    "execute_task",
]

#: A stage body: reads its declared inputs from the state mapping and
#: returns its outputs as a new mapping.
StageFn = Callable[[RunContext, Mapping[str, Any]], Mapping[str, Any]]


class StageGraphError(ValueError):
    """An ill-formed stage graph (dangling input, duplicate name, ...)."""


@dataclass(frozen=True)
class Stage:
    """One node of the pipeline: a named, typed transformation."""

    name: str
    fn: StageFn
    #: State keys the node reads; each must be seeded or produced by an
    #: earlier node.
    inputs: tuple[str, ...]
    #: State keys the node must produce.
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise StageGraphError("stage name must be non-empty")
        if not self.outputs:
            raise StageGraphError(f"stage {self.name!r} declares no outputs")


@dataclass(frozen=True)
class StageGraph:
    """A linear chain of stages with validated dataflow.

    ``validate`` checks the chain once at build time: names unique,
    every input either in ``seeds`` (the keys the caller provides) or
    produced by an earlier stage.  ``run`` then executes the chain,
    timing each node through the context.
    """

    stages: tuple[Stage, ...]
    #: State keys the caller seeds (the graph's external inputs).
    seeds: tuple[str, ...]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`StageGraphError` if the dataflow is broken."""
        if not self.stages:
            raise StageGraphError("a stage graph needs at least one stage")
        seen: set[str] = set()
        available = set(self.seeds)
        for stage in self.stages:
            if stage.name in seen:
                raise StageGraphError(f"duplicate stage name {stage.name!r}")
            seen.add(stage.name)
            missing = [k for k in stage.inputs if k not in available]
            if missing:
                raise StageGraphError(
                    f"stage {stage.name!r} reads {missing} before any "
                    f"earlier stage (or seed) produces them"
                )
            available.update(stage.outputs)

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Node names in execution order (the timing keys)."""
        return tuple(s.name for s in self.stages)

    def run(self, ctx: RunContext, **seeds: Any) -> dict[str, Any]:
        """Execute the chain; returns the final state mapping."""
        missing = [k for k in self.seeds if k not in seeds]
        if missing:
            raise StageGraphError(f"missing seed values: {missing}")
        state: dict[str, Any] = dict(seeds)
        for stage in self.stages:
            inputs = {k: state[k] for k in stage.inputs}
            with ctx.timer(stage.name):
                produced = stage.fn(ctx, inputs)
            absent = [k for k in stage.outputs if k not in produced]
            if absent:
                raise StageGraphError(
                    f"stage {stage.name!r} did not produce {absent}"
                )
            state.update(produced)
        return state


# -- the FCMA stage bodies ------------------------------------------------


def _fold_ids(ctx: RunContext, ds: "FMRIDataset") -> NDArray[Any]:
    """CV fold assignment: LOSO across subjects, k-fold within one."""
    epochs = ds.epochs
    if epochs.n_subjects >= 2:
        return np.asarray(epochs.subjects())
    return np.asarray(kfold_ids(len(epochs), ctx.config.online_folds))


def _preprocess(ctx: RunContext, state: Mapping[str, Any]) -> Mapping[str, Any]:
    from ..core.pipeline import preprocess_dataset

    ds, z = preprocess_dataset(state["dataset"])
    return {"grouped": ds, "windows": z}


def _correlate_baseline(
    ctx: RunContext, state: Mapping[str, Any]
) -> Mapping[str, Any]:
    with ctx.tracer.span("correlate_baseline", kind="kernel") as span:
        corr = correlate_baseline(state["windows"], state["assigned"])
        span.add_metric("voxels", float(state["assigned"].size))
        span.add_metric("bytes_moved", float(state["windows"].nbytes + corr.nbytes))
    return {"correlations": corr}


def _normalize_separated(
    ctx: RunContext, state: Mapping[str, Any]
) -> Mapping[str, Any]:
    corr = state["correlations"]
    with ctx.tracer.span("normalize_separated", kind="kernel") as span:
        normalize_separated(corr, state["grouped"].epochs.epochs_per_subject())
        span.add_metric("bytes_moved", float(2 * corr.nbytes))
    return {"correlations": corr}


def _resolve_blocking_plan(
    ctx: RunContext,
    z: NDArray[Any],
    assigned: NDArray[Any],
    e_per_subject: int,
) -> blocking.BlockingPlan:
    """Shared plan lookup of the batched stage bodies (dense + sparse):
    hardware-model default, plan-cache accounting, trace span, counters,
    and the run-metadata record."""
    config = ctx.config
    hw = ctx.hardware
    if hw is None:
        from ..hw import E5_2670

        hw = E5_2670
    cache_path = getattr(config, "plan_cache_path", None)
    # Looked up through the module so tests can swap the process-wide
    # default cache.
    cache = (
        blocking.PlanCache(cache_path)
        if cache_path
        else blocking.default_plan_cache()
    )
    hits0, misses0 = cache.hits, cache.misses
    with ctx.tracer.span("plan_blocks", kind="kernel") as span:
        plan = blocking.plan_blocks(
            hw,
            epochs_per_subject=e_per_subject,
            epoch_length=z.shape[2],
            n_assigned=assigned.size,
            n_voxels=z.shape[1],
            autotune=getattr(config, "autotune_blocks", False),
            cache=cache,
        )
        span.add_metric("cache_hits", float(cache.hits - hits0))
        span.add_metric("cache_misses", float(cache.misses - misses0))
    ctx.increment("plan_cache_hits", cache.hits - hits0)
    ctx.increment("plan_cache_misses", cache.misses - misses0)
    ctx.metadata["blocking_plan"] = {
        "voxel_block": plan.voxel_block,
        "target_block": plan.target_block,
        "epoch_block": plan.epoch_block,
    }
    return plan


def _note_emitter(ctx: RunContext, name: str) -> None:
    """Per-emitter RunContext accounting shared by the engine stages."""
    ctx.metadata["emitter"] = name
    ctx.increment(f"emitter_{name}_runs", 1)


def _correlate_batched_fused(
    ctx: RunContext, state: Mapping[str, Any]
) -> Mapping[str, Any]:
    z = state["windows"]
    assigned = state["assigned"]
    e_per_subject = state["grouped"].epochs.epochs_per_subject()
    plan = _resolve_blocking_plan(ctx, z, assigned, e_per_subject)
    input_copies = stage1_input_copies(z)
    emitter = DenseEmitter(voxel_sweep=plan.voxel_block)

    with ctx.tracer.span("correlate_normalize_batched", kind="kernel") as span:
        corr, n_tiles = run_engine(z, assigned, e_per_subject, emitter)
        span.add_metric("tiles", float(n_tiles))
        span.add_metric("voxels", float(assigned.size))
        span.add_metric("bytes_moved", float(z.nbytes + corr.nbytes))
    _note_emitter(ctx, "dense")
    ctx.increment("stage12_tiles", n_tiles)
    ctx.increment("emitter_dense_tiles", n_tiles)
    if input_copies:
        ctx.increment("stage12_out_copies", input_copies)
    return {"correlations": corr}


def _correlate_sparse_fused(
    ctx: RunContext, state: Mapping[str, Any]
) -> Mapping[str, Any]:
    config = ctx.config
    z = state["windows"]
    assigned = state["assigned"]
    e_per_subject = state["grouped"].epochs.epochs_per_subject()
    # The dense planner's L2 tiles are wrong for the filter-dominated
    # sparse loop — use the engine's dispatch-amortizing tile plan.
    sweep, t_block = sparse_tile_plan(assigned.size, z.shape[0], z.shape[1])
    ctx.metadata["blocking_plan"] = {
        "voxel_block": sweep,
        "target_block": t_block,
        "epoch_block": z.shape[0],
    }
    input_copies = stage1_input_copies(z)
    emitter = CSREmitter(
        threshold=config.threshold,
        top_k=config.top_k,
        voxel_sweep=sweep,
        target_block=t_block,
    )

    with ctx.tracer.span("correlate_normalize_sparse", kind="kernel") as span:
        result, stats = run_engine(z, assigned, e_per_subject, emitter)
        span.add_metric("tiles", float(stats.n_tiles))
        span.add_metric("tiles_pruned", float(stats.tiles_pruned))
        span.add_metric("voxels", float(assigned.size))
        span.add_metric("nnz", float(stats.nnz))
        span.add_metric("elements", float(stats.elements))
        span.add_metric("density", stats.density)
        span.add_metric("voxel_sweep", float(sweep))
        span.add_metric("target_block", float(t_block))
        span.add_metric(
            "bytes_moved",
            float(
                z.nbytes
                + result.data.nbytes
                + result.indices.nbytes
                + result.indptr.nbytes
            ),
        )
    _note_emitter(ctx, "csr")
    ctx.increment("stage12_tiles", stats.n_tiles)
    ctx.increment("emitter_csr_tiles", stats.n_tiles)
    ctx.increment("stage12_tiles_pruned", stats.tiles_pruned)
    ctx.increment("stage12_nnz", stats.nnz)
    ctx.increment("stage12_density", stats.density)
    if input_copies:
        ctx.increment("stage12_out_copies", input_copies)
    return {"sparse_correlations": result}


def _score_sparse(ctx: RunContext, state: Mapping[str, Any]) -> Mapping[str, Any]:
    grouped = state["grouped"]
    backend = create_backend(ctx.config)
    with ctx.tracer.span("score_voxels_sparse", kind="kernel") as span:
        scores = score_voxels_sparse(
            state["sparse_correlations"],
            state["assigned"],
            grouped.epochs.labels(),
            _fold_ids(ctx, grouped),
            backend,
            batch_voxels=ctx.config.batch_voxels,
        )
        span.add_metric("voxels", float(state["assigned"].size))
        span.add_metric("nnz", float(state["sparse_correlations"].nnz))
    return {"scores": scores}


def _score(ctx: RunContext, state: Mapping[str, Any]) -> Mapping[str, Any]:
    grouped = state["grouped"]
    backend = create_backend(ctx.config)
    with ctx.tracer.span("score_voxels", kind="kernel") as span:
        scores = score_voxels(
            state["correlations"],
            state["assigned"],
            grouped.epochs.labels(),
            _fold_ids(ctx, grouped),
            backend,
            batch_voxels=ctx.config.batch_voxels,
        )
        span.add_metric("voxels", float(state["assigned"].size))
    return {"scores": scores}


_SEEDS = ("dataset", "assigned")


def baseline_graph(config: Any = None) -> StageGraph:
    """The Section-3.2 pipeline: three separated stages."""
    return StageGraph(
        stages=(
            Stage("preprocess", _preprocess, ("dataset",), ("grouped", "windows")),
            Stage(
                "correlate",
                _correlate_baseline,
                ("windows", "assigned"),
                ("correlations",),
            ),
            Stage(
                "normalize",
                _normalize_separated,
                ("correlations", "grouped"),
                ("correlations",),
            ),
            Stage(
                "score",
                _score,
                ("correlations", "assigned", "grouped"),
                ("scores",),
            ),
        ),
        seeds=_SEEDS,
    )


def optimized_batched_graph(config: Any = None) -> StageGraph:
    """The Section-4 pipeline on the fused tiled engine (the default)."""
    return StageGraph(
        stages=(
            Stage("preprocess", _preprocess, ("dataset",), ("grouped", "windows")),
            Stage(
                "correlate+normalize",
                _correlate_batched_fused,
                ("windows", "assigned", "grouped"),
                ("correlations",),
            ),
            Stage(
                "score",
                _score,
                ("correlations", "assigned", "grouped"),
                ("scores",),
            ),
        ),
        seeds=_SEEDS,
    )


def sparse_batched_graph(config: Any = None) -> StageGraph:
    """Threshold-during-fuse pipeline: CSR stage 1/2, sparse-Gram stage 3.

    Same plan lookup and fused tile engine as ``optimized-batched``, but
    each normalized tile is filtered (``config.threshold`` /
    ``config.top_k``) into a CSR block while cache-resident; stage 3
    Grams the CSR row bands in nnz-balanced panels through the same
    batched SMO.
    """
    return StageGraph(
        stages=(
            Stage("preprocess", _preprocess, ("dataset",), ("grouped", "windows")),
            Stage(
                "correlate+normalize",
                _correlate_sparse_fused,
                ("windows", "assigned", "grouped"),
                ("sparse_correlations",),
            ),
            Stage(
                "score",
                _score_sparse,
                ("sparse_correlations", "assigned", "grouped"),
                ("scores",),
            ),
        ),
        seeds=_SEEDS,
    )


register_variant("baseline", baseline_graph, overwrite=True)
register_variant("optimized-batched", optimized_batched_graph, overwrite=True)
register_variant("sparse-batched", sparse_batched_graph, overwrite=True)


def build_graph(config: Any) -> StageGraph:
    """The stage graph for a config's registered pipeline variant."""
    from .registry import graph_builder

    builder = graph_builder(config.variant)
    return builder(config)


def execute_task(
    dataset: "FMRIDataset",
    assigned: NDArray[Any],
    ctx: RunContext,
) -> VoxelScores:
    """Run one task's assigned voxels through the configured graph.

    This is the single implementation behind the legacy ``run_task``
    shim and every executor; the task runs inside a ``task`` span (so
    per-stage wall time lands in ``ctx`` and the task's total appears
    in ``ctx.task_seconds``, both derived from the trace).
    """
    assigned = np.asarray(assigned, dtype=np.int64)
    if assigned.ndim != 1 or assigned.size == 0:
        raise ValueError("assigned must be a non-empty 1D index array")
    graph = build_graph(ctx.config)
    with ctx.task_span(assigned.size, int(assigned[0])) as span:
        state = graph.run(ctx, dataset=dataset, assigned=assigned)
        span.add_metric("voxels", float(assigned.size))
    scores = state["scores"]
    assert isinstance(scores, VoxelScores)
    return scores
