"""Stage graph: validation, telemetry, and executor equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.exec.context import RunContext
from repro.exec.executors import SerialExecutor
from repro.exec.stage_graph import (
    Stage,
    StageGraph,
    StageGraphError,
    baseline_graph,
    build_graph,
    execute_task,
    optimized_batched_graph,
)
from tests.oracles import MergedNormalizer, correlate_blocked


def _passthrough(ctx, state):
    return {"out": state.get("x", 0)}


class TestGraphValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(StageGraphError, match="at least one"):
            StageGraph(stages=(), seeds=("x",))

    def test_duplicate_stage_names_rejected(self):
        s = Stage("dup", _passthrough, ("x",), ("out",))
        with pytest.raises(StageGraphError, match="duplicate"):
            StageGraph(stages=(s, s), seeds=("x", "out"))

    def test_dangling_input_rejected(self):
        s = Stage("needs-y", _passthrough, ("y",), ("out",))
        with pytest.raises(StageGraphError, match="'needs-y'"):
            StageGraph(stages=(s,), seeds=("x",))

    def test_empty_stage_name_rejected(self):
        with pytest.raises(StageGraphError, match="non-empty"):
            Stage("", _passthrough, (), ("out",))

    def test_stage_without_outputs_rejected(self):
        with pytest.raises(StageGraphError, match="outputs"):
            Stage("s", _passthrough, (), ())

    def test_later_stage_may_read_earlier_outputs(self):
        graph = StageGraph(
            stages=(
                Stage("a", lambda c, s: {"mid": s["x"] + 1}, ("x",), ("mid",)),
                Stage("b", lambda c, s: {"out": s["mid"] * 2}, ("mid",), ("out",)),
            ),
            seeds=("x",),
        )
        state = graph.run(RunContext(), x=3)
        assert state["out"] == 8

    def test_run_rejects_missing_seed(self):
        graph = StageGraph(
            stages=(Stage("a", _passthrough, ("x",), ("out",)),), seeds=("x",)
        )
        with pytest.raises(StageGraphError, match="missing seed"):
            graph.run(RunContext())

    def test_run_rejects_stage_that_breaks_its_contract(self):
        graph = StageGraph(
            stages=(Stage("liar", lambda c, s: {}, (), ("out",)),), seeds=()
        )
        with pytest.raises(StageGraphError, match="did not produce"):
            graph.run(RunContext())

    def test_run_times_each_stage(self):
        graph = StageGraph(
            stages=(Stage("a", _passthrough, ("x",), ("out",)),), seeds=("x",)
        )
        ctx = RunContext()
        graph.run(ctx, x=1)
        assert ctx.stages["a"].calls == 1


class TestBuiltinGraphs:
    def test_stage_names_mirror_the_paper(self):
        assert baseline_graph().stage_names == (
            "preprocess",
            "correlate",
            "normalize",
            "score",
        )
        assert optimized_batched_graph().stage_names == (
            "preprocess",
            "correlate+normalize",
            "score",
        )

    def test_build_graph_resolves_config_variant(self):
        assert (
            build_graph(FCMAConfig(variant="baseline")).stage_names
            == baseline_graph().stage_names
        )
        assert (
            build_graph(FCMAConfig()).stage_names
            == optimized_batched_graph().stage_names
        )


class TestExecuteTask:
    @pytest.mark.parametrize("variant", ["baseline", "optimized-batched"])
    def test_bitwise_identical_to_run_task(self, tiny_dataset, variant):
        config = FCMAConfig(variant=variant, task_voxels=40, target_block=32)
        assigned = np.arange(20, dtype=np.int64)
        # One task's worth of voxels: the executor runs exactly this graph.
        via_executor = SerialExecutor().run(
            tiny_dataset, RunContext(config), assigned
        )
        graph = execute_task(
            tiny_dataset, assigned, RunContext(config)
        ).sorted_by_accuracy()
        np.testing.assert_array_equal(via_executor.voxels, graph.voxels)
        np.testing.assert_array_equal(via_executor.accuracies, graph.accuracies)

    def test_records_stage_and_task_telemetry(self, tiny_dataset, fast_fcma_config):
        ctx = RunContext(fast_fcma_config)
        execute_task(tiny_dataset, np.arange(10), ctx)
        assert set(ctx.stages) == {"preprocess", "correlate+normalize", "score"}
        assert len(ctx.task_seconds) == 1
        assert ctx.task_seconds[0] > 0

    def test_rejects_empty_assignment(self, tiny_dataset, fast_fcma_config):
        with pytest.raises(ValueError, match="non-empty"):
            execute_task(
                tiny_dataset,
                np.array([], dtype=np.int64),
                RunContext(fast_fcma_config),
            )

    def test_rejects_2d_assignment(self, tiny_dataset, fast_fcma_config):
        with pytest.raises(ValueError, match="1D"):
            execute_task(
                tiny_dataset,
                np.zeros((2, 2), dtype=np.int64),
                RunContext(fast_fcma_config),
            )


class TestOptimizedBatchedGraph:
    def test_stage_names(self):
        assert optimized_batched_graph().stage_names == (
            "preprocess",
            "correlate+normalize",
            "score",
        )
        assert (
            build_graph(FCMAConfig(variant="optimized-batched")).stage_names
            == optimized_batched_graph().stage_names
        )

    def test_matches_optimized_variant(self, tiny_dataset):
        """The default pipeline scores voxels exactly as the paper's
        Section-4 optimized loop: L2-sized blocked tiles normalized by a
        per-tile merged callback (one subject's epochs per tile), then
        the batched stage 3 — on offline LOSO and online k-fold CV."""
        from repro.core.pipeline import preprocess_dataset
        from repro.core.voxel_selection import score_voxels
        from repro.exec.registry import create_backend
        from repro.svm.cross_validation import kfold_ids

        config = FCMAConfig()
        assigned = np.arange(20, dtype=np.int64)
        for dataset in (tiny_dataset, tiny_dataset.single_subject(0)):
            grouped, z = preprocess_dataset(dataset)
            epochs = grouped.epochs
            e_per_subject = epochs.epochs_per_subject()
            corr = correlate_blocked(
                z, assigned, voxel_block=8, target_block=32,
                epoch_block=e_per_subject,
                tile_callback=MergedNormalizer(e_per_subject),
            )
            if epochs.n_subjects >= 2:
                folds = np.asarray(epochs.subjects())
            else:
                folds = np.asarray(kfold_ids(len(epochs), config.online_folds))
            oracle = score_voxels(
                corr, assigned, epochs.labels(), folds,
                create_backend(config), batch_voxels=config.batch_voxels,
            )
            default = execute_task(dataset, assigned, RunContext(config))
            np.testing.assert_array_equal(oracle.voxels, default.voxels)
            np.testing.assert_array_equal(
                oracle.accuracies, default.accuracies
            )

    def test_records_plan_and_counters(self, tiny_dataset):
        ctx = RunContext(FCMAConfig(variant="optimized-batched"))
        execute_task(tiny_dataset, np.arange(12, dtype=np.int64), ctx)
        plan = ctx.metadata["blocking_plan"]
        assert set(plan) == {"voxel_block", "target_block", "epoch_block"}
        assert ctx.counter("stage12_tiles") >= 1
        assert set(ctx.stages) == {"preprocess", "correlate+normalize", "score"}

    def test_autotune_populates_plan_cache_counters(self, tiny_dataset):
        from repro.core.blocking import PlanCache
        import repro.core.blocking as blocking

        fresh = PlanCache()
        original = blocking.default_plan_cache
        blocking.default_plan_cache = lambda: fresh
        try:
            config = FCMAConfig(
                variant="optimized-batched", autotune_blocks=True
            )
            ctx1 = RunContext(config)
            execute_task(tiny_dataset, np.arange(8, dtype=np.int64), ctx1)
            assert ctx1.counter("plan_cache_misses") == 1
            assert ctx1.counter("plan_cache_hits") == 0
            ctx2 = RunContext(config)
            execute_task(tiny_dataset, np.arange(8, dtype=np.int64), ctx2)
            assert ctx2.counter("plan_cache_hits") == 1
            assert ctx2.counter("plan_cache_misses") == 0
            assert (
                ctx2.metadata["blocking_plan"] == ctx1.metadata["blocking_plan"]
            )
        finally:
            blocking.default_plan_cache = original

    def test_persistent_plan_cache_path(self, tiny_dataset, tmp_path):
        path = tmp_path / "plans.json"
        config = FCMAConfig(
            variant="optimized-batched",
            autotune_blocks=True,
            plan_cache_path=str(path),
        )
        ctx = RunContext(config)
        execute_task(tiny_dataset, np.arange(8, dtype=np.int64), ctx)
        assert path.exists()
        ctx2 = RunContext(config)
        execute_task(tiny_dataset, np.arange(8, dtype=np.int64), ctx2)
        assert ctx2.counter("plan_cache_hits") == 1
