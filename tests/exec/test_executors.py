"""Executors: one task stream, three backends, identical results.

The cross-executor equivalence test is the contract the whole exec
subsystem hangs on: serial, process-pool, and master-worker runs of the
same dataset + config must produce *bitwise-identical* VoxelScores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.exec.context import RunContext
from repro.obs import TIMING_METRICS, assert_same_structure, span_structure
from repro.exec.executors import (
    EXECUTOR_NAMES,
    Executor,
    MasterWorkerExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
    predicted_schedule,
)


def _make(name: str) -> Executor:
    return make_executor(name, n_workers=2)


class TestCrossExecutorEquivalence:
    @pytest.mark.parametrize("name", ["pool", "master-worker"])
    @pytest.mark.parametrize("variant", ["baseline", "optimized-batched"])
    def test_bitwise_identical_to_serial(
        self, tiny_dataset, name, variant
    ):
        config = FCMAConfig(
            variant=variant, task_voxels=16, target_block=32
        )
        reference = SerialExecutor().run(
            tiny_dataset, RunContext(config, seed=0)
        )
        scores = _make(name).run(tiny_dataset, RunContext(config, seed=0))
        np.testing.assert_array_equal(reference.voxels, scores.voxels)
        np.testing.assert_array_equal(reference.accuracies, scores.accuracies)

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_voxel_subset_equivalence(self, tiny_dataset, fast_fcma_config, name):
        voxels = np.array([3, 1, 40, 17, 5, 22, 8], dtype=np.int64)
        config = FCMAConfig(task_voxels=3, target_block=32)
        reference = SerialExecutor().run(
            tiny_dataset, RunContext(config), voxels=voxels
        )
        scores = _make(name).run(tiny_dataset, RunContext(config), voxels=voxels)
        np.testing.assert_array_equal(reference.voxels, scores.voxels)
        np.testing.assert_array_equal(reference.accuracies, scores.accuracies)
        assert set(scores.voxels) == set(voxels.tolist())


class TestTraceEquivalence:
    """Executors must record the *same dataflow*, not just the same
    scores: identical span trees modulo timing, thread ids, and
    per-process environment state."""

    # Plan-cache state is per process: the serial run warms one cache
    # for every task while each pool worker starts cold, so hit/miss
    # counts (and the per-call cache_hits/cache_misses deltas on the
    # plan_blocks kernel) legitimately differ between executors.
    IGNORED_METRICS = frozenset(TIMING_METRICS) | {
        "cache_hits",
        "cache_misses",
        "ctr.plan_cache_hits",
        "ctr.plan_cache_misses",
    }

    @staticmethod
    def _run(name: str, dataset, config):
        ctx = RunContext(config, seed=0)
        executor = (
            SerialExecutor() if name == "serial" else _make(name)
        )
        executor.run(dataset, ctx)
        return ctx

    @staticmethod
    def _task_forest(ctx):
        """The per-task spans only: drops the run root (executor-specific
        attrs) and the master-worker's predicted-schedule replay, which
        serial runs legitimately lack."""
        return [
            s for s in ctx.tracer.spans()
            if s.kind != "run" and s.name != "cluster.simulate"
        ]

    @pytest.mark.parametrize("name", ["pool", "master-worker"])
    @pytest.mark.parametrize("variant", ["optimized-batched"])
    def test_task_spans_match_serial(self, tiny_dataset, name, variant):
        config = FCMAConfig(
            variant=variant, task_voxels=16, target_block=32
        )
        reference = self._run("serial", tiny_dataset, config)
        ctx = self._run(name, tiny_dataset, config)
        assert_same_structure(
            self._task_forest(reference),
            self._task_forest(ctx),
            ignore_metrics=self.IGNORED_METRICS,
        )

    def test_pool_full_trace_matches_serial(self, tiny_dataset):
        """The pool's whole tree — run span included — matches serial:
        worker task spans re-root under the master's run span."""
        config = FCMAConfig(
            variant="optimized-batched",
            task_voxels=16, target_block=32,
        )
        reference = self._run("serial", tiny_dataset, config)
        ctx = self._run("pool", tiny_dataset, config)
        assert span_structure(
            reference.tracer.spans(), ignore_metrics=self.IGNORED_METRICS
        ) == span_structure(
            ctx.tracer.spans(), ignore_metrics=self.IGNORED_METRICS
        )

    def test_different_dataflow_is_detected(self, tiny_dataset):
        """The comparison is not vacuous: two variants differ."""
        ref = self._run(
            "serial", tiny_dataset,
            FCMAConfig(variant="baseline", task_voxels=16,
                       target_block=32),
        )
        other = self._run(
            "serial", tiny_dataset,
            FCMAConfig(variant="optimized-batched", task_voxels=16,
                       target_block=32),
        )
        with pytest.raises(AssertionError):
            assert_same_structure(
                self._task_forest(ref),
                self._task_forest(other),
                ignore_metrics=self.IGNORED_METRICS,
            )


class TestTelemetry:
    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_every_executor_fills_the_context(
        self, tiny_dataset, fast_fcma_config, name
    ):
        ctx = RunContext(fast_fcma_config)
        _make(name).run(tiny_dataset, ctx)
        # Same stage vocabulary no matter which backend ran the work.
        assert set(ctx.stages) == {"preprocess", "correlate+normalize", "score"}
        assert all(s.seconds >= 0 for s in ctx.stages.values())
        expected_tasks = -(-tiny_dataset.n_voxels // fast_fcma_config.task_voxels)
        assert len(ctx.task_seconds) == expected_tasks
        assert ctx.metadata["n_tasks"] == expected_tasks
        assert ctx.metadata["measured_elapsed_s"] > 0

    def test_serial_metadata_names_itself(self, tiny_dataset, fast_fcma_config):
        ctx = RunContext(fast_fcma_config)
        SerialExecutor().run(tiny_dataset, ctx)
        assert ctx.metadata["executor"] == "serial"

    def test_master_worker_reports_predicted_schedule(
        self, tiny_dataset, fast_fcma_config
    ):
        ctx = RunContext(fast_fcma_config)
        MasterWorkerExecutor(n_workers=2).run(tiny_dataset, ctx)
        predicted = ctx.metadata["predicted"]
        assert predicted["elapsed_s"] > 0
        assert 0 < predicted["utilization"] <= 1
        assert predicted["n_workers"] == 2

    def test_pool_single_worker_falls_back_to_serial(
        self, tiny_dataset, fast_fcma_config
    ):
        ctx = RunContext(fast_fcma_config)
        scores = ProcessPoolExecutor(n_workers=1).run(tiny_dataset, ctx)
        assert ctx.metadata["executor"] == "pool"
        assert ctx.metadata["n_workers"] == 1
        reference = SerialExecutor().run(tiny_dataset, RunContext(fast_fcma_config))
        np.testing.assert_array_equal(reference.voxels, scores.voxels)


class TestPredictedSchedule:
    def test_replays_measured_task_stream(self, tiny_dataset, fast_fcma_config):
        ctx = RunContext(fast_fcma_config)
        ctx.record_task(1.0)
        ctx.record_task(1.0)
        result = predicted_schedule(ctx, tiny_dataset, n_workers=2)
        # Two 1-second tasks on two workers: ~1 s plus transfer overheads.
        assert 1.0 <= result.elapsed_seconds < 2.0

    def test_rejects_empty_stream(self, tiny_dataset, fast_fcma_config):
        with pytest.raises(ValueError, match="no recorded tasks"):
            predicted_schedule(
                RunContext(fast_fcma_config), tiny_dataset, n_workers=2
            )


class TestProtocolAndFactory:
    def test_builtin_executors_satisfy_protocol(self):
        for name in EXECUTOR_NAMES:
            assert isinstance(_make(name), Executor)

    def test_factory_rejects_unknown_name(self):
        with pytest.raises(KeyError, match="serial"):
            make_executor("nope")

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolExecutor(n_workers=0)
        with pytest.raises(ValueError):
            MasterWorkerExecutor(n_workers=0)
        with pytest.raises(ValueError):
            MasterWorkerExecutor(max_retries=0)
