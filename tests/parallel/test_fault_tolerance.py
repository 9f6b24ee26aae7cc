"""Failure-injection tests for the master-worker protocol."""

import numpy as np
import pytest

from repro.core import VoxelScores
from repro.exec import RunContext
from repro.exec.partition import partition_tasks
from repro.parallel.comm import run_ranks
from repro.parallel.master_worker import (
    RowWork,
    TaskFailedError,
    _master_loop,
    _worker_loop,
)


def good_run(dataset, assigned, ctx):
    return VoxelScores(
        voxels=np.asarray(assigned),
        accuracies=np.asarray(assigned, dtype=np.float64) / 100.0,
    )


class FlakyRun:
    """Fails the first ``n_failures`` invocations for a chosen task."""

    def __init__(self, fail_voxel: int, n_failures: int):
        self.fail_voxel = fail_voxel
        self.remaining = n_failures
        self.calls = 0

    def __call__(self, dataset, assigned, ctx):
        self.calls += 1
        if self.fail_voxel in assigned and self.remaining > 0:
            self.remaining -= 1
            raise RuntimeError("transient device failure")
        return good_run(dataset, assigned, ctx)


def _worker(comm, run):
    return _worker_loop(comm, None, RunContext(), run=run)


class TestRetries:
    def test_transient_failure_retried_and_completed(self):
        tasks = partition_tasks(12, 4)
        flaky = FlakyRun(fail_voxel=5, n_failures=1)

        def spmd(comm):
            if comm.rank == 0:
                return _master_loop(comm, RowWork(tasks), max_retries=2)
            return _worker(comm, flaky)

        results = run_ranks(3, spmd)
        scores = results[0]
        assert len(scores) == 12  # nothing lost
        assert flaky.remaining == 0

    def test_persistent_failure_raises_after_retries(self):
        tasks = partition_tasks(8, 4)
        flaky = FlakyRun(fail_voxel=1, n_failures=99)

        def spmd(comm):
            if comm.rank == 0:
                return _master_loop(comm, RowWork(tasks), max_retries=2)
            return _worker(comm, flaky)

        with pytest.raises(RuntimeError, match="failed after 2 attempts"):
            run_ranks(2, spmd)

    def test_failure_does_not_kill_worker(self):
        """The worker reports the error and keeps serving other tasks."""
        tasks = partition_tasks(12, 4)
        flaky = FlakyRun(fail_voxel=0, n_failures=99)
        completed = {}

        def spmd(comm):
            if comm.rank == 0:
                try:
                    _master_loop(comm, RowWork(tasks), max_retries=1)
                except TaskFailedError:
                    return "failed"
                return "ok"
            completed[comm.rank] = _worker(comm, flaky)
            return None

        results = run_ranks(2, spmd)
        assert results[0] == "failed"
        # the single worker still completed the 2 healthy tasks
        assert completed[1] == 2

    def test_max_retries_validation(self):
        from repro.parallel.comm import CommGroup

        group = CommGroup(2)
        with pytest.raises(ValueError, match="max_retries"):
            _master_loop(group.comm(0), RowWork([]), max_retries=0)

    def test_other_workers_finish_tasks_during_retry(self):
        """Healthy workers keep pulling while a retry is pending."""
        tasks = partition_tasks(20, 4)
        flaky = FlakyRun(fail_voxel=0, n_failures=2)

        def spmd(comm):
            if comm.rank == 0:
                return _master_loop(comm, RowWork(tasks), max_retries=3)
            return _worker(comm, flaky)

        results = run_ranks(4, spmd)
        scores = results[0]
        assert len(scores) == 20
        assert sum(results[1:]) == 5  # 5 tasks completed across workers
