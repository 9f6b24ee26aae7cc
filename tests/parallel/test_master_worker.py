"""Tests for the master-worker protocol (row work plan)."""

import numpy as np
import pytest

from repro.core import VoxelScores
from repro.exec import MasterWorkerExecutor, RunContext, SerialExecutor
from repro.exec.partition import partition_tasks
from repro.parallel.comm import CommGroup, run_ranks
from repro.parallel.master_worker import (
    TAG_ERROR,
    TAG_REQUEST,
    TAG_RESULT,
    TAG_STOP,
    TAG_TASK,
    RowWork,
    _master_loop,
    _worker_loop,
)


def fake_run(dataset, assigned, ctx):
    """Deterministic stand-in for execute_task: accuracy = voxel / 100."""
    return VoxelScores(
        voxels=np.asarray(assigned),
        accuracies=np.asarray(assigned, dtype=np.float64) / 100.0,
    )


def _serve(tasks, n_ranks, run=fake_run, dataset=None, config=None):
    """Rows over thread ranks; returns [master scores, worker counts...]."""

    def spmd(comm):
        if comm.rank == 0:
            return _master_loop(comm, RowWork(tasks))
        return _worker_loop(comm, dataset, RunContext(config), run=run)

    return run_ranks(n_ranks, spmd)


class TestProtocol:
    def test_master_worker_round_trip(self):
        tasks = partition_tasks(17, 5)
        results = _serve(tasks, 3)
        scores = results[0]
        assert len(scores) == 17
        # sorted by accuracy descending = voxel id descending here
        assert scores.voxels[0] == 16
        # workers completed all tasks between them
        assert results[1] + results[2] == len(tasks)

    def test_single_worker_gets_everything(self):
        results = _serve(partition_tasks(9, 4), 2)
        assert results[1] == 3

    def test_many_workers_few_tasks(self):
        results = _serve(partition_tasks(4, 4), 5)  # single task
        assert sum(results[1:]) == 1

    def test_master_on_wrong_rank(self):
        group = CommGroup(2)
        with pytest.raises(ValueError, match="rank 0"):
            _master_loop(group.comm(1), RowWork([]))

    def test_worker_on_rank0(self):
        group = CommGroup(2)
        with pytest.raises(ValueError, match="rank 0"):
            _worker_loop(group.comm(0), None, RunContext())

    def test_master_requires_workers(self):
        group = CommGroup(1)
        with pytest.raises(ValueError, match="worker"):
            _master_loop(group.comm(0), RowWork([]))

    def test_tags_distinct(self):
        assert len({TAG_REQUEST, TAG_TASK, TAG_RESULT, TAG_STOP, TAG_ERROR}) == 5


class TestEndToEnd:
    def test_matches_serial(self, tiny_dataset, fast_fcma_config):
        serial = SerialExecutor().run(tiny_dataset, RunContext(fast_fcma_config))
        via_mpi = MasterWorkerExecutor(n_workers=3).run(
            tiny_dataset, RunContext(fast_fcma_config)
        )
        np.testing.assert_array_equal(serial.voxels, via_mpi.voxels)
        np.testing.assert_allclose(serial.accuracies, via_mpi.accuracies)

    def test_explicit_voxel_subset(self, tiny_dataset, fast_fcma_config):
        voxels = np.array([2, 4, 8, 16])
        scores = MasterWorkerExecutor(n_workers=2).run(
            tiny_dataset, RunContext(fast_fcma_config), voxels
        )
        assert set(scores.voxels.tolist()) == {2, 4, 8, 16}

    def test_bad_worker_count(self, tiny_dataset):
        with pytest.raises(ValueError):
            MasterWorkerExecutor(n_workers=0)

    def test_protocol_with_default_run_matches_serial(
        self, tiny_dataset, fast_fcma_config
    ):
        """The bare loops, real pipeline: bitwise the serial executor."""
        tasks = partition_tasks(
            tiny_dataset.n_voxels, fast_fcma_config.task_voxels
        )
        results = _serve(
            tasks, 3, run=None, dataset=tiny_dataset, config=fast_fcma_config
        )
        reference = SerialExecutor().run(
            tiny_dataset, RunContext(fast_fcma_config)
        )
        np.testing.assert_array_equal(reference.voxels, results[0].voxels)
        np.testing.assert_array_equal(
            reference.accuracies, results[0].accuracies
        )

    def test_default_run_single_worker_completes_every_task(
        self, tiny_dataset, fast_fcma_config
    ):
        tasks = partition_tasks(
            tiny_dataset.n_voxels, fast_fcma_config.task_voxels
        )
        results = _serve(
            tasks, 2, run=None, dataset=tiny_dataset, config=fast_fcma_config
        )
        assert results[1] == len(tasks)
