"""Tests for the process-pool executor and its zero-copy dataset sharing."""

import pickle

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.exec import ProcessPoolExecutor, RunContext, SerialExecutor
from repro.exec.partition import auto_chunksize, partition_tasks
from repro.parallel.executor import attach_shared_dataset, share_dataset


def _serial(dataset, config, voxels=None):
    return SerialExecutor().run(dataset, RunContext(config), voxels)


def _pool(dataset, config, n_workers, voxels=None):
    return ProcessPoolExecutor(n_workers=n_workers).run(
        dataset, RunContext(config), voxels
    )


class TestTaskBuilding:
    def test_default_covers_brain(self, tiny_dataset, fast_fcma_config):
        tasks = partition_tasks(tiny_dataset.n_voxels, fast_fcma_config.task_voxels)
        assert sum(t.size for t in tasks) == tiny_dataset.n_voxels

    def test_explicit_voxels_chunked(self, tiny_dataset):
        cfg = FCMAConfig(task_voxels=3)
        tasks = partition_tasks(tiny_dataset.n_voxels, cfg.task_voxels, np.arange(8))
        assert [t.size for t in tasks] == [3, 3, 2]

    def test_empty_voxels_rejected(self, tiny_dataset, fast_fcma_config):
        with pytest.raises(ValueError):
            partition_tasks(
                tiny_dataset.n_voxels,
                fast_fcma_config.task_voxels,
                np.array([], dtype=np.int64),
            )


class TestSerial:
    def test_scores_sorted(self, tiny_dataset, fast_fcma_config):
        scores = _serial(tiny_dataset, fast_fcma_config)
        assert len(scores) == tiny_dataset.n_voxels
        assert (np.diff(scores.accuracies) <= 1e-12).all()

    def test_subset(self, tiny_dataset, fast_fcma_config):
        scores = _serial(
            tiny_dataset, fast_fcma_config, voxels=np.array([1, 5, 9])
        )
        assert set(scores.voxels.tolist()) == {1, 5, 9}


class TestParallel:
    def test_matches_serial(self, tiny_dataset, fast_fcma_config):
        serial = _serial(tiny_dataset, fast_fcma_config)
        par = _pool(tiny_dataset, fast_fcma_config, n_workers=2)
        np.testing.assert_array_equal(serial.voxels, par.voxels)
        np.testing.assert_allclose(serial.accuracies, par.accuracies)

    def test_one_worker_falls_back_to_serial(self, tiny_dataset, fast_fcma_config):
        par = _pool(tiny_dataset, fast_fcma_config, n_workers=1)
        serial = _serial(tiny_dataset, fast_fcma_config)
        np.testing.assert_allclose(par.accuracies, serial.accuracies)

    def test_bad_worker_count(self, tiny_dataset):
        with pytest.raises(ValueError):
            ProcessPoolExecutor(n_workers=0)

    def test_voxel_subset(self, tiny_dataset, fast_fcma_config):
        par = _pool(
            tiny_dataset, fast_fcma_config, n_workers=2, voxels=np.arange(10)
        )
        assert len(par) == 10

    def test_explicit_chunksize(self, tiny_dataset, fast_fcma_config):
        import dataclasses

        cfg = dataclasses.replace(fast_fcma_config, chunksize=2)
        par = _pool(tiny_dataset, cfg, n_workers=2)
        serial = _serial(tiny_dataset, fast_fcma_config)
        np.testing.assert_allclose(par.accuracies, serial.accuracies)


class TestSharedMemory:
    def test_round_trip_equality(self, tiny_dataset):
        shm, handle = share_dataset(tiny_dataset)
        try:
            rebuilt, shm2 = attach_shared_dataset(handle)
            try:
                assert rebuilt.n_voxels == tiny_dataset.n_voxels
                assert rebuilt.epochs == tiny_dataset.epochs
                for s in tiny_dataset.subject_ids():
                    np.testing.assert_array_equal(
                        rebuilt.subject_data(s), tiny_dataset.subject_data(s)
                    )
            finally:
                del rebuilt
                shm2.close()
        finally:
            shm.close()
            shm.unlink()

    def test_rebuilt_arrays_are_zero_copy(self, tiny_dataset):
        """The rebuilt dataset's arrays must alias the segment buffer —
        no per-worker copy of the BOLD data."""
        shm, handle = share_dataset(tiny_dataset)
        try:
            rebuilt, shm2 = attach_shared_dataset(handle)
            try:
                subject = tiny_dataset.subject_ids()[0]
                arr = rebuilt.subject_data(subject)
                assert np.shares_memory(
                    arr, np.ndarray(arr.shape, np.float32, buffer=shm2.buf,
                                    offset=handle.subjects[0][1])
                )
            finally:
                del arr, rebuilt
                shm2.close()
        finally:
            shm.close()
            shm.unlink()

    def test_handle_payload_is_tiny(self, tiny_dataset):
        """The per-pool pickle must carry metadata only, not the BOLD
        arrays: this is the zero-copy fan-out guarantee."""
        shm, handle = share_dataset(tiny_dataset)
        try:
            payload = len(pickle.dumps(handle))
            naive = len(pickle.dumps(tiny_dataset))
            assert payload < tiny_dataset.nbytes() / 10
            assert payload < naive / 10
        finally:
            shm.close()
            shm.unlink()


class TestChunksize:
    def test_auto_targets_four_chunks_per_worker(self):
        assert auto_chunksize(n_tasks=32, n_workers=4) == 2
        assert auto_chunksize(n_tasks=33, n_workers=4) == 3

    def test_auto_never_below_one(self):
        assert auto_chunksize(n_tasks=2, n_workers=8) == 1
