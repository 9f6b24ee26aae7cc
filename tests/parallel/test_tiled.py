"""Tests for the 2-D tile-partitioned master-worker protocol."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.core.pipeline import preprocess_dataset
from repro.exec import RunContext, make_executor
from repro.exec.partition import partition_tiles
from repro.parallel.comm import Comm, CommGroup, run_ranks
from repro.parallel.master_worker import (
    TAG_ERROR,
    TAG_REQUEST,
    TAG_RESULT,
    TAG_STOP,
    TAG_TASK,
    _master_loop,
)
from repro.parallel.tiled import (
    compute_tile,
    tiled_master_loop,
    tiled_worker_loop,
)
from repro.parallel.transport import TcpListener, TcpTransport

TIMEOUT = 30.0


@pytest.fixture()
def config() -> FCMAConfig:
    return FCMAConfig(task_voxels=40, target_block=32)


@pytest.fixture()
def serial_scores(tiny_dataset, config):
    return make_executor("serial").run(tiny_dataset, RunContext(config))


def _run_tiled_threads(dataset, config, n_workers, tile_cols=32):
    """The tiled protocol over the in-process thread transport."""
    _, z = preprocess_dataset(dataset)
    tiles = partition_tiles(z.shape[1], config.task_voxels, tile_cols)
    worker_ctxs = [RunContext(config) for _ in range(n_workers)]

    def spmd(comm: Comm):
        if comm.rank == 0:
            return tiled_master_loop(comm, tiles, z.shape[1], z.shape[0])
        return tiled_worker_loop(
            comm, dataset, config, worker_ctxs[comm.rank - 1]
        )

    results = run_ranks(n_workers + 1, spmd, timeout=TIMEOUT)
    return results[0], results[1:], worker_ctxs


class TestComputeTile:
    def test_column_tiling_is_bitwise_invariant(self, tiny_dataset):
        grouped, z = preprocess_dataset(tiny_dataset)
        eps = grouped.epochs.epochs_per_subject()
        rows = np.arange(10, dtype=np.int64)
        full = compute_tile(z, rows, 0, z.shape[1], eps)
        left = compute_tile(z, rows, 0, 17, eps)
        right = compute_tile(z, rows, 17, z.shape[1], eps)
        np.testing.assert_array_equal(full[:, :, :17], left)
        np.testing.assert_array_equal(full[:, :, 17:], right)

    def test_panel_cache_matches_fresh_slice(self, tiny_dataset):
        _, z = preprocess_dataset(tiny_dataset)
        rows = np.arange(5, 25, dtype=np.int64)
        fresh = compute_tile(z, rows, 0, 30, 8)
        cached = compute_tile(z, rows, 0, 30, 8, panel=z[:, rows])
        np.testing.assert_array_equal(fresh, cached)


class TestTiledProtocol:
    def test_bitwise_equal_to_serial(
        self, tiny_dataset, config, serial_scores
    ):
        scores, _, _ = _run_tiled_threads(tiny_dataset, config, n_workers=2)
        np.testing.assert_array_equal(scores.voxels, serial_scores.voxels)
        np.testing.assert_array_equal(
            scores.accuracies, serial_scores.accuracies
        )

    def test_single_worker_completes_all_items(self, tiny_dataset, config):
        scores, completed, _ = _run_tiled_threads(
            tiny_dataset, config, n_workers=1
        )
        # 2 panels x 2 column tiles + 2 score tasks, all on one worker.
        assert completed[0] == 6
        assert len(scores) == tiny_dataset.n_voxels

    def test_overlap_counter_recorded(self, tiny_dataset, config):
        _, _, worker_ctxs = _run_tiled_threads(
            tiny_dataset, config, n_workers=2
        )
        counters = [
            ctx.metadata.get("counters", {}).get("overlap_hidden_seconds")
            for ctx in worker_ctxs
        ]
        assert all(value is not None and value >= 0.0 for value in counters)

    def test_fetch_wait_stage_recorded(self, tiny_dataset, config):
        _, _, worker_ctxs = _run_tiled_threads(
            tiny_dataset, config, n_workers=2
        )
        assert all("comm.fetch_wait" in ctx.stages for ctx in worker_ctxs)

    def test_tile_error_retried_bitwise(
        self, tiny_dataset, config, serial_scores, monkeypatch
    ):
        """A transient tile failure retries and changes no output bits."""
        import repro.parallel.tiled as tiled_mod

        real = compute_tile
        failures = {"left": 2}
        lock = threading.Lock()

        def flaky(z, rows, c0, c1, eps, workspace=None, panel=None):
            with lock:
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise RuntimeError("transient tile failure")
            return real(z, rows, c0, c1, eps, workspace=workspace, panel=panel)

        monkeypatch.setattr(tiled_mod, "compute_tile", flaky)
        scores, _, _ = _run_tiled_threads(tiny_dataset, config, n_workers=2)
        assert failures["left"] == 0
        np.testing.assert_array_equal(scores.voxels, serial_scores.voxels)
        np.testing.assert_array_equal(
            scores.accuracies, serial_scores.accuracies
        )


def _fake_scores(voxels):
    from repro.core import VoxelScores

    arr = np.asarray(voxels)
    return VoxelScores(
        voxels=arr, accuracies=arr.astype(np.float64) / 100.0
    )


class TestSortedRequeueDeterminism:
    """Regression: concurrent failures re-dispatch in task order.

    Two workers fail their tasks and the failure reports arrive in
    *reverse* task order; the master must re-queue sorted, so the next
    request gets the lowest task id — not the most recently failed one.
    """

    def test_reverse_order_failures_redispatch_sorted(self):
        tasks = [np.arange(i * 10, (i + 1) * 10) for i in range(4)]
        group = CommGroup(3, timeout=TIMEOUT)
        master_comm = group.comm(0)
        w1, w2 = group.comm(1), group.comm(2)
        result: list = []

        def run_master():
            result.append(_master_loop(master_comm, tasks, max_retries=2))

        master = threading.Thread(target=run_master)
        master.start()
        try:
            # Each worker draws one task: w1 -> task 0, w2 -> task 1.
            w1.send(None, 0, TAG_REQUEST)
            idx1, _ = w1.recv(source=0, tag=TAG_TASK)[2]
            w2.send(None, 0, TAG_REQUEST)
            idx2, _ = w2.recv(source=0, tag=TAG_TASK)[2]
            assert (idx1, idx2) == (0, 1)

            # Failures arrive in reverse task order: task 1 first.
            w2.send((idx2, "boom"), 0, TAG_ERROR)
            w1.send((idx1, "boom"), 0, TAG_ERROR)

            # Sorted re-queue: the next request gets task 0, then task 1.
            w1.send(None, 0, TAG_REQUEST)
            retry1, voxels1 = w1.recv(source=0, tag=TAG_TASK)[2]
            assert retry1 == 0
            w2.send(None, 0, TAG_REQUEST)
            retry2, voxels2 = w2.recv(source=0, tag=TAG_TASK)[2]
            assert retry2 == 1

            # Drain the rest of the protocol to completion: each worker
            # draws one of the two fresh tasks, returns it, then stops.
            w1.send((retry1, _fake_scores(voxels1)), 0, TAG_RESULT)
            w2.send((retry2, _fake_scores(voxels2)), 0, TAG_RESULT)
            drawn = {}
            for w in (w1, w2):
                w.send(None, 0, TAG_REQUEST)
                idx, voxels = w.recv(source=0, tag=TAG_TASK)[2]
                drawn[w] = (idx, voxels)
            assert sorted(idx for idx, _ in drawn.values()) == [2, 3]
            for w, (idx, voxels) in drawn.items():
                w.send((idx, _fake_scores(voxels)), 0, TAG_RESULT)
            for w in (w1, w2):
                w.send(None, 0, TAG_REQUEST)
                assert w.recv(source=0)[1] == TAG_STOP
        finally:
            master.join(TIMEOUT)
        assert not master.is_alive()
        assert len(result) == 1
        assert len(result[0]) == 40  # every voxel scored exactly once


class TestTcpWorkerLoss:
    def test_killed_worker_mid_tile_retries_on_survivor_bitwise(
        self, tiny_dataset, config, serial_scores
    ):
        """Satellite (c): a TCP worker dying mid-tile loses no bits.

        Worker 2 accepts a tile task and then drops its socket without
        the BYE handshake (a killed process).  The master re-queues the
        in-flight tile on PEER_LOST; worker 1 finishes everything and
        the result is bitwise-equal to the failure-free serial run.
        """
        grouped, z = preprocess_dataset(tiny_dataset)
        tiles = partition_tiles(z.shape[1], config.task_voxels, 32)

        listener = TcpListener("127.0.0.1", 0)
        host, port = listener.address
        transports: dict[int, TcpTransport] = {}

        def connect():
            t = TcpTransport.connect(host, port, timeout=TIMEOUT)
            transports[t.rank] = t

        conn_threads = [threading.Thread(target=connect) for _ in range(2)]
        for t in conn_threads:
            t.start()
        master_transport = listener.accept(2, timeout=TIMEOUT)
        for t in conn_threads:
            t.join(TIMEOUT)

        master_comm = Comm(master_transport, 0)
        result: list = []
        errors: list[BaseException] = []

        def run_master():
            try:
                result.append(
                    tiled_master_loop(
                        master_comm, tiles, z.shape[1], z.shape[0]
                    )
                )
            except BaseException as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        survivor_ctx = RunContext(config)
        survivor_done: list[int] = []

        def run_survivor():
            comm = Comm(transports[1], 1)
            survivor_done.append(
                tiled_worker_loop(comm, tiny_dataset, config, survivor_ctx)
            )

        master = threading.Thread(target=run_master)
        master.start()
        try:
            # The sacrificial worker draws one tile, then "is killed":
            # its socket dies with the tile still in flight.
            victim = Comm(transports[2], 2)
            victim.send(None, 0, TAG_REQUEST)
            _, tag, payload = victim.recv(source=0)
            assert tag == TAG_TASK
            assert payload[0] == "tile"
            sock = transports[2]._master_sock
            assert sock is not None
            sock.close()

            survivor = threading.Thread(target=run_survivor)
            survivor.start()
            survivor.join(TIMEOUT)
            master.join(TIMEOUT)
            assert not errors, errors
            assert not master.is_alive() and not survivor.is_alive()
        finally:
            master_transport.close()
            for t in transports.values():
                t.close()

        # The survivor completed every item, including the re-queued tile.
        assert survivor_done == [len(tiles) + 2]
        scores = result[0]
        np.testing.assert_array_equal(scores.voxels, serial_scores.voxels)
        np.testing.assert_array_equal(
            scores.accuracies, serial_scores.accuracies
        )
