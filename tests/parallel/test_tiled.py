"""Tests for the 2-D tile work plan and the scheduler both plans share."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.core.pipeline import preprocess_dataset
from repro.exec import (
    MasterWorkerExecutor,
    RunContext,
    SerialExecutor,
    make_executor,
)
from repro.exec.partition import partition_tiles
from repro.parallel.comm import Comm, CommGroup, run_ranks
from repro.exec.partition import partition_tasks
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
from repro.parallel.tiled import TileWork, compute_tile, tiled_worker_loop
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
            return _master_loop(comm, TileWork(tiles, z.shape[1], z.shape[0]))
        return tiled_worker_loop(comm, dataset, worker_ctxs[comm.rank - 1])

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
            result.append(
                _master_loop(master_comm, RowWork(tasks), max_retries=2)
            )

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


def _plan_and_worker(dataset, config, partition):
    """The work plan, worker loop and total item count of one partition."""
    grouped, z = preprocess_dataset(dataset)
    if partition == "rows":
        tasks = partition_tasks(z.shape[1], config.task_voxels)
        return RowWork(tasks), _worker_loop, len(tasks)
    tiles = partition_tiles(z.shape[1], config.task_voxels, 32)
    n_panels = len({t.panel for t in tiles})
    plan = TileWork(tiles, z.shape[1], z.shape[0])
    return plan, tiled_worker_loop, len(tiles) + n_panels


class TestTcpWorkerLoss:
    @pytest.mark.parametrize("partition", ["rows", "tiles"])
    def test_killed_worker_mid_tile_retries_on_survivor_bitwise(
        self, tiny_dataset, config, serial_scores, partition
    ):
        """A TCP worker dying mid-item loses no bits.

        Worker 2 accepts a work item (a row task or a tile) and then
        drops its socket without the BYE handshake (a killed process).
        The master re-queues the in-flight item on PEER_LOST with its
        attempt refunded; worker 1 finishes everything and the result
        is bitwise-equal to the failure-free serial run.
        """
        plan, worker_loop, n_items = _plan_and_worker(
            tiny_dataset, config, partition
        )

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
                result.append(_master_loop(master_comm, plan))
            except BaseException as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        survivor_ctx = RunContext(config)
        survivor_done: list[int] = []

        def run_survivor():
            comm = Comm(transports[1], 1)
            survivor_done.append(worker_loop(comm, tiny_dataset, survivor_ctx))

        master = threading.Thread(target=run_master)
        master.start()
        try:
            # The sacrificial worker draws one item, then "is killed":
            # its socket dies with the item still in flight.
            victim = Comm(transports[2], 2)
            victim.send(None, 0, TAG_REQUEST)
            _, tag, payload = victim.recv(source=0)
            assert tag == TAG_TASK
            if partition == "tiles":
                assert payload[0] == "tile"
            else:
                assert payload[0] == 0
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

        # The survivor completed every item, including the re-queued one.
        assert survivor_done == [n_items]
        scores = result[0]
        np.testing.assert_array_equal(scores.voxels, serial_scores.voxels)
        np.testing.assert_array_equal(
            scores.accuracies, serial_scores.accuracies
        )


class TestTilesNeedDense:
    """Tiles carry dense stage-1/2 arithmetic: other variants fail loudly."""

    def test_sparse_variant_rejected_before_any_rank_starts(
        self, tiny_dataset, monkeypatch
    ):
        import repro.exec.executors as executors_mod

        def no_ranks(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("ranks started")

        monkeypatch.setattr(executors_mod, "run_ranks", no_ranks)
        config = FCMAConfig(
            variant="sparse-batched", top_k=8, task_voxels=40, target_block=32
        )
        executor = MasterWorkerExecutor(n_workers=2, partition="tiles")
        with pytest.raises(ValueError, match="partition 'rows'"):
            executor.run(tiny_dataset, RunContext(config))

    def test_baseline_variant_rejected(self, tiny_dataset):
        executor = MasterWorkerExecutor(n_workers=2, partition="tiles")
        with pytest.raises(ValueError, match="dense"):
            executor.run(
                tiny_dataset, RunContext(FCMAConfig(variant="baseline"))
            )

    def test_sparse_variant_rows_still_match_serial(self, tiny_dataset):
        config = FCMAConfig(
            variant="sparse-batched", top_k=8, task_voxels=40, target_block=32
        )
        serial = SerialExecutor().run(tiny_dataset, RunContext(config))
        rows = MasterWorkerExecutor(n_workers=2, partition="rows").run(
            tiny_dataset, RunContext(config)
        )
        np.testing.assert_array_equal(serial.voxels, rows.voxels)
        np.testing.assert_array_equal(serial.accuracies, rows.accuracies)

    def test_cli_prints_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "tiny.npz"
        assert main([
            "generate", str(path), "--preset", "quickstart",
            "--voxels", "48", "--subjects", "3", "--seed", "7",
        ]) == 0
        capsys.readouterr()
        rc = main([
            "run", str(path), "--executor", "master-worker",
            "--partition", "tiles", "--variant", "sparse-batched",
            "--top-k", "8", "--task-voxels", "40",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
