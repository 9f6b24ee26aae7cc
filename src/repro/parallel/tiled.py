"""2-D tile-partitioned master-worker voxel selection.

The row-partitioned protocol (:mod:`repro.parallel.master_worker`)
ships whole correlation row panels as single tasks — the paper's 1-D
decomposition.  This module distributes the *tiles* of the
``(assigned × all-voxels)`` stage-1/2 matrix instead, the scheme that
scaled all-pairs Pearson to thousands of cores in *Parallel Pairwise
Correlation Computation on Intel Xeon Phi Clusters*:

* **Tile tasks.**  :func:`repro.exec.partition.partition_tiles` carves
  row panels × column blocks; a worker computes one tile's fused
  stage 1/2 (per-tile gemm + in-cache
  :func:`~repro.core.normalization.fuse_normalize_tile`, the bitwise
  tiling-invariant kernel of the engine's tiled mode) and returns the
  normalized block.
* **Owner-computes merge.**  The master owns panel assembly
  (:class:`~repro.core.results.PanelAssembler`): tiles land in any
  order from any worker; a completed panel immediately becomes a
  stage-3 *score task* dispatched back to a worker.
* **Communication/compute overlap.**  A worker sends its next work
  request *before* computing the current item, so the master's reply
  travels (and the next tile is chosen) while the gemm runs.  The
  exposed remainder is timed under the ``comm.fetch_wait`` stage; the
  hidden part accumulates in the ``overlap_hidden_seconds`` counter.
* **Fault tolerance at tile granularity.**  TAG_ERROR re-queues a
  single tile/score item (sorted, deterministic); TAG_PEER_LOST
  re-queues everything the dead worker had in flight.  Because the
  per-tile kernels are bitwise deterministic, results are identical
  whichever worker re-runs a tile — worker loss is invisible in the
  output bits.

Work-item payloads (over TAG_TASK/TAG_RESULT of the same tag set as
the row protocol):

========  =======================================  ==============================
kind      TAG_TASK payload                         TAG_RESULT payload
========  =======================================  ==============================
"tile"    ("tile", index, panel, rows, c0, c1)     ("tile", index, panel, c0, c1, block)
"score"   ("score", panel, rows, corr)             ("score", panel, VoxelScores)
========  =======================================  ==============================
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..core.normalization import NormalizationWorkspace, fuse_normalize_tile
from ..core.pipeline import FCMAConfig, preprocess_dataset
from ..core.results import PanelAssembler, VoxelScores
from ..data.dataset import FMRIDataset
from ..obs.live.runtime import current_live
from .comm import Comm, TAG_PEER_LOST, TAG_TELEMETRY
from .master_worker import (
    TAG_DONE,
    TAG_ERROR,
    TAG_REQUEST,
    TAG_RESULT,
    TAG_STOP,
    TAG_TASK,
    TELEMETRY_INTERVAL,
    TaskFailedError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.context import RunContext
    from ..exec.partition import TileTask

__all__ = [
    "collect_worker_reports",
    "compute_tile",
    "score_panel",
    "tiled_master_loop",
    "tiled_worker_loop",
]

#: Work-item key: ("tile", tile index) or ("score", panel id).
WorkKey = tuple[str, int]


def compute_tile(
    z: np.ndarray,
    rows: np.ndarray,
    col_start: int,
    col_stop: int,
    epochs_per_subject: int,
    workspace: NormalizationWorkspace | None = None,
    panel: np.ndarray | None = None,
) -> np.ndarray:
    """Fused stage-1/2 of one 2-D tile: gemm + in-cache normalize.

    Same arithmetic as the engine's tiled mode
    (:func:`repro.core.engine._run_tiled`): ``panel @ z.T`` through an
    axis-swapped output view, then the bitwise-exact fused normalizer.
    The result is a fresh C-contiguous float32 ``(rows, E, cols)``
    block, safe to ship.  ``panel`` lets the caller reuse the
    ``z[:, rows]`` contiguous copy across column tiles of one row
    panel.
    """
    n_epochs = z.shape[0]
    if panel is None:
        panel = z[:, rows]  # (E, width, T) contiguous copy
    tile = np.empty(
        (rows.size, n_epochs, col_stop - col_start), dtype=np.float32
    )
    zt = z.swapaxes(1, 2)
    np.matmul(panel, zt[:, :, col_start:col_stop], out=tile.swapaxes(0, 1))
    fuse_normalize_tile(tile, epochs_per_subject, workspace=workspace)
    return tile


def score_panel(
    grouped: FMRIDataset,
    config: FCMAConfig,
    rows: np.ndarray,
    correlations: np.ndarray,
    ctx: "RunContext",
) -> VoxelScores:
    """Stage 3 of one assembled row panel (same path as the stage graph)."""
    from ..core.voxel_selection import score_voxels
    from ..exec.registry import create_backend
    from ..svm.cross_validation import kfold_ids

    epochs = grouped.epochs
    if epochs.n_subjects >= 2:
        fold_ids = np.asarray(epochs.subjects())
    else:
        fold_ids = np.asarray(kfold_ids(len(epochs), config.online_folds))
    backend = create_backend(config)
    return score_voxels(
        correlations,
        rows,
        epochs.labels(),
        fold_ids,
        backend,
        batch_voxels=config.batch_voxels,
    )


def tiled_master_loop(
    comm: Comm,
    tiles: Sequence["TileTask"],
    n_voxels: int,
    n_epochs: int,
    max_retries: int = 2,
    reports: dict[int, Any] | None = None,
) -> VoxelScores:
    """Serve tile and score tasks until every panel is scored.

    Runs on rank 0.  Dispatch priority: re-queued score items, freshly
    completed panels, re-queued tiles, fresh tiles — all in sorted id
    order, so scheduling is deterministic given the same event
    sequence.  Workers that ask while all current work is in flight are
    parked and woken by the next completion or re-queue.
    """
    if comm.rank != 0:
        raise ValueError("tiled_master_loop must run on rank 0")
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    if comm.size - 1 < 1:
        raise ValueError("need at least one worker rank")
    if not tiles:
        raise ValueError("no tiles to serve")

    assembler = PanelAssembler(n_voxels, n_epochs)
    panel_tiles: dict[int, int] = {}
    for t in tiles:
        panel_tiles[t.panel] = panel_tiles.get(t.panel, 0) + 1
    for panel_id in sorted(panel_tiles):
        rows = next(t.rows for t in tiles if t.panel == panel_id)
        assembler.expect(panel_id, rows, panel_tiles[panel_id])

    tile_pending = deque(range(len(tiles)))
    retry_tiles: list[int] = []
    retry_scores: list[int] = []
    score_ready: list[int] = []  # completed panels awaiting dispatch
    scores: dict[int, VoxelScores] = {}
    attempts: dict[WorkKey, int] = {}
    in_flight: dict[int, set[WorkKey]] = {}
    failure: tuple[WorkKey, str] | None = None
    parked: deque[int] = deque()
    active = set(range(1, comm.size))
    stopped: set[int] = set()
    n_panels = len(panel_tiles)

    def send_tile(dest: int, idx: int) -> None:
        t = tiles[idx]
        key: WorkKey = ("tile", idx)
        attempts[key] = attempts.get(key, 0) + 1
        in_flight.setdefault(dest, set()).add(key)
        comm.send(
            ("tile", idx, t.panel, np.asarray(t.rows), t.col_start, t.col_stop),
            dest,
            TAG_TASK,
        )

    def send_score(dest: int, panel_id: int) -> None:
        key: WorkKey = ("score", panel_id)
        attempts[key] = attempts.get(key, 0) + 1
        in_flight.setdefault(dest, set()).add(key)
        comm.send(
            (
                "score",
                panel_id,
                assembler.rows_of(panel_id),
                assembler.panel_buffer(panel_id),
            ),
            dest,
            TAG_TASK,
        )

    def dispatch(dest: int) -> bool:
        if retry_scores:
            send_score(dest, retry_scores.pop(0))
        elif score_ready:
            send_score(dest, score_ready.pop(0))
        elif retry_tiles:
            send_tile(dest, retry_tiles.pop(0))
        elif tile_pending:
            send_tile(dest, tile_pending.popleft())
        else:
            return False
        return True

    def work_outstanding() -> bool:
        return bool(
            retry_scores
            or score_ready
            or retry_tiles
            or tile_pending
            or any(in_flight.values())
        )

    def drain_parked() -> None:
        while parked and (retry_scores or score_ready or retry_tiles or tile_pending):
            dispatch(parked.popleft())
        if not work_outstanding():
            while parked:
                rank = parked.popleft()
                comm.send(None, rank, TAG_STOP)
                stopped.add(rank)

    def requeue(key: WorkKey, *, refund: bool) -> None:
        if refund:
            attempts[key] = max(0, attempts.get(key, 1) - 1)
        kind, ident = key
        if kind == "tile":
            bisect.insort(retry_tiles, ident)
        else:
            bisect.insort(retry_scores, ident)

    live = current_live()
    while len(stopped) < len(active):
        src, tag, payload = comm.recv()
        if live is not None and tag != TAG_PEER_LOST:
            live.heartbeat(src)
        if tag == TAG_TELEMETRY:
            if live is not None and isinstance(payload, dict):
                live.heartbeat(src, completed=payload.get("completed"))
            continue
        if tag == TAG_DONE:
            # Post-stop telemetry from an already-stopped worker (TCP
            # workers report before disconnecting); collected here for
            # collect_worker_reports to pick up after the loop.
            if reports is not None:
                reports[src] = payload
            continue
        if tag == TAG_REQUEST:
            if dispatch(src):
                pass
            elif work_outstanding():
                parked.append(src)
            else:
                comm.send(None, src, TAG_STOP)
                stopped.add(src)
        elif tag == TAG_RESULT:
            kind = payload[0]
            if kind == "tile":
                _, idx, panel_id, c0, c1, block = payload
                in_flight.get(src, set()).discard(("tile", idx))
                if live is not None:
                    live.inc("tiles")
                done = assembler.add(panel_id, c0, c1, block)
                if done is not None:
                    bisect.insort(score_ready, panel_id)
            else:
                _, panel_id, result = payload
                in_flight.get(src, set()).discard(("score", panel_id))
                if live is not None:
                    live.inc("tasks")
                if panel_id not in scores:
                    scores[panel_id] = result
                    assembler.release(panel_id)
            drain_parked()
        elif tag == TAG_ERROR:
            key, message = payload
            key = (key[0], key[1])
            in_flight.get(src, set()).discard(key)
            if attempts.get(key, 0) < max_retries:
                requeue(key, refund=False)
            elif failure is None:
                failure = (key, message)
            if live is not None:
                live.inc("task_errors")
            drain_parked()
        elif tag == TAG_PEER_LOST:
            if live is not None:
                live.worker_lost(src)
            if src not in active:
                continue
            active.discard(src)
            stopped.discard(src)
            if src in parked:
                parked.remove(src)
            for key in sorted(in_flight.pop(src, set())):
                requeue(key, refund=True)
            if not active and work_outstanding():
                raise RuntimeError(
                    "all workers lost with tile/score work unfinished"
                )
            drain_parked()
        else:
            raise RuntimeError(f"master got unexpected tag {tag} from {src}")

    if failure is not None:
        (kind, ident), message = failure
        raise TaskFailedError(
            f"{kind} task {ident} failed after {max_retries} attempts: "
            f"{message}"
        )
    missing = [p for p in range(n_panels) if p not in scores]
    if missing:
        raise RuntimeError(f"panels without scores: {missing}")
    parts = [scores[p] for p in range(n_panels)]
    return VoxelScores.concatenate(parts).sorted_by_accuracy()


def tiled_worker_loop(
    comm: Comm,
    dataset: FMRIDataset,
    config: FCMAConfig,
    ctx: "RunContext",
) -> int:
    """Pull tile/score work until stopped; returns items completed.

    Overlap structure: the request for the *next* item goes out before
    the current one computes, so the master round-trip hides behind the
    gemm.  Exposed wait lands in the ``comm.fetch_wait`` stage; the
    hidden fraction (message arrived while computing) accumulates in
    the ``overlap_hidden_seconds`` counter.  Item failures are reported
    per item (TAG_ERROR) and the loop keeps serving.
    """
    if comm.rank == 0:
        raise ValueError("tiled_worker_loop must not run on rank 0")
    grouped, z = preprocess_dataset(dataset)
    epochs_per_subject = grouped.epochs.epochs_per_subject()
    workspace = NormalizationWorkspace()
    panel_cache: tuple[int, np.ndarray] | None = None
    completed = 0
    # In-process ranks (thread transport) see the master's live runtime
    # and can feed per-tile latency histograms directly; TCP worker
    # processes see None and publish only via telemetry frames.
    live = current_live()
    last_telemetry = time.monotonic()

    comm.send(None, 0, TAG_REQUEST)
    t_request = time.monotonic()
    while True:
        t_wait = time.monotonic()
        src, tag, payload, arrived = comm.recv_timed(source=0)
        exposed = time.monotonic() - t_wait
        ctx.add_time("comm.fetch_wait", exposed)
        ctx.increment(
            "overlap_hidden_seconds",
            max(0.0, (arrived - t_request) - exposed),
        )
        if tag == TAG_STOP:
            return completed
        if tag == TAG_PEER_LOST:
            raise RuntimeError("master connection lost")
        if tag != TAG_TASK:
            raise RuntimeError(f"worker got unexpected tag {tag}")
        # Prefetch: ask for the next item before computing this one.
        comm.send(None, 0, TAG_REQUEST)
        t_request = time.monotonic()
        kind = payload[0]
        try:
            if kind == "tile":
                _, idx, panel_id, rows, c0, c1 = payload
                rows = np.asarray(rows, dtype=np.int64)
                if panel_cache is None or panel_cache[0] != panel_id:
                    panel_cache = (panel_id, z[:, rows])
                with ctx.task_span(rows.size, int(rows[0])) as span:
                    with ctx.tracer.span(
                        "correlate_normalize_tile2d", kind="kernel"
                    ) as kspan:
                        block = compute_tile(
                            z,
                            rows,
                            c0,
                            c1,
                            epochs_per_subject,
                            workspace=workspace,
                            panel=panel_cache[1],
                        )
                        kspan.add_metric("rows", float(rows.size))
                        kspan.add_metric("cols", float(c1 - c0))
                        kspan.add_metric("bytes_moved", float(block.nbytes))
                    span.add_metric("voxels", float(rows.size))
                if live is not None:
                    live.observe("tile_seconds", kspan.duration)
                comm.send(("tile", idx, panel_id, c0, c1, block), 0, TAG_RESULT)
            elif kind == "score":
                _, panel_id, rows, corr = payload
                rows = np.asarray(rows, dtype=np.int64)
                corr = np.ascontiguousarray(corr, dtype=np.float32)
                with ctx.task_span(rows.size, int(rows[0])) as span:
                    with ctx.tracer.span("score_panel", kind="kernel") as kspan:
                        result = score_panel(grouped, config, rows, corr, ctx)
                        kspan.add_metric("voxels", float(rows.size))
                    span.add_metric("voxels", float(rows.size))
                comm.send(("score", panel_id, result), 0, TAG_RESULT)
            else:
                raise RuntimeError(f"unknown work kind {kind!r}")
        except Exception as exc:  # noqa: BLE001 - reported to master
            key: WorkKey = (kind, payload[1])
            comm.send((key, f"{type(exc).__name__}: {exc}"), 0, TAG_ERROR)
            continue
        completed += 1
        now = time.monotonic()
        if now - last_telemetry >= TELEMETRY_INTERVAL:
            comm.send_telemetry({"completed": completed})
            last_telemetry = now


def collect_worker_reports(
    comm: Comm, expected: set[int], collected: dict[int, Any] | None = None
) -> dict[int, Any]:
    """Gather each worker's post-stop TAG_DONE telemetry payload.

    ``collected`` carries reports the master loop already absorbed
    while other workers were still active (its ``reports=`` out-param).
    Workers that die between their STOP and their report shrink the
    expectation via TAG_PEER_LOST instead of deadlocking the collect.
    """
    reports: dict[int, Any] = dict(collected or {})
    waiting = set(expected) - set(reports)
    while waiting:
        src, tag, payload = comm.recv()
        if tag == TAG_DONE:
            reports[src] = payload
            waiting.discard(src)
        elif tag == TAG_PEER_LOST:
            waiting.discard(src)
        # anything else (stale duplicate results) is ignored
    return reports
