"""2-D tile partitioning of the master-worker protocol.

The row plan (:class:`repro.parallel.master_worker.RowWork`) ships
whole correlation row panels as single tasks — the paper's 1-D
decomposition.  :class:`TileWork` distributes the *tiles* of the
``(assigned × all-voxels)`` stage-1/2 matrix instead, the scheme that
scaled all-pairs Pearson to thousands of cores in *Parallel Pairwise
Correlation Computation on Intel Xeon Phi Clusters*.  Both plans run
under the same scheduler,
:func:`repro.parallel.master_worker._master_loop`, which owns retries,
parked workers and worker loss; this module holds only what tiles do
differently:

* **Tile tasks.**  :func:`repro.exec.partition.partition_tiles` carves
  row panels × column blocks; a worker computes one tile's fused
  stage 1/2 (per-tile gemm + in-cache
  :func:`~repro.core.normalization.fuse_normalize_tile`, the bitwise
  tiling-invariant kernel of the engine's tiled mode) and returns the
  normalized block.  Dense output only: the tiles are the dense
  emitter's arithmetic.
* **Owner-computes merge.**  The master owns panel assembly
  (:class:`~repro.core.results.PanelAssembler`): tiles land in any
  order from any worker; a completed panel immediately becomes a
  stage-3 *score task* dispatched back to a worker.
* **Communication/compute overlap.**  A worker sends its next work
  request *before* computing the current item, so the master's reply
  travels (and the next tile is chosen) while the gemm runs.  The
  exposed remainder is timed under the ``comm.fetch_wait`` stage; the
  hidden part accumulates in the ``overlap_hidden_seconds`` counter.
* **Fault tolerance at tile granularity.**  A failed or lost item is
  a single tile or score; because the per-tile kernels are bitwise
  deterministic, results are identical whichever worker re-runs a
  tile — worker loss is invisible in the output bits.

Why rows keep their own plan: a row task carries voxel ids out and
scores back, while a full-width tile would carry the whole normalized
panel (rows × epochs × voxels of float32) to the master and back again
for scoring.

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

import time
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..core.normalization import NormalizationWorkspace, fuse_normalize_tile
from ..core.pipeline import FCMAConfig, preprocess_dataset
from ..core.results import PanelAssembler, VoxelScores
from ..data.dataset import FMRIDataset
from ..obs.live.runtime import current_live
from .comm import Comm, TAG_PEER_LOST
from .master_worker import (
    TAG_DONE,
    TAG_ERROR,
    TAG_REQUEST,
    TAG_RESULT,
    TAG_STOP,
    TAG_TASK,
    TELEMETRY_INTERVAL,
    Lane,
    WorkKey,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.context import RunContext
    from ..exec.partition import TileTask

__all__ = [
    "TileWork",
    "collect_worker_reports",
    "compute_tile",
    "score_panel",
    "tiled_worker_loop",
]


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


class TileWork:
    """2-D tile work: tiles assemble into panels, panels become scores.

    Tile results feed the :class:`~repro.core.results.PanelAssembler`;
    a completed panel becomes a score item.  Dispatch order: re-queued
    scores, completed panels, re-queued tiles, fresh tiles — each in id
    order, so scheduling is deterministic given the same event
    sequence.  A panel buffer is released once its scores arrive.
    """

    counters = {"tile": "tiles", "score": "tasks"}

    def __init__(
        self, tiles: Sequence["TileTask"], n_voxels: int, n_epochs: int
    ) -> None:
        if not tiles:
            raise ValueError("no tiles to serve")
        self.tiles = list(tiles)
        self._assembler = PanelAssembler(n_voxels, n_epochs)
        panels: dict[int, list["TileTask"]] = {}
        for t in self.tiles:
            panels.setdefault(t.panel, []).append(t)
        for panel_id in sorted(panels):
            first = panels[panel_id][0]
            self._assembler.expect(panel_id, first.rows, len(panels[panel_id]))
        self._n_panels = len(panels)
        self._scoring = Lane()
        self._tiling = Lane(range(len(self.tiles)))
        self._scores: dict[int, VoxelScores] = {}

    def totals(self) -> dict[str, int]:
        return {"tasks": self._n_panels, "tiles": len(self.tiles)}

    def has_work(self) -> bool:
        return bool(self._scoring or self._tiling)

    def take(self) -> tuple[WorkKey, Any] | None:
        if self._scoring:
            panel_id = self._scoring.pop()
            payload: tuple[Any, ...] = (
                "score",
                panel_id,
                self._assembler.rows_of(panel_id),
                self._assembler.panel_buffer(panel_id),
            )
            return ("score", panel_id), payload
        if self._tiling:
            idx = self._tiling.pop()
            t = self.tiles[idx]
            payload = (
                "tile", idx, t.panel, np.asarray(t.rows), t.col_start, t.col_stop
            )
            return ("tile", idx), payload
        return None

    def requeue(self, key: WorkKey) -> None:
        kind, ident = key
        (self._tiling if kind == "tile" else self._scoring).requeue(ident)

    def accept(self, payload: Any) -> WorkKey:
        if payload[0] == "tile":
            _, idx, panel_id, c0, c1, block = payload
            if self._assembler.add(panel_id, c0, c1, block) is not None:
                self._scoring.add(panel_id)
            return ("tile", idx)
        _, panel_id, result = payload
        if panel_id not in self._scores:
            self._scores[panel_id] = result
            self._assembler.release(panel_id)
        return ("score", panel_id)

    def failed(self, payload: Any) -> tuple[WorkKey, str]:
        (kind, ident), message = payload
        return (kind, ident), message

    def finish(self) -> VoxelScores:
        missing = [p for p in range(self._n_panels) if p not in self._scores]
        if missing:
            raise RuntimeError(f"panels without scores: {missing}")
        parts = [self._scores[p] for p in range(self._n_panels)]
        return VoxelScores.concatenate(parts).sorted_by_accuracy()


def tiled_worker_loop(
    comm: Comm,
    dataset: FMRIDataset,
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
        raise ValueError("a worker loop must not run on rank 0")
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
                        result = score_panel(grouped, ctx.config, rows, corr)
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
