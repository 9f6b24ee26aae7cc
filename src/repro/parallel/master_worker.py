"""The FCMA master-worker protocol (paper Section 3.1.1) over Comm.

"The master node first distributes brain data to the worker nodes and
then sends tasks to the workers to process in parallel.  A worker works
on one task at a time.  When a worker finishes a task, it will receive a
new task from the master."

This module implements exactly that pull-based protocol against the
MPI-like :class:`~repro.parallel.comm.Comm`:

* rank 0 is the master (:func:`_master_loop`): it serves work items on
  demand, collects the results, and returns the sorted aggregate;
* ranks 1..n-1 are workers: request an item, compute it, send the
  result back, repeat until a stop message.

The master loop is the one scheduler for every kind of work.  What the
paper's 1-D row partitioning (:class:`RowWork`) and the 2-D tile
partitioning (:class:`repro.parallel.tiled.TileWork`) do differently
lives in a small *work plan*: which item goes out next, what a result
completes, and how the scores assemble.  The loop owns the rest —
in-flight bookkeeping, retry budgets, parked workers, worker loss, and
the telemetry side channels.

Beyond the paper, the protocol is fault tolerant: a worker whose item
raises reports the failure instead of dying, and the master re-queues
the item (up to ``max_retries`` attempts per item) so a transient
failure on one node cannot lose voxels from the analysis.
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol, Sequence

import numpy as np

from ..core.results import VoxelScores
from ..data.dataset import FMRIDataset
from ..obs.live.runtime import current_live
from .comm import Comm, TAG_PEER_LOST, TAG_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.context import RunContext

__all__ = ["RowWork", "TaskFailedError", "WorkPlan"]

#: Message tags of the protocol.
TAG_REQUEST = 1  # worker -> master: "give me work" (payload: None)
TAG_TASK = 2     # master -> worker: one work item (the plan's payload)
TAG_RESULT = 3   # worker -> master: that item's result
TAG_STOP = 4     # master -> worker: no more work
TAG_ERROR = 5    # worker -> master: the item's failure report
TAG_DONE = 6     # worker -> master: post-stop telemetry (ctx export, comm stats)

#: Minimum seconds between a worker's live-telemetry frames.  Bounds the
#: piggybacked traffic to ~2 tiny messages per second per worker no
#: matter how fast tasks complete; workers send unconditionally (the
#: frames are dropped at the master when no live plane is active).
TELEMETRY_INTERVAL = 0.5

#: A work item's identity: (kind, id), e.g. ("task", 3) or ("tile", 17).
WorkKey = tuple[str, int]


class TaskFailedError(RuntimeError):
    """A work item exhausted its retries across workers."""


class WorkPlan(Protocol):
    """What one kind of partitioning hands the master loop.

    Re-queued items are the plan's to order: the loop only says which
    key came back.
    """

    #: Live-plane counter each item kind ticks on completion.
    counters: dict[str, str]

    def totals(self) -> dict[str, int]:
        """Items per live-plane counter (the progress denominators)."""
        ...

    def has_work(self) -> bool:
        """Whether :meth:`take` would hand out an item now."""
        ...

    def take(self) -> tuple[WorkKey, Any] | None:
        """Next item to dispatch: its key and TAG_TASK payload."""
        ...

    def requeue(self, key: WorkKey) -> None:
        """Put a failed or lost item back for another attempt."""
        ...

    def accept(self, payload: Any) -> WorkKey:
        """Absorb one TAG_RESULT payload; returns the item it completes."""
        ...

    def failed(self, payload: Any) -> tuple[WorkKey, str]:
        """The item and message of one TAG_ERROR payload."""
        ...

    def finish(self) -> VoxelScores:
        """Every item's scores, concatenated and sorted by accuracy."""
        ...


class Lane:
    """Item ids of one kind: re-queued ids first, then new ones.

    Both queues stay sorted, so when several workers fail concurrently
    the re-dispatch order is the id order, not the order the failure
    reports raced in — deterministic scheduling for the same events.
    """

    def __init__(self, ids: Iterable[int] = ()) -> None:
        self.retry: list[int] = []
        self.new: list[int] = sorted(ids)

    def __bool__(self) -> bool:
        return bool(self.retry or self.new)

    def pop(self) -> int:
        return (self.retry or self.new).pop(0)

    def add(self, ident: int) -> None:
        bisect.insort(self.new, ident)

    def requeue(self, ident: int) -> None:
        bisect.insort(self.retry, ident)


class RowWork:
    """The paper's 1-D partitioning: one task per row panel, final result.

    Wire payloads: TAG_TASK ``(index, voxels)``, TAG_RESULT
    ``(index, VoxelScores)``, TAG_ERROR ``(index, message)``.
    """

    counters = {"task": "tasks"}

    def __init__(self, tasks: Sequence[np.ndarray]) -> None:
        self.tasks = list(tasks)
        self._lane = Lane(range(len(self.tasks)))
        self._results: dict[int, VoxelScores] = {}

    def totals(self) -> dict[str, int]:
        return {"tasks": len(self.tasks)}

    def has_work(self) -> bool:
        return bool(self._lane)

    def take(self) -> tuple[WorkKey, Any] | None:
        if not self._lane:
            return None
        idx = self._lane.pop()
        return ("task", idx), (idx, np.asarray(self.tasks[idx]))

    def requeue(self, key: WorkKey) -> None:
        self._lane.requeue(key[1])

    def accept(self, payload: Any) -> WorkKey:
        idx, scores = payload
        self._results[idx] = scores
        return ("task", idx)

    def failed(self, payload: Any) -> tuple[WorkKey, str]:
        idx, message = payload
        return ("task", idx), message

    def finish(self) -> VoxelScores:
        missing = [i for i in range(len(self.tasks)) if i not in self._results]
        if missing:
            raise RuntimeError(f"tasks without results: {missing}")
        parts = [self._results[i] for i in range(len(self.tasks))]
        return VoxelScores.concatenate(parts).sorted_by_accuracy()


def _master_loop(
    comm: Comm,
    work: WorkPlan,
    max_retries: int = 2,
    reports: dict[int, Any] | None = None,
) -> VoxelScores:
    """Serve ``work`` to workers on demand and aggregate their results.

    Runs on rank 0.  Each worker gets the plan's next item the moment it
    asks; results arrive in any order.  A reported item failure
    re-queues the item until ``max_retries`` attempts are spent, after
    which the master keeps serving the healthy items, drains the
    workers, and raises :class:`TaskFailedError`.

    Worker loss (:data:`~repro.parallel.comm.TAG_PEER_LOST`, TCP
    transport only) is not an item failure: the dead worker's in-flight
    items are re-queued with their attempt refunded.  A worker that asks
    while the remaining work is in flight elsewhere is *parked* rather
    than stopped, so it stays available to absorb those re-queues.
    ``reports`` collects the post-stop TAG_DONE telemetry that stopped
    TCP workers send while others are still busy.
    """
    if comm.rank != 0:
        raise ValueError("the master loop must run on rank 0")
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    if comm.size - 1 < 1:
        raise ValueError("need at least one worker rank")

    attempts: dict[WorkKey, int] = {}
    failure: tuple[WorkKey, str] | None = None
    in_flight: dict[int, set[WorkKey]] = {}
    parked: deque[int] = deque()
    active = set(range(1, comm.size))
    stopped: set[int] = set()

    def dispatch(dest: int) -> bool:
        item = work.take()
        if item is None:
            return False
        key, payload = item
        attempts[key] = attempts.get(key, 0) + 1
        in_flight.setdefault(dest, set()).add(key)
        comm.send(payload, dest, TAG_TASK)
        return True

    def stop(rank: int) -> None:
        comm.send(None, rank, TAG_STOP)
        stopped.add(rank)

    def work_outstanding() -> bool:
        return work.has_work() or any(in_flight.values())

    def drain_parked() -> None:
        while parked and work.has_work():
            dispatch(parked.popleft())
        if not work_outstanding():
            while parked:
                stop(parked.popleft())

    live = current_live()
    while len(stopped) < len(active):
        src, tag, payload = comm.recv()
        if live is not None and tag != TAG_PEER_LOST:
            # Any protocol traffic is a sign of life for heartbeat ages.
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
            # Even after a permanent item failure the master keeps
            # serving the remaining healthy items, so one bad item
            # yields the maximum information before the raise below.
            if dispatch(src):
                pass
            elif work_outstanding():
                parked.append(src)  # may absorb a re-queue later
            else:
                stop(src)
        elif tag == TAG_RESULT:
            key = work.accept(payload)
            in_flight.get(src, set()).discard(key)
            if live is not None:
                live.inc(work.counters[key[0]])
            drain_parked()
        elif tag == TAG_ERROR:
            key, message = work.failed(payload)
            in_flight.get(src, set()).discard(key)
            if attempts[key] < max_retries:
                work.requeue(key)
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
                attempts[key] -= 1
                work.requeue(key)
            if not active and work_outstanding():
                raise RuntimeError("all workers lost with work unfinished")
            drain_parked()
        else:
            raise RuntimeError(f"master got unexpected tag {tag} from {src}")

    if failure is not None:
        (kind, ident), message = failure
        raise TaskFailedError(
            f"{kind} {ident} failed after {max_retries} attempts: {message}"
        )
    return work.finish()


def _worker_loop(
    comm: Comm,
    dataset: FMRIDataset,
    ctx: "RunContext",
    run: Callable[[FMRIDataset, np.ndarray, "RunContext"], VoxelScores]
    | None = None,
) -> int:
    """Pull row tasks from the master until stopped; returns tasks completed.

    ``run`` scores one task (default:
    :func:`~repro.exec.stage_graph.execute_task`, timed into ``ctx``).
    Exceptions it raises are reported to the master (TAG_ERROR) rather
    than killing the worker, which then asks for more work.  The next
    request goes out only after the result: no prefetch, so the last
    tasks of a run are never held back behind a busy worker.
    """
    if comm.rank == 0:
        raise ValueError("a worker loop must not run on rank 0")
    if run is None:
        from ..exec.stage_graph import execute_task

        run = execute_task
    completed = 0
    last_telemetry = time.monotonic()
    while True:
        comm.send(None, 0, TAG_REQUEST)
        _, tag, payload = comm.recv(source=0)
        if tag == TAG_STOP:
            return completed
        if tag != TAG_TASK:
            raise RuntimeError(f"worker got unexpected tag {tag}")
        idx, voxels = payload
        try:
            scores = run(dataset, voxels, ctx)
        except Exception as exc:  # noqa: BLE001 - reported to master
            comm.send((idx, f"{type(exc).__name__}: {exc}"), 0, TAG_ERROR)
            continue
        comm.send((idx, scores), 0, TAG_RESULT)
        completed += 1
        now = time.monotonic()
        if now - last_telemetry >= TELEMETRY_INTERVAL:
            comm.send_telemetry({"completed": completed})
            last_telemetry = now
