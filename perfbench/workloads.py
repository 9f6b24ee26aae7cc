"""The three FCMA workloads: inputs, timed runs, correctness gates, traces.

Each workload is driven only through the package's public API, the way
a user would run it.  See ``perfbench/README.md`` for why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import face_scene_scaled, generate_dataset, ground_truth_voxels
from repro.core import FCMAConfig
from repro.core.engine import DenseEmitter, run_engine
from repro.core.kernels import kernel_matrix_batched
from repro.core.pipeline import clear_preprocess_cache, make_backend, preprocess_dataset
from repro.core.voxel_selection import score_voxels_reference
from repro.eval.accuracy import roc_auc
from repro.exec import MasterWorkerExecutor, RunContext, SerialExecutor
from repro.exec.partition import partition_tasks
from repro.exec.stage_graph import execute_task
from repro.rtfmri import ClosedLoopSession, ScannerSimulator

from harness import (
    Tally,
    classify_steps,
    count_bad_scores,
    derive_seed,
    latency_summary,
    median,
)
from layers import LayerTrace, Wrap, wrapped_layers

perf = time.perf_counter


@dataclass
class Outcome:
    """What one run measured, before it is printed."""

    tally: Tally = field(default_factory=Tally)
    #: Every metric the run computed, with its sample count, for the report.
    report: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: Free-form notes (metric sources, gate details).
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.report[name] = (float(value), unit, int(samples))


def peak_rss_mb() -> float:
    """Peak resident set of this process and of every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def selection_auc(scores: Any, truth: np.ndarray) -> float:
    return roc_auc(scores.accuracies, np.isin(scores.voxels, truth))


def mismatched_voxels(expected: Any, scores: Any) -> list[int]:
    """Voxels of ``expected`` whose accuracy in ``scores`` is not bitwise equal."""
    got = {int(v): a for v, a in zip(scores.voxels, scores.accuracies)}
    return [int(v) for v, a in zip(expected.voxels, expected.accuracies) if got.get(int(v)) != a]


def same_scores(a: Any, b: Any) -> bool:
    return np.array_equal(a.voxels, b.voxels) and np.array_equal(
        a.accuracies, b.accuracies
    )


# -- layer wrappers -------------------------------------------------------------


def _smo_counts(_a: tuple, _k: dict, r: Any) -> dict[str, float]:
    problems = r.alpha.shape[0]
    return {
        "sweeps": r.sweeps,
        "problems": problems,
        "iters": int(r.iterations.sum()),
        "slots": r.sweeps * problems,
        "nonconverged": int((~np.asarray(r.converged)).sum()),
    }


def _engine_counts(a: tuple, _k: dict, r: Any) -> dict[str, float]:
    z, assigned = a[0], np.asarray(a[1])
    e, n, t = z.shape
    out, _ = r
    if isinstance(out, np.ndarray):  # dense emitter: (corr, n_tiles)
        nbytes, nnz, elements = out.nbytes, 0, 0
    else:  # CSR emitter: (SparseCorrelationResult, stats)
        nbytes = out.data.nbytes + out.indices.nbytes + out.indptr.nbytes
        nnz, elements = r[1].nnz, r[1].elements
    return {
        "gflop": 2.0 * assigned.size * e * n * t / 1e9,
        "mb": (z.nbytes + nbytes) / 1e6,
        "nnz": nnz,
        "elements": elements,
    }


def _dense_kernel_counts(a: tuple, _k: dict, _r: Any) -> dict[str, float]:
    v, m, n = np.shape(a[0])
    return {"gflop": 2.0 * v * m * m * n / 1e9}


def _csr_gram_counts(a: tuple, _k: dict, _r: Any) -> dict[str, float]:
    sparse, start, stop = a[0], a[1], a[2]
    _, m, n = sparse.shape
    lo, hi = sparse.indptr[start * m], sparse.indptr[stop * m]
    row_nnz = np.diff(sparse.indptr[start * m : stop * m + 1])
    rows = np.repeat(np.arange(start * m, stop * m), row_nnz)
    keys = (rows // m - start).astype(np.int64) * n + sparse.indices[lo:hi]
    per_column = np.bincount(keys, minlength=(stop - start) * n)
    # A·Aᵀ over a band multiplies every pair of stored entries that share a column.
    return {"gflop": 2.0 * float(np.dot(per_column, per_column)) / 1e9}


#: Layers every workload reaches in-process.
PIPELINE_WRAPS = (
    Wrap("repro.svm.phisvm:solve_smo_batch", "svm.smo", _smo_counts),
    Wrap("repro.core.voxel_selection:grouped_cross_validation_batch", "svm.cv"),
    Wrap("repro.exec.stage_graph:run_engine", "core.engine", _engine_counts),
    # kernel_matrix_batched is a default argument of score_voxels, so the
    # dense Gram build is score_voxels' self time.
    Wrap("repro.exec.stage_graph:score_voxels", "core.score", _dense_kernel_counts),
    Wrap("repro.exec.stage_graph:score_voxels_sparse", "core.score_sparse"),
    Wrap("repro.core.voxel_selection:csr_gram_panel", "core.kernel", _csr_gram_counts),
    Wrap("repro.core.blocking:plan_blocks", "core.plan"),
    Wrap("repro.core.pipeline:preprocess_dataset", "core.preprocess"),
    Wrap("repro.exec.executors:preprocess_dataset", "core.preprocess"),
)


def pipeline_layer_metrics(out: Outcome, trace: LayerTrace, root: str) -> None:
    """svm.* and core.* per-layer metrics from spans under ``root``."""
    smo_s = trace.total("svm.smo", root)
    iters = trace.count("svm.smo", "iters", root)
    slots = trace.count("svm.smo", "slots", root)
    out.put("svm.smo_s", smo_s, "s")
    out.put("svm.smo_calls", trace.calls("svm.smo", root), "count")
    out.put("svm.smo_sweeps", trace.count("svm.smo", "sweeps", root), "count")
    out.put("svm.smo_problem_iters", iters, "count")
    out.put("svm.smo_useful_frac", iters / slots if slots else 0.0, "ratio")
    out.put("svm.smo_us_per_iter", smo_s / iters * 1e6 if iters else 0.0, "us")
    out.put("svm.smo_nonconverged", trace.count("svm.smo", "nonconverged", root), "count")
    out.put("svm.cv_s", trace.self_total("svm.cv", root), "s")
    engine_s = trace.total("core.engine", root)
    gflop = trace.count("core.engine", "gflop", root)
    out.put("core.engine_s", engine_s, "s")
    out.put("core.engine_gflop", gflop, "GFLOP")
    out.put("core.engine_gflops", gflop / engine_s if engine_s else 0.0, "GFLOP/s")
    out.put("core.engine_mb", trace.count("core.engine", "mb", root), "MB")
    nnz = trace.count("core.engine", "nnz", root)
    elements = trace.count("core.engine", "elements", root)
    out.put("core.sparse_nnz", nnz, "count")
    out.put("core.sparse_density", nnz / elements if elements else 0.0, "ratio")
    out.put(
        "core.kernel_s",
        trace.self_total("core.score", root) + trace.total("core.kernel", root),
        "s",
    )
    out.put(
        "core.kernel_gflop",
        trace.count("core.score", "gflop", root) + trace.count("core.kernel", "gflop", root),
        "GFLOP",
    )
    out.put("core.preprocess_s", trace.total("core.preprocess", root), "s")


def exec_layer_metrics(
    out: Outcome, task_seconds: list[float], window_s: float, workers: int
) -> None:
    """exec.* task stats and the worker-side parallel.* shares.

    ``window_s`` is the span the workers were available for: the master
    loop for TCP, ``executor.run`` for the serial executor.
    """
    busy = sum(task_seconds)
    out.put("exec.tasks", len(task_seconds), "count")
    out.put("exec.task_p50_s", median(task_seconds), "s", len(task_seconds))
    out.put("exec.task_max_s", max(task_seconds), "s", len(task_seconds))
    out.put("parallel.fetch_wait_s", workers * window_s - busy, "s")
    out.put("parallel.worker_busy_frac", busy / (workers * window_s), "ratio")


def serial_parallel_metrics(out: Outcome) -> None:
    """One process, no transport: no messages, and no speed-up to report."""
    out.put("parallel.msgs", 0, "count")
    out.put("parallel.mb_sent", 0.0, "MB")
    out.put("parallel.mb_recv", 0.0, "MB")
    out.put("parallel.speedup_vs_serial", 1.0, "ratio")


def trace_metrics(
    out: Outcome, trace: LayerTrace, roots: list[str], untraced_s: float, traced_s: float
) -> None:
    wall, unattributed = trace.attribution(roots)
    out.put("trace.attributed_frac", (wall - unattributed) / wall, "ratio")
    out.put("trace.unattributed_s", unattributed, "s")
    out.put("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio")


# -- offline workloads ----------------------------------------------------------


@dataclass
class OfflineInputs:
    dataset: Any
    truth: np.ndarray


@dataclass
class Sample:
    seconds: float
    scores: Any
    inputs: OfflineInputs


@dataclass(frozen=True)
class Offline:
    """Whole-brain voxel selection: ``executor.run`` to ``VoxelScores``."""

    name: str
    n_voxels: int
    config: FCMAConfig
    make_executor: Callable[[], Any]
    workers: int
    auc_floor: float
    #: The workload-specific correctness gate, run untimed on each dataset.
    gate: Callable[["Offline", OfflineInputs, Any, Outcome], None]
    #: Independent datasets a run selects on (seeds derived from ``--seed``).
    #: Solver work varies from dataset to dataset; timing several per run
    #: keeps run-to-run spread inside the metric bounds.
    datasets: int = 2

    def inputs(self, seed: int) -> list[OfflineInputs]:
        out = []
        for k in range(self.datasets):
            cfg = face_scene_scaled(n_voxels=self.n_voxels, seed=derive_seed(seed, k))
            out.append(OfflineInputs(generate_dataset(cfg), ground_truth_voxels(cfg)))
        return out

    def select(
        self, inputs: OfflineInputs, executor: Any = None
    ) -> tuple[float, Any, RunContext]:
        clear_preprocess_cache()
        ctx = RunContext(self.config)
        executor = executor if executor is not None else self.make_executor()
        t0 = perf()
        scores = executor.run(inputs.dataset, ctx)
        return perf() - t0, scores, ctx

    def timed(self, inputs: list[OfflineInputs], seconds: float, out: Outcome) -> list[Sample]:
        """One selection per dataset, then more while the next fits in ``seconds``."""
        samples: list[Sample] = []
        begin = perf()
        while True:
            current = inputs[len(samples) % len(inputs)]
            dt, scores, _ = self.select(current)
            if len(samples) >= len(inputs):
                earlier = samples[len(samples) - len(inputs)].scores
                if not same_scores(scores, earlier):
                    out.tally.fail_all("repeated selection on the same inputs differed")
            samples.append(Sample(dt, scores, current))
            if len(samples) >= len(inputs) and perf() - begin + dt > seconds:
                return samples

    def check(self, samples: list[Sample], n_datasets: int, out: Outcome) -> None:
        """Per-voxel validity of every sample, then each dataset's gate (untimed).

        The first ``n_datasets`` samples are one per dataset.
        """
        for sample in samples:
            v = sample.inputs.dataset.n_voxels
            bad = count_bad_scores(sample.scores.accuracies.tolist())
            missing = np.setdiff1d(np.arange(v), sample.scores.voxels).size
            out.tally.add(v, bad + missing, f"{bad} invalid scores, {missing} voxels missing")
        for sample in samples[:n_datasets]:
            auc = selection_auc(sample.scores, sample.inputs.truth)
            if auc < self.auc_floor:
                out.tally.fail_all(f"auc {auc:.4f} below floor {self.auc_floor}")
            try:
                self.gate(self, sample.inputs, sample.scores, out)
            except Exception as exc:  # noqa: BLE001 - a crashing gate is a failed gate
                out.tally.fail_all(f"gate raised {type(exc).__name__}: {exc}")

    def measure(self, inputs: list[OfflineInputs], seconds: float) -> Outcome:
        return self._measure(inputs, seconds)[0]

    def _measure(
        self, inputs: list[OfflineInputs], seconds: float
    ) -> tuple[Outcome, list[Sample]]:
        out = Outcome()
        samples = self.timed(inputs, seconds, out)
        rss = peak_rss_mb()
        self.check(samples, len(inputs), out)
        first = samples[: len(inputs)]
        out.put("select_s", median([s.seconds for s in samples]), "s", len(samples))
        out.put("peak_rss_mb", rss, "MB")
        aucs = [selection_auc(s.scores, s.inputs.truth) for s in first]
        out.put("auc", median(aucs), "auc", len(aucs))
        out.put("failed_frac", out.tally.failed_frac, "ratio", out.tally.attempted)
        return out, samples

    def traced(self, inputs: list[OfflineInputs], seconds: float) -> Outcome:
        """The untraced measurement, then one traced selection on dataset 0."""
        out, samples = self._measure(inputs, seconds)
        untraced = samples[0]
        trace = LayerTrace()
        if self.workers == 1:
            with wrapped_layers(trace, PIPELINE_WRAPS):
                with trace.span("op.select"):
                    traced_s, scores, ctx = self.select(untraced.inputs)
            pipeline_layer_metrics(out, trace, "op.select")
            exec_layer_metrics(out, ctx.task_seconds, traced_s, 1)
            serial_parallel_metrics(out)
            out.notes.append("svm/core/exec: in-process wrappers on the serial run")
            roots = ["op.select"]
        else:
            scores, traced_s, roots = self._traced_tcp(untraced.inputs, trace, out)
        if not same_scores(scores, untraced.scores):
            out.tally.fail_all("traced selection differs from the untraced one")
        trace_metrics(out, trace, roots, untraced.seconds, traced_s)
        out.put("analysis.select_calls", 0, "count")
        out.put("rtfmri.warm_started_frac", 0.0, "ratio")
        return out

    def _traced_tcp(
        self, inputs: OfflineInputs, trace: LayerTrace, out: Outcome
    ) -> tuple[Any, float, list[str]]:
        comms: list[Any] = []

        def keep_comm(a: tuple, _k: dict, _r: Any) -> dict[str, float]:
            comms.append(a[0])
            return {}

        master_wraps = (
            Wrap("repro.parallel.transport:spawn_local_workers", "parallel.spawn"),
            Wrap("repro.parallel.transport:TcpListener.accept", "parallel.accept"),
            Wrap("repro.parallel.comm:Comm.bcast", "parallel.bcast"),
            Wrap(
                "repro.parallel.master_worker:_master_loop",
                "parallel.master_loop",
                keep_comm,
            ),
            Wrap("repro.parallel.tiled:collect_worker_reports", "parallel.collect"),
            Wrap("repro.exec.executors:predicted_schedule", "exec.replay"),
        )
        with wrapped_layers(trace, PIPELINE_WRAPS + master_wraps):
            with trace.span("op.select"):
                tcp_s, scores, ctx = self.select(inputs)
            with trace.span("op.serial_replica"):
                serial_s, serial_scores, _ = self.select(inputs, SerialExecutor())
        if not same_scores(scores, serial_scores):
            out.tally.fail_all("TCP and serial selections differ")
        # Worker layers run in other processes: their times and task
        # stream come from the worker exports merged into ctx; the exact
        # solver counts come from the in-process serial replica, which
        # runs the same task stream.
        pipeline_layer_metrics(out, trace, "op.serial_replica")
        export_iters = sum(
            s.metrics.get("iterations", 0.0)
            for s in ctx.tracer.spans()
            if s.name == "smo.solve_batch"
        )
        if export_iters != out.report["svm.smo_problem_iters"][0]:
            out.tally.fail_all(
                f"worker exports report {export_iters} SMO problem-iterations, "
                f"serial replica {out.report['svm.smo_problem_iters'][0]}"
            )
        loop_s = trace.total("parallel.master_loop", "op.select")
        exec_layer_metrics(out, ctx.task_seconds, loop_s, self.workers)
        stats = comms[-1].stats
        out.put("parallel.msgs", stats.msgs_sent + stats.msgs_recv, "count")
        out.put("parallel.mb_sent", stats.bytes_sent / 1e6, "MB")
        out.put("parallel.mb_recv", stats.bytes_recv / 1e6, "MB")
        out.put("parallel.speedup_vs_serial", serial_s / tcp_s, "ratio")
        master_layers = (
            "parallel.spawn", "parallel.accept", "parallel.bcast", "parallel.collect", "exec.replay"
        )
        for layer in master_layers:
            out.put(f"{layer}_s", trace.total(layer, "op.select"), "s")
        out.notes.append(
            "svm/core: wrappers on the in-process serial replica of the same inputs; "
            "exec.*: worker exports merged into the TCP RunContext; "
            "parallel.msgs/mb_*: the master's transport stats"
        )
        return scores, tcp_s, ["op.select", "op.serial_replica"]


def _dense_gate(wl: Offline, inputs: OfflineInputs, scores: Any, out: Outcome) -> None:
    """A fixed voxel sample re-scored by the per-voxel reference, bitwise."""
    truth = inputs.truth
    others = np.setdiff1d(np.arange(inputs.dataset.n_voxels), truth)
    sample = np.sort(np.concatenate([truth[:2], others[[0, -1]]]))
    grouped, z = preprocess_dataset(inputs.dataset)
    eps = grouped.epochs.epochs_per_subject()
    corr, _ = run_engine(z, sample, eps, DenseEmitter())
    ref = score_voxels_reference(
        corr,
        sample,
        grouped.epochs.labels(),
        np.asarray(grouped.epochs.subjects()),
        make_backend(wl.config),
        kernel_fn=lambda x: kernel_matrix_batched(x[None])[0],
    )
    mismatched = mismatched_voxels(ref, scores)
    if mismatched:
        out.tally.fail_all(f"reference re-score differs on voxels {mismatched}")
    out.notes.append(f"gate: reference re-scored voxels {sample.tolist()} bitwise")


def _sparse_gate(wl: Offline, inputs: OfflineInputs, scores: Any, out: Outcome) -> None:
    """One task re-run serially must equal the TCP result for its voxels."""
    task = partition_tasks(inputs.dataset.n_voxels, wl.config.task_voxels)[0]
    serial = execute_task(inputs.dataset, task, RunContext(wl.config))
    mismatched = mismatched_voxels(serial, scores)
    if mismatched:
        out.tally.fail_all(f"serial re-run of task 0 differs on {len(mismatched)} voxels")
    out.notes.append(f"gate: task 0 ({task.size} voxels) re-run serially, bitwise")


# -- real-time workload ---------------------------------------------------------


class StampedScanner:
    """Scanner wrapper that stamps every volume pull.

    Each stamp is ``(time, trains, closes, retrains)``: the session's
    cumulative counts of finished initial trainings, feedback epoch
    closes and retrains, read from its tracer's close listener.
    """

    COUNTED = {"train": 0, "feedback": 1, "retrain": 2}

    def __init__(self, scanner: ScannerSimulator) -> None:
        self._scanner = scanner
        self.counts = [0, 0, 0]
        self.marks: list[tuple[float, int, int, int]] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._scanner, name)

    def on_close(self, span: Any) -> None:
        slot = self.COUNTED.get(span.name)
        if slot is not None and span.kind == "stage":
            self.counts[slot] += 1

    def mark(self) -> None:
        self.marks.append((perf(), *self.counts))

    def stream(self, *args: Any, **kwargs: Any) -> Any:
        for volume in self._scanner.stream(*args, **kwargs):
            self.mark()
            yield volume


#: Where the session's voxel selections enter the executor.
SELECT_TARGET = "repro.exec.executors:SerialExecutor.run"

#: The real-time layers of a traced session.
REALTIME_WRAPS = (
    Wrap("repro.rtfmri.loop:run_online_analysis", "analysis.select"),
    Wrap("repro.core.incremental:IncrementalEmitter.push_tr", "rtfmri.push_tr"),
    Wrap("repro.core.incremental:IncrementalEmitter.partial_correlations", "rtfmri.partial"),
    Wrap("repro.core.incremental:IncrementalEmitter.complete_epoch", "rtfmri.epoch_close"),
    Wrap("repro.core.incremental:IncrementalEmitter.fisher_features", "rtfmri.fisher"),
    Wrap("repro.analysis.online:OnlineClassifier.classify_features", "rtfmri.classify"),
    Wrap("repro.rtfmri.assembler:EpochAssembler.push", "rtfmri.assemble"),
)


@dataclass
class RtInputs:
    dataset: Any
    truth: np.ndarray


@dataclass
class Session:
    seconds: float
    steps: list[tuple[str, float]]
    result: Any
    session: ClosedLoopSession
    #: (seconds, auc, epochs) of every voxel selection the session ran.
    selections: list[tuple[float, float, int]]
    tr_seconds: float


@dataclass(frozen=True)
class RealTime:
    """Closed-loop rtfMRI session with one client (the scanner)."""

    name: str = "rtfmri-stream"
    n_voxels: int = 1000
    epochs: int = 96
    training_epochs: int = 16
    top_k: int = 32
    retrain_every: int = 16
    window_epochs: int = 48
    workers: int = 1
    #: Independent one-subject scans a run streams (seeds derived from ``--seed``).
    datasets: int = 2
    config: FCMAConfig = FCMAConfig(variant="optimized-batched", online_folds=4)

    def inputs(self, seed: int) -> list[RtInputs]:
        out = []
        for k in range(self.datasets):
            cfg = face_scene_scaled(
                n_voxels=self.n_voxels, n_subjects=1, seed=derive_seed(seed, k)
            ).scaled(epochs_per_subject=self.epochs, condition_order="shuffled")
            out.append(RtInputs(generate_dataset(cfg), ground_truth_voxels(cfg)))
        return out

    def session(
        self, inputs: RtInputs, trace: LayerTrace | None = None, wraps: tuple = ()
    ) -> Session:
        scanner = StampedScanner(ScannerSimulator(inputs.dataset, 0))
        session = ClosedLoopSession(
            scanner,  # type: ignore[arg-type]
            self.config,
            training_epochs=self.training_epochs,
            top_k=self.top_k,
            retrain_every=self.retrain_every,
            window_epochs=self.window_epochs,
        )
        session.context.tracer.add_listener(scanner.on_close)
        trace = trace if trace is not None else LayerTrace()

        def selection(a: tuple, _k: dict, scores: Any) -> dict[str, float]:
            return {"auc": selection_auc(scores, inputs.truth), "epochs": len(a[1].epochs)}

        # The session's voxel selections run inside the program; wrapping
        # executor.run (a handful of calls per session) reads their time
        # and output without touching the per-TR path.
        select = Wrap(SELECT_TARGET, "select", selection)
        with wrapped_layers(trace, (select, *wraps)):
            with trace.span("op.session") as root:
                result = session.run()
                scanner.mark()
        selections = [
            (s.seconds, s.counts["auc"], int(s.counts["epochs"])) for s in trace.of("select")
        ]
        return Session(root.seconds, classify_steps(scanner.marks), result, session,
                       selections, scanner.tr_seconds)

    def check(self, run: Session, out: Outcome) -> None:
        """Steps within one TR (except trainings); event count; finiteness."""
        late = [
            kind for kind, s in run.steps
            if not math.isfinite(s) or (kind in ("tr", "close") and s > run.tr_seconds)
        ]
        out.tally.add(
            len(run.steps), len(late), f"{len(late)} steps over the {run.tr_seconds} s TR"
        )
        expected = self.epochs - self.training_epochs
        if len(run.result.events) != expected:
            out.tally.fail_all(
                f"{len(run.result.events)} feedback events, expected {expected}"
            )

    def measure(self, inputs: list[RtInputs], seconds: float) -> Outcome:
        return self._measure(inputs, seconds)[0]

    def _measure(self, inputs: list[RtInputs], seconds: float) -> tuple[Outcome, list[Session]]:
        """One session per scan, then more while the next fits in ``seconds``."""
        out = Outcome()
        runs: list[Session] = []
        begin = perf()
        while True:
            runs.append(self.session(inputs[len(runs) % len(inputs)]))
            if len(runs) >= len(inputs) and perf() - begin + runs[-1].seconds > seconds:
                break
        rss = peak_rss_mb()
        for run in runs:
            self.check(run, out)
        steps = [step for run in runs for step in run.steps]
        by_kind: dict[str, list[float]] = {}
        for kind, s in steps:
            by_kind.setdefault(kind, []).append(s)
        tr = latency_summary(by_kind.get("tr", []))
        close = latency_summary(by_kind.get("close", []))
        # Steady state: the selections on a full window, 4 a session.  The
        # first selections see 16 and 32 epochs and mix sizes into the median.
        full = [
            (s, a) for run in runs for s, a, epochs in run.selections
            if epochs == self.window_epochs
        ]
        selects = [s for s, _ in full]
        aucs = [a for _, a in full]
        out.put("select_s", median(selects), "s", len(selects))
        out.put("peak_rss_mb", rss, "MB")
        out.put("auc", median(aucs), "auc", len(aucs))
        out.put("failed_frac", out.tally.failed_frac, "ratio", out.tally.attempted)
        out.put("tr_p50_ms", tr["p50"], "ms", int(tr["n"]))
        out.put(f"tr_p{tr['tail_q']:g}_ms", tr["tail"], "ms", int(tr["n"]))
        out.put("feedback_p50_ms", close["p50"], "ms", int(close["n"]))
        if "tail" in close:
            out.put(f"feedback_p{close['tail_q']:g}_ms", close["tail"], "ms", int(close["n"]))
        train = by_kind.get("train", [])
        out.put("train_s", median(train), "s", len(train))
        retrain = by_kind.get("retrain", [])
        out.put("retrain_s", median(retrain) if retrain else 0.0, "s", len(retrain))
        accs = [run.result.feedback_accuracy for run in runs]
        out.put("feedback_acc", median(accs), "ratio", sum(len(r.result.events) for r in runs))
        out.put("session_s", median([r.seconds for r in runs]), "s", len(runs))
        return out, runs

    def traced(self, inputs: list[RtInputs], seconds: float) -> Outcome:
        """The untraced measurement, then one traced session on scan 0."""
        out, runs = self._measure(inputs, seconds)
        untraced_s = runs[0].seconds
        trace = LayerTrace()
        run = self.session(inputs[0], trace, PIPELINE_WRAPS + REALTIME_WRAPS)
        root = "op.session"
        pipeline_layer_metrics(out, trace, root)
        ctx = run.session.context
        select_s = sum(s for s, _, _ in run.selections)
        exec_layer_metrics(out, ctx.task_seconds, select_s, 1)
        serial_parallel_metrics(out)

        def med_us(layer: str) -> tuple[float, int]:
            spans = trace.of(layer, root)
            return (median([s.seconds for s in spans]) * 1e6 if spans else 0.0), len(spans)

        for name, layer in (("rtfmri.push_tr_us", "rtfmri.push_tr"),
                            ("rtfmri.partial_us", "rtfmri.partial"),
                            ("rtfmri.classify_us", "rtfmri.classify")):
            value, n = med_us(layer)
            out.put(name, value, "us", n)
        close_us, n_close = med_us("rtfmri.epoch_close")
        fisher_us, _ = med_us("rtfmri.fisher")
        out.put("rtfmri.epoch_close_ms", (close_us + fisher_us) / 1e3, "ms", n_close)
        out.put("analysis.select_s", trace.total("analysis.select", root), "s")
        out.put("analysis.select_calls", trace.calls("analysis.select", root), "count")
        retrains = run.session.retrain_count
        warm = run.result.streaming.warm_started_retrains
        out.put("rtfmri.warm_started_frac", warm / retrains if retrains else 0.0, "ratio")
        trace_metrics(out, trace, [root], untraced_s, run.seconds)
        out.notes.append("all layers: in-process wrappers on one traced session")
        return out


OFFLINE_DENSE = Offline(
    name="dense-serial",
    n_voxels=240,
    config=FCMAConfig(variant="optimized-batched"),
    make_executor=SerialExecutor,
    workers=1,
    auc_floor=0.9,
    gate=_dense_gate,
)

OFFLINE_SPARSE = Offline(
    name="sparse-tcp",
    n_voxels=2400,
    config=FCMAConfig(variant="sparse-batched", top_k=256),
    make_executor=lambda: MasterWorkerExecutor(n_workers=2, transport="tcp"),
    workers=2,
    auc_floor=0.8,
    gate=_sparse_gate,
)

WORKLOADS: dict[str, Any] = {
    wl.name: wl for wl in (OFFLINE_DENSE, OFFLINE_SPARSE, RealTime())
}
