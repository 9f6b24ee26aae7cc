"""End-to-end trace regression harness: real runs, real spans.

These tests pin the observable contract of a traced run: the span tree
is hierarchical (run -> task -> stage -> kernel), its per-stage totals
are exactly the timings ``RunContext`` reports, the CLI's ``--trace``
output matches the golden schema, and the whole layer costs < 5 % of
wall time.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import FCMAConfig
from repro.data import SyntheticConfig, generate_dataset, save_dataset
from repro.exec import RunContext, make_executor
from repro.obs import SCHEMA, Tracer, build_tree, read_jsonl

GOLDEN = Path(__file__).parent / "golden" / "run_report_schema.json"


@pytest.fixture(scope="module")
def batched_config() -> FCMAConfig:
    return FCMAConfig(
        variant="optimized-batched",
        task_voxels=40,
        target_block=32,
    )


@pytest.fixture(scope="module")
def traced_ctx(tiny_dataset, batched_config) -> RunContext:
    ctx = RunContext(batched_config)
    make_executor("serial").run(tiny_dataset, ctx)
    return ctx


class TestTraceShape:
    def test_single_hierarchical_tree(self, traced_ctx):
        roots = build_tree(traced_ctx.tracer.spans())
        assert len(roots) == 1
        run = roots[0]
        assert run.span.kind == "run"
        assert run.span.attrs["executor"] == "serial"
        tasks = [c for c in run.children if c.span.kind == "task"]
        assert len(tasks) == len(traced_ctx.task_seconds)
        for task in tasks:
            stage_names = [
                c.span.name for c in task.children if c.span.kind == "stage"
            ]
            assert stage_names == [
                "preprocess", "correlate+normalize", "score",
            ]

    def test_kernels_nest_under_stages(self, traced_ctx):
        roots = build_tree(traced_ctx.tracer.spans())
        kernel_names = {
            node.span.name
            for node in roots[0].walk()
            if node.span.kind == "kernel"
        }
        assert {
            "plan_blocks",
            "correlate_normalize_batched",
            "score_voxels",
            "score_batch",
            "smo.solve_batch",
        } <= kernel_names

    def test_every_span_closed_and_within_parent(self, traced_ctx):
        spans = traced_ctx.tracer.spans()
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            assert span.closed
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.t0 <= span.t0
                assert span.t1 <= parent.t1

    def test_solver_iterations_counted(self, traced_ctx):
        agg = traced_ctx.tracer.aggregate(kind="kernel")
        assert agg["smo.solve_batch"]["iterations"] > 0
        assert agg["correlate_normalize_batched"]["bytes_moved"] > 0


class TestTraceMatchesRunContext:
    def test_per_stage_totals_match_timing_report(self, traced_ctx):
        report = traced_ctx.timing_report()
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in traced_ctx.tracer.spans():
            if span.kind != "stage":
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.metrics[
                "wall_seconds"
            ]
            calls[span.name] = calls.get(span.name, 0) + int(
                span.metrics["calls"]
            )
        assert set(totals) == set(report["stages"])
        for name, stats in report["stages"].items():
            assert stats["seconds"] == pytest.approx(totals[name], abs=0.0)
            assert stats["calls"] == calls[name]

    def test_task_seconds_are_task_span_durations(self, traced_ctx):
        task_spans = [
            s for s in traced_ctx.tracer.spans() if s.kind == "task"
        ]
        assert traced_ctx.task_seconds == [
            s.metrics["wall_seconds"] for s in task_spans
        ]

    def test_counters_mirror_span_metrics(self, traced_ctx):
        tiles_in_trace = sum(
            s.metrics.get("ctr.stage12_tiles", 0.0)
            for s in traced_ctx.tracer.spans()
        )
        assert traced_ctx.counter("stage12_tiles") == tiles_in_trace > 0

    def test_stage_time_nests_inside_tasks(self, traced_ctx):
        spans = traced_ctx.tracer.spans()
        by_id = {s.span_id: s for s in spans}
        per_task: dict[int, float] = {}
        for span in spans:
            if span.kind == "stage" and span.parent_id is not None:
                parent = by_id[span.parent_id]
                if parent.kind == "task":
                    per_task[parent.span_id] = (
                        per_task.get(parent.span_id, 0.0) + span.duration
                    )
        assert per_task
        for task_id, stage_total in per_task.items():
            assert stage_total <= by_id[task_id].duration + 1e-9


class TestCliTraceGolden:
    @pytest.fixture(scope="class")
    def dataset_path(self, tiny_dataset, tmp_path_factory) -> str:
        path = tmp_path_factory.mktemp("ds") / "tiny.npz"
        save_dataset(tiny_dataset, path)
        return str(path)

    @pytest.fixture(scope="class")
    def run_output(self, dataset_path, tmp_path_factory):
        trace_path = tmp_path_factory.mktemp("trace") / "out.jsonl"
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main([
                "run", dataset_path,
                "--variant", "optimized-batched",
                "--task-voxels", "40",
                "--json",
                "--trace", str(trace_path),
            ])
        assert code == 0
        return json.loads(buf.getvalue()), trace_path

    def test_report_matches_golden_schema(self, run_output):
        report, _ = run_output
        golden = json.loads(GOLDEN.read_text())
        assert sorted(report) == sorted(golden["report_keys"])
        assert sorted(report["trace"]) == sorted(golden["trace_keys"])
        assert list(report["stages"]) == golden["stage_names"]
        for stats in report["stages"].values():
            assert sorted(stats) == sorted(golden["stage_keys"])

    def test_report_names_the_smo_loop(self, run_output):
        from repro.svm import native

        report, _ = run_output
        expected = "numpy" if native.kernel.get() is None else "native"
        assert report["smo_impl"] == [expected]

    def test_trace_file_matches_golden_schema(self, run_output):
        report, trace_path = run_output
        golden = json.loads(GOLDEN.read_text())
        lines = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line.strip()
        ]
        meta, records = lines[0], lines[1:]
        assert sorted(meta) == sorted(golden["meta_keys"])
        assert meta["schema"] == golden["schema"] == SCHEMA
        assert meta["n_spans"] == len(records) == report["trace"]["n_spans"]
        for record in records:
            assert sorted(record) == sorted(golden["span_record_keys"])
            assert record["kind"] in golden["span_kinds"]

    def test_trace_totals_match_json_report(self, run_output):
        report, trace_path = run_output
        spans = read_jsonl(trace_path)
        totals: dict[str, float] = {}
        for span in spans:
            if span.kind == "stage":
                totals[span.name] = (
                    totals.get(span.name, 0.0)
                    + span.metrics["wall_seconds"]
                )
        for name, stats in report["stages"].items():
            assert stats["seconds"] == pytest.approx(totals[name], abs=0.0)
        assert report["n_spans"] == len(spans)


class TestOverhead:
    @pytest.fixture(scope="class")
    def overhead_dataset(self):
        """A run of ~0.3 s: long enough that a GC pause or a scheduler
        hiccup is well under the 5 % bound (the tiny dataset scores in
        ~25 ms with the native SMO kernel)."""
        return generate_dataset(SyntheticConfig(
            n_voxels=960, n_subjects=4, epochs_per_subject=8,
            epoch_length=12, n_informative=12, n_groups=3, seed=123,
            name="overhead",
        ))

    def test_tracing_costs_under_five_percent(
        self, overhead_dataset, batched_config
    ):
        """Traced vs disabled-tracer wall time on the same run.

        Single-run wall times jitter by more than 5 % on a loaded box,
        so no min-of-N comparison of independent samples can resolve a
        5 % bound.  Pairing does: each traced run is compared against
        the baseline run adjacent to it in time, so load drift cancels
        within the pair, and the *median* paired difference is immune
        to the occasional scheduler spike that skews means and mins.
        Fifteen pairs keep that median's own spread well inside the
        bound on a shared box.
        """
        def run_once(enabled: bool) -> float:
            ctx = RunContext(
                batched_config, tracer=Tracer(enabled=enabled)
            )
            t0 = time.perf_counter()
            make_executor("serial").run(overhead_dataset, ctx)
            return time.perf_counter() - t0

        run_once(True)  # warm caches (BLAS threads, preprocessing)
        pairs = [(run_once(False), run_once(True)) for _ in range(15)]
        baseline = statistics.median(b for b, _ in pairs)
        overhead = statistics.median(t - b for b, t in pairs)
        assert overhead <= baseline * 0.05, (
            f"tracing overhead {overhead / baseline:.1%} exceeds 5% "
            f"(median paired diff {overhead:.4f}s on a "
            f"{baseline:.4f}s baseline)"
        )

    def test_span_cost_is_microseconds(self):
        """A raw open/close pair must stay in the microsecond range, so
        per-kernel spans are safe even on millisecond kernels."""
        tracer = Tracer()
        n = 2000
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("k", kind="kernel"):
                pass
        per_span = (time.perf_counter() - t0) / n
        assert per_span < 5e-5
        assert len(tracer) == n
