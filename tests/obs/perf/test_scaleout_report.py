"""Enrichment + report of 2-D tiled traces (the scale-out observatory)."""

from __future__ import annotations

import pytest

from repro.core import FCMAConfig
from repro.data import FACE_SCENE
from repro.exec import RunContext, make_executor
from repro.hw import E5_2670
from repro.obs.perf import (
    MODELED_KERNELS,
    enrich_spans,
    format_perf_report,
    format_scaleout_section,
    predict_kernel,
)
from repro.perf import (
    GIGABIT_ETHERNET,
    model_correlation_matmul,
    model_kernel_syrk,
    model_normalization,
    model_svm_cv,
)


@pytest.fixture(scope="module")
def tiled_spans(tiny_dataset):
    """One tiled thread-transport run of the tiny dataset, enriched."""
    ctx = RunContext(
        FCMAConfig(task_voxels=40, target_block=32)
    )
    executor = make_executor(
        "master-worker", n_workers=2, transport="thread", partition="tiles"
    )
    executor.run(tiny_dataset, ctx)
    spans = ctx.tracer.spans()
    assert enrich_spans(spans) > 0
    return spans


class TestTileKernelEnrichment:
    def test_tile_kernels_are_modeled(self):
        assert "correlate_normalize_tile2d" in MODELED_KERNELS
        assert "score_panel" in MODELED_KERNELS

    def test_tile_spans_gain_predictions(self, tiled_spans):
        tiles = [
            s
            for s in tiled_spans
            if s.kind == "kernel" and s.name == "correlate_normalize_tile2d"
        ]
        assert tiles
        for span in tiles:
            assert span.metrics["predicted_seconds"] > 0
            assert span.metrics["pc.flops"] > 0

    def test_score_panel_spans_gain_predictions(self, tiled_spans):
        panels = [
            s
            for s in tiled_spans
            if s.kind == "kernel" and s.name == "score_panel"
        ]
        assert panels
        for span in panels:
            assert span.metrics["predicted_seconds"] > 0

    def test_tile_prediction_scales_with_column_extent(self):
        spec = FACE_SCENE
        full = predict_kernel(
            "correlate_normalize_tile2d", spec, 400, E5_2670,
            cols=spec.n_voxels,
        )
        half = predict_kernel(
            "correlate_normalize_tile2d", spec, 400, E5_2670,
            cols=spec.n_voxels // 2,
        )
        assert full is not None and half is not None
        assert half[1] == pytest.approx(full[1] / 2, rel=1e-6)

    def test_full_width_tile_matches_blocked_merge_models(self):
        predicted = predict_kernel(
            "correlate_normalize_tile2d", FACE_SCENE, 400, E5_2670,
            cols=FACE_SCENE.n_voxels,
        )
        assert predicted is not None
        expected = (
            model_correlation_matmul(FACE_SCENE, 400, E5_2670, "ours").seconds
            + model_normalization(FACE_SCENE, 400, E5_2670, "merged").seconds
        )
        assert predicted[1] == pytest.approx(expected)

    def test_score_panel_matches_score_voxels(self):
        panel = predict_kernel("score_panel", FACE_SCENE, 400, E5_2670)
        voxels = predict_kernel("score_voxels", FACE_SCENE, 400, E5_2670)
        assert panel is not None and voxels is not None
        assert panel[1] == pytest.approx(voxels[1])

    def test_score_panel_variant_selects_backend(self):
        opt = predict_kernel("score_panel", FACE_SCENE, 400, E5_2670)
        base = predict_kernel(
            "score_panel", FACE_SCENE, 400, E5_2670, variant="baseline"
        )
        assert base is not None and opt is not None
        assert (
            model_kernel_syrk(FACE_SCENE, 400, E5_2670, "mkl").seconds
            + model_svm_cv(FACE_SCENE, 400, E5_2670, "libsvm").seconds
        ) == pytest.approx(base[1])
        assert base[1] != pytest.approx(opt[1])


class TestScaleoutSection:
    def test_section_renders_for_tiled_trace(self, tiled_spans):
        section = format_scaleout_section(tiled_spans)
        assert section is not None
        assert "scale-out wire model" in section
        assert "tile transfer(s)" in section
        assert "panel transfer(s)" in section
        assert "predicted strong scaling" in section

    def test_section_absent_without_tile_spans(self, tiny_dataset):
        ctx = RunContext(
            FCMAConfig(task_voxels=40, target_block=32)
        )
        make_executor("serial").run(tiny_dataset, ctx)
        assert format_scaleout_section(ctx.tracer.spans()) is None

    def test_explicit_interconnect_named_in_header(self, tiled_spans):
        section = format_scaleout_section(tiled_spans, net=GIGABIT_ETHERNET)
        assert section is not None
        assert "gigabit-ethernet" in section

    def test_full_report_includes_section(self, tiled_spans):
        report = format_perf_report(tiled_spans)
        assert "correlate_normalize_tile2d" in report
        assert "scale-out wire model" in report

    def test_slower_fabric_predicts_more_wire_time(self, tiled_spans):
        from repro.perf import IN_PROCESS

        fast = format_scaleout_section(tiled_spans, net=IN_PROCESS)
        slow = format_scaleout_section(tiled_spans, net=GIGABIT_ETHERNET)
        assert fast is not None and slow is not None

        def wire_ms(section: str) -> float:
            line = next(
                ln for ln in section.splitlines() if "tile transfer" in ln
            )
            return float(line.split()[-3])

        assert wire_ms(slow) > wire_ms(fast)
