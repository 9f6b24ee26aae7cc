"""Counter enrichment of real traces and the kernel->model mapping."""

from __future__ import annotations

import pytest

from repro.data import FACE_SCENE
from repro.hw import E5_2670, PHI_5110P
from repro.obs.perf import (
    MODELED_KERNELS,
    TraceGeometry,
    default_hardware,
    enrich_spans,
    geometry_from_spans,
    predict_kernel,
)
from repro.obs.span import Span


class TestTraceGeometry:
    def test_recovered_from_run_span(self, enriched_spans):
        geometry = geometry_from_spans(enriched_spans)
        assert geometry == TraceGeometry(
            n_voxels=60, n_subjects=4, n_epochs=32,
            epoch_length=12, name="tiny",
        )

    def test_spec_round_trip(self):
        spec = TraceGeometry(
            n_voxels=60, n_subjects=4, n_epochs=32, epoch_length=12
        ).spec()
        assert spec.n_voxels == 60
        assert spec.epochs_per_subject == 8

    def test_indivisible_epochs_raise(self):
        with pytest.raises(ValueError):
            TraceGeometry(
                n_voxels=60, n_subjects=3, n_epochs=32, epoch_length=12
            ).spec()

    def test_incomplete_attrs_are_none(self):
        assert TraceGeometry.from_attrs({"n_voxels": 60}) is None

    def test_from_dataset(self, tiny_dataset):
        geometry = TraceGeometry.from_dataset(tiny_dataset)
        assert geometry.n_voxels == tiny_dataset.n_voxels
        assert geometry.name == "tiny"


class TestEnrichSpans:
    def test_real_run_kernels_gain_predictions(self, enriched_spans):
        enriched = [
            s for s in enriched_spans
            if s.kind == "kernel" and "predicted_seconds" in s.metrics
        ]
        assert enriched
        names = {s.name for s in enriched}
        assert "correlate_normalize_batched" in names
        assert "score_voxels" in names
        for span in enriched:
            assert span.metrics["predicted_seconds"] > 0
            assert span.metrics["pc.flops"] > 0
            assert span.metrics["pc.l2_misses"] > 0
            assert span.metrics["predicted_gflops"] > 0
            # Measured time still there, side by side.
            assert "wall_seconds" in span.metrics

    def test_unmodeled_kernels_left_alone(self, enriched_spans):
        planners = [s for s in enriched_spans if s.name == "plan_blocks"]
        assert planners
        for span in planners:
            assert "predicted_seconds" not in span.metrics

    def test_idempotent(self, enriched_spans):
        assert enrich_spans(enriched_spans) == 0

    def test_no_geometry_enriches_nothing(self):
        spans = [
            Span(span_id=0, name="fcma", kind="run", t0=0.0, t1=1.0),
            Span(
                span_id=1, name="score_voxels", kind="kernel",
                t0=0.0, t1=1.0, parent_id=0,
                metrics={"voxels": 60.0},
            ),
        ]
        assert enrich_spans(spans) == 0

    def test_explicit_geometry_on_bare_spans(self):
        spans = [
            Span(span_id=0, name="fcma", kind="run", t0=0.0, t1=1.0),
            Span(
                span_id=1, name="score_voxels", kind="kernel",
                t0=0.0, t1=1.0, parent_id=0,
                metrics={"voxels": 60.0},
            ),
        ]
        geometry = TraceGeometry(
            n_voxels=60, n_subjects=4, n_epochs=32, epoch_length=12
        )
        assert enrich_spans(spans, geometry=geometry) == 1
        assert spans[1].metrics["predicted_seconds"] > 0

    def test_invalid_geometry_enriches_nothing(self):
        spans = [
            Span(span_id=0, name="fcma", kind="run", t0=0.0, t1=1.0),
        ]
        geometry = TraceGeometry(
            n_voxels=60, n_subjects=3, n_epochs=32, epoch_length=12
        )
        assert enrich_spans(spans, geometry=geometry) == 0

    def test_voxels_resolved_from_enclosing_task(self):
        # normalize_separated carries no per-span voxel metric; the
        # enclosing task's n_voxels must supply it.
        spans = [
            Span(span_id=0, name="fcma", kind="run", t0=0.0, t1=1.0),
            Span(
                span_id=1, name="task0", kind="task", t0=0.0, t1=1.0,
                parent_id=0, attrs={"n_voxels": 30},
            ),
            Span(
                span_id=2, name="normalize_separated", kind="kernel",
                t0=0.0, t1=1.0, parent_id=1,
            ),
        ]
        geometry = TraceGeometry(
            n_voxels=60, n_subjects=4, n_epochs=32, epoch_length=12
        )
        assert enrich_spans(spans, geometry=geometry, variant="baseline") == 1
        assert spans[2].metrics["predicted_seconds"] > 0


class TestPredictKernel:
    def test_every_modeled_kernel_predicts(self):
        for name in MODELED_KERNELS:
            predicted = predict_kernel(name, FACE_SCENE, 120, E5_2670)
            assert predicted is not None, name
            counters, seconds = predicted
            assert seconds > 0
            assert counters.flops > 0

    def test_unknown_kernel_is_none(self):
        assert predict_kernel("plan_blocks", FACE_SCENE, 120, E5_2670) is None

    def test_zero_voxels_is_none(self):
        assert (
            predict_kernel("score_voxels", FACE_SCENE, 0, E5_2670) is None
        )

    def test_variant_selects_svm_backend(self):
        base = predict_kernel(
            "score_voxels", FACE_SCENE, 120, PHI_5110P, variant="baseline"
        )
        opt = predict_kernel(
            "score_voxels", FACE_SCENE, 120, PHI_5110P,
            variant="optimized-batched",
        )
        # LibSVM on the coprocessor is the paper's pathological case:
        # the optimized pairing must be predicted far faster.
        assert base[1] > opt[1]

    def test_merged_kernel_sums_its_parts(self):
        """A full-width 2-D tile is the blocked gemm plus the merged
        normalization of its rows, nothing else."""
        from repro.perf import model_correlation_matmul, model_normalization

        counters, seconds = predict_kernel(
            "correlate_normalize_tile2d", FACE_SCENE, 120, E5_2670,
            cols=FACE_SCENE.n_voxels,
        )
        corr = model_correlation_matmul(FACE_SCENE, 120, E5_2670, "ours")
        norm = model_normalization(FACE_SCENE, 120, E5_2670, "merged")
        assert seconds == pytest.approx(corr.seconds + norm.seconds)
        assert counters.flops == pytest.approx(
            corr.counters.flops + norm.counters.flops
        )

    def test_default_hardware_is_the_xeon_host(self):
        assert default_hardware() is E5_2670


class TestIncrementalSpans:
    """Streaming kernel spans from the rtfmri loop enrich correctly."""

    def _spans(self):
        return [
            Span(span_id=0, name="fcma", kind="run", t0=0.0, t1=1.0),
            Span(
                span_id=1, name="incremental_epoch_close", kind="kernel",
                t0=0.0, t1=0.1, parent_id=0,
                metrics={"voxels": 20.0, "trs": 12.0},
            ),
            Span(
                span_id=2, name="incremental_tr_update", kind="kernel",
                t0=0.1, t1=0.2, parent_id=0,
                metrics={"voxels": 20.0, "calls": 100.0},
            ),
        ]

    def _geometry(self):
        return TraceGeometry(
            n_voxels=60, n_subjects=4, n_epochs=32, epoch_length=12
        )

    def test_both_streaming_kernels_enrich(self):
        spans = self._spans()
        assert enrich_spans(spans, geometry=self._geometry()) == 2
        for span in spans[1:]:
            assert span.metrics["predicted_seconds"] > 0
            assert span.metrics["pc.flops"] > 0

    def test_aggregate_update_span_scales_by_calls(self):
        one, many = self._spans(), self._spans()
        many[2].metrics["calls"] = 1000.0
        one[2].metrics["calls"] = 1.0
        assert enrich_spans(one, geometry=self._geometry()) == 2
        assert enrich_spans(many, geometry=self._geometry()) == 2
        ratio = (
            many[2].metrics["predicted_seconds"]
            / one[2].metrics["predicted_seconds"]
        )
        assert ratio == pytest.approx(1000.0)
        assert many[2].metrics["pc.flops"] == pytest.approx(
            1000.0 * one[2].metrics["pc.flops"]
        )

    def test_epoch_close_uses_recorded_trs(self):
        short, long = self._spans(), self._spans()
        long[1].metrics["trs"] = 120.0
        assert enrich_spans(short, geometry=self._geometry()) == 2
        assert enrich_spans(long, geometry=self._geometry()) == 2
        # Ten times the TRs -> ten times the boundary gemm FLOPs.
        assert long[1].metrics["pc.flops"] == pytest.approx(
            10.0 * short[1].metrics["pc.flops"]
        )
