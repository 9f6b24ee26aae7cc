"""Shared observatory fixtures: one real traced+enriched tiny run."""

from __future__ import annotations

import pytest

from repro.core import FCMAConfig
from repro.exec import RunContext, make_executor
from repro.obs.perf import enrich_spans


@pytest.fixture(scope="module")
def traced_ctx(tiny_dataset) -> RunContext:
    """One serial optimized-batched run of the tiny dataset."""
    ctx = RunContext(
        FCMAConfig(
            variant="optimized-batched",
            task_voxels=40,
            target_block=32,
        )
    )
    make_executor("serial").run(tiny_dataset, ctx)
    return ctx


@pytest.fixture(scope="module")
def enriched_spans(traced_ctx):
    """The run's spans with model predictions attached (shared; the
    enrichment is idempotent so per-test re-enrichment is harmless)."""
    spans = traced_ctx.tracer.spans()
    assert enrich_spans(spans) > 0
    return spans
