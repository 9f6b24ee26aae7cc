"""Unified execution core: stage graph, RunContext, pluggable executors.

This package is the single seam every FCMA entry point runs through:

* :mod:`repro.exec.partition` — the one task-partitioning helper;
* :mod:`repro.exec.context` — :class:`RunContext`, the shared carrier of
  config, seeds, hardware model, and per-stage instrumentation;
* :mod:`repro.exec.stage_graph` — the pipeline as explicit stage nodes
  with typed inputs/outputs;
* :mod:`repro.exec.registry` — named SVM backends and pipeline variants;
* :mod:`repro.exec.executors` — serial, process-pool, and master-worker
  executors producing bitwise-identical results from one task stream.

Exports resolve lazily (PEP 562): ``repro.parallel`` imports
``repro.exec.partition`` while ``repro.exec.executors`` imports
``repro.parallel`` back, and laziness keeps that cycle unwound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import RunContext, StageStats, StageTimer
    from .executors import (
        EXECUTOR_NAMES,
        Executor,
        MasterWorkerExecutor,
        ProcessPoolExecutor,
        SerialExecutor,
        make_executor,
        predicted_schedule,
    )
    from .partition import (
        auto_chunksize,
        n_tasks,
        partition_rows_by_nnz,
        partition_tasks,
    )
    from .registry import (
        available_backends,
        available_variants,
        backend_factory,
        create_backend,
        graph_builder,
        register_backend,
        register_variant,
    )
    from .stage_graph import (
        Stage,
        StageGraph,
        StageGraphError,
        baseline_graph,
        build_graph,
        execute_task,
        optimized_batched_graph,
        sparse_batched_graph,
    )

_EXPORTS = {
    "RunContext": "context",
    "StageStats": "context",
    "StageTimer": "context",
    "EXECUTOR_NAMES": "executors",
    "Executor": "executors",
    "MasterWorkerExecutor": "executors",
    "ProcessPoolExecutor": "executors",
    "SerialExecutor": "executors",
    "make_executor": "executors",
    "predicted_schedule": "executors",
    "auto_chunksize": "partition",
    "n_tasks": "partition",
    "partition_rows_by_nnz": "partition",
    "partition_tasks": "partition",
    "available_backends": "registry",
    "available_variants": "registry",
    "backend_factory": "registry",
    "create_backend": "registry",
    "graph_builder": "registry",
    "register_backend": "registry",
    "register_variant": "registry",
    "Stage": "stage_graph",
    "StageGraph": "stage_graph",
    "StageGraphError": "stage_graph",
    "baseline_graph": "stage_graph",
    "build_graph": "stage_graph",
    "execute_task": "stage_graph",
    "optimized_batched_graph": "stage_graph",
    "sparse_batched_graph": "stage_graph",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
