"""Registries for SVM backends and pipeline variants.

These replace the ``Literal`` string dispatch that used to live in
``repro.core.pipeline``: third-party code registers a backend factory or
a stage-graph builder under a name, and every entry point — config
validation, ``make_backend``, the executors, the CLI — resolves through
the same tables without editing core.

The paper's own choices are pre-seeded: backends ``phisvm``, ``libsvm``
and ``libsvm-float32``; variants ``baseline``, ``optimized-batched``
and ``sparse-batched`` (their graph builders live in
:mod:`repro.exec.stage_graph` and self-register on import, which
:func:`graph_builder` triggers lazily to keep the import graph acyclic).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import FCMAConfig
    from ..svm.cross_validation import KernelBackend
    from .stage_graph import StageGraph

__all__ = [
    "available_backends",
    "available_variants",
    "backend_factory",
    "create_backend",
    "graph_builder",
    "register_backend",
    "register_variant",
]

#: name -> factory building a (multiclass-wrapped) backend from a config.
BackendFactory = Callable[["FCMAConfig"], "KernelBackend"]
#: name -> builder producing the variant's stage graph from a config.
GraphBuilder = Callable[["FCMAConfig"], "StageGraph"]


def _phisvm(config: "FCMAConfig") -> "KernelBackend":
    from ..svm.multiclass import as_multiclass
    from ..svm.phisvm import PhiSVM

    return as_multiclass(PhiSVM(c=config.svm_c, tol=config.svm_tol))


def _libsvm(config: "FCMAConfig") -> "KernelBackend":
    from ..svm.libsvm_like import LibSVMClassifier
    from ..svm.multiclass import as_multiclass

    return as_multiclass(LibSVMClassifier(c=config.svm_c, tol=config.svm_tol))


def _libsvm_float32(config: "FCMAConfig") -> "KernelBackend":
    from ..svm.libsvm_like import LibSVMClassifier
    from ..svm.multiclass import as_multiclass

    return as_multiclass(
        LibSVMClassifier(c=config.svm_c, tol=config.svm_tol, single_precision=True)
    )


_BACKENDS: dict[str, BackendFactory] = {
    "phisvm": _phisvm,
    "libsvm": _libsvm,
    "libsvm-float32": _libsvm_float32,
}

#: Variant builders; the built-ins self-register when stage_graph loads.
_VARIANTS: dict[str, GraphBuilder] = {}
#: Names config validation accepts even before stage_graph has loaded.
_BUILTIN_VARIANTS = ("baseline", "optimized-batched", "sparse-batched")


def register_backend(
    name: str, factory: BackendFactory, *, overwrite: bool = False
) -> None:
    """Register an SVM backend under ``name``.

    The factory receives the run's ``FCMAConfig`` and returns any object
    satisfying the :class:`~repro.svm.cross_validation.KernelBackend`
    protocol (wrap with ``as_multiclass`` for >2 conditions).
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    if not overwrite and name in _BACKENDS:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = factory


def register_variant(
    name: str, builder: GraphBuilder, *, overwrite: bool = False
) -> None:
    """Register a pipeline variant's stage-graph builder under ``name``."""
    if not name:
        raise ValueError("variant name must be non-empty")
    if not overwrite and name in _VARIANTS:
        raise ValueError(f"variant {name!r} is already registered")
    _VARIANTS[name] = builder


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def available_variants() -> tuple[str, ...]:
    """Registered variant names, sorted (built-ins always included)."""
    return tuple(sorted(set(_VARIANTS) | set(_BUILTIN_VARIANTS)))


def backend_factory(name: str) -> BackendFactory:
    """The factory registered under ``name``; KeyError lists options."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown svm backend {name!r}; registered: "
            f"{', '.join(available_backends())}"
        ) from None


def create_backend(config: "FCMAConfig") -> "KernelBackend":
    """Instantiate the config's (variant-resolved) SVM backend."""
    return backend_factory(config.resolved_backend())(config)


def graph_builder(name: str) -> GraphBuilder:
    """The stage-graph builder for a variant name.

    Importing :mod:`repro.exec.stage_graph` here (not at module import)
    lets core config validation consult this registry without creating
    an import cycle through the stage bodies.
    """
    if name in _BUILTIN_VARIANTS and name not in _VARIANTS:
        from . import stage_graph  # noqa: F401  (self-registers built-ins)
    try:
        return _VARIANTS[name]
    except KeyError:
        raise KeyError(
            f"unknown pipeline variant {name!r}; registered: "
            f"{', '.join(available_variants())}"
        ) from None


def _reset_to_defaults() -> None:
    """Test hook: drop third-party registrations."""
    _BACKENDS.clear()
    _BACKENDS.update(
        {"phisvm": _phisvm, "libsvm": _libsvm, "libsvm-float32": _libsvm_float32}
    )
    for name in [n for n in _VARIANTS if n not in _BUILTIN_VARIANTS]:
        del _VARIANTS[name]
