"""Outside-in layer tracing: wrap a layer's public function, time it.

The benchmark measures layers without touching ``src/``: for a traced
run it replaces a module (or class) attribute with a wrapper that opens
a span around every call, and puts the original back afterwards.  A
function is wrapped *where its caller looks it up* (e.g.
``solve_smo_batch`` as bound in ``repro.svm.phisvm``), so the wrapper
sees exactly the calls the pipeline makes.

Spans nest by call order on one thread; a layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

#: Extracts counts from a wrapped call: ``(args, kwargs, result) -> {name: value}``.
Extractor = Callable[[tuple[Any, ...], dict[str, Any], Any], dict[str, float]]


@dataclass
class Span:
    name: str
    t0: float
    t1: float = 0.0
    parent: int | None = None
    #: Name of the outermost span this one runs under (itself for a root).
    root: str = ""
    counts: dict[str, float] = field(default_factory=dict)
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class LayerTrace:
    """In-memory span recorder for the benchmark's wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent].root if parent is not None else name
        record = Span(name, self.clock(), parent=parent, root=root)
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.t1 = self.clock()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_seconds += record.seconds

    # -- aggregates ---------------------------------------------------------

    def of(self, name: str, root: str | None = None) -> list[Span]:
        """Spans of one layer, optionally only those under root ``root``."""
        return [
            s for s in self.spans
            if s.name == name and (root is None or s.root == root)
        ]

    def total(self, name: str, root: str | None = None) -> float:
        return sum(s.seconds for s in self.of(name, root))

    def self_total(self, name: str, root: str | None = None) -> float:
        return sum(s.self_seconds for s in self.of(name, root))

    def calls(self, name: str, root: str | None = None) -> int:
        return len(self.of(name, root))

    def count(self, name: str, key: str, root: str | None = None) -> float:
        return sum(s.counts.get(key, 0.0) for s in self.of(name, root))

    def attribution(self, roots: Sequence[str]) -> tuple[float, float]:
        """``(wall, unattributed)`` seconds over the named root spans.

        The unattributed part of a root is its self time: wall time no
        wrapped layer covered.
        """
        wall = unattributed = 0.0
        for name in roots:
            for s in self.of(name):
                wall += s.seconds
                unattributed += s.self_seconds
        return wall, unattributed


def resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:attr"`` or ``"pkg.mod:Class.attr"`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@dataclass(frozen=True)
class Wrap:
    """One wrapped layer entry point."""

    #: ``"module:attr"`` or ``"module:Class.method"``, as the caller binds it.
    target: str
    #: Layer span name, e.g. ``"svm.smo"``.
    layer: str
    extract: Extractor | None = None


def _wrapper(trace: LayerTrace, fn: Callable[..., Any], wrap: Wrap) -> Callable[..., Any]:
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        with trace.span(wrap.layer) as span:
            result = fn(*args, **kwargs)
        # Counted after the span closes, so counting is not timed as the layer.
        if wrap.extract is not None:
            for key, value in wrap.extract(args, kwargs, result).items():
                span.counts[key] = span.counts.get(key, 0.0) + float(value)
        return result

    return wrapped


@contextmanager
def wrapped_layers(trace: LayerTrace, wraps: Sequence[Wrap]) -> Iterator[LayerTrace]:
    """Install every wrapper for the block; restore the originals after.

    Originals are taken from the owner's ``__dict__`` so methods and
    module functions come back as the very object that was there
    before, even if the block raises.
    """
    with ExitStack() as stack:
        for wrap in wraps:
            owner, attr = resolve(wrap.target)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrapper(trace, getattr(owner, attr), wrap))
            stack.callback(setattr, owner, attr, original)
        yield trace
