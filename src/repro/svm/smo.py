"""Sequential Minimal Optimization (SMO) for the SVM dual problem.

This is the solver both SVM backends share.  It solves the standard
C-SVC dual

    min_a  (1/2) a^T Q a - e^T a
    s.t.   0 <= a_i <= C,   y^T a = 0,        Q_ij = y_i y_j K_ij

by repeatedly picking a *working set* of two variables (the heuristics
live in :mod:`repro.svm.heuristics`) and solving the two-variable
subproblem analytically, exactly as LibSVM does (Platt's SMO with the
Keerthi et al. / Fan et al. selection rules the paper cites).

Kernels are supplied either as a dense precomputed matrix (the paper's
optimized pipeline, where an ``ssyrk``-style stage produces the linear
kernel before cross-validation) or as any object satisfying
:class:`KernelOracle` (the LibSVM-like backend computes rows on demand
through an LRU cache, as LibSVM itself does).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Protocol, TypeVar, runtime_checkable

import numpy as np

from ..obs.runtime import kernel_span
from .heuristics import SelectionState, WorkingSetSelector, SecondOrderSelector

__all__ = [
    "KernelOracle",
    "DenseKernel",
    "SMOResult",
    "solve_smo",
    "BatchSMOResult",
    "solve_smo_batch",
]

#: Lower bound used in place of a non-positive second derivative
#: (LibSVM's TAU).
_TAU = 1e-12

_F = TypeVar("_F", bound=Callable[..., Any])


def _traced(
    name: str,
    metrics: Callable[[Any], dict[str, float]],
    attrs: Callable[[Any], dict[str, Any]] | None = None,
) -> Callable[[_F], _F]:
    """Record a solve as a kernel span on the ambient tracer, if any.

    The span only exists when a :class:`~repro.obs.tracer.Tracer` is
    ambient (i.e. the solve runs under an open run/task span), so
    library callers pay nothing.
    """

    def deco(fn: _F) -> _F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with kernel_span(name) as span:
                result = fn(*args, **kwargs)
                if span is not None:
                    for mname, value in metrics(result).items():
                        span.add_metric(mname, value)
                    if attrs is not None:
                        span.attrs.update(attrs(result))
                return result

        return wrapper  # type: ignore[return-value]

    return deco


@runtime_checkable
class KernelOracle(Protocol):
    """Row-wise access to a (possibly virtual) kernel matrix."""

    @property
    def shape(self) -> tuple[int, int]: ...

    @property
    def dtype(self) -> np.dtype: ...

    def row(self, i: int) -> np.ndarray:
        """Kernel row ``K[i, :]`` as a 1D array."""
        ...

    def diagonal(self) -> np.ndarray:
        """Kernel diagonal ``K[i, i]`` as a 1D array."""
        ...


class DenseKernel:
    """KernelOracle over a dense in-memory matrix."""

    def __init__(self, kernel: np.ndarray):
        kernel = np.asarray(kernel)
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
            raise ValueError(f"kernel must be square, got shape {kernel.shape}")
        if not np.issubdtype(kernel.dtype, np.floating):
            kernel = kernel.astype(np.float64)
        self._k = kernel

    @property
    def shape(self) -> tuple[int, int]:
        return self._k.shape  # type: ignore[return-value]

    @property
    def dtype(self) -> np.dtype:
        return self._k.dtype

    def row(self, i: int) -> np.ndarray:
        return self._k[i]

    def diagonal(self) -> np.ndarray:
        return np.ascontiguousarray(np.diagonal(self._k))


@dataclass(frozen=True)
class SMOResult:
    """Output of one SMO solve."""

    #: Dual coefficients, shape (n_samples,), in the kernel dtype.
    alpha: np.ndarray
    #: Offset rho; the decision function is ``K @ (alpha * y) - rho``.
    rho: float
    #: Number of working-set iterations performed.
    iterations: int
    #: Whether the duality-gap stopping criterion was met.
    converged: bool
    #: Final dual objective value (1/2 a^T Q a - e^T a).
    objective: float
    #: Per-iteration KKT violation gaps (for convergence-rate studies).
    gap_history: np.ndarray
    #: Number of shrink passes that removed at least one variable.
    shrink_events: int = 0
    #: Smallest active-set size reached (== n without shrinking).
    min_active: int = 0


def _calculate_rho(
    y: np.ndarray, grad: np.ndarray, alpha: np.ndarray, c: float
) -> float:
    """LibSVM's rho: mean of y*G over free SVs, else midpoint of bounds."""
    yg = y * grad
    free = (alpha > 0.0) & (alpha < c)
    if free.any():
        return float(yg[free].mean())
    upper = ((y > 0) & (alpha <= 0.0)) | ((y < 0) & (alpha >= c))
    lower = ((y > 0) & (alpha >= c)) | ((y < 0) & (alpha <= 0.0))
    ub = float(yg[upper].min()) if upper.any() else np.inf
    lb = float(yg[lower].max()) if lower.any() else -np.inf
    if not np.isfinite(ub) and not np.isfinite(lb):
        return 0.0
    if not np.isfinite(ub):
        return lb
    if not np.isfinite(lb):
        return ub
    return (ub + lb) / 2.0


@_traced("smo.solve", lambda r: {"iterations": float(r.iterations)})
def solve_smo(
    kernel: np.ndarray | KernelOracle,
    y: np.ndarray,
    c: float = 1.0,
    tol: float = 1e-3,
    max_iter: int | None = None,
    selector: WorkingSetSelector | None = None,
    shrinking: bool = False,
    alpha0: np.ndarray | None = None,
) -> SMOResult:
    """Solve the C-SVC dual.

    Parameters
    ----------
    kernel:
        Symmetric PSD kernel: a dense ``(n, n)`` array or a
        :class:`KernelOracle`.  The solve runs in the kernel's floating
        dtype (float32 for PhiSVM, float64 for the LibSVM-like backend).
    y:
        Labels in {-1, +1}, shape ``(n,)``.
    c:
        Box constraint.
    tol:
        Stop when the maximal KKT violation ``m(a) - M(a)`` drops below
        this (LibSVM's ``eps``, default 1e-3).
    max_iter:
        Iteration cap; defaults to ``max(10_000, 100 * n)`` like LibSVM.
    selector:
        Working-set heuristic; defaults to second-order (LibSVM's WSS2).
    shrinking:
        Enable LibSVM's shrinking heuristic: variables pinned at a bound
        and violating no KKT condition are periodically removed from the
        selectors' working set (LibSVM's ``-h 1``).  When the shrunk
        problem converges, optimality is re-verified on the full set and
        solving resumes if any shrunk variable still violates — so the
        returned solution is identical to the unshrunk one.  (This
        implementation keeps the full gradient up to date each
        iteration, so shrinking here models the *algorithm*; the memory
        -traffic savings it buys native LibSVM are captured by the perf
        models, not by numpy wall time.)
    alpha0:
        Optional warm start, shape ``(n,)``: the dual variables to
        resume from (e.g. a previous solve on a superset of the same
        data, padded with zeros for new samples).  Must be feasible —
        inside ``[0, C]`` and satisfying ``y @ alpha0 == 0`` — because
        SMO's two-variable steps preserve the equality constraint rather
        than restore it.  The gradient is rebuilt from the kernel rows
        of the nonzero entries, so a warm start costs ``O(nnz(alpha0)
        * n)`` up front and typically repays it in far fewer working-set
        iterations.  The converged solution is identical either way
        (same optimum, up to the stopping tolerance).
    """
    oracle: KernelOracle
    if isinstance(kernel, np.ndarray) or not isinstance(kernel, KernelOracle):
        oracle = DenseKernel(np.asarray(kernel))
    else:
        oracle = kernel
    n = oracle.shape[0]
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError(f"y must have shape ({n},), got {y.shape}")
    if not np.isin(y, (-1, 1)).all():
        raise ValueError("labels must be -1 or +1")
    if c <= 0:
        raise ValueError("C must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    dtype = np.dtype(oracle.dtype)
    if max_iter is None:
        max_iter = max(10_000, 100 * n)
    if selector is None:
        selector = SecondOrderSelector()

    yf = y.astype(dtype)
    alpha = np.zeros(n, dtype=dtype)
    grad = np.full(n, -1.0, dtype=dtype)  # G = Q alpha - e at alpha = 0
    if alpha0 is not None:
        a0 = np.asarray(alpha0, dtype=dtype)
        if a0.shape != (n,):
            raise ValueError(f"alpha0 must have shape ({n},), got {a0.shape}")
        if (a0 < 0).any() or (a0 > c).any():
            raise ValueError("alpha0 must lie in [0, C]")
        residual = float(yf @ a0)
        if abs(residual) > 1e-6 * max(1.0, float(np.abs(a0).sum())):
            raise ValueError(
                "alpha0 violates the equality constraint y @ alpha == 0 "
                f"(residual {residual:g}); pad new samples with zeros "
                "instead of dropping old ones"
            )
        alpha[:] = a0
        # Rebuild G = Q alpha - e from the rows alpha touches.
        for k in np.flatnonzero(alpha):
            grad += (yf[k] * alpha[k]) * (yf * oracle.row(k).astype(dtype))
    diag = oracle.diagonal().astype(dtype)
    cval = float(c)
    gaps: list[float] = []
    converged = False
    it = 0

    active = np.ones(n, dtype=bool)
    state = SelectionState(
        kernel_row=oracle.row,
        y=yf,
        alpha=alpha,
        grad=grad,
        diag=diag,
        c=cval,
        active=active if shrinking else None,
    )
    shrink_interval = min(n, 1000)
    shrink_events = 0
    min_active = n

    def maybe_shrink() -> None:
        """LibSVM''s be_shrunk rule over the current active set."""
        nonlocal shrink_events, min_active
        i_up, i_low = state.masks()
        minus_yg = -(yf * grad)
        if not i_up.any() or not i_low.any():
            return
        gmax1 = float(np.max(np.where(i_up, minus_yg, -np.inf)))
        gmax2 = float(np.max(np.where(i_low, yf * grad, -np.inf)))
        at_upper = alpha >= cval
        at_lower = alpha <= 0.0
        pos = yf > 0
        # be_shrunk: bounded variables whose gradient says they will
        # stay bounded near the optimum.
        shrunk_upper = at_upper & np.where(pos, -grad > gmax1, -grad > gmax2)
        shrunk_lower = at_lower & np.where(pos, grad > gmax2, grad > gmax1)
        removable = active & (shrunk_upper | shrunk_lower)
        if removable.any():
            active[removable] = False
            shrink_events += 1
            min_active = min(min_active, int(active.sum()))

    while it < max_iter:
        i, j, gap = selector.select(state)
        if shrinking and gap < tol and not active.all():
            # Shrunk problem converged: re-verify on the full set.
            active[:] = True
            i, j, gap = selector.select(state)
        gaps.append(gap)
        if gap < tol:
            converged = True
            break
        it += 1
        if shrinking and it % shrink_interval == 0:
            maybe_shrink()

        # Q rows needed for the update (Q_ab = y_a y_b K_ab).
        q_i = yf[i] * (yf * oracle.row(i))
        q_j = yf[j] * (yf * oracle.row(j))
        old_ai = float(alpha[i])
        old_aj = float(alpha[j])

        if yf[i] != yf[j]:
            quad = float(diag[i] + diag[j] + 2.0 * q_i[j])
            if quad <= 0:
                quad = _TAU
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0:
                if alpha[j] < 0:
                    alpha[j] = 0
                    alpha[i] = diff
            else:
                if alpha[i] < 0:
                    alpha[i] = 0
                    alpha[j] = -diff
            if diff > 0:
                if alpha[i] > cval:
                    alpha[i] = cval
                    alpha[j] = cval - diff
            else:
                if alpha[j] > cval:
                    alpha[j] = cval
                    alpha[i] = cval + diff
        else:
            quad = float(diag[i] + diag[j] - 2.0 * q_i[j])
            if quad <= 0:
                quad = _TAU
            delta = (grad[i] - grad[j]) / quad
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > cval:
                if alpha[i] > cval:
                    alpha[i] = cval
                    alpha[j] = total - cval
            else:
                if alpha[j] < 0:
                    alpha[j] = 0
                    alpha[i] = total
            if total > cval:
                if alpha[j] > cval:
                    alpha[j] = cval
                    alpha[i] = total - cval
            else:
                if alpha[i] < 0:
                    alpha[i] = 0
                    alpha[j] = total

        d_ai = alpha[i] - old_ai
        d_aj = alpha[j] - old_aj
        if d_ai != 0.0 or d_aj != 0.0:
            grad += q_i * d_ai + q_j * d_aj

    # grad = Qa - e, hence 1/2 a^T Q a - e^T a = 1/2 a^T grad - 1/2 e^T a.
    objective = float(0.5 * (alpha @ grad) - 0.5 * alpha.sum())

    rho = _calculate_rho(yf, grad, alpha, cval)
    return SMOResult(
        alpha=alpha,
        rho=rho,
        iterations=it,
        converged=converged,
        objective=objective,
        gap_history=np.asarray(gaps, dtype=np.float64),
        shrink_events=shrink_events,
        min_active=min_active if shrinking else n,
    )


# ---------------------------------------------------------------------------
# Multi-problem (voxel-batched) SMO
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchSMOResult:
    """Output of one batched SMO solve over ``B`` independent problems."""

    #: Dual coefficients, shape (B, n), in the kernel dtype.
    alpha: np.ndarray
    #: Per-problem offsets; decision function b is ``K @ (a_b y_b) - rho_b``.
    rho: np.ndarray
    #: Working-set iterations each problem performed before freezing.
    iterations: np.ndarray
    #: Whether each problem met the duality-gap stopping criterion.
    converged: np.ndarray
    #: Final dual objective per problem.
    objective: np.ndarray
    #: Final KKT violation gap per problem.
    gap: np.ndarray
    #: Lock-step batch sweeps the solve amounts to: ``max(iterations)``.
    sweeps: int
    #: Which iteration loop ran: ``"native"`` (the compiled per-problem
    #: kernel) or ``"numpy"`` (the vectorized lock-step oracle).
    impl: str = "numpy"


def _batch_calculate_rho(
    y: np.ndarray, grad: np.ndarray, alpha: np.ndarray, c: float
) -> np.ndarray:
    """Vectorized :func:`_calculate_rho` over the batch axis."""
    yg = y * grad
    free = (alpha > 0.0) & (alpha < c)
    n_free = free.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho_free = np.where(free, yg, 0.0).sum(axis=1) / np.maximum(n_free, 1)
    upper = ((y > 0) & (alpha <= 0.0)) | ((y < 0) & (alpha >= c))
    lower = ((y > 0) & (alpha >= c)) | ((y < 0) & (alpha <= 0.0))
    ub = np.where(upper, yg, np.inf).min(axis=1)
    lb = np.where(lower, yg, -np.inf).max(axis=1)
    with np.errstate(invalid="ignore"):  # inf + -inf in unselected lanes
        rho_bound = np.where(
            np.isfinite(ub) & np.isfinite(lb),
            (ub + lb) / 2.0,
            np.where(np.isfinite(ub), ub, np.where(np.isfinite(lb), lb, 0.0)),
        )
    return np.asarray(np.where(n_free > 0, rho_free, rho_bound), dtype=np.float64)


#: Adaptive phase lengths (iterations) shared by both batch loops.
_PROBE_ITERS = 8
_COMMIT_ITERS = 64


def _first_order_wins(
    s1: np.ndarray, e1: np.ndarray, s2: np.ndarray, e2: np.ndarray
) -> np.ndarray:
    """Adaptive commit rule, without logarithms.

    The per-cost rates are ``log(s/e) / (probe * cost)`` over equally
    long probes with costs 1 (first order) and 2 (second order), so
    first order wins iff ``(s1/e1)**2 > s2/e2``, evaluated in float64
    from the float32 gaps at the start (``s``) and end (``e``) of each
    probe.  A gap <= 0 at either end makes that rate ``inf``, and
    ``inf > inf`` is false.  The native kernel evaluates the same rule.
    """
    s1, e1, s2, e2 = (np.asarray(v, dtype=np.float64) for v in (s1, e1, s2, e2))
    inf1 = (s1 <= 0) | (e1 <= 0)
    inf2 = (s2 <= 0) | (e2 <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = s1 / e1
        finite_wins = r1 * r1 > s2 / e2
    return np.where(inf1 | inf2, inf1 & ~inf2, finite_wins)


class _BatchAdaptivePhases:
    """Vectorized mirror of :class:`~repro.svm.heuristics.AdaptiveSelector`.

    All live problems advance one SMO iteration per batch sweep, so the
    probe/commit *timing* (probe first-order, probe second-order, commit
    the winner, re-probe) is shared scalar state, while the measured
    convergence rates — and therefore the committed heuristic — are
    per-problem arrays.
    """

    def __init__(
        self,
        n_problems: int,
        probe_iters: int = _PROBE_ITERS,
        commit_iters: int = _COMMIT_ITERS,
    ):
        self._probe = probe_iters
        self._commit = commit_iters
        self._phase = "probe_first"
        self._phase_left = probe_iters
        self._gap_start: np.ndarray | None = None
        #: (start, end) gaps of the last first-order probe.
        self._first_probe = (np.zeros(n_problems), np.zeros(n_problems))
        #: Committed choice per problem; second-order initially (the
        #: sequential selector's default commitment).
        self.use_second = np.ones(n_problems, dtype=bool)

    def current_use_second(self) -> np.ndarray:
        if self._phase == "probe_first":
            return np.zeros_like(self.use_second)
        if self._phase == "probe_second":
            return np.ones_like(self.use_second)
        return self.use_second

    def step(self, gap: np.ndarray) -> None:
        """Advance one iteration; ``gap`` is this sweep's KKT violation."""
        if self._gap_start is None:
            self._gap_start = gap.copy()
        self._phase_left -= 1
        if self._phase_left > 0:
            return
        if self._phase == "probe_first":
            self._first_probe = (self._gap_start, gap.copy())
            self._phase, self._phase_left = "probe_second", self._probe
        elif self._phase == "probe_second":
            # First order wins only on a strictly greater per-cost rate.
            self.use_second = ~_first_order_wins(
                *self._first_probe, self._gap_start, gap
            )
            self._phase, self._phase_left = "commit", self._commit
        else:
            self._phase, self._phase_left = "probe_first", self._probe
        self._gap_start = gap.copy()


@_traced(
    "smo.solve_batch",
    lambda r: {
        "iterations": float(r.iterations.sum()),
        "voxels": float(r.alpha.shape[0]),
    },
    lambda r: {"impl": r.impl},
)
def solve_smo_batch(
    kernels: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    tol: float = 1e-3,
    max_iter: int | None = None,
    selection: str = "adaptive",
) -> BatchSMOResult:
    """Solve ``B`` independent C-SVC duals simultaneously.

    The paper keeps 240+ voxel problems resident on the coprocessor with
    one thread per problem.  Two iteration loops implement that here:

    * **native** — a small C kernel (``smo_kernel.c``) solves each
      problem to convergence on its own, with no lock-step sweeps.  It
      runs when the stack is float32, every kernel entry is finite and
      the library could be built.  The library is compiled with the
      system ``cc`` on first use and cached under
      ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``, else a
      per-user directory in the temp dir); delete that directory to
      force a rebuild.  See :mod:`repro.svm.native`.
    * **numpy** — the oracle, and the path for float64 stacks,
      non-finite input and hosts without a C compiler (the build
      failure is reported once as a ``RuntimeWarning``).  Every SMO
      ingredient — working-set selection, the two-variable analytic
      update, gradient maintenance — is one vectorized operation across
      all live problems, so interpreter cost is paid once per *sweep*.
      Problems whose KKT gap drops below ``tol`` freeze and the batch
      loops until every problem converges or ``max_iter`` sweeps elapse.

    Both loops give bitwise-identical results; ``impl`` on the result
    (and on the ``smo.solve_batch`` span) says which one ran.
    ``sweeps`` is ``max(iterations)``: the lock-step sweep count, which
    the native loop does not spend on converged problems.

    Parameters
    ----------
    kernels:
        Stacked symmetric PSD kernels, shape ``(B, n, n)``.  The solve
        runs in the stack's floating dtype (float32 for PhiSVM).
    y:
        Labels in {-1, +1}: shape ``(n,)`` (shared by all problems — the
        FCMA case, where every voxel sees the same epochs) or ``(B, n)``.
    c, tol, max_iter:
        As in :func:`solve_smo`; ``max_iter`` caps batch sweeps, which
        equals the per-problem iteration cap of the sequential solver.
    selection:
        ``"adaptive"`` (default, mirrors PhiSVM's
        :class:`~repro.svm.heuristics.AdaptiveSelector` per problem),
        ``"second"`` (WSS 2 throughout) or ``"first"`` (WSS 1).

    A problem solved in a batch follows the same iterate trajectory as
    :func:`solve_smo` on it alone with the matching selector: selection
    argmax/argmin tie-breaks, the update arithmetic, and the float32
    rounding are identical.  The adaptive commit decision uses the
    log-free rule of :func:`_first_order_wins` in both loops, so it does
    not depend on the platform's float32 ``log``.
    """
    kernels = np.asarray(kernels)
    if kernels.ndim != 3 or kernels.shape[1] != kernels.shape[2]:
        raise ValueError(
            f"kernels must be (problems, n, n), got {kernels.shape}"
        )
    if selection not in ("adaptive", "second", "first"):
        raise ValueError(f"unknown selection {selection!r}")
    if not np.issubdtype(kernels.dtype, np.floating):
        kernels = kernels.astype(np.float64)
    b, n = kernels.shape[0], kernels.shape[1]
    y = np.asarray(y)
    if y.shape == (n,):
        y = np.broadcast_to(y, (b, n))
    elif y.shape != (b, n):
        raise ValueError(f"y must have shape ({n},) or ({b}, {n}), got {y.shape}")
    if not np.isin(y, (-1, 1)).all():
        raise ValueError("labels must be -1 or +1")
    if c <= 0:
        raise ValueError("C must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = max(10_000, 100 * n)
    if kernels.dtype == np.float32 and np.isfinite(kernels).all():
        from . import native

        solve = native.kernel.get()
        if solve is not None:
            return _solve_smo_batch_native(
                solve, kernels, y, c, tol, max_iter, selection
            )
    return _solve_smo_batch_numpy(kernels, y, c, tol, max_iter, selection)


_SELECTION_CODES = {"first": 0, "second": 1, "adaptive": 2}


def _solve_smo_batch_native(
    solve: Callable[..., None],
    kernels: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float,
    max_iter: int,
    selection: str,
) -> BatchSMOResult:
    """The compiled per-problem loop over a validated float32 stack."""
    b, n = kernels.shape[0], kernels.shape[1]
    kernels = np.ascontiguousarray(kernels)
    yf = np.ascontiguousarray(y, dtype=np.float32)
    diag = np.ascontiguousarray(np.diagonal(kernels, axis1=1, axis2=2))
    alpha = np.zeros((b, n), dtype=np.float32)
    grad = np.full((b, n), -1.0, dtype=np.float32)
    iterations = np.zeros(b, dtype=np.int64)
    converged = np.zeros(b, dtype=np.uint8)
    final_gap = np.zeros(b, dtype=np.float64)
    # The numpy loop tests ``gap >= tol`` on a float32 gap, so ``tol``
    # is compared in the dtype numpy promotes the pair to.
    tol_cmp = float(np.result_type(np.float32, tol).type(tol))
    solve(
        b, n, kernels, yf, diag, float(np.float32(c)), tol_cmp,
        math.ceil(max_iter), _SELECTION_CODES[selection],
        _PROBE_ITERS, _COMMIT_ITERS,
        alpha, grad, iterations, converged, final_gap,
    )
    return _batch_result(
        yf, alpha, grad, c, iterations, converged.astype(bool), final_gap,
        impl="native",
    )


def _solve_smo_batch_numpy(
    kernels: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float,
    max_iter: int,
    selection: str,
) -> BatchSMOResult:
    """The vectorized lock-step loop: the oracle the native kernel pins.

    Takes :func:`solve_smo_batch`'s validated arguments: a floating
    ``(B, n, n)`` stack, ``(B, n)`` labels and an explicit ``max_iter``.
    """
    b, n = kernels.shape[0], kernels.shape[1]
    dtype = kernels.dtype
    yf = np.ascontiguousarray(y, dtype=dtype)
    alpha = np.zeros((b, n), dtype=dtype)
    grad = np.full((b, n), -1.0, dtype=dtype)  # G = Q alpha - e at alpha = 0
    diag = np.ascontiguousarray(
        np.diagonal(kernels, axis1=1, axis2=2), dtype=dtype
    )
    cval = dtype.type(c)
    rows = np.arange(b)
    live = np.ones(b, dtype=bool)
    iterations = np.zeros(b, dtype=np.int64)
    final_gap = np.zeros(b, dtype=np.float64)
    adaptive = (
        _BatchAdaptivePhases(b) if selection == "adaptive" else None
    )
    sweeps = 0

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while sweeps < max_iter:
            # --- working-set selection (all problems at once) -------------
            minus_yg = -(yf * grad)
            pos = yf > 0
            at_upper = alpha >= cval
            at_lower = alpha <= 0.0
            i_up = (pos & ~at_upper) | (~pos & ~at_lower)
            i_low = (pos & ~at_lower) | (~pos & ~at_upper)
            up_vals = np.where(i_up, minus_yg, -np.inf)
            low_vals = np.where(i_low, minus_yg, np.inf)
            i = np.argmax(up_vals, axis=1)
            gmax = up_vals[rows, i]
            gmin = low_vals.min(axis=1)
            # Degenerate problems (empty I_up or I_low) are optimal,
            # matching the sequential selector's (0, 0, 0.0) return.
            degenerate = ~np.isfinite(gmax) | ~np.isfinite(gmin)
            gap = np.where(degenerate, 0.0, gmax - gmin)
            final_gap = np.where(live, gap, final_gap)
            if adaptive is not None:
                use_second = adaptive.current_use_second()
                adaptive.step(gap)
            elif selection == "second":
                use_second = np.ones(b, dtype=bool)
            else:
                use_second = np.zeros(b, dtype=bool)

            live &= gap >= tol
            if not live.any():
                break
            sweeps += 1
            iterations[live] += 1

            # Kernel rows K[b, i_b, :] / K[b, j_b, :]: needed for the
            # second-order gain and for the gradient update.
            k_i = np.take_along_axis(kernels, i[:, None, None], axis=1)[:, 0, :]
            j_first = np.argmin(low_vals, axis=1)
            if use_second.any():
                a_coef = diag[rows, i][:, None] + diag - 2.0 * k_i
                a_coef = np.where(a_coef <= 0.0, dtype.type(_TAU), a_coef)
                b_coef = gmax[:, None] - minus_yg
                eligible = i_low & (minus_yg < gmax[:, None])
                gain = np.where(eligible, (b_coef * b_coef) / a_coef, -np.inf)
                j_second = np.where(
                    eligible.any(axis=1), np.argmax(gain, axis=1), j_first
                )
                j = np.where(use_second, j_second, j_first)
            else:
                j = j_first
            k_j = np.take_along_axis(kernels, j[:, None, None], axis=1)[:, 0, :]

            # --- two-variable analytic update (vectorized) ----------------
            yi = yf[rows, i]
            yj = yf[rows, j]
            gi = grad[rows, i]
            gj = grad[rows, j]
            ai = alpha[rows, i]
            aj = alpha[rows, j]
            q_ij = yi * yj * k_i[rows, j]
            di = diag[rows, i]
            dj = diag[rows, j]
            same = yi == yj

            quad = np.where(same, di + dj - 2.0 * q_ij, di + dj + 2.0 * q_ij)
            quad = np.where(quad <= 0.0, dtype.type(_TAU), quad)
            delta = np.where(same, gi - gj, -gi - gj) / quad

            # Different-sign branch: alpha_i, alpha_j move together.
            diff = ai - aj
            d_ai = ai + delta
            d_aj = aj + delta
            clip = (diff > 0) & (d_aj < 0)
            d_aj = np.where(clip, 0.0, d_aj)
            d_ai = np.where(clip, diff, d_ai)
            clip = (diff <= 0) & (d_ai < 0)
            d_ai = np.where(clip, 0.0, d_ai)
            d_aj = np.where(clip, -diff, d_aj)
            clip = (diff > 0) & (d_ai > cval)
            d_ai = np.where(clip, cval, d_ai)
            d_aj = np.where(clip, cval - diff, d_aj)
            clip = (diff <= 0) & (d_aj > cval)
            d_aj = np.where(clip, cval, d_aj)
            d_ai = np.where(clip, cval + diff, d_ai)

            # Same-sign branch: alpha_i + alpha_j conserved.
            total = ai + aj
            s_ai = ai - delta
            s_aj = aj + delta
            clip = (total > cval) & (s_ai > cval)
            s_ai = np.where(clip, cval, s_ai)
            s_aj = np.where(clip, total - cval, s_aj)
            clip = (total <= cval) & (s_aj < 0)
            s_aj = np.where(clip, 0.0, s_aj)
            s_ai = np.where(clip, total, s_ai)
            clip = (total > cval) & (s_aj > cval)
            s_aj = np.where(clip, cval, s_aj)
            s_ai = np.where(clip, total - cval, s_ai)
            clip = (total <= cval) & (s_ai < 0)
            s_ai = np.where(clip, 0.0, s_ai)
            s_aj = np.where(clip, total, s_aj)

            new_ai = np.where(same, s_ai, d_ai).astype(dtype, copy=False)
            new_aj = np.where(same, s_aj, d_aj).astype(dtype, copy=False)
            step_i = np.where(live, new_ai - ai, dtype.type(0.0))
            step_j = np.where(live, new_aj - aj, dtype.type(0.0))
            # Assign (not +=): the sequential solver stores the clipped
            # values directly, and `a + (new - a)` can differ by an ulp.
            alpha[rows, i] = np.where(live, new_ai, ai)
            alpha[rows, j] = np.where(live, new_aj, aj)

            moved = (step_i != 0.0) | (step_j != 0.0)
            if moved.any():
                q_i_rows = yi[:, None] * (yf * k_i)
                q_j_rows = yj[:, None] * (yf * k_j)
                grad += q_i_rows * step_i[:, None] + q_j_rows * step_j[:, None]

    return _batch_result(
        yf, alpha, grad, c, iterations, ~live, final_gap, impl="numpy"
    )


def _batch_result(
    yf: np.ndarray,
    alpha: np.ndarray,
    grad: np.ndarray,
    c: float,
    iterations: np.ndarray,
    converged: np.ndarray,
    gap: np.ndarray,
    impl: str,
) -> BatchSMOResult:
    """Assemble a batch result from either loop's final iterate.

    Shared so the native and numpy paths derive ``rho``, ``objective``
    and ``sweeps`` with the same arithmetic, which the bitwise contract
    between them relies on.
    """
    objective = (
        0.5 * (alpha * grad).sum(axis=1) - 0.5 * alpha.sum(axis=1)
    ).astype(np.float64)
    return BatchSMOResult(
        alpha=alpha,
        rho=_batch_calculate_rho(yf, grad, alpha, float(c)),
        iterations=iterations,
        converged=converged,
        objective=objective,
        gap=gap,
        sweeps=int(iterations.max()) if iterations.size else 0,
        impl=impl,
    )
