"""The native per-problem SMO kernel against its numpy oracle.

``solve_smo_batch`` runs a compiled C loop when it can and the numpy
lock-step loop (``_solve_smo_batch_numpy``) otherwise.  The contract is
bitwise identity of every result field, so the choice of loop is a
pure performance decision.  These tests pin that identity over random
problems, the log-free adaptive commit rule both loops share, and the
build/fallback behaviour of the loader.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Tracer, build_tree, use_tracer
from repro.svm import native
from repro.svm.smo import (
    _BatchAdaptivePhases,
    _first_order_wins,
    _solve_smo_batch_numpy,
    solve_smo_batch,
)

FIELDS = ("alpha", "rho", "objective", "iterations", "converged", "gap")
SRC = str(Path(__file__).resolve().parents[2] / "src")


def oracle(kernels, y, c=1.0, tol=1e-3, max_iter=None, selection="adaptive"):
    """The numpy loop, called with ``solve_smo_batch``'s defaults."""
    b, n = kernels.shape[0], kernels.shape[1]
    if max_iter is None:
        max_iter = max(10_000, 100 * n)
    y = np.broadcast_to(np.asarray(y), (b, n))
    return _solve_smo_batch_numpy(kernels, y, c, tol, max_iter, selection)


def assert_bitwise(result, expected):
    for name in FIELDS:
        got, want = getattr(result, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert result.sweeps == expected.sweeps


def make_stack(kind, b, n, seed):
    """``(B, n, n)`` float32 PSD kernels of the requested structure."""
    rng = np.random.default_rng(seed)
    stack = []
    for _ in range(b):
        if kind == "full":
            x = rng.standard_normal((n, n + 3))
        elif kind == "rank-deficient":
            x = rng.standard_normal((n, int(rng.integers(1, 4))))
        else:  # duplicate rows: repeated samples give repeated kernel rows
            base = rng.standard_normal((max(1, n // 3), 5))
            x = base[rng.integers(0, base.shape[0], size=n)]
        x /= np.sqrt(x.shape[1])
        stack.append(x @ x.T)
    return np.ascontiguousarray(stack, dtype=np.float32)


def random_labels(rng, shape):
    y = np.where(rng.uniform(size=shape) > 0.5, 1, -1)
    y[..., 0] = 1
    y[..., -1] = -1
    return y


@pytest.fixture()
def native_kernel():
    if native.kernel.get() is None:
        pytest.skip("no C compiler on this host")


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["full", "rank-deficient", "duplicate-rows"]),
    b=st.integers(1, 70),
    n=st.integers(2, 80),
    c=st.sampled_from([0.01, 1.0, 100.0]),
    selection=st.sampled_from(["first", "second", "adaptive"]),
    per_problem_labels=st.booleans(),
    max_iter=st.one_of(st.integers(1, 12), st.just(1500)),
    seed=st.integers(0, 2**31),
)
def test_native_matches_numpy_bitwise(
    kind, b, n, c, selection, per_problem_labels, max_iter, seed
):
    """Property: every result field of the native loop is bitwise-equal
    to the numpy loop's, converged or capped."""
    if native.kernel.get() is None:
        pytest.skip("no C compiler on this host")
    kernels = make_stack(kind, b, n, seed)
    rng = np.random.default_rng(seed + 1)
    y = random_labels(rng, (b, n) if per_problem_labels else (n,))
    kw = dict(c=c, tol=1e-3, max_iter=max_iter, selection=selection)
    result = solve_smo_batch(kernels, y, **kw)
    assert result.impl == "native"
    assert_bitwise(result, oracle(kernels, y, **kw))
    assert result.sweeps == result.iterations.max()


class TestNativeCases:
    def test_capped_problems_report_capped_gap(self, native_kernel):
        kernels = make_stack("full", 6, 40, seed=5)
        y = random_labels(np.random.default_rng(5), (40,))
        result = solve_smo_batch(kernels, y, c=100.0, max_iter=3)
        assert not result.converged.any()
        assert result.sweeps == 3
        assert (result.gap > 0).all()
        assert_bitwise(result, oracle(kernels, y, c=100.0, max_iter=3))

    def test_single_class_problem_is_degenerate(self, native_kernel):
        kernels = make_stack("full", 3, 10, seed=6)
        y = np.ones((3, 10), dtype=int)
        y[1, 0] = -1
        result = solve_smo_batch(kernels, y)
        assert_bitwise(result, oracle(kernels, y))
        assert result.iterations[0] == 0 and result.gap[0] == 0.0

    def test_non_contiguous_stack(self, native_kernel):
        kernels = make_stack("full", 8, 20, seed=7)[::2]
        y = random_labels(np.random.default_rng(7), (20,))
        assert_bitwise(solve_smo_batch(kernels, y), oracle(kernels, y))

    @pytest.mark.parametrize("tol", [1e-4, np.float64(1e-4), 0.3])
    def test_tol_compared_like_numpy(self, native_kernel, tol):
        """float32(1e-4) < 1e-4: a Python float tol is compared in
        float32, a float64 scalar in float64 — as in the numpy loop."""
        kernels = make_stack("full", 12, 30, seed=8)
        y = random_labels(np.random.default_rng(8), (30,))
        result = solve_smo_batch(kernels, y, tol=tol)
        assert_bitwise(result, oracle(kernels, y, tol=tol))

    def test_empty_batch(self, native_kernel):
        result = solve_smo_batch(np.zeros((0, 4, 4), np.float32), [1, -1, 1, -1])
        assert result.impl == "native" and result.sweeps == 0
        assert result.alpha.shape == (0, 4)


class TestCommitRule:
    """First order wins iff (s1/e1)**2 > s2/e2; <= 0 gaps mean rate inf."""

    @pytest.mark.parametrize(
        "s1, e1, s2, e2, first_wins",
        [
            (1.0, 0.5, 1.0, 0.3, True),    # 4 > 3.33
            (1.0, 0.5, 1.0, 0.25, False),  # 4 == 4: ties go to second
            (1.0, 0.9, 1.0, 0.5, False),
            (0.5, 1.0, 0.5, 1.0, False),   # gap grew in both probes
            (1.0, 0.0, 1.0, 0.5, True),    # first converged: inf > finite
            (0.0, 0.0, 1.0, 0.5, True),
            (1.0, 0.5, 1.0, 0.0, False),   # second converged
            (1.0, 0.0, 1.0, 0.0, False),   # inf > inf is false
            (1.0, 0.0, 0.0, 0.0, False),
            (-1.0, 0.5, 1.0, 0.5, True),   # a gap <= 0 counts as inf
            (np.inf, 1.0, 1.0, 0.5, True),
            (1.0, 0.5, np.inf, 1.0, False),
        ],
    )
    def test_crafted_gaps(self, s1, e1, s2, e2, first_wins):
        got = _first_order_wins(*(np.float32([v]) for v in (s1, e1, s2, e2)))
        assert got.tolist() == [first_wins]

    @settings(max_examples=200, deadline=None)
    @given(
        gaps=st.lists(
            st.floats(2.0**-20, 2.0**10, width=32), min_size=4, max_size=4
        )
    )
    def test_agrees_with_log_rates_off_ties(self, gaps):
        s1, e1, s2, e2 = gaps
        rate_first = math.log(s1 / e1) / 8
        rate_second = math.log(s2 / e2) / 16
        if abs(rate_first - rate_second) < 1e-9:
            return
        got = _first_order_wins(*(np.float32([v]) for v in gaps))
        assert bool(got[0]) == (rate_first > rate_second)

    def test_phase_machine_commits_per_problem(self):
        """Two problems through probe-first, probe-second, commit: the
        first shrinks fast under first order, the second under second."""
        phases = _BatchAdaptivePhases(2, probe_iters=2, commit_iters=3)
        seen = []
        gaps = [(8.0, 8.0), (1.0, 6.0), (0.9, 3.0), (0.5, 0.5), (0.4, 0.4)]
        for g in gaps:
            seen.append(phases.current_use_second().tolist())
            phases.step(np.float32(g))
        # probe first (2 iterations), probe second (2), then commit.
        assert seen[:4] == [[False, False]] * 2 + [[True, True]] * 2
        # first: (8/1)**2 = 64 > 1/0.5 = 2; second: (8/6)**2 < 6/0.5.
        assert seen[4] == [False, True]


class TestDispatch:
    def test_float64_takes_numpy(self):
        kernels = make_stack("full", 3, 12, seed=1).astype(np.float64)
        y = random_labels(np.random.default_rng(1), (12,))
        result = solve_smo_batch(kernels, y)
        assert result.impl == "numpy"
        assert_bitwise(result, oracle(kernels, y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_takes_numpy(self, bad):
        kernels = make_stack("full", 3, 12, seed=2)
        kernels[1, 3, 4] = bad
        y = random_labels(np.random.default_rng(2), (12,))
        with np.errstate(all="ignore"):
            result = solve_smo_batch(kernels, y)
            expected = oracle(kernels, y)
        assert result.impl == "numpy"
        np.testing.assert_array_equal(result.alpha, expected.alpha)
        np.testing.assert_array_equal(result.iterations, expected.iterations)

    def test_missing_compiler_falls_back_and_warns_once(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        missing = str(tmp_path / "no-such-cc")
        monkeypatch.setattr(native, "kernel", native.NativeKernel(cc=missing))
        kernels = make_stack("full", 4, 16, seed=3)
        y = random_labels(np.random.default_rng(3), (16,))
        with pytest.warns(RuntimeWarning, match="no-such-cc") as record:
            result = solve_smo_batch(kernels, y)
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = solve_smo_batch(kernels, y)
        assert result.impl == again.impl == "numpy"
        assert_bitwise(result, oracle(kernels, y))
        assert not list((tmp_path / "cache" / "repro").glob("*.so"))

    def test_cold_build_is_traced(self, monkeypatch, tmp_path, native_kernel):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "kernel", native.NativeKernel())
        kernels = make_stack("full", 4, 16, seed=4)
        y = random_labels(np.random.default_rng(4), (16,))
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("run", kind="run"):
            solve_smo_batch(kernels, y)
            solve_smo_batch(kernels, y)
        (run,) = build_tree(tracer.spans())
        first, second = run.children
        assert first.span.attrs["impl"] == second.span.attrs["impl"] == "native"
        assert [c.span.name for c in first.children] == ["smo.native_build"]
        assert second.children == []
        # Only the finished library is left: no half-written temp file.
        (lib,) = (tmp_path / "cache" / "repro").iterdir()
        assert lib.name.startswith("smo_kernel-") and lib.suffix == ".so"


_BUILDER = textwrap.dedent(
    """
    import sys, time
    from pathlib import Path
    import numpy as np
    from repro.svm import solve_smo_batch

    ready, go = Path(sys.argv[1]), Path(sys.argv[2])
    ready.touch()
    while not go.exists():
        time.sleep(0.005)
    k = np.eye(6, dtype=np.float32)[None].repeat(3, axis=0)
    print(solve_smo_batch(k, [1, -1, 1, -1, 1, -1]).impl)
    """
)


def test_concurrent_cold_builds_both_load(tmp_path, native_kernel):
    """Two processes building into one empty cache at the same moment
    both end up with a working library (mkstemp + os.replace)."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    go = tmp_path / "go"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _BUILDER, str(tmp_path / f"ready{i}"), str(go)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for i in range(2)
    ]
    try:
        deadline = time.monotonic() + 60
        while not all((tmp_path / f"ready{i}").exists() for i in range(2)):
            assert time.monotonic() < deadline, "builders never started"
            assert all(p.poll() is None for p in procs), "a builder died"
            time.sleep(0.01)
        go.touch()
        outputs = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            p.kill()
    for p, (out, err) in zip(procs, outputs):
        assert p.returncode == 0, err
        assert out.strip() == "native", err
        assert "RuntimeWarning" not in err
    files = sorted(f.name for f in (tmp_path / "cache" / "repro").iterdir())
    assert len(files) == 1 and files[0].startswith("smo_kernel-"), files
