"""Tests for stage 3a: kernel matrix precomputation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernels import (
    kernel_matrix_baseline,
    kernel_matrix_batched,
    symmetrize_from_triangle,
)
from tests.oracles import kernel_matrix_blocked


def data(m=10, n=300, seed=0):
    return np.random.default_rng(seed).standard_normal((m, n)).astype(np.float32)


class TestBaseline:
    def test_is_gram_matrix(self):
        x = data()
        np.testing.assert_allclose(
            kernel_matrix_baseline(x), x @ x.T, rtol=1e-5
        )

    def test_symmetric_psd(self):
        k = kernel_matrix_baseline(data(seed=1))
        np.testing.assert_allclose(k, k.T, atol=1e-3)
        eigs = np.linalg.eigvalsh(k.astype(np.float64))
        assert eigs.min() > -1e-2

    def test_float32(self):
        assert kernel_matrix_baseline(data()).dtype == np.float32

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            kernel_matrix_baseline(np.zeros(5))


class TestBlocked:
    @pytest.mark.parametrize("panel", [1, 7, 96, 1000])
    def test_matches_baseline(self, panel):
        x = data(m=12, n=500, seed=2)
        base = kernel_matrix_baseline(x)
        blocked = kernel_matrix_blocked(x, panel_depth=panel)
        np.testing.assert_allclose(blocked, base, rtol=1e-4, atol=1e-3)

    def test_exactly_symmetric(self):
        """The triangle-mirror construction is symmetric by definition,
        unlike the float32 BLAS full product."""
        k = kernel_matrix_blocked(data(seed=3))
        np.testing.assert_array_equal(k, k.T)

    def test_micro_tile_path_matches(self):
        x = data(m=20, n=200, seed=4)
        base = kernel_matrix_baseline(x)
        micro = kernel_matrix_blocked(x, panel_depth=96, micro_tile=(16, 9))
        np.testing.assert_allclose(micro, base, rtol=1e-4, atol=1e-3)

    def test_micro_tile_smaller_than_matrix(self):
        x = data(m=7, n=120, seed=5)
        micro = kernel_matrix_blocked(x, panel_depth=32, micro_tile=(3, 2))
        np.testing.assert_allclose(
            micro, kernel_matrix_baseline(x), rtol=1e-4, atol=1e-3
        )

    def test_n_not_multiple_of_panel(self):
        x = data(m=8, n=101, seed=6)
        np.testing.assert_allclose(
            kernel_matrix_blocked(x, panel_depth=96),
            kernel_matrix_baseline(x),
            rtol=1e-4, atol=1e-3,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_matrix_blocked(data(), panel_depth=0)
        with pytest.raises(ValueError):
            kernel_matrix_blocked(data(), micro_tile=(0, 3))
        with pytest.raises(ValueError):
            kernel_matrix_blocked(np.zeros(5))


def stacked(v=5, m=10, n=300, seed=0):
    return np.random.default_rng(seed).standard_normal((v, m, n)).astype(np.float32)


class TestBatched:
    def test_bitwise_equals_per_voxel_baseline(self):
        """The stacked GEMM must reproduce each per-voxel BLAS Gram
        matrix exactly — same dtype, same reduction order, same bits."""
        x = stacked(seed=7)
        out = kernel_matrix_batched(x)
        for i in range(x.shape[0]):
            np.testing.assert_array_equal(out[i], kernel_matrix_baseline(x[i]))

    @pytest.mark.parametrize("panel", [1, 7, 96, 1000])
    def test_panel_variant_matches_blocked(self, panel):
        x = stacked(v=4, m=12, n=500, seed=8)
        out = kernel_matrix_batched(x, panel_depth=panel)
        for i in range(x.shape[0]):
            np.testing.assert_allclose(
                out[i],
                kernel_matrix_blocked(x[i], panel_depth=panel),
                rtol=1e-4,
                atol=1e-3,
            )

    def test_panel_variant_exactly_symmetric(self):
        out = kernel_matrix_batched(stacked(seed=9), panel_depth=96)
        np.testing.assert_array_equal(out, out.transpose(0, 2, 1))

    def test_single_problem_batch(self):
        x = stacked(v=1, seed=10)
        np.testing.assert_array_equal(
            kernel_matrix_batched(x)[0], kernel_matrix_baseline(x[0])
        )

    def test_float32(self):
        assert kernel_matrix_batched(stacked()).dtype == np.float32

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_matrix_batched(np.zeros((10, 300)))
        with pytest.raises(ValueError):
            kernel_matrix_batched(stacked(), panel_depth=0)


class TestSymmetrize:
    def test_round_trip(self):
        full = np.array([[1.0, 2.0], [2.0, 3.0]])
        lower = np.tril(full)
        np.testing.assert_array_equal(symmetrize_from_triangle(lower), full)

    def test_diagonal_not_doubled(self):
        lower = np.diag([1.0, 2.0, 3.0])
        out = symmetrize_from_triangle(lower)
        np.testing.assert_array_equal(np.diagonal(out), [1, 2, 3])

    def test_stacked_round_trip(self):
        rng = np.random.default_rng(11)
        sym = rng.standard_normal((4, 6, 6))
        sym = sym + sym.transpose(0, 2, 1)
        lower = np.tril(sym)
        np.testing.assert_array_equal(symmetrize_from_triangle(lower), sym)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            symmetrize_from_triangle(np.zeros((2, 3)))


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 200),
    panel=st.integers(1, 128),
    seed=st.integers(0, 99),
)
def test_blocked_matches_baseline_property(m, n, panel, seed):
    """Property: any panel depth reproduces the BLAS Gram matrix."""
    x = data(m, n, seed)
    np.testing.assert_allclose(
        kernel_matrix_blocked(x, panel_depth=panel),
        kernel_matrix_baseline(x),
        rtol=1e-3,
        atol=1e-3,
    )
