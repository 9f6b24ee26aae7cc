"""Tests for stage 2: Fisher transform and within-subject z-scoring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.correlation import correlate_baseline, normalize_epoch_data
from repro.core.normalization import (
    fisher_z,
    normalize_separated,
    zscore_within_subject,
)
from tests.oracles import MergedNormalizer, correlate_blocked


def corr_array(v=4, subjects=3, e=4, n=10, seed=0):
    rng = np.random.default_rng(seed)
    return np.tanh(rng.standard_normal((v, subjects * e, n))).astype(np.float32)


class TestFisherZ:
    def test_matches_arctanh(self):
        r = np.array([0.0, 0.5, -0.5, 0.9], dtype=np.float32)
        np.testing.assert_allclose(fisher_z(r), np.arctanh(r), atol=1e-6)

    def test_exact_one_clipped_finite(self):
        out = fisher_z(np.array([1.0, -1.0], dtype=np.float32))
        assert np.isfinite(out).all()
        assert out[0] > 6.0  # arctanh(1 - 1e-6) ~ 7.25
        assert out[1] < -6.0

    def test_monotonic(self):
        r = np.linspace(-0.99, 0.99, 50, dtype=np.float32)
        z = fisher_z(r)
        assert (np.diff(z) > 0).all()

    def test_odd_function(self):
        r = np.array([0.3, 0.7], dtype=np.float32)
        np.testing.assert_allclose(fisher_z(-r), -fisher_z(r), atol=1e-6)

    def test_in_place(self):
        r = np.array([0.5], dtype=np.float32)
        out = fisher_z(r, out=r)
        assert out is r
        np.testing.assert_allclose(r, np.arctanh(0.5), atol=1e-6)


class TestZScore:
    def test_population_moments(self):
        z = corr_array()
        zscore_within_subject(z, epochs_per_subject=4)
        grouped = z.reshape(4, 3, 4, 10)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-5)
        np.testing.assert_allclose(grouped.std(axis=2), 1.0, atol=1e-4)

    def test_operates_in_place(self):
        z = corr_array()
        out = zscore_within_subject(z, 4)
        assert out is z

    def test_subjects_independent(self):
        """Changing one subject's data must not affect another's output."""
        a = corr_array(seed=1)
        b = a.copy()
        b[:, :4, :] += 100.0  # perturb subject 0 only
        zscore_within_subject(a, 4)
        zscore_within_subject(b, 4)
        np.testing.assert_allclose(a[:, 4:, :], b[:, 4:, :], atol=1e-5)

    def test_constant_population_zeroed(self):
        z = np.full((1, 4, 3), 0.7, dtype=np.float32)
        zscore_within_subject(z, 4)
        np.testing.assert_array_equal(z, 0.0)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            zscore_within_subject(corr_array(), 5)

    def test_requires_3d(self):
        with pytest.raises(ValueError):
            zscore_within_subject(np.zeros((2, 2), np.float32), 1)


class TestSeparated:
    def test_fisher_then_zscore(self):
        z = corr_array(seed=2)
        manual = np.arctanh(np.clip(z, -1 + 1e-6, 1 - 1e-6)).astype(np.float32)
        manual = manual.reshape(4, 3, 4, 10)
        mean = manual.mean(axis=2, keepdims=True)
        std = manual.std(axis=2, keepdims=True)
        expected = ((manual - mean) / std).reshape(4, 12, 10)
        out = normalize_separated(z.copy(), 4)
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_requires_float32(self):
        with pytest.raises(TypeError, match="float32"):
            normalize_separated(corr_array().astype(np.float64), 4)


class TestMerged:
    def test_merged_equals_separated(self):
        """The headline equivalence of optimization idea #2."""
        rng = np.random.default_rng(3)
        z = normalize_epoch_data(
            rng.standard_normal((12, 20, 8)).astype(np.float32)
        )
        assigned = np.arange(20)
        e = 4  # 3 subjects x 4 epochs

        base = correlate_baseline(z, assigned)
        separated = normalize_separated(base.copy(), e)

        merger = MergedNormalizer(e)
        merged = correlate_blocked(
            z, assigned, voxel_block=6, target_block=7,
            epoch_block=e, tile_callback=merger,
        )
        np.testing.assert_allclose(separated, merged, atol=1e-5)
        assert merger.tiles_processed == 4 * 3 * 3  # v-tiles x n-tiles x subjects

    def test_misaligned_epoch_block_rejected(self):
        merger = MergedNormalizer(4)
        tile = np.zeros((2, 3, 5), dtype=np.float32)
        with pytest.raises(ValueError, match="aligned"):
            merger(tile, (0, 2), (0, 5), (0, 3))

    def test_unaligned_offset_rejected(self):
        merger = MergedNormalizer(4)
        tile = np.zeros((2, 4, 5), dtype=np.float32)
        with pytest.raises(ValueError, match="aligned"):
            merger(tile, (0, 2), (0, 5), (2, 6))

    def test_validation(self):
        with pytest.raises(ValueError):
            MergedNormalizer(0)


@settings(max_examples=20, deadline=None)
@given(
    v=st.integers(1, 4),
    subjects=st.integers(1, 4),
    e=st.integers(1, 5),
    n=st.integers(1, 8),
    seed=st.integers(0, 99),
)
def test_zscore_moments_property(v, subjects, e, n, seed):
    """Property: per-(voxel, subject, target) moments are (0, 1) unless
    the population is constant (then all-zero)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((v, subjects * e, n)).astype(np.float32)
    z = raw.copy()
    zscore_within_subject(z, e)
    grouped = z.reshape(v, subjects, e, n)
    # Only assert on well-conditioned populations: when the input spread
    # is tiny relative to the values, float32 cancellation legitimately
    # perturbs the output moments.
    raw_grouped = raw.reshape(v, subjects, e, n)
    spread = raw_grouped.std(axis=2)
    scale = np.abs(raw_grouped).max(axis=2) + 1.0
    ok = spread > 1e-3 * scale
    zeroed = np.abs(grouped).max(axis=2) < 1e-12
    check = ok & ~zeroed
    np.testing.assert_allclose(grouped.mean(axis=2)[check], 0.0, atol=1e-4)
    if e > 1:
        np.testing.assert_allclose(grouped.std(axis=2)[check], 1.0, atol=1e-3)


class TestFuseNormalizeTile:
    def test_bitwise_equal_to_separated(self):
        from repro.core.normalization import fuse_normalize_tile

        corr = corr_array(v=5, subjects=3, e=4, n=11, seed=3)
        ref = normalize_separated(corr.copy(), 4)
        fused = fuse_normalize_tile(corr.copy(), 4)
        assert fused.tobytes() == ref.tobytes()

    def test_bitwise_with_degenerate_population(self):
        """A zero-variance (voxel, subject, target) column must zero out
        with exactly the reference's bits (+0.0, not -0.0)."""
        from repro.core.normalization import fuse_normalize_tile

        corr = corr_array(v=3, subjects=2, e=4, n=7, seed=9)
        corr[1, 4:8, 2] = 0.73  # subject 1's population for (1, 2): constant
        ref = normalize_separated(corr.copy(), 4)
        fused = fuse_normalize_tile(corr.copy(), 4)
        assert fused.tobytes() == ref.tobytes()
        assert (fused[1, 4:8, 2] == 0.0).all()

    def test_workspace_reused_across_tiles(self):
        from repro.core.normalization import (
            NormalizationWorkspace,
            fuse_normalize_tile,
        )

        ws = NormalizationWorkspace()
        a = corr_array(v=4, subjects=2, e=3, n=6, seed=1)
        fuse_normalize_tile(a, 3, workspace=ws)
        first = ws.buffers(a.reshape(4, 2, 3, 6).shape)
        b = corr_array(v=4, subjects=2, e=3, n=6, seed=2)
        fuse_normalize_tile(b, 3, workspace=ws)
        second = ws.buffers(b.reshape(4, 2, 3, 6).shape)
        for x, y in zip(first, second):
            assert x is y  # same buffers, no reallocation

    def test_workspace_reallocates_on_shape_change(self):
        from repro.core.normalization import NormalizationWorkspace

        ws = NormalizationWorkspace()
        m1 = ws.buffers((2, 2, 3, 5))[0]
        m2 = ws.buffers((3, 2, 3, 5))[0]
        assert m1 is not m2

    def test_in_place_and_returns_input(self):
        from repro.core.normalization import fuse_normalize_tile

        corr = corr_array()
        out = fuse_normalize_tile(corr, 4)
        assert out is corr

    def test_rejects_float64(self):
        from repro.core.normalization import fuse_normalize_tile

        with pytest.raises(TypeError, match="float32"):
            fuse_normalize_tile(np.zeros((2, 4, 3)), 4)

    def test_rejects_non_contiguous(self):
        from repro.core.normalization import fuse_normalize_tile

        corr = corr_array(v=4)[::2]
        with pytest.raises(TypeError, match="contiguous"):
            fuse_normalize_tile(corr, 4)

    def test_rejects_bad_shape_and_epochs(self):
        from repro.core.normalization import fuse_normalize_tile

        with pytest.raises(ValueError, match="V, M, N"):
            fuse_normalize_tile(np.zeros((2, 4), dtype=np.float32), 4)
        with pytest.raises(ValueError, match="divisible"):
            fuse_normalize_tile(np.zeros((2, 5, 3), dtype=np.float32), 4)
        with pytest.raises(ValueError, match=">= 1"):
            fuse_normalize_tile(np.zeros((2, 4, 3), dtype=np.float32), 0)


class TestFusedNormalizeSweep:
    def test_bitwise_equal_to_separated_any_sweep(self):
        from repro.core.normalization import fused_normalize_sweep

        corr = corr_array(v=7, subjects=3, e=4, n=11, seed=9)
        ref = normalize_separated(corr.copy(), 4)
        for sweep in (1, 2, 7, 50, None):
            got = corr.copy()
            n_tiles = fused_normalize_sweep(got, 4, voxel_sweep=sweep)
            assert got.tobytes() == ref.tobytes()
            assert n_tiles == -(-7 // min(sweep or 7, 7))

    def test_bitwise_with_degenerate_population(self):
        from repro.core.normalization import fused_normalize_sweep

        corr = corr_array(v=4, subjects=2, e=3, n=6, seed=10)
        corr[2, 3:6, 1] = 0.5  # constant within-subject population
        ref = normalize_separated(corr.copy(), 3)
        got = corr.copy()
        fused_normalize_sweep(got, 3, voxel_sweep=2)
        assert got.tobytes() == ref.tobytes()

    def test_workspace_reuse_across_calls(self):
        from repro.core.normalization import (
            NormalizationWorkspace,
            fused_normalize_sweep,
        )

        ws = NormalizationWorkspace()
        corr = corr_array(v=6, subjects=2, e=3, n=8, seed=11)
        ref = normalize_separated(corr.copy(), 3)
        for _ in range(2):
            got = corr.copy()
            fused_normalize_sweep(got, 3, voxel_sweep=2, workspace=ws)
            assert got.tobytes() == ref.tobytes()

    def test_validation(self):
        from repro.core.normalization import fused_normalize_sweep

        with pytest.raises(TypeError, match="float32"):
            fused_normalize_sweep(np.zeros((2, 4, 3)), 4)
        with pytest.raises(ValueError, match="divisible"):
            fused_normalize_sweep(np.zeros((2, 5, 3), dtype=np.float32), 4)
        with pytest.raises(ValueError, match=">= 1"):
            fused_normalize_sweep(np.zeros((2, 4, 3), dtype=np.float32), 0)
        with pytest.raises(TypeError, match="contiguous"):
            fused_normalize_sweep(
                np.zeros((4, 4, 6), dtype=np.float32)[:, :, ::2], 4
            )
