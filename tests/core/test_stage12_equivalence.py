"""Cross-path stage-1/2 equivalence: baseline vs blocked vs batched.

The acceptance bar of the fused batched engine: every execution path
computes the same correlations (float32 tolerance — BLAS may pick
different accumulation kernels per shape) and the fused normalizer is
*bitwise* identical to the separated reference on the shared gemm
output.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import (
    correlate_baseline,
    correlate_batched,
    correlate_normalize_batched,
    normalize_epoch_data,
)
from repro.core.normalization import normalize_separated
from repro.obs import Tracer, use_tracer
from tests.oracles import correlate_blocked, correlate_blocked_reference

# (n_epochs, n_voxels, epoch_len, n_assigned, voxel_block, target_block,
#  epochs_per_subject) — deliberately awkward shapes: n_voxels not
# divisible by target_block, V == 1, single-subject M == e_per_subject.
SHAPES = [
    pytest.param(8, 40, 12, 10, 4, 16, 4, id="even"),
    pytest.param(6, 37, 9, 12, 5, 16, 3, id="ragged-targets"),
    pytest.param(6, 23, 7, 1, 4, 8, 3, id="single-voxel"),
    pytest.param(4, 19, 11, 6, 16, 64, 4, id="single-subject"),
    pytest.param(12, 53, 5, 17, 3, 10, 4, id="prime-everything"),
    pytest.param(3, 8, 6, 8, 1, 3, 1, id="epoch-population-of-one"),
]


def _problem(n_epochs, n_voxels, epoch_len, n_assigned, seed):
    rng = np.random.default_rng(seed)
    z = normalize_epoch_data(
        rng.standard_normal((n_epochs, n_voxels, epoch_len)).astype(np.float32)
    )
    assigned = rng.choice(n_voxels, size=n_assigned, replace=False)
    assigned.sort()
    return z, assigned


class TestStage1Equivalence:
    @pytest.mark.parametrize(
        "n_epochs,n_voxels,epoch_len,n_assigned,vb,tb,eps", SHAPES
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_paths_agree(
        self, n_epochs, n_voxels, epoch_len, n_assigned, vb, tb, eps, seed
    ):
        z, assigned = _problem(n_epochs, n_voxels, epoch_len, n_assigned, seed)
        base = correlate_baseline(z, assigned)
        blocked = correlate_blocked(
            z, assigned, voxel_block=vb, target_block=tb, epoch_block=eps
        )
        reference = correlate_blocked_reference(
            z, assigned, voxel_block=vb, target_block=tb, epoch_block=eps
        )
        batched = correlate_batched(z, assigned)
        np.testing.assert_allclose(blocked, base, atol=3e-7, rtol=0)
        np.testing.assert_allclose(reference, base, atol=3e-7, rtol=0)
        np.testing.assert_allclose(batched, base, atol=3e-7, rtol=0)


class TestFusedStage12Equivalence:
    @pytest.mark.parametrize(
        "n_epochs,n_voxels,epoch_len,n_assigned,vb,tb,eps", SHAPES
    )
    def test_fused_bitwise_equals_batched_plus_separated(
        self, n_epochs, n_voxels, epoch_len, n_assigned, vb, tb, eps
    ):
        """Same gemm output in, so the comparison is exact: the fused
        sweep must reproduce ``normalize_separated`` bit for bit, for
        any sweep width."""
        z, assigned = _problem(n_epochs, n_voxels, epoch_len, n_assigned, 2)
        reference = normalize_separated(correlate_batched(z, assigned), eps)
        for sweep in (1, vb, n_assigned, None):
            fused, n_tiles = correlate_normalize_batched(
                z, assigned, eps, voxel_sweep=sweep
            )
            assert fused.tobytes() == reference.tobytes()
            expected_tiles = -(-n_assigned // (sweep or n_assigned))
            assert n_tiles == expected_tiles

    def test_fused_rejects_bad_epoch_grouping(self):
        z, assigned = _problem(5, 12, 6, 4, 0)
        with pytest.raises(ValueError, match="divisible"):
            correlate_normalize_batched(z, assigned, 4)
        with pytest.raises(ValueError, match=">= 1"):
            correlate_normalize_batched(z, assigned, 0)


# -- property-based sweep over random ragged shapes -----------------------

@st.composite
def _random_problem(draw):
    """A random, usually awkward, stage-1/2 problem shape.

    Shapes hypothesis explores here include every edge the hand-picked
    ``SHAPES`` list pins — single voxels, single subjects, prime
    dimensions, sweep widths that do not divide the voxel count — plus
    whatever else shrinks out of the search.
    """
    eps = draw(st.integers(1, 5))
    n_subjects = draw(st.integers(1, 4))
    epoch_len = draw(st.integers(2, 12))
    n_voxels = draw(st.integers(1, 40))
    n_assigned = draw(st.integers(1, n_voxels))
    sweep = draw(st.one_of(st.none(), st.integers(1, 2 * n_assigned)))
    seed = draw(st.integers(0, 2**16 - 1))
    return eps * n_subjects, n_voxels, epoch_len, n_assigned, eps, sweep, seed


class TestPropertyBasedEquivalence:
    """Random-shape equivalence, executed under an ambient tracer.

    Running inside ``use_tracer`` pins a second property at zero extra
    cost: tracing must never perturb numerics — every path produces the
    same bits with and without a tracer installed.
    """

    @settings(max_examples=40, deadline=None)
    @given(_random_problem())
    def test_fused_bitwise_equals_separated(self, params):
        n_epochs, n_voxels, epoch_len, n_assigned, eps, sweep, seed = params
        z, assigned = _problem(n_epochs, n_voxels, epoch_len, n_assigned, seed)
        untraced, untraced_tiles = correlate_normalize_batched(
            z, assigned, eps, voxel_sweep=sweep
        )
        with use_tracer(Tracer()):
            reference = normalize_separated(
                correlate_batched(z, assigned), eps
            )
            fused, n_tiles = correlate_normalize_batched(
                z, assigned, eps, voxel_sweep=sweep
            )
        assert fused.tobytes() == reference.tobytes()
        assert fused.tobytes() == untraced.tobytes()
        effective = min(sweep or n_assigned, n_assigned)
        assert n_tiles == untraced_tiles == -(-n_assigned // effective)

    @settings(max_examples=40, deadline=None)
    @given(_random_problem())
    def test_batched_matches_baseline_correlation(self, params):
        n_epochs, n_voxels, epoch_len, n_assigned, eps, _sweep, seed = params
        z, assigned = _problem(n_epochs, n_voxels, epoch_len, n_assigned, seed)
        base = correlate_baseline(z, assigned)
        with use_tracer(Tracer()):
            batched = correlate_batched(z, assigned)
            reference = correlate_blocked_reference(
                z, assigned,
                voxel_block=max(1, n_assigned // 2),
                target_block=max(1, n_voxels // 3),
                epoch_block=eps,
            )
        np.testing.assert_allclose(batched, base, atol=3e-7, rtol=0)
        np.testing.assert_allclose(reference, base, atol=3e-7, rtol=0)
