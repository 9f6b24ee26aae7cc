"""Tests for cache-driven blocking plans."""

import pytest

from repro.core.blocking import BlockingPlan, plan_blocks
from repro.hw import E5_2670, PHI_5110P


class TestBlockingPlan:
    def test_tile_bytes(self):
        p = BlockingPlan(voxel_block=4, target_block=32, epoch_block=6)
        assert p.tile_bytes() == 4 * 32 * 6 * 4

    def test_working_set_includes_inputs(self):
        p = BlockingPlan(voxel_block=4, target_block=32, epoch_block=6)
        ws = p.working_set_bytes(epoch_length=12)
        assert ws == p.tile_bytes() + (4 + 32) * 6 * 12 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockingPlan(0, 1, 1)


class TestPlanBlocks:
    def test_fits_phi_l2_budget(self):
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=12, epoch_length=12,
            n_assigned=120, n_voxels=34470,
        )
        budget = PHI_5110P.l2_per_thread_bytes() * 0.8
        assert plan.working_set_bytes(12) <= budget
        assert plan.epoch_block == 12

    def test_target_block_multiple_of_vpu(self):
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=12, epoch_length=12,
            n_assigned=120, n_voxels=34470,
        )
        assert plan.target_block % PHI_5110P.vpu_width_sp == 0

    def test_xeon_plan_valid(self):
        plan = plan_blocks(
            E5_2670, epochs_per_subject=12, epoch_length=12,
            n_assigned=120, n_voxels=34470,
        )
        assert plan.working_set_bytes(12) <= E5_2670.l2_per_thread_bytes() * 0.8
        assert plan.target_block % E5_2670.vpu_width_sp == 0

    def test_small_brain_caps_target_block(self):
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=4, epoch_length=12,
            n_assigned=8, n_voxels=50,
        )
        assert plan.target_block <= 50
        assert plan.voxel_block <= 8

    def test_degenerate_tiny_cache(self):
        """Even an absurd epoch count yields a usable (if tiny) plan."""
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=4000, epoch_length=12,
            n_assigned=16, n_voxels=1000,
        )
        assert plan.voxel_block >= 1
        assert plan.target_block >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_blocks(PHI_5110P, 0, 12, 10, 100)
        with pytest.raises(ValueError):
            plan_blocks(PHI_5110P, 4, 12, 10, 100, cache_fraction=0.0)

    def test_plans_usable_by_blocked_correlation(self):
        """The planner's output must be directly consumable by stage 1."""
        import numpy as np

        from repro.core.correlation import correlate_baseline, normalize_epoch_data
        from tests.oracles import correlate_blocked

        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=4, epoch_length=8,
            n_assigned=10, n_voxels=40,
        )
        z = normalize_epoch_data(
            np.random.default_rng(0).standard_normal((8, 40, 8)).astype(np.float32)
        )
        assigned = np.arange(10)
        out = correlate_blocked(
            z, assigned,
            voxel_block=plan.voxel_block,
            target_block=plan.target_block,
            epoch_block=plan.epoch_block,
        )
        np.testing.assert_array_equal(out, correlate_baseline(z, assigned))


class TestCandidateGuardFix:
    def test_tiny_n_assigned_gets_full_width_block(self):
        """n_assigned=3 used to be budgeted at b=4 (the smallest menu
        entry passing the old ``b > 2 * n_assigned`` guard); clamping
        before budgeting yields voxel_block == n_assigned."""
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=12, epoch_length=12,
            n_assigned=3, n_voxels=34470,
        )
        assert plan.voxel_block == 3
        assert plan.working_set_bytes(12) <= PHI_5110P.l2_per_thread_bytes() * 0.8

    def test_single_assigned_voxel(self):
        plan = plan_blocks(
            PHI_5110P, epochs_per_subject=12, epoch_length=12,
            n_assigned=1, n_voxels=34470,
        )
        assert plan.voxel_block == 1
        assert plan.target_block >= PHI_5110P.vpu_width_sp


class TestPlanCache:
    def test_memory_only_roundtrip(self):
        from repro.core.blocking import PlanCache

        cache = PlanCache()
        plan = BlockingPlan(4, 128, 12)
        assert cache.get("k") is None
        cache.put("k", plan)
        assert cache.get("k") == plan
        assert cache.hits == 1 and cache.misses == 1

    def test_json_persistence(self, tmp_path):
        from repro.core.blocking import PlanCache

        path = tmp_path / "plans.json"
        cache = PlanCache(path)
        cache.put("a", BlockingPlan(2, 64, 8))
        reloaded = PlanCache(path)
        assert reloaded.get("a") == BlockingPlan(2, 64, 8)
        assert len(reloaded) == 1

    def test_missing_file_is_empty(self, tmp_path):
        from repro.core.blocking import PlanCache

        cache = PlanCache(tmp_path / "nope.json")
        assert len(cache) == 0

    def test_corrupt_file_is_empty(self, tmp_path):
        from repro.core.blocking import PlanCache

        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert len(PlanCache(path)) == 0
        path.write_text('{"version": 99, "plans": {}}')
        assert len(PlanCache(path)) == 0
        path.write_text('{"version": 1, "plans": {"k": {"voxel_block": 0}}}')
        assert len(PlanCache(path)) == 0  # invalid entry skipped

    def test_flush_merges_other_writers_entries(self, tmp_path):
        """Two caches on one file must not drop each other's winners.

        The regression: the old flush rewrote the file from the local
        dict only, so whichever process flushed last erased everything
        the other had persisted.
        """
        from repro.core.blocking import PlanCache

        path = tmp_path / "plans.json"
        a = PlanCache(path)
        b = PlanCache(path)
        a.put("a-key", BlockingPlan(2, 64, 8))
        b.put("b-key", BlockingPlan(4, 128, 12))
        reloaded = PlanCache(path)
        assert reloaded.get("a-key") == BlockingPlan(2, 64, 8)
        assert reloaded.get("b-key") == BlockingPlan(4, 128, 12)

    def test_concurrent_writers_never_corrupt_the_file(self, tmp_path):
        """Hammer one cache file from many threads: the file must parse
        as valid JSON at every instant (unique temp file + atomic
        rename) and every writer keeps its own keys in memory.

        The old fixed ``.tmp`` temp path let two writers interleave
        write and rename and publish a torn or stale file, which a
        third run would then silently treat as an empty cache.
        """
        import json
        import threading

        from repro.core.blocking import PlanCache

        path = tmp_path / "plans.json"
        n_threads, n_keys = 8, 10
        barrier = threading.Barrier(n_threads)
        errors: list[Exception] = []
        caches: dict[int, PlanCache] = {}

        def writer(rank: int) -> None:
            cache = caches[rank] = PlanCache(path)
            barrier.wait()
            try:
                for i in range(n_keys):
                    cache.put(f"t{rank}-k{i}", BlockingPlan(1 + rank, 64, 8))
                    # The file must parse at every instant in between.
                    json.loads(path.read_text())
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(r,))
            for r in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Own keys never vanish from a writer's view, whatever the
        # interleaving; the final file is valid and non-empty.
        for rank, cache in caches.items():
            for i in range(n_keys):
                assert cache.get(f"t{rank}-k{i}") is not None
        final = PlanCache(path)
        assert len(final) > 0
        assert not list(tmp_path.glob("*.tmp")), "temp files left behind"


class TestAutotune:
    def _measure_counter(self, winner_block):
        calls = []

        def measure(plan):
            calls.append(plan)
            return 0.0 if plan.voxel_block == winner_block else 1.0

        return measure, calls

    def test_warm_cache_skips_measurement(self):
        from repro.core.blocking import PlanCache

        cache = PlanCache()
        measure, calls = self._measure_counter(winner_block=2)
        args = dict(
            epochs_per_subject=12, epoch_length=12,
            n_assigned=120, n_voxels=34470,
        )
        first = plan_blocks(
            PHI_5110P, autotune=True, cache=cache, measure=measure, **args
        )
        assert first.voxel_block == 2
        assert len(calls) > 0
        n_measured = len(calls)
        second = plan_blocks(
            PHI_5110P, autotune=True, cache=cache, measure=measure, **args
        )
        assert second == first
        assert len(calls) == n_measured  # warm cache: nothing re-measured
        assert cache.hits == 1

    def test_different_shapes_tune_separately(self):
        from repro.core.blocking import PlanCache

        cache = PlanCache()
        measure, _ = self._measure_counter(winner_block=1)
        plan_blocks(PHI_5110P, 12, 12, 120, 34470,
                    autotune=True, cache=cache, measure=measure)
        plan_blocks(PHI_5110P, 12, 12, 60, 34470,
                    autotune=True, cache=cache, measure=measure)
        assert cache.misses == 2
        assert len(cache) == 2

    def test_analytic_fallback_when_all_measurements_fail(self):
        from repro.core.blocking import PlanCache

        def broken(plan):
            raise RuntimeError("no timer")

        analytic = plan_blocks(PHI_5110P, 12, 12, 120, 34470)
        tuned = plan_blocks(
            PHI_5110P, 12, 12, 120, 34470,
            autotune=True, cache=PlanCache(), measure=broken,
        )
        assert tuned == analytic

    def test_autotune_without_explicit_cache_uses_default(self):
        from repro.core.blocking import default_plan_cache

        cache = default_plan_cache()
        measure, _ = self._measure_counter(winner_block=4)
        plan = plan_blocks(PHI_5110P, 7, 11, 33, 999,
                           autotune=True, measure=measure)
        assert plan.voxel_block == 4
        # And the winner is now resident in the process-wide cache.
        again = plan_blocks(PHI_5110P, 7, 11, 33, 999,
                            autotune=True, measure=measure)
        assert again == plan
        assert cache is default_plan_cache()

    def test_plan_key_discriminates(self):
        from repro.core.blocking import plan_key

        k1 = plan_key(PHI_5110P, 12, 12, 120, 34470)
        k2 = plan_key(PHI_5110P, 12, 12, 60, 34470)
        k3 = plan_key(E5_2670, 12, 12, 120, 34470)
        assert len({k1, k2, k3}) == 3
