"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from harness import (  # noqa: E402
    Tally,
    classify_step,
    classify_steps,
    count_bad_scores,
    derive_seed,
    latency_summary,
    percentile,
    result_line,
    tail_percentile,
)
from layers import LayerTrace, Wrap, wrapped_layers  # noqa: E402


# -- percentile rule ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (1400, 99.0),  # 14 beyond p99
        (1000, 99.0),  # exactly 10 beyond p99
        (999, 95.0),  # 9.99 beyond p99 is too few
        (10_000, 99.9),
        (100, 90.0),
        (75, 80.0),  # the feedback steps of one session
        (40, 75.0),
        (20, 50.0),
        (19, None),
        (1, None),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    values = rng.exponential(size=101).tolist()
    for q in (0.0, 12.5, 50.0, 80.0, 99.0, 100.0):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_latency_summary_reports_tail_only_with_enough_samples():
    few = latency_summary([0.001] * 15)
    assert few["p50"] == pytest.approx(1.0) and "tail" not in few
    many = latency_summary([i / 1e3 for i in range(1, 1001)])
    assert many["tail_q"] == 99.0
    assert many["tail"] == pytest.approx(np.percentile(np.arange(1, 1001), 99.0))


# -- failed_frac accounting -------------------------------------------------


def test_tally_counts_individual_failures():
    tally = Tally()
    tally.add(240, 0)
    tally.add(240, 3, "3 invalid")
    assert (tally.attempted, tally.failed) == (480, 3)
    assert tally.failed_frac == pytest.approx(3 / 480)
    assert not tally.correct and tally.reasons == ["3 invalid"]


def test_failed_gate_fails_every_operation_before_and_after():
    tally = Tally()
    tally.add(100)
    tally.fail_all("gate")
    tally.add(50)
    assert tally.failed == tally.attempted == 150
    assert tally.failed_frac == 1.0 and not tally.correct


def test_tally_rejects_impossible_counts_and_empty_runs():
    with pytest.raises(ValueError):
        Tally().add(1, 2)
    assert not Tally().correct
    assert Tally().failed_frac == 1.0


def test_count_bad_scores():
    assert count_bad_scores([0.0, 0.5, 1.0]) == 0
    assert count_bad_scores([math.nan, math.inf, -0.1, 1.1, 0.7]) == 4


def test_result_line_has_exactly_the_contract_keys():
    tally = Tally()
    tally.add(10)
    line = json.loads(result_line(tally, {"select_s": (1.25, "s")}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 10 and line["failed"] == 0
    assert line["metrics"] == {"select_s": {"value": 1.25, "unit": "s"}}
    with pytest.raises(ValueError):
        result_line(tally, {"select_s": (math.nan, "s")})


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert len({derive_seed(s, k) for s in range(5) for k in range(3)}) == 15


# -- step classification -------------------------------------------------------


def test_classify_step_precedence():
    assert classify_step(False, 0, 0, 0) == "warmup"
    assert classify_step(False, 1, 0, 0) == "train"
    assert classify_step(True, 0, 0, 0) == "tr"
    assert classify_step(True, 0, 1, 0) == "close"
    # A retrain step also closed (and classified) an epoch.
    assert classify_step(True, 0, 1, 1) == "retrain"


def test_classify_steps_from_cumulative_marks():
    marks = [
        (0.0, 0, 0, 0),
        (1.0, 0, 0, 0),  # warmup step 0 -> 1
        (3.0, 1, 0, 0),  # step that trained
        (3.5, 1, 0, 0),  # tr
        (4.5, 1, 1, 0),  # close
        (4.75, 1, 2, 1),  # retrain
    ]
    assert classify_steps(marks) == [
        ("warmup", 1.0),
        ("train", 2.0),
        ("tr", 0.5),
        ("close", 1.0),
        ("retrain", 0.25),
    ]


def test_steps_of_a_real_session_match_its_events():
    from workloads import RealTime

    wl = RealTime(
        n_voxels=120, epochs=24, training_epochs=8, top_k=8,
        retrain_every=4, window_epochs=12, datasets=1,
    )
    run = wl.session(wl.inputs(3)[0])
    kinds = [kind for kind, _ in run.steps]
    assert len(kinds) == run.session._scanner.n_volumes
    assert kinds.count("train") == 1
    assert kinds.count("retrain") == run.session.retrain_count == 4
    assert kinds.count("close") + kinds.count("retrain") == len(run.result.events) == 16
    assert kinds.index("train") > 0 and set(kinds[: kinds.index("train")]) == {"warmup"}
    assert len(run.selections) == 1 + run.session.retrain_count


# -- layer wrappers -------------------------------------------------------------


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_and_attribution():
    # op [0, 10] > a [1, 4] > b [2, 3]; op > c [4.5, 5]
    trace = LayerTrace(clock=_fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 4.5, 5.0, 10.0]))
    with trace.span("op"):
        with trace.span("a"):
            with trace.span("b"):
                pass
        with trace.span("c"):
            pass
    assert trace.total("a") == 3.0 and trace.self_total("a") == 2.0
    assert trace.self_total("op") == pytest.approx(10.0 - 3.0 - 0.5)
    assert trace.attribution(["op"]) == (10.0, pytest.approx(6.5))
    assert {s.root for s in trace.spans} == {"op"}


def _module_with_layers():
    mod = types.ModuleType("perfbench_fake_layer")

    def double(x):
        return 2 * x

    class Engine:
        def step(self, x):
            return x + 1

    mod.double, mod.Engine = double, Engine
    sys.modules[mod.__name__] = mod
    return mod


def test_wrappers_count_and_are_restored_even_on_error():
    mod = _module_with_layers()
    double, step = mod.double, mod.Engine.__dict__["step"]
    trace = LayerTrace()
    wraps = [
        Wrap(f"{mod.__name__}:double", "fake.double", lambda a, k, r: {"out": r}),
        Wrap(f"{mod.__name__}:Engine.step", "fake.step"),
    ]
    with pytest.raises(RuntimeError):
        with wrapped_layers(trace, wraps):
            assert mod.double(3) == 6 and mod.Engine().step(1) == 2
            assert mod.double is not double
            raise RuntimeError("boom")
    assert mod.double is double and mod.Engine.__dict__["step"] is step
    assert trace.calls("fake.double") == 1 and trace.count("fake.double", "out") == 6
    assert trace.calls("fake.step") == 1


def test_pipeline_wrappers_are_restored_after_a_traced_run():
    from layers import resolve
    from workloads import PIPELINE_WRAPS, REALTIME_WRAPS, SELECT_TARGET, RealTime

    targets = [w.target for w in PIPELINE_WRAPS + REALTIME_WRAPS] + [SELECT_TARGET]

    def originals():
        found = {}
        for target in targets:
            owner, attr = resolve(target)
            found[target] = owner.__dict__[attr]
        return found

    before = originals()
    wl = RealTime(
        n_voxels=120, epochs=16, training_epochs=8, top_k=8,
        retrain_every=4, window_epochs=12, datasets=1,
    )
    out = wl.traced(wl.inputs(1), seconds=0.0)
    assert originals() == before
    assert out.tally.correct
    assert out.report["svm.smo_calls"][0] > 0
    assert out.report["rtfmri.push_tr_us"][2] > 0  # samples
    assert out.report["trace.attributed_frac"][0] > 0.9


def test_offline_gate_failure_fails_every_voxel():
    from workloads import Offline, Outcome, Sample

    def broken_gate(*_args):
        raise AssertionError("mismatch")

    wl = Offline(
        name="stub", n_voxels=4, config=None, make_executor=None, workers=1,
        auc_floor=0.5, gate=broken_gate,
    )
    scores = SimpleNamespace(voxels=np.arange(4), accuracies=np.array([0.9, 0.6, 0.5, 0.4]))
    inputs = SimpleNamespace(dataset=SimpleNamespace(n_voxels=4), truth=np.array([0]))
    ok = Outcome()
    passing = Offline(**{**wl.__dict__, "gate": lambda *a: None})
    passing.check([Sample(1.0, scores, inputs)], 1, ok)
    assert (ok.tally.attempted, ok.tally.failed) == (4, 0)
    out = Outcome()
    wl.check([Sample(1.0, scores, inputs), Sample(1.0, scores, inputs)], 1, out)
    assert (out.tally.attempted, out.tally.failed) == (8, 8)
    assert "gate raised AssertionError" in out.tally.reasons[0]


def test_offline_missing_voxel_is_one_failed_operation():
    from workloads import Offline, Outcome, Sample

    wl = Offline(
        name="stub", n_voxels=4, config=None, make_executor=None, workers=1,
        auc_floor=0.0, gate=lambda *a: None,
    )
    scores = SimpleNamespace(voxels=np.array([0, 1, 2]), accuracies=np.array([0.9, 0.6, 0.5]))
    inputs = SimpleNamespace(dataset=SimpleNamespace(n_voxels=4), truth=np.array([0]))
    out = Outcome()
    wl.check([Sample(1.0, scores, inputs)], 1, out)
    assert (out.tally.attempted, out.tally.failed) == (4, 1)
