"""Pure bookkeeping of the FCMA benchmark: no timing, no pipeline calls.

Everything here is deterministic so ``perfbench/tests`` can pin it:
the percentile rule, operation accounting, closed-loop step
classification, the result line, and the environment stamp.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

#: Percentiles the tail rule may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def tail_percentile(n_samples: int) -> float | None:
    """The highest percentile of ``ladder`` with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    The count beyond ``q`` is ``n * (1 - q/100)``: with 1,400 samples
    that is p99 (14 beyond), with 75 samples p80 (15 beyond).
    """
    for q in TAIL_LADDER:
        if n_samples * (1.0 - q / 100.0) >= MIN_BEYOND - 1e-9:
            return q
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def derive_seed(seed: int, k: int) -> int:
    """Seed of a run's ``k``-th dataset: a pure function of ``(seed, k)``."""
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass
class Tally:
    """Operations attempted and failed in one run.

    An operation is a voxel (offline workloads) or a TR step
    (``rtfmri-stream``).  It fails if it raised, produced a non-finite
    or out-of-range score, or missed its latency limit; a run whose
    correctness gate fails counts every operation it attempted as
    failed.
    """

    attempted: int = 0
    #: Operations that failed on their own (raised, invalid, late).
    bad: int = 0
    #: Set once the run fails its gate; from then on every operation
    #: attempted, before or after, counts as failed.
    gate_failed: bool = False
    #: Human-readable reasons, one per failure cause.
    reasons: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, reason: str | None = None) -> None:
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError(f"bad tally: {failed} failed of {attempted}")
        self.attempted += attempted
        self.bad += failed
        if failed and reason:
            self.reasons.append(reason)

    def fail_all(self, reason: str) -> None:
        """The run failed its gate: every operation it attempts failed."""
        self.gate_failed = True
        self.reasons.append(reason)

    @property
    def failed(self) -> int:
        return self.attempted if self.gate_failed else self.bad

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def count_bad_scores(accuracies: Iterable[float]) -> int:
    """Scores that are not finite or fall outside [0, 1]."""
    return sum(
        1 for a in accuracies if not (math.isfinite(a) and 0.0 <= a <= 1.0)
    )


# -- closed-loop steps ------------------------------------------------------

def classify_step(trained_before: bool, trains: int, closes: int, retrains: int) -> str:
    """Kind of one volume step from what the session did during it.

    ``warmup`` before the first model, ``train`` for the step that trains
    it, ``tr`` for a plain TR step, ``close`` for an epoch close that
    classifies, ``retrain`` for an epoch close that also retrains.

    ``trains``, ``closes`` and ``retrains`` are how many initial
    trainings, feedback epoch closes and retrains completed between
    this volume's pull and the next one.
    """
    if retrains:
        return "retrain"
    if trains:
        return "train"
    if closes:
        return "close"
    return "tr" if trained_before else "warmup"


def classify_steps(marks: Sequence[tuple[float, int, int, int]]) -> list[tuple[str, float]]:
    """Turn per-pull stamps into ``(kind, seconds)`` steps.

    ``marks[i]`` is ``(time, trains, closes, retrains)`` read at pull
    ``i`` (cumulative counters); the final mark is taken after the
    stream ends, so ``len(marks) - 1`` steps result.
    """
    steps = []
    for (t0, tr0, c0, r0), (t1, tr1, c1, r1) in zip(marks, marks[1:]):
        kind = classify_step(tr0 > 0, tr1 - tr0, c1 - c0, r1 - r0)
        steps.append((kind, t1 - t0))
    return steps


def latency_summary(seconds: Sequence[float]) -> dict[str, float]:
    """Median and tail (by :func:`tail_percentile`) of step latencies, in ms."""
    out = {"n": float(len(seconds))}
    if not seconds:
        return out
    scaled = [s * 1e3 for s in seconds]
    out["p50"] = median(scaled)
    q = tail_percentile(len(scaled))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(scaled, q)
    return out


# -- output -------------------------------------------------------------------


def result_line(tally: Tally, metrics: Mapping[str, tuple[float, str]]) -> str:
    """The benchmark's last stdout line: verdict, counts and metrics."""
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    return json.dumps(
        {
            "correct": tally.correct,
            "attempted": int(tally.attempted),
            "failed": int(tally.failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def environment_stamp(root: Path, seed: int, workload: str) -> dict[str, object]:
    """Where and how a result was measured."""
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        pass
    threads = {
        var: os.environ.get(var, "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(root),
        "nproc": nproc(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
    }
