"""Exact-count self-check of the FCMA benchmark.

Runs one workload traced twice on one seed and once on another::

    python3 perfbench/selfcheck.py --workload sparse-tcp --seed 1

The two same-seed runs must report identical solver, engine and
transport counts, and every run must pass its correctness gate.  Exits
non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Counts that depend only on the inputs, never on timing.
EXACT = (
    "svm.smo_sweeps",
    "svm.smo_problem_iters",
    "core.engine_gflop",
    "core.sparse_nnz",
    "parallel.msgs",
    "parallel.mb_sent",
)


def traced_run(workload: str, seed: int, seconds: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=HERE.parent,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", default="0")
    args = parser.parse_args(argv)

    first, second, other = (
        traced_run(args.workload, seed, args.seconds)
        for seed in (args.seed, args.seed, args.seed + 1)
    )
    ok = True
    for name in EXACT:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        same = a == b
        ok &= same
        print(f"{'ok  ' if same else 'FAIL'} {name}: {a!r} / {b!r} (seed {args.seed + 1}: "
              f"{other['metrics'][name]['value']!r})")
    for label, run in (("first", first), ("second", second), ("other seed", other)):
        passed = run["correct"] and run["failed"] == 0
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {label} run correct "
              f"({run['failed']} of {run['attempted']} failed)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
