"""FCMA end-to-end benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload dense-serial --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` also runs it once under the layer wrappers and
prints the per-layer metrics.  Every metric the run computed is printed
as a ``metric`` line (name, value, unit, samples) before the last line,
which is the JSON result object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import time

START = time.perf_counter()

# Pin BLAS/OpenMP to one thread before numpy loads; spawned TCP workers
# inherit the environment.  Unpinned OpenBLAS starts one thread per core
# in every process and oversubscribes the box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: How often set-up repeats; set-up time is the median.
SETUP_REPEATS = 3


def _result_metrics(trace: bool) -> list[str]:
    """Names the result object carries: BENCHMARK.json's end-to-end or per-layer list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/repro")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from harness import environment_stamp, median, nproc, result_line
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if workload.workers > nproc():
        raise SystemExit(
            f"perfbench: {args.workload} needs {workload.workers} workers, "
            f"this machine has {nproc()} CPUs"
        )

    imported_s = time.perf_counter() - START
    generate = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.inputs(args.seed)
        generate.append(time.perf_counter() - t0)

    run = workload.traced if args.trace else workload.measure
    try:
        out = run(inputs, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    out.put("setup_s", imported_s + median(generate), "s", SETUP_REPEATS)
    out.put("data.generate_s", median(generate), "s", SETUP_REPEATS)

    for name, (value, unit, samples) in out.report.items():
        print(f"metric {name} = {value:.6g} {unit} (samples={samples})")
    for note in out.notes:
        print(f"note {note}")
    for reason in out.tally.reasons:
        print(f"fail {reason}")
    print("env " + json.dumps(environment_stamp(ROOT, args.seed, args.workload)))
    metrics = {name: out.report[name][:2] for name in _result_metrics(bool(args.trace))}
    print(result_line(out.tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
