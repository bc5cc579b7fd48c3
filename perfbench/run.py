"""coopforge benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload ring-train --seed 0 --seconds 20 --trace 0

Run it from the root of a coopforge checkout; it imports coopforge from
``src/`` there and pins BLAS to one thread before numpy loads. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it holds
the per-layer metrics instead. The lines before it give every metric with
its unit and the machine facts. The exit code is 0 exactly when every
correctness check passed. Run artefacts go to ``.perfbench_runs/``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _pin_and_locate() -> None:
    """Put the checkout's coopforge first on the path, with one BLAS thread."""
    src = ROOT / "src"
    if not (src / "coopforge" / "__init__.py").is_file():
        sys.exit(f"error: no coopforge sources under {src}; run from the root of a coopforge checkout")
    if "numpy" in sys.modules:
        sys.exit("error: numpy was loaded before the BLAS thread count could be pinned")
    for var in ("COOPFORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]


def _number(value: float) -> float | None:
    return value if value == value else None  # NaN is not JSON


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="ring-train, dot-train or dot-translate")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="least timed wall time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    args = parser.parse_args(argv)

    _pin_and_locate()
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}")
    import_s = time.perf_counter() - _STARTED
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s, ROOT / ".perfbench_runs")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("facts " + json.dumps(result.facts, sort_keys=True))
    for error in result.outcome.errors:
        print("error " + error.strip().replace("\n", " | "))
    for name, value in result.metrics.items():
        print(f"  {name:<36} {value!r:>24} {bench.unit(name)}")
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    summary = {
        "correct": result.correct,
        "attempted": result.outcome.attempted,
        "failed": result.outcome.failed,
        "metrics": {name: {"value": _number(result.metrics[name]), "unit": bench.unit(name)} for name in names},
    }
    (result.run_dir / "result.json").write_text(json.dumps({**summary, "all_metrics": result.metrics, "facts": result.facts}, indent=1))
    print(json.dumps(summary))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
