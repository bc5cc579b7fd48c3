"""Parent/change pairs of the per-layer census and of every perfbench workload.

    python3 scripts/bench_pairs.py --parent /path/to/parent/checkout --out pairs.json

The change is this checkout; the parent is another coopforge checkout. For
the per-layer census and then for each workload of ``BENCHMARK.json``, PAIRS
pairs run both sides one after the other, one process at a time, the
parent first on even pairs. The census runs ``scripts/bench_layers.py`` of
this checkout against each side's ``src/``; a workload runs
``perfbench/run.py --trace 0`` in each checkout at ``run_seconds`` and the
pair's seed. The output holds every run and, per metric, each side's median
and quartiles, the pairs the change won and the ratio of medians. The
census metrics are its per-iteration totals and, prefixed ``per_run.``, its
totals per run outside the iterations.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 1100  # seeds FIRST_SEED .. FIRST_SEED + PAIRS - 1
SIDES = ("parent", "change")


def _sides(pair: int) -> tuple:
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def _quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": round(q1, 4), "p50": round(q2, 4), "p75": round(q3, 4), "n": len(values)}


def summarize(runs: list, name: str, better: str) -> dict:
    """Quartiles of each side, change wins over pairs and the ratio of medians."""
    by_pair = {}
    for run in runs:
        if run.get(name) is not None:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run[name]
    values = {side: [p[side] for p in by_pair.values() if side in p] for side in SIDES}
    both = [p for p in by_pair.values() if len(p) == 2]
    sign = 1 if better == "lower" else -1
    base = statistics.median(values["parent"])  # 0 for a census op the parent does not have
    return {
        **{side: _quartiles(values[side]) for side in SIDES},
        "change_wins": sum(sign * (p["change"] - p["parent"]) < 0 for p in both),
        "ties": sum(p["change"] == p["parent"] for p in both),
        "pairs": len(both),
        "ratio_of_medians": round(statistics.median(values["change"]) / base, 4) if base else None,
    }


def census_pairs(checkouts: dict) -> dict:
    runs, reports = [], {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(PAIRS):
            for order, side in enumerate(_sides(pair)):
                out = Path(tmp) / f"{side}-{pair}.json"
                src = checkouts[side] / "src"
                subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_layers.py"), "--src", str(src), "--out", str(out)], check=True)
                report = json.loads(out.read_text())
                reports[side].append(report)
                totals = {kind: q["p50"] for kind, q in report["ms_per_iter"].items()}
                totals.update({f"per_run.{kind}": q["p50"] for kind, q in report["ms_per_run"].items()})
                runs.append({"pair": pair, "side": side, "first": order == 0, **totals})
    timing = ("fwd_ms", "bwd_ms")
    layers = {}
    for side in SIDES:
        for report in reports[side]:
            for layer in report["layers"] + report["per_run_layers"]:
                key = tuple((k, str(v)) for k, v in layer.items() if k not in timing)
                entry = layers.setdefault(key, {k: v for k, v in layer.items() if k not in timing})
                for t in timing:
                    if layer[t] is not None:
                        entry.setdefault(f"{side}_{t}", []).append(layer[t]["p50"])
    for entry in layers.values():
        for name, values in entry.items():
            if name.startswith(SIDES) and name.endswith("_ms"):
                entry[name] = round(statistics.median(values), 4)
    return {
        "unit": "ms per dot training iteration (per_run.*: per dot run outside its iterations), call-count weighted; a run's value is the median over its repeats",
        "runs": runs,
        "summary": {kind: summarize(runs, kind, "lower") for kind in runs[0] if kind not in ("pair", "side", "first")},
        "layers": list(layers.values()),
        "machine": reports["change"][-1]["machine"],
    }


def workload_pairs(checkouts: dict, workload: str, seconds: float, metrics: list) -> dict:
    runs = []
    for pair in range(PAIRS):
        seed = FIRST_SEED + pair
        for order, side in enumerate(_sides(pair)):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=checkouts[side], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {"metrics": {}}
            run = {"pair": pair, "seed": seed, "side": side, "first": order == 0, "exit": proc.returncode}
            run.update(attempted=result.get("attempted"), failed=result.get("failed"))
            run.update({m["name"]: result["metrics"].get(m["name"], {}).get("value") for m in metrics})
            runs.append(run)
    return {
        "seeds": [FIRST_SEED + pair for pair in range(PAIRS)],
        "runs": runs,
        "failed_runs": sum(run["exit"] != 0 for run in runs),
        "summary": {m["name"]: summarize(runs, m["name"], m["better"]) for m in metrics},
    }


def _describe(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent coopforge checkout")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    checkouts = {"parent": Path(args.parent).resolve(), "change": ROOT}
    if not (checkouts["parent"] / "src" / "coopforge" / "__init__.py").is_file():
        sys.exit(f"error: no coopforge checkout at {checkouts['parent']}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    record = {
        "parent": _describe(checkouts["parent"]),
        "change": _describe(ROOT),
        "how": {
            "per_layer": f"scripts/bench_layers.py --src <side>/src; {PAIRS} pairs, the parent first on even pairs",
            "end_to_end": f"perfbench/run.py --workload <w> --seed <{FIRST_SEED} + pair> --seconds {seconds} --trace 0, run in each checkout; {PAIRS} pairs, the parent first on even pairs",
            "command": "python3 scripts/bench_pairs.py --parent <parent checkout> --out <file>",
        },
        "per_layer_census": census_pairs(checkouts),
        "end_to_end": {},
    }
    for workload in declared["workloads"]:
        name = workload["name"]
        record["end_to_end"][name] = workload_pairs(checkouts, name, seconds, declared["end_to_end"])
        p50 = record["end_to_end"][name]["summary"]["step_ms.p50"]
        print(f"{name}: step_ms.p50 {p50['parent']['p50']} -> {p50['change']['p50']} ms, change won {p50['change_wins']}/{p50['pairs']}")
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
