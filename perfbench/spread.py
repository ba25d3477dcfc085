"""Run the benchmark on several seeds and report each metric's spread.

For every workload and end-to-end metric this runs seeds 1..10 and
prints the median, the quartiles (``statistics.quantiles(values, n=4)``),
the interquartile range as a share of the median, and the metric's bound
from BENCHMARK.json.  Use it to check that the benchmark is steady, and
to compare two commits run with identical settings.  From the checkout
root:

    python3 perfbench/spread.py [--traced] [--out FILE]

``--traced`` adds one ``--trace 1`` run per workload and keeps its
per-layer metrics; ``--out`` writes everything, with the environment
record of the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (result line, environment record)."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            result, env = run_once(spec, workload, seed, 0)
            runs.append(result)
            report.setdefault("environment", env)
        if not all(r["correct"] for r in runs):
            print(f"{workload}: a run reported correct = false", file=sys.stderr)
            return 1
        report[workload] = {}
        for name, bound in bounds.items():
            row = summarize([r["metrics"][name]["value"] for r in runs], bound)
            report[workload][name] = row
            flag = "" if row["steady"] or name == "setup_s" else "  <-- spread >= bound/3"
            print(f"{workload:<11} {name:<16} median {row['median']:10.5g}  "
                  f"q1 {row['q1']:10.5g}  q3 {row['q3']:10.5g}  "
                  f"spread {row['spread']:7.2%} (bound {bound:.0%}){flag}", flush=True)
        if args.traced:
            result, env = run_once(spec, workload, SEEDS[0], 1)
            report[workload]["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
            report[workload]["trace_environment"] = env
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
