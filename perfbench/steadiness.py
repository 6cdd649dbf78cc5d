"""Repeat the benchmark and report how much each metric spreads.

Usage (from the repository root)::

    python3 perfbench/steadiness.py [--traced 2]

Runs ``run.py`` once per seed 1 .. 10 on each workload of
``BENCHMARK.json``, exactly as it gives the command, then prints for
every end-to-end metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread ``(q3 - q1) / median`` next to a third of its
bound, plus the failed share of operations.  ``--traced N`` adds N traced
runs per workload and prints the tracing overhead, the traced median
``wall_s`` minus the untraced one.  The last line is the whole summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds, trace):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    head = proc.stdout.splitlines()[0]
    return json.loads(proc.stdout.strip().splitlines()[-1]), float(
        re.search(r"wall_s=([0-9.]+)", head).group(1)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m: [] for m in bounds}
        shares = set()
        correct = True
        for seed in SEEDS:
            result, _ = run_once(bench["command"], workload, seed, bench["run_seconds"], 0)
            correct &= result["correct"]
            shares.add((result["failed"], result["attempted"]))
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{m}={result['metrics'][m]['value']:.4f}" for m in bounds
            ) + f" failed={result['failed']}/{result['attempted']}", flush=True)
        row = {"correct": correct, "failed_share": sorted({f / a for f, a in shares}), "metrics": {}}
        for m, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            row["metrics"][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                 "bound": bounds[m], "values": vals}
            flag = "ok" if spread < bounds[m] / 3 else "WIDE"
            print(f"  {workload:<16} {m:<12} median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {spread:.4f} (bound/3 {bounds[m] / 3:.4f}) {flag}", flush=True)
        print(f"  {workload:<16} correct {correct} failed share {row['failed_share']}", flush=True)
        if args.traced:
            walls = [run_once(bench["command"], workload, seed, bench["run_seconds"], 1)[1]
                     for seed in SEEDS[: args.traced]]
            traced = statistics.median(walls)
            untraced = row["metrics"]["wall_s"]["median"]
            row["tracing_overhead_s"] = traced - untraced
            print(f"  {workload:<16} traced wall_s {traced:.4f} overhead "
                  f"{traced - untraced:+.4f} s ({(traced - untraced) / untraced:+.2%})", flush=True)
        summary[workload] = row
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
