"""Record benchmark figures of one checkout into a ``BENCH_<pr>.json`` file.

Usage (from the repository root)::

    python3 tools/bench_record.py --out BENCH_32.json --label change --seed 11 --seconds 10

For each workload of ``perfbench/run.py`` (or each ``--workload``) the
recorder runs ``perfbench/run.py`` of the checkout ``--root`` unchanged, with
tracing off, and keeps its last line: ``correct``, ``failed`` and the
end-to-end metrics.  It then runs the workload's CLI invocation once more
in a fresh child and reads that child's own peak resident set (``VmHWM``
in ``/proc/self/status``) and the report's whole ``timings_ms``: the
``total`` and each stage and setup step.  The child's figure is the
program's: ``peak_rss_mb`` is read from ``ru_maxrss``, which a worker
inherits across fork and exec from ``perfbench/run.py``, so it cannot fall
below that process's own peak.

The recorder also times the CLI invocations that no workload runs, the
keys of ``INVOCATIONS`` (or each ``--invocation``), on the seed's grid
weight: each in ``--children`` fresh children alone, recording every
child and the median ``VmHWM`` and ``timings_ms`` entries.  With neither
``--workload`` nor ``--invocation`` it runs all of both.

Each call appends one run under ``runs[<label>]`` of ``--out`` (created if
missing), with the checkout's directory name, the machine (``nproc``, the
Python and numpy versions) and the line count of each
``src/carleson_lab/*.py``; ``summary`` holds each label's median and
quartiles per workload and metric over its runs, a child's stage ``s``
under ``child_ms:s``.  Alternate the labels of two checkouts, at paths of
equal length, to compare them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The child measures its own peak after running one CLI invocation.
_CHILD = """
import json, sys
from carleson_lab import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    hwm_kib = int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
with open(sys.argv[sys.argv.index("--out") + 1]) as fh:
    timings = json.load(fh)["timings_ms"]
print(json.dumps({"exit_code": code, "vmhwm_mb": hwm_kib / 1024.0, "total_ms": timings["total"],
                  "timings_ms": timings}))
"""


# The grid token of ``perfbench/run.py``: the seed's grid weight file.
GRID = "@grid"
# CLI invocations that no perfbench workload runs, timed by fresh children alone.
_TWO_WEIGHT = ("two-weight", "--nu", GRID, "--mu", "lebesgue")
INVOCATIONS = {
    "test-weight-grid": ("test-weight", "--weight", GRID),
    "two-weight-grid": _TWO_WEIGHT,
    "two-weight-grid-p3-q3": (*_TWO_WEIGHT, "--p", "3", "--q", "3"),
    "two-weight-grid-alpha0.5": (*_TWO_WEIGHT, "--alpha", "0.5"),
}


def _perfbench(root: Path):
    """The ``run`` module of the checkout's benchmark, for its workloads and inputs."""
    sys.path.insert(0, str(root / "perfbench"))
    import run  # noqa: PLC0415 - the checkout's own benchmark module

    return run


def _src_lines(root: Path) -> dict[str, int]:
    files = sorted((root / "src" / "carleson_lab").glob("*.py"))
    lines = {p.name: p.read_bytes().count(b"\n") for p in files}
    return {**lines, "total": sum(lines.values())}


def _machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),  # what ``nproc`` prints
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _last_line(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _child(root: Path, bench, args, seed: int, scratch: Path) -> dict:
    args = list(args)
    if bench.GRID in args:
        grid = scratch / "weight.txt"
        if not grid.exists():  # one seed per call
            bench.inputs.write_grid_file(str(grid), bench.inputs.product_weight(seed))
        args[args.index(bench.GRID)] = f"grid:{grid}"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(bench.BLAS_THREADS)
    cmd = [sys.executable, "-c", _CHILD, *args, "--out", str(scratch / "report.json")]
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _summary(runs: dict) -> dict:
    out: dict = {}
    for label, entries in runs.items():
        figures: dict = {}
        for entry in entries:
            for workload, rec in entry["workloads"].items():
                row = figures.setdefault(workload, {})
                for name, metric in rec["perfbench"]["metrics"].items():
                    row.setdefault(name, []).append(metric["value"])
            for workload, rec in {**entry["workloads"], **entry.get("invocations", {})}.items():
                row = figures.setdefault(workload, {})
                for name in ("vmhwm_mb", "total_ms"):
                    row.setdefault(f"child_{name}", []).append(rec["child"][name])
                for name, ms in rec["child"].get("timings_ms", {}).items():
                    row.setdefault(f"child_ms:{name}", []).append(ms)
        out[label] = {w: {m: _quartiles(v) for m, v in row.items()} for w, row in figures.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<pr>.json file to append to")
    parser.add_argument("--label", required=True, help="the run's side, e.g. parent or change")
    parser.add_argument("--root", default=".", help="the checkout to measure")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--invocation", action="append", choices=sorted(INVOCATIONS),
                        help="default: every invocation")
    parser.add_argument("--children", type=int, default=5,
                        help="fresh children per invocation")
    args = parser.parse_args(argv)
    if args.children < 1:
        parser.error("--children must be at least 1")
    root = Path(args.root).resolve()
    bench = _perfbench(root)
    chosen = args.workload or args.invocation
    workloads = args.workload or ([] if chosen else list(bench.WORKLOADS))
    invocations = args.invocation or ([] if chosen else list(INVOCATIONS))
    entry = {
        "checkout": root.name,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": _machine(),
        "src_lines": _src_lines(root),
        "workloads": {},
        "invocations": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for workload in workloads:
            entry["workloads"][workload] = {
                "perfbench": _last_line(root, workload, args.seed, args.seconds),
                "child": _child(root, bench, bench.WORKLOADS[workload].args, args.seed, scratch),
            }
        for name in invocations:
            children = [
                _child(root, bench, INVOCATIONS[name], args.seed, scratch)
                for _ in range(args.children)
            ]
            entry["invocations"][name] = {
                "args": list(INVOCATIONS[name]),
                "children": children,
                "child": {
                    "exit_code": max(c["exit_code"] for c in children),
                    **{k: statistics.median(c[k] for c in children) for k in ("vmhwm_mb", "total_ms")},
                    "timings_ms": {
                        k: statistics.median(c["timings_ms"][k] for c in children)
                        for k in children[0]["timings_ms"]
                    },
                },
            }
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    record["runs"].setdefault(args.label, []).append(entry)
    record["summary"] = _summary(record["runs"])
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    ok = all(
        rec["perfbench"]["correct"] is True and rec["perfbench"]["failed"] == 0
        and rec["child"]["exit_code"] == 0
        for rec in entry["workloads"].values()
    ) and all(rec["child"]["exit_code"] == 0 for rec in entry["invocations"].values())
    print(json.dumps({"workloads": entry["workloads"],
                      "invocations": {k: v["child"] for k, v in entry["invocations"].items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
