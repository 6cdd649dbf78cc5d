"""Benchmark of ``carleson-lab`` through its command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload certify-closed --seed 1 --seconds 20 --trace 0

One run: generate the workload's inputs from ``--seed``; run the untimed
warm-up invocations; run timed invocations, each in a fresh process, for
at most ``--seconds`` (at least one); then time ``SETUP_STARTS`` fresh
start-ups (interpreter, ``import carleson_lab.cli``, ``parse_weight``).
Every report is checked against :mod:`reference`.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
:mod:`tracing` with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402

SETUP_STARTS = 9
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
PROCESS_TIMEOUT_S = 150
GRID = "@grid"  # replaced by ``grid:<generated file>``


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    warmups: int


# Warm-ups: a first certify after an idle spell pays about twice the system
# time to fault in 1.77 GB; back-to-back processes reuse warm pages.  The
# sampled certify reaches its dense stage 25 s after start, when the pages
# freed by any earlier process have gone cold again, so every invocation
# pays the same fault-in and a warm-up would change nothing.
WORKLOADS = {
    "certify-closed": Workload(
        ("certify", "--weight", "radial-power:1"), 1
    ),
    "certify-sampled": Workload(
        ("certify", "--weight", GRID), 0
    ),
    "embedding-deep": Workload(
        ("embedding", "--weight", GRID, "--quad-depth", "16", "--depth", "16"), 1
    ),
}


class BenchError(Exception):
    pass


def _expected(name: str, seed: int) -> checks.Expected:
    if name == "certify-closed":
        return checks.Expected(checks.EXACT, checks.RADIAL_QUADRATURE)
    weight = inputs.product_weight(seed)
    if name == "certify-sampled":
        return checks.Expected(
            checks.SAMPLED, checks.SAMPLED, eigenvalue=reference.gram_top_eigenvalue(weight.fourier)
        )
    return checks.Expected(
        checks.SAMPLED_EMBEDDING,
        checks.SAMPLED,
        embedding=reference.embedding_constant(weight.g_turn_integral, reference.outer, 16, 8),
    )


class Runner:
    def __init__(self, spec: str, trace: bool):
        self.spec = spec
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.env["PERFBENCH_TRACE"] = "1" if trace else "0"

    def start(self, cli_args=()) -> tuple[float, dict | None]:
        """Start one worker; return its time to ready and its result line."""
        cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), self.spec, *cli_args]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if first.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"worker {cmd[2:]} exited with {proc.returncode}: {first.strip()!r}")
        lines = out.strip().splitlines()
        return setup_s, (json.loads(lines[-1]) if cli_args else None)


def run(name: str, seed: int, seconds: float, trace: bool):
    if not (ROOT / "src" / "carleson_lab" / "cli.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    workload = WORKLOADS[name]
    rundir = ROOT / ".perfbench" / name
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    args = list(workload.args)
    if GRID in args:
        grid_file = rundir / "weight.txt"
        inputs.write_grid_file(str(grid_file), inputs.product_weight(seed))
        args[args.index(GRID)] = f"grid:{grid_file.relative_to(ROOT)}"
    spec = args[args.index("--weight") + 1]
    runner = Runner(spec, trace)
    expected = _expected(name, seed)

    outcome = checks.Outcome()

    def invoke(i: int) -> dict:
        report_path = (rundir / f"report-{i}.json").relative_to(ROOT)
        _, result = runner.start([*args, "--out", str(report_path)])
        with open(ROOT / report_path) as fh:
            report = json.load(fh)
        checks.check_report(report, result["exit_code"], expected, outcome, f"invocation {i}")
        return result

    for i in range(workload.warmups):
        invoke(i)
    # Stop before an invocation that would likely end after the deadline, so
    # a run never measures a long invocation's worth more than it was given.
    timed = []
    t_start = time.perf_counter()
    while not timed or (time.perf_counter() - t_start) * (len(timed) + 1) / len(timed) <= seconds:
        timed.append(invoke(workload.warmups + len(timed)))
    # Start-ups right after sustained work: after an idle spell of a few
    # seconds the same start-up took about 30 % longer (README.md, Noise).
    setups = [runner.start()[0] for _ in range(SETUP_STARTS)]

    def median(key):
        return statistics.median(r[key] for r in timed)

    header = (
        f"{name} seed={seed} blas_threads={BLAS_THREADS} invocations={workload.warmups} "
        f"warm-up + {len(timed)} timed setup_starts={SETUP_STARTS} trace={int(trace)} "
        f"wall_s={median('wall_s'):.4f}"
    )
    if trace:
        names = timed[0]["per_layer"]
        metrics = {
            k: {"value": statistics.median(r["per_layer"][k][0] for r in timed), "unit": names[k][1]}
            for k in names
        }
    else:
        metrics = {
            "wall_s": {"value": median("wall_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
        }
    return header, outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        header, outcome, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(header)
    for key, m in metrics.items():
        print(f"  {key:<48} {m['value']:>16.4f} {m['unit']}")
    print(f"  operations: {outcome.attempted} attempted, {outcome.failed} failed")
    for line in outcome.failures:
        print(f"  FAILED {line}")
    for line in outcome.problems:
        print(f"  WRONG  {line}")
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
