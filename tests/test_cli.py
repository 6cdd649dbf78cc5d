import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import carleson_lab
from carleson_lab import cli, dirichlet, dyadic, measures
from carleson_lab.cli import Report, RunConfig, bench, main, run
from carleson_lab.dirichlet import theorem_pipeline
from carleson_lab.errors import ConfigError, WeightSpecError
from carleson_lab.geometry import GRIDS
from carleson_lab.measures import MAX_CELLS_ENV, build_quadrature

try:
    import threadpoolctl
except ImportError:
    threadpoolctl = None

SEED = 20260810


def small_cfg(**kwargs) -> RunConfig:
    base = dict(
        command="test-weight",
        weight="lebesgue",
        depth=8,
        quad_depth=6,
        samples=200,
        seed=SEED,
    )
    base.update(kwargs)
    return RunConfig(**base)


def strip_timings(report: Report) -> str:
    payload = json.loads(report.to_json())
    payload.pop("timings_ms")
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# determinism and schema
# ---------------------------------------------------------------------------


def test_reports_are_deterministic_modulo_timings():
    code1, rep1 = run(small_cfg())
    code2, rep2 = run(small_cfg())
    assert code1 == code2 == 0
    assert strip_timings(rep1) == strip_timings(rep2)
    assert json.loads(rep1.to_json())["timings_ms"]


def test_report_schema_keys():
    _, rep = run(small_cfg())
    payload = json.loads(rep.to_json())
    assert set(payload) == {
        "schema_version",
        "command",
        "config",
        "stages",
        "timings_ms",
    }
    assert payload["schema_version"] == 1
    for stage in payload["stages"]:
        assert set(stage) == {"name", "verdict", "constants", "witness"}


def test_report_roundtrips_through_json():
    _, rep = run(small_cfg())
    payload = json.loads(rep.to_json())
    again = Report(
        command=payload["command"],
        config=payload["config"],
        stages=payload["stages"],
        timings_ms=payload["timings_ms"],
    )
    assert json.loads(again.to_json()) == payload


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_test_weight_reports_three_quarters():
    code, rep = run(small_cfg(depth=16))
    assert code == 0
    stage = rep.stages[0]
    assert stage["name"] == "reverse-doubling"
    assert stage["constants"]["delta_hat"] == pytest.approx(0.75, abs=1e-9)


def test_certify_radial_power(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "certify",
            "--weight",
            "radial-power:1",
            "--depth",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    names = [s["name"] for s in payload["stages"]]
    assert "reverse-doubling" in names and "carleson-constant" in names
    assert all(s["verdict"] for s in payload["stages"])


CERTIFY_PEAK_RSS_CEILING_MB = 250

# The child measures itself, by the high-water mark of its own address
# space.  RUSAGE_CHILDREN of the test process reports the largest child it
# ever waited for, and the child's own ru_maxrss starts at the test
# process's peak, which Linux carries across fork and exec.
_CERTIFY_IN_CHILD = """
import sys
from carleson_lab import cli
code = cli.main(["certify", "--weight", "radial-power:1", "--depth", "8", "--out", sys.argv[1]])
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, hwm)
"""


def run_child(script: str, *args: str) -> str:
    """The stdout of ``python -c script args`` in a fresh interpreter that
    imports this checkout's package."""
    src = str(Path(carleson_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return done.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_certify_peak_memory_stays_under_the_ceiling(tmp_path):
    code, maxrss_kib = map(int, run_child(_CERTIFY_IN_CHILD, str(tmp_path / "report.json")).split())
    assert code == 0
    assert maxrss_kib / 1024 < CERTIFY_PEAK_RSS_CEILING_MB


_RANDOM_LOADED_IN_CHILD = """
import sys
from carleson_lab import cli
code = cli.main(sys.argv[1:])
print(code, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize(
    "command",
    [
        ["certify", "--weight", "radial-power:1"],
        ["two-weight", "--nu", "radial-power:1", "--mu", "lebesgue", "--p", "3", "--q", "3"],
    ],
)
def test_norm_check_at_p_equal_q_loads_no_random_generator(command, tmp_path):
    # Every p = q solve starts from the fixed vector or a prolonged iterate.
    out = run_child(_RANDOM_LOADED_IN_CHILD, *command, "--out", str(tmp_path / "report.json"))
    assert out.split() == ["0", "False"]


@pytest.mark.parametrize("sampled", [True, False], ids=["grid", "radial-power"])
def test_embedding_loads_no_random_generator(sampled, tmp_path):
    # The test function is a fixed function of the cell index and the seed.
    weight = write_sampled_weight(tmp_path / "w.grid") if sampled else "radial-power:1"
    command = ["embedding", "--weight", weight, "--out", str(tmp_path / "report.json")]
    assert run_child(_RANDOM_LOADED_IN_CHILD, *command).split() == ["0", "False"]


# The embedding's own growth of its peak above the imported program, at
# quadrature depth 16 (405,504 cells): the parent, which drew f with
# numpy.random and held five cell-sized arrays, grew by about 25 MiB.
EMBEDDING_PEAK_GROWTH_CEILING_MB = 20

_EMBEDDING_IN_CHILD = """
import sys
from carleson_lab import cli

def hwm():
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))

before = hwm()
code = cli.main(["embedding", "--weight", sys.argv[1], "--quad-depth", "16", "--depth", "16",
                 "--out", sys.argv[2]])
print(code, hwm() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_embedding_peak_memory_stays_under_the_ceiling(tmp_path):
    weight = write_sampled_weight(tmp_path / "w.grid")
    out = run_child(_EMBEDDING_IN_CHILD, weight, str(tmp_path / "report.json"))
    code, growth_kib = map(int, out.split())
    assert code == 0
    assert growth_kib / 1024 < EMBEDDING_PEAK_GROWTH_CEILING_MB


@pytest.mark.parametrize("spec", ["radial-power:1", "radial-power:-1"])
def test_certify_reports_the_pipeline_stages_as_they_are(spec):
    cfg = RunConfig("certify", weight=spec)
    _, rep = run(cfg)
    pipeline = theorem_pipeline(measures.parse_weight(spec), depth=cfg.depth)
    assert rep.stages == list(pipeline.stages)
    failed = [s for s in rep.stages if "error" in s["witness"]]
    assert [s["name"] for s in failed] == (
        [] if spec == "radial-power:1"
        else ["finiteness", "reverse-doubling", "testing-constant", "norm-check", "carleson-constant"]
    )
    for s in failed:
        assert (s["verdict"], s["constants"]) == (False, {})
        assert s["witness"] == {"error": "InfiniteMassError: weight 'radial-power:-1.0' has infinite mass"}


def test_certify_failing_weight_exits_one(tmp_path):
    grid = tmp_path / "shell.grid"
    r = np.linspace(0.025, 0.975, 20)
    theta = np.linspace(0.1, 6.2, 16)
    lines = ["20 16"]
    for ri in r:
        for tj in theta:
            d = 1.0 if ri > 0.95 else 1e-9
            lines.append(f"{ri} {tj} {d}")
    grid.write_text("\n".join(lines) + "\n")
    code = main(
        ["certify", "--weight", f"grid:{grid}", "--depth", "8", "--out",
         str(tmp_path / "r.json")]
    )
    assert code == 1


def test_embedding_command():
    code, rep = run(small_cfg(command="embedding", depth=6))
    assert code == 0
    names = [s["name"] for s in rep.stages]
    assert names == ["embedding-constant", "weak-norm", "strong-ratio"]


def write_sampled_weight(path) -> str:
    """Write ``(1 - r)(1 + cos(theta) / 2)`` on a 24 x 32 polar grid file and
    return its weight spec."""
    r = np.linspace(0.02, 0.98, 24)
    theta = (np.arange(32) + 0.5) * (2.0 * np.pi / 32)
    density = (1.0 - r)[:, None] * (1.0 + 0.5 * np.cos(theta))[None, :]
    rows = np.column_stack([np.repeat(r, theta.size), np.tile(theta, r.size), density.ravel()])
    with open(path, "w") as fh:
        fh.write(f"{r.size} {theta.size}\n")
        np.savetxt(fh, rows, fmt="%.17g")
    return f"grid:{path}"


@pytest.mark.parametrize("command", ["certify", "test-weight", "embedding", "two-weight"])
@pytest.mark.parametrize("sampled", [False, True])
def test_certify_times_each_stage(sampled, command, tmp_path):
    # Every stage and setup step is timed: the keys sum to the total.  The
    # embedding runs at quadrature depth 16 (≈20 ms): at the default 10 it
    # takes ≈4 ms, and one host interruption outside the timed blocks can
    # exceed its 2 % budget.  For the same reason test-weight sweeps depth
    # 18 (≈35 ms on a radial weight, ≈1.5 ms at depth 8).
    weight = write_sampled_weight(tmp_path / "w.grid") if sampled else "radial-power:1"
    quad_depth = 16 if command == "embedding" else RunConfig.quad_depth
    depth = 18 if command == "test-weight" else 8
    cfg = RunConfig(
        command=command, weight=weight, nu=weight, depth=depth, quad_depth=quad_depth, seed=SEED
    )
    _, rep = run(cfg)
    timings = json.loads(rep.to_json())["timings_ms"]
    setup = {"parse-weight", "quadrature"} if sampled else {"parse-weight"}
    if command == "embedding":
        setup = {"parse-weight", "quadrature", "weighted-trees"}
    assert set(timings) == {s["name"] for s in rep.stages} | setup | {"total"}
    parts = sum(ms for key, ms in timings.items() if key != "total")
    assert abs(parts - timings["total"]) <= 0.02 * timings["total"]


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(command="verify-lemma", lemma="mei-cover", samples=100_000, seed=SEED),
        RunConfig(command="bench", sizes=(1024,), seed=SEED),
    ],
    ids=["verify-lemma", "bench"],
)
def test_lemma_and_bench_time_their_stage(cfg):
    # One stage each, timed under its own name: it and the total agree.
    _, rep = run(cfg)
    timings = json.loads(rep.to_json())["timings_ms"]
    assert set(timings) == {rep.stages[0]["name"], "total"}
    assert abs(timings[rep.stages[0]["name"]] - timings["total"]) <= 0.02 * timings["total"]


def test_embedding_evaluates_the_density_once(tmp_path, monkeypatch):
    # The three embedding stages read one weighted tree per grid: one
    # density row per stratum, in order, and one row sum per stratum of the
    # masses and one of f times them, each shared by both grids' box sums.
    weight = write_sampled_weight(tmp_path / "w.grid")
    levels, sums = [], []
    density_rows, box_level_sums = measures.Weight.density_rows, measures.box_level_sums

    def counting_rows(self, s):
        levels.append(s.level)
        return density_rows(self, s)

    def counting_sums(quad, rows, grid, depth):
        sums.append((id(rows), grid, len(rows)))
        return box_level_sums(quad, rows, grid, depth)

    monkeypatch.setattr(measures.Weight, "density_rows", counting_rows)
    monkeypatch.setattr(measures, "box_level_sums", counting_sums)
    code, _ = run(small_cfg(command="embedding", weight=weight, depth=7, quad_depth=7))
    assert code == 0
    assert levels == [s.level for s in build_quadrature(7).strata]
    assert [(grid, n) for _, grid, n in sums] == [(g, 8) for g in GRIDS] * 2
    assert sums[0][0] == sums[1][0] != sums[2][0] == sums[3][0]


@pytest.mark.parametrize("q", [2.0, 3.0])
@pytest.mark.parametrize("sampled", [True, False], ids=["grid", "radial-power"])
def test_embedding_stages_equal_the_per_stage_computation(tmp_path, sampled, q):
    spec = write_sampled_weight(tmp_path / "w.grid") if sampled else "radial-power:1"
    cfg = small_cfg(command="embedding", weight=spec, depth=8, quad_depth=8, q=q)
    code, rep = run(cfg)
    assert code == 0
    # Oracle: every stage evaluates the weight and sums its own boxes, from
    # the test function on the whole cell index.
    w, quad, depth, p, t = measures.parse_weight(spec), build_quadrature(8), 8, 2.0, q / 2.0
    f = dyadic.fixed_values(slice(0, quad.n_cells), cfg.seed)
    mass = w.cell_density(quad) * quad.area

    def tree(grid):
        masses = measures.box_level_sums(quad, measures.row_sums(quad, mass), grid, depth)
        integrals = measures.box_level_sums(quad, measures.row_sums(quad, f * mass), grid, depth)
        return [i / m for i, m in zip(integrals, masses)], masses

    emb = dyadic.carleson_embedding_constant(w, t, measures.box_masses(w, depth, quad).trees)
    weak, strong = [], []
    right = sum(float(np.sum(s.rows(f**p * mass))) for s in quad.strata) ** (1.0 / p)
    for g in GRIDS:
        avgs, masses = tree(g)
        e, m = np.concatenate(avgs), np.concatenate(masses)
        order = np.argsort(-e)
        weak.append(float(np.max(e[order] * np.cumsum(m[order] ** t) ** (1.0 / t))))
        left = sum(float(np.sum(m_j**t * e_j**q)) for e_j, m_j in zip(avgs, masses))
        strong.append(left ** (1.0 / q) / right)
    constants = [stage["constants"] for stage in rep.stages]
    assert constants[0] == {"c1_hat": emb.c1_hat, "tail_estimate": emb.tail_estimate}
    assert rep.stages[0]["witness"] == {
        "worst_box": repr(emb.worst_box), "quad_depth": 8, "cells": quad.n_cells, "depth": depth
    }
    assert constants[1] == {"weak_type_norm": max(weak)}
    assert constants[2] == {"strong_ratio": max(strong)}


def test_embedding_test_function_is_one_formula_of_the_cell_index():
    # Each stratum's f is the formula on the whole cell index, restricted
    # to the stratum: frac(k**2 (sqrt 2 - 1) + seed phi) for k = 1..n.
    quad, seed = build_quadrature(12), RunConfig.seed
    whole = dyadic.fixed_values(slice(0, quad.n_cells), seed)
    k = np.arange(1, quad.n_cells + 1, dtype=np.int64)
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    formula = np.mod((k * k).astype(float) * (np.sqrt(2.0) - 1.0) + seed * phi % 1.0, 1.0)
    assert np.array_equal(whole, formula)
    for s in quad.strata:
        assert dyadic.fixed_values(s.cells, seed).tobytes() == whole[s.cells].tobytes()
    assert np.all((whole >= 0.0) & (whole < 1.0))
    # Two seeds give two functions; neither is constant on any row of cells.
    assert not np.array_equal(whole, dyadic.fixed_values(slice(0, quad.n_cells), seed + 1))
    assert all(np.ptp(s.rows(whole), axis=1).min() > 0.5 for s in quad.strata)


def test_embedding_figures_are_pinned(tmp_path):
    # The box masses, and so the embedding constant, are the parent's bit for
    # bit; the tree norms read the fixed test function of the default seed.
    cfg = RunConfig(command="embedding", weight=write_sampled_weight(tmp_path / "w.grid"), depth=10)
    code, rep = run(cfg)
    assert code == 0
    stages = {s["name"]: (s["constants"], s["witness"]) for s in rep.stages}
    constants, witness = stages["embedding-constant"]
    assert constants == {"c1_hat": 1.9788411458333337, "tail_estimate": 0.00011637332055240145}
    assert witness["worst_box"] == "DyadicIndex(grid=0.0, level=5, position=26)"
    weak = stages["weak-norm"][0]["weak_type_norm"]
    strong = stages["strong-ratio"][0]["strong_ratio"]
    assert weak == pytest.approx(0.2790221483110754, rel=1e-12)
    assert strong == pytest.approx(1.1408388952541282, rel=1e-12)
    # The weighted dyadic Carleson embedding at p = q = 2 holds with constant 4 C.
    assert strong**2 <= 4.0 * constants["c1_hat"]


def test_two_weight_command():
    code, rep = run(
        small_cfg(command="two-weight", nu="radial-power:1", mu="lebesgue")
    )
    assert code == 0
    stage = rep.stages[0]
    assert stage["constants"]["sup_value"] == pytest.approx(
        np.sqrt(1.0 / 3.0), rel=1e-9
    )
    solver = rep.stages[1]["witness"]["solver"]
    assert sorted(solver) == sorted(
        f"{kind}_depth_{d}"
        for d in (6, 8, 10)
        for kind in ("dense", "dyadic_0.0000", "dyadic_0.3333")
    )
    assert all(s["converged"] and s["iterations"] > 0 for s in solver.values())
    # Every solve it runs is a norm it reports, as certify does.
    assert sorted(rep.stages[1]["constants"]) == sorted(solver)


def test_measuring_stages_carry_null_verdicts():
    # At depth 1 the doubling stage sweeps no level: it has no verdict to earn.
    code, rep = run(small_cfg(weight="radial-power:1", depth=1))
    assert code == 0
    assert [s["verdict"] for s in rep.stages] == [True, None]
    code, rep = run(small_cfg(command="embedding", depth=6))
    assert code == 0
    assert [s["verdict"] for s in rep.stages] == [None, None, None]
    code, rep = run(RunConfig(command="bench", sizes=(200,)))
    assert code == 0
    assert [s["verdict"] for s in rep.stages] == [None]


def test_box_testers_state_what_they_swept(tmp_path):
    # certify asks for depth 12; a sampled weight's quadrature caps it at 10.
    weight = write_sampled_weight(tmp_path / "w.grid")
    _, rep = run(RunConfig(command="certify", weight=weight))
    witness = {s["name"]: s["witness"] for s in rep.stages}
    assert witness["reverse-doubling"]["depth"] == witness["testing-constant"]["depth"] == 10
    # Every arc of levels 1-9 (reverse doubling) or 1-10 (testing constant)
    # that starts a whole number of the 1,024 finest angles past either grid.
    assert witness["reverse-doubling"]["window_arcs"] == 2 * 9 * 1024 == 18_432
    assert witness["testing-constant"]["window_arcs"] == 2 * 10 * 1024 == 20_480
    # test-weight's quadrature caps both of its testers at depth 10 as well.
    _, rep = run(RunConfig(command="test-weight", weight=weight))
    witness = {s["name"]: s["witness"] for s in rep.stages}
    assert witness["reverse-doubling"]["depth"] == witness["doubling"]["depth"] == 10
    code, rep = run(RunConfig(command="test-weight", weight="radial-power:1", depth=8))
    stages = {s["name"]: s for s in rep.stages}
    assert stages["reverse-doubling"]["witness"]["depth"] == 8
    assert code == 0 and stages["doubling"] == {
        "name": "doubling",
        "verdict": True,
        "constants": {"C_hat": 3.0},
        "witness": {"worst": "DyadicIndex(grid=0.0, level=2, position=0)", "depth": 8},
    }


def count_densities(monkeypatch, depth: int) -> list:
    """The spec of the weight behind every density pass over a quadrature
    of ``depth`` (and none deeper), in call order: every pass reads the
    strata with ``Weight.density_rows`` in order, and only its last one is
    at level ``depth``."""
    specs, density_rows = [], measures.Weight.density_rows

    def counting(self, s):
        if s.level == depth:
            specs.append(self.spec)
        return density_rows(self, s)

    monkeypatch.setattr(measures.Weight, "density_rows", counting)
    return specs


def test_test_weight_builds_its_box_trees_once(monkeypatch, tmp_path):
    # Both testers read one tree per grid and report what each reads alone:
    # one density pass for both grids' trees and the windows.
    weight = write_sampled_weight(tmp_path / "w.grid")
    cfg = RunConfig(command="test-weight", weight=weight)
    specs = count_densities(monkeypatch, cfg.quad_depth)
    _, rep = run(cfg)
    assert specs == [weight]
    monkeypatch.undo()
    w, quad = measures.parse_weight(weight), build_quadrature(cfg.quad_depth)
    rev = measures.reverse_doubling_report(measures.box_masses(w, cfg.depth, quad))
    dbl = measures.doubling_report(measures.box_masses(w, cfg.depth, quad))
    stages = {s["name"]: s for s in rep.stages}
    assert stages["reverse-doubling"]["constants"]["delta_hat"] == rev.delta_hat
    assert stages["reverse-doubling"]["witness"]["worst_arc_start"] == rev.worst_arc.start
    assert stages["doubling"]["constants"]["C_hat"] == dbl.c_hat
    assert stages["doubling"]["witness"] == {"worst": repr(dbl.worst), "depth": dbl.depth}


def test_certify_builds_its_box_trees_once(monkeypatch, tmp_path):
    # Reverse doubling and the testing constant read one tree per grid of the
    # weight, and report what each reads alone.  Depth-10 density passes of
    # the weight: the disk mass, one for both grids' trees and both testers'
    # windows, the norm check (which reads Lebesgue's too) and the Carleson
    # constant.
    weight = write_sampled_weight(tmp_path / "w.grid")
    cfg = RunConfig(command="certify", weight=weight)
    specs = count_densities(monkeypatch, 10)
    _, rep = run(cfg)
    assert specs == [weight] * 3 + ["lebesgue", weight]
    monkeypatch.undo()
    w, quad = measures.parse_weight(weight), build_quadrature(min(cfg.depth, 10))
    rev = measures.reverse_doubling_report(measures.box_masses(w, cfg.depth, quad))
    exps, leb = dyadic.ExponentConfig(2.0, 2.0, 1.0), measures.Weight.lebesgue()
    test = dyadic.two_weight_testing_constant(measures.box_masses(w, cfg.depth, quad), leb, exps)
    stages = {s["name"]: (s["verdict"], s["constants"], s["witness"]) for s in rep.stages}
    assert stages["reverse-doubling"] == dirichlet.reverse_doubling_stage(rev)
    assert stages["testing-constant"] == dirichlet.testing_constant_stage(test)


def test_certify_searches_each_angle_counts_runs_once(monkeypatch, tmp_path):
    # Every density pass of certify's one grid weight (quadrature depths 6 to
    # 10) reads the node runs it kept for each stratum angle count.
    searched, node_runs = [], measures._node_runs
    monkeypatch.setattr(measures, "_node_runs",
                        lambda n, x: searched.append(x.size) or node_runs(n, x))
    code, _ = run(RunConfig(command="certify", weight=write_sampled_weight(tmp_path / "w.grid")))
    assert code == 0 and searched == [16, 32, 64, 128, 256, 512, 1024]


def not_strict(constant: str):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("weight", ["lebesgue", "grid"])
def test_reverse_doubling_at_depth_zero_has_no_verdict(tmp_path, weight):
    # Nothing is swept at depth 0: no ratio, no worst arc and no verdict, as
    # the doubling stage beside it, and the report is strict JSON.
    if weight == "grid":
        weight = write_sampled_weight(tmp_path / "w.grid")
    out = tmp_path / "r.json"
    assert main(["test-weight", "--weight", weight, "--depth", "0", "--out", str(out)]) == 0
    stages = {s["name"]: s for s in json.loads(out.read_text(), parse_constant=not_strict)["stages"]}
    assert stages["reverse-doubling"] == {
        "name": "reverse-doubling",
        "verdict": None,
        "constants": {"delta_hat": None, "margin": measures.REVERSE_DOUBLING_MARGIN},
        "witness": {"worst_arc_start": None, "worst_arc_length": None, "depth": 0,
                    "window_arcs": 0},
    }
    assert stages["doubling"]["verdict"] is None


@pytest.mark.parametrize("sampled_mu", [False, True], ids=["lebesgue", "grid"])
def test_two_weight_builds_each_weights_box_trees_once(monkeypatch, tmp_path, sampled_mu):
    # One density pass for both grids' trees and the windows of nu, and of
    # mu's dual when sampled; then the norm check's nu and mu.
    weight = write_sampled_weight(tmp_path / "w.grid")
    mu = weight if sampled_mu else "lebesgue"
    specs = count_densities(monkeypatch, 10)
    code, _ = run(RunConfig(command="two-weight", nu=weight, mu=mu))
    assert code == 0
    swept = [weight, f"dual({weight},p=2.0)"] if sampled_mu else [weight]
    assert specs == swept + [weight, mu]


def test_embedding_peak_traced_memory_stays_small(tmp_path):
    # At quadrature depth 14 the embedding stores one cell array of the
    # quadrature (the areas) and keeps few cell-sized temporaries alive.
    cfg = RunConfig(command="embedding", weight=write_sampled_weight(tmp_path / "w.grid"),
                    quad_depth=14, depth=14)
    run(cfg)  # first-call caches stay out of the traced peak
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


def test_resolution_witnesses_state_depths_and_cells(tmp_path):
    # The embedding caps depth 20 at its quadrature depth, 8, and says so.
    _, rep = run(RunConfig(command="embedding", weight="radial-power:1", depth=20, quad_depth=8))
    witness = rep.stages[0]["witness"]
    assert (witness["quad_depth"], witness["cells"], witness["depth"]) == (8, 1792, 8)
    # The Carleson constant lists the cells of each depth it traced.
    _, rep = run(RunConfig(command="certify", weight=write_sampled_weight(tmp_path / "w.grid")))
    carleson = json.loads(rep.to_json())["stages"][-1]
    assert carleson["name"] == "carleson-constant"
    assert carleson["witness"]["cells"] == [[8, 1792], [10, 6144]]
    assert [d for d, _ in carleson["witness"]["trace"]] == [8, 10]


def test_norm_check_verdict_is_null_below_q(monkeypatch):
    quick = functools.partial(cli.dyadic_mod.two_weight_norm_check, quad_depths=(4, 5, 6))
    monkeypatch.setattr(cli.dyadic_mod, "two_weight_norm_check", quick)
    code, rep = run(small_cfg(command="two-weight", nu="radial-power:1", p=2.0, q=3.0))
    assert code == 0
    stage = rep.stages[1]
    keys = {
        f"{kind}_depth_{d}"
        for d in (4, 5, 6)
        for kind in ("dense", "dyadic_0.0000", "dyadic_0.3333")
    }
    assert stage["verdict"] is None
    assert stage["witness"]["method"] == "power-iteration"
    assert set(stage["witness"]["solver"]) == set(stage["constants"]) == keys
    assert all(s["converged"] for s in stage["witness"]["solver"].values())
    assert stage["witness"]["starts"] == dict.fromkeys(stage["witness"]["solver"], "seeded")


def test_norm_check_witness_names_each_start(monkeypatch):
    # At p = q the first depth starts from the fixed vector and every
    # later depth from the one before.
    quick = functools.partial(cli.dyadic_mod.two_weight_norm_check, quad_depths=(4, 5, 6))
    monkeypatch.setattr(cli.dyadic_mod, "two_weight_norm_check", quick)
    code, rep = run(small_cfg(command="two-weight", nu="radial-power:1"))
    assert code == 0
    witness = rep.stages[1]["witness"]
    assert list(witness["starts"]) == list(witness["solver"])
    assert witness["starts"] == {
        key: "fixed" if key.endswith("_depth_4") else "prolonged" for key in witness["solver"]
    }
    # The resolution of each refinement, as carleson-constant's trace states it.
    assert witness["cells"] == [[d, build_quadrature(d).n_cells] for d in (4, 5, 6)]
    assert json.loads(rep.to_json())["stages"][1]["witness"]["cells"] == witness["cells"]


def test_norm_check_at_three_three_holds_under_refinement(tmp_path):
    # The best of 64 seeded samples fell with every refinement and carried no
    # verdict; the power method's figures stay put and earn one.
    weight = write_sampled_weight(tmp_path / "w.grid")
    code, rep = run(RunConfig(command="two-weight", nu=weight, mu="lebesgue", p=3.0, q=3.0))
    assert code == 0
    stage = rep.stages[1]
    dense = [stage["constants"][f"dense_depth_{d}"] for d in (6, 8, 10)]
    assert all(b >= a * (1.0 - 0.05) for a, b in zip(dense, dense[1:]))
    assert stage["verdict"] is True
    assert set(stage["witness"]["solver"]) == set(stage["constants"])


def test_certify_norm_check_figures_are_pinned():
    # The closed-form kernel table agrees with the FFT fill to rounding, so
    # the dense figures hold to 1e-12; the dyadic ones use no table at all.
    code, rep = run(RunConfig(command="certify", weight="radial-power:1"))
    assert code == 0
    stage = next(s for s in rep.stages if s["name"] == "norm-check")
    dense = {6: 0.5782599957978113, 8: 0.5780172530636045, 10: 0.5779570701948712}
    for d, want in dense.items():
        assert stage["constants"][f"dense_depth_{d}"] == pytest.approx(want, rel=1e-12, abs=0)
    assert stage["constants"]["dyadic_0.0000_depth_10"] == 0.8360774586891082
    assert stage["constants"]["dyadic_0.3333_depth_10"] == 0.8360774586891296
    witness = stage["witness"]
    first = {"dense_depth_6": 7, "dyadic_0.0000_depth_6": 5, "dyadic_0.3333_depth_6": 7}
    for key, solve in witness["solver"].items():
        depth = int(key.rsplit("_", 1)[1])
        assert solve == {"iterations": first.get(key, 2), "converged": True}
        assert witness["starts"][key] == ("fixed" if depth == 6 else "prolonged")
    assert len(witness["solver"]) == 9


def test_certify_carleson_figures_are_pinned(tmp_path):
    # Read from the former Vandermonde Gram; the per-stratum FFT Gram agrees
    # to rounding, so the figures hold to 1e-12.
    code, rep = run(RunConfig(command="certify", weight=write_sampled_weight(tmp_path / "w.grid")))
    assert code == 0
    stage = json.loads(rep.to_json())["stages"][-1]
    assert stage["name"] == "carleson-constant" and stage["verdict"] is True
    pinned = {"operator_norm_estimate": 0.3388231224279603, "polynomial_lower_bound": 0.3429616730165612}
    for key, want in pinned.items():
        assert stage["constants"][key] == pytest.approx(want, rel=1e-12, abs=0)
    trace = {8: 0.33919349893026596, 10: 0.3388231224279603}
    assert [d for d, _ in stage["witness"]["trace"]] == list(trace)
    for (_, got), want in zip(stage["witness"]["trace"], trace.values()):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert stage["witness"]["cells"] == [[8, 1792], [10, 6144]]


def test_embedding_constant_carries_no_verdict():
    # On radial-power:-0.9 the constant keeps growing with the depth, so a
    # finite sweep earns no verdict.
    c1 = []
    for depth in (6, 8):
        code, rep = run(
            small_cfg(command="embedding", weight="radial-power:-0.9", quad_depth=8, depth=depth)
        )
        assert code == 0
        stage = rep.stages[0]
        assert stage["name"] == "embedding-constant" and stage["verdict"] is None
        c1.append(stage["constants"]["c1_hat"])
    assert c1[1] > 1.1 * c1[0]


def test_verify_lemma_commands():
    for lemma, samples in (
        ("mei-cover", 20_000),
        ("gram-psd", 20),
        ("sandwich", 10),
        ("domination", 2000),
    ):
        code, rep = run(small_cfg(command="verify-lemma", lemma=lemma, samples=samples))
        assert code == 0, lemma
        assert rep.stages[0]["verdict"], lemma


def test_verify_lemma_weak_type():
    code, rep = run(
        small_cfg(command="verify-lemma", lemma="weak-type", samples=15, quad_depth=7)
    )
    assert code == 0
    assert rep.stages[0]["constants"]["failures"] == 0


@pytest.mark.parametrize("quad_depth, verdict", [(6, None), (7, True)])
def test_k1_projection_below_its_minimum_depth_carries_no_verdict(quad_depth, verdict, tmp_path):
    # At depth 6 the midpoint error alone (about 2e-4) exceeds the 1e-4 tolerance.
    out = tmp_path / "report.json"
    argv = ["verify-lemma", "k1-projection", "--quad-depth", str(quad_depth)]
    assert main([*argv, "--out", str(out)]) == 0
    (stage,) = json.loads(out.read_text())["stages"]
    assert stage["verdict"] is verdict
    assert stage["constants"]["max_discrepancy"] > 0.0
    assert stage["witness"] == {"min_quad_depth": cli.K1_PROJECTION_MIN_QUAD_DEPTH} == {"min_quad_depth": 7}


def flags(fields, values) -> list[str]:
    """The command-line options setting each of ``fields`` found in ``values``."""
    return [a for f in fields if f in values for a in ("--" + f.replace("_", "-"), values[f])]


@pytest.mark.parametrize("lemma", list(cli.LEMMAS))
def test_every_lemma_runs_through_main(lemma, tmp_path):
    # Each lemma is passed only the options it offers.
    out = tmp_path / "report.json"
    small = {"samples": "20", "quad_depth": "7", "depth": "6"}
    argv = ["verify-lemma", lemma, *flags(cli.LEMMAS[lemma][1], small)]
    assert main([*argv, "--out", str(out)]) == 0
    stages = json.loads(out.read_text())["stages"]
    assert [s["name"] for s in stages] == [lemma]
    assert stages[0]["verdict"] is True


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_subcommand_defaults_are_the_run_config_defaults(command):
    # Each command, and each lemma of verify-lemma, offers its own fields
    # with RunConfig's defaults, and no other option.
    for lemma in cli.LEMMAS if command == "verify-lemma" else [""]:
        positional = [lemma] if lemma else []
        args = vars(cli._build_parser().parse_args([command, *positional]))
        expected = {k: getattr(RunConfig(command), k) for k in cli._options(command, lemma)}
        assert args == {"command": command, **dict(zip(["lemma"], positional)), **expected}


class RecordedReads:
    """Stands in for a RunConfig and records the name of every field read."""

    def __init__(self, cfg, reads: set):
        self._cfg, self._reads = cfg, reads

    def __getattr__(self, name):
        self._reads.add(name)
        return getattr(self._cfg, name)


@pytest.mark.parametrize(
    "command, lemma",
    [(c, "") for c in cli.COMMANDS if c != "verify-lemma"]
    + [("verify-lemma", lemma) for lemma in cli.LEMMAS],
)
def test_each_command_reads_exactly_the_fields_it_declares(command, lemma, tmp_path, monkeypatch):
    # Every declared option is passed and read, and no other field is read.
    spec = write_sampled_weight(tmp_path / "w.grid")
    body, fields = cli.COMMANDS[command]
    declared = cli.LEMMAS[lemma][1] if lemma else fields
    reads: set[str] = set()
    monkeypatch.setitem(
        cli.COMMANDS, command, (lambda cfg, timings: body(RecordedReads(cfg, reads), timings), fields)
    )
    values = {"weight": spec, "nu": spec, "mu": "lebesgue", "p": "2", "q": "2", "alpha": "1",
              "depth": "6", "quad_depth": "7", "samples": "20", "seed": "1", "sizes": "200",
              "format": "json"}
    out = tmp_path / "report.json"
    positional = [lemma] if lemma else []
    assert main([command, *positional, *flags(declared, values), "--out", str(out)]) == 0
    assert len(flags(declared, values)) == 2 * len(declared)
    # main, not the body, reads bench's --format to choose CSV.
    assert reads - {"lemma"} == set(declared) - {"format"}
    config = json.loads(out.read_text())["config"]
    assert set(config) == {"command", "out", "threads", *declared, *(["lemma"] if lemma else [])}


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--quad-depth", "4"],
        ["certify", "--mu", "lebesgue"],
        ["certify", "--seed", "1"],
        ["embedding", "--alpha", "2"],
        ["bench", "--depth", "3"],
        ["verify-lemma", "mei-cover", "--quad-depth", "4"],
    ],
)
def test_option_the_command_does_not_read_is_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: " + " ".join(argv[-2:]) in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["embedding", "--p", "3", "--q", "2"],
        ["two-weight", "--alpha", "0"],
        ["verify-lemma", "weak-type", "--p", "3", "--q", "2"],
        ["verify-lemma", "domination", "--alpha", "0"],
        ["embedding", "--quad-depth", "0"],
    ],
)
def test_out_of_range_option_is_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("usage error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["test-weight", "--weight", "lebesgue", "--depth", "-1"],
        ["embedding", "--depth", "-1"],
        ["certify", "--weight", "lebesgue", "--depth", "-3"],
        ["two-weight", "--depth", "-2"],
        ["verify-lemma", "sandwich", "--samples", "0"],
        ["verify-lemma", "sandwich", "--samples", "-4"],
        ["verify-lemma", "domination", "--samples", "0"],
        ["verify-lemma", "domination", "--depth", "-1"],
        ["verify-lemma", "mei-cover", "--samples", "0"],
        ["embedding", "--seed", "-1"],
        ["embedding", "--weight", "lebesgue", "--seed", "-1"],
    ],
    ids=" ".join,
)
def test_negative_depth_or_seed_and_no_samples_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {argv[-2]} must be at least {int(argv[-2] == '--samples')}, got {argv[-1]}\n"


def test_depth_and_seed_zero_and_one_sample_are_accepted(tmp_path):
    # Below depth 2 the doubling stage sweeps no level and carries no verdict.
    out = tmp_path / "r.json"
    for depth in ("0", "1"):
        assert main(["test-weight", "--depth", depth, "--out", str(out)]) == 0
        stages = {s["name"]: s for s in json.loads(out.read_text())["stages"]}
        assert stages["doubling"]["verdict"] is None
        assert stages["doubling"]["constants"] == {"C_hat": None}
    assert main(["verify-lemma", "mei-cover", "--samples", "1", "--out", str(out)]) == 0
    argv = ["embedding", "--depth", "4", "--quad-depth", "4", "--seed", "0", "--out", str(out)]
    assert main(argv) == 0


def test_unknown_lemma_is_usage_error():
    assert main(["verify-lemma", "nonsense"]) == 2
    with pytest.raises(WeightSpecError, match="unknown lemma 'nonsense'; choose from \\('mei-cover', "):
        run(small_cfg(command="verify-lemma", lemma="nonsense"))


def test_bad_weight_spec_is_usage_error():
    assert main(["certify", "--weight", "wat:1"]) == 2


@pytest.mark.parametrize(
    "text",
    [None, "a b\n", "0 3\n", "2\n", "1 1\n0.5 abc 1.0\n", "2 2\n"],
    ids=["missing", "non-integer-header", "zero-count", "one-count", "unparsable-row", "header-only"],
)
@pytest.mark.filterwarnings("error")  # a warning would print before the usage error
def test_bad_grid_file_is_usage_error(text, tmp_path, capsys):
    path = tmp_path / "w.grid"
    if text is not None:
        path.write_text(text)
    assert main(["certify", "--weight", f"grid:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("usage error: ")


@pytest.mark.parametrize("raw", ["lots", "1e6", "-5", "0"])
def test_malformed_cell_cap_is_usage_error(raw, monkeypatch, capsys):
    monkeypatch.setenv(MAX_CELLS_ENV, raw)
    assert main(["test-weight", "--weight", "lebesgue", "--depth", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and MAX_CELLS_ENV in captured.err
    with pytest.raises(ConfigError):
        build_quadrature(4)


@pytest.mark.parametrize("command", ["embedding", "verify-lemma"])
def test_zero_mass_tree_box_names_its_grid_and_level(command, tmp_path):
    # A weight that is 0 over the angles [0, pi/4): the plain grid's level-3
    # box there weighs 0, in the tree averages and in the embedding constant.
    theta = (np.arange(16) + 0.5) * (2.0 * np.pi / 16)
    path = tmp_path / "v.grid"
    with open(path, "w") as fh:
        fh.write(f"1 {theta.size}\n")
        np.savetxt(fh, np.column_stack([np.full(theta.size, 0.5), theta, theta > np.pi / 4]))
    cfg = small_cfg(command=command, lemma="weak-type", weight=f"grid:{path}", depth=8, quad_depth=8)
    code, rep = run(cfg)
    assert code == 1
    assert rep.stages[0]["witness"] == {
        "error": "DegenerateWeightError: zero-mass box at grid 0.0, level 3"
    }


def test_well_formed_cell_cap_is_applied(monkeypatch):
    monkeypatch.setenv(MAX_CELLS_ENV, " 100 ")
    code, rep = run(small_cfg(command="embedding", quad_depth=6))
    assert code == 1
    assert rep.stages[0]["witness"]["error"].startswith("MemoryGuardError")


@pytest.mark.skipif(threadpoolctl is not None, reason="threadpoolctl applies the cap")
def test_unapplied_thread_cap_warns_once(capsys):
    code, rep = run(small_cfg(threads=1))
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "--threads 1" in captured.err
    _, plain = run(small_cfg())
    assert capsys.readouterr().err == ""
    assert json.loads(rep.to_json())["stages"] == json.loads(plain.to_json())["stages"]


def test_exit_code_zero_on_success(capsys):
    assert main(["test-weight", "--weight", "lebesgue", "--depth", "6"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["command"] == "test-weight"


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_rows():
    rows = bench([100, 500], seed=SEED)
    assert len(rows) == 2
    assert rows[0]["N"] <= rows[1]["N"]
    for row in rows:
        assert set(row) == {"N", "dense_ms", "dyadic_ms", "ratio"}
        assert row["dense_ms"] > 0 and row["dyadic_ms"] > 0


def test_bench_empty_csv_has_header(capsys):
    assert main(["bench", "--sizes", "", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "N,dense_ms,dyadic_ms,ratio"
    assert len(out.strip().splitlines()) == 1


def test_bench_single_size(capsys):
    assert main(["bench", "--sizes", "200", "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
