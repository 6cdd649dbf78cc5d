import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carleson_lab
from carleson_lab import cli, dyadic, measures
from carleson_lab.cli import Report, RunConfig, bench, main, run
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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_certify_peak_memory_stays_under_the_ceiling(tmp_path):
    src = str(Path(carleson_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _CERTIFY_IN_CHILD, str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    code, maxrss_kib = map(int, done.stdout.split())
    assert code == 0
    assert maxrss_kib / 1024 < CERTIFY_PEAK_RSS_CEILING_MB


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
    # embedding runs at quadrature depth 16 (≈50 ms): at the default 10 it
    # takes ≈5 ms, and one host interruption outside the timed blocks can
    # exceed its 2 % budget.
    weight = write_sampled_weight(tmp_path / "w.grid") if sampled else "radial-power:1"
    quad_depth = 16 if command == "embedding" else RunConfig.quad_depth
    cfg = RunConfig(
        command=command, weight=weight, nu=weight, depth=8, quad_depth=quad_depth, seed=SEED
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
    # density pass, and per grid one box sum of the masses and one of f.
    weight = write_sampled_weight(tmp_path / "w.grid")
    points, sums = [], []
    density, box_level_sums = measures.Weight.cell_density, measures.box_level_sums

    def counting_density(self, quad):
        points.append(quad.n_cells)
        return density(self, quad)

    def counting_sums(*args, **kwargs):
        sums.append(1)
        return box_level_sums(*args, **kwargs)

    monkeypatch.setattr(measures.Weight, "cell_density", counting_density)
    for module in (measures, dyadic):
        monkeypatch.setattr(module, "box_level_sums", counting_sums)
    code, _ = run(small_cfg(command="embedding", weight=weight, depth=7, quad_depth=7))
    assert code == 0
    assert points == [build_quadrature(7).n_cells]
    assert len(sums) == 4


@pytest.mark.parametrize("q", [2.0, 3.0])
@pytest.mark.parametrize("sampled", [True, False], ids=["grid", "radial-power"])
def test_embedding_stages_equal_the_per_stage_computation(tmp_path, sampled, q):
    spec = write_sampled_weight(tmp_path / "w.grid") if sampled else "radial-power:1"
    cfg = small_cfg(command="embedding", weight=spec, depth=8, quad_depth=8, q=q)
    code, rep = run(cfg)
    assert code == 0
    # Oracle: every stage evaluates the weight and sums its own boxes.
    w, quad, depth, p, t = measures.parse_weight(spec), build_quadrature(8), 8, 2.0, q / 2.0
    f = np.random.default_rng(cfg.seed).uniform(0.0, 1.0, quad.n_cells)

    def tree(grid):
        density = w.cell_density(quad)
        masses = measures.box_level_sums(quad, density * quad.area, grid, depth)
        integrals = measures.box_level_sums(quad, f * density * quad.area, grid, depth)
        return np.concatenate([i / m for i, m in zip(integrals, masses)]), np.concatenate(masses)

    emb = dyadic.carleson_embedding_constant(w, t, tuple(
        dyadic.TreeFunction(g, depth, tuple(measures.box_mass_levels(w, quad, g, depth)))
        for g in GRIDS
    ))
    weak = []
    for g in GRIDS:
        e, m = tree(g)
        order = np.argsort(-e)
        weak.append(float(np.max(e[order] * np.cumsum(m[order] ** t) ** (1.0 / t))))
    right = float(np.sum(f**p * w.cell_density(quad) * quad.area) ** (1.0 / p))
    strong = []
    for g in GRIDS:
        e, m = tree(g)
        strong.append(float(np.sum(m**t * e**q) ** (1.0 / q)) / right)
    constants = [stage["constants"] for stage in rep.stages]
    assert constants[0] == {"c1_hat": emb.c1_hat, "tail_estimate": emb.tail_estimate}
    assert rep.stages[0]["witness"] == {"worst_box": repr(emb.worst_box)}
    assert constants[1] == {"weak_type_norm": max(weak)}
    assert constants[2] == {"strong_ratio": max(strong)}


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
    code, rep = run(small_cfg(weight="radial-power:1"))
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
    assert witness["reverse-doubling"]["random_arcs"] == 1000
    assert witness["testing-constant"]["random_arcs"] == 512
    # The doubling stage draws at most 500 balls, whatever --samples asks.
    _, rep = run(RunConfig(command="test-weight", weight="radial-power:1", depth=8))
    witness = {s["name"]: s["witness"] for s in rep.stages}
    assert witness["reverse-doubling"]["depth"] == 8
    assert witness["doubling"]["samples"] == 500


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
    # At p = q every depth after the first starts from the one before.
    quick = functools.partial(cli.dyadic_mod.two_weight_norm_check, quad_depths=(4, 5, 6))
    monkeypatch.setattr(cli.dyadic_mod, "two_weight_norm_check", quick)
    code, rep = run(small_cfg(command="two-weight", nu="radial-power:1"))
    assert code == 0
    witness = rep.stages[1]["witness"]
    assert list(witness["starts"]) == list(witness["solver"])
    assert witness["starts"] == {
        key: "seeded" if key.endswith("_depth_4") else "prolonged" for key in witness["solver"]
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
    dense = {6: 0.5782599948241628, 8: 0.5780172530631004, 10: 0.5779570701948705}
    for d, want in dense.items():
        assert stage["constants"][f"dense_depth_{d}"] == pytest.approx(want, rel=1e-12, abs=0)
    assert stage["constants"]["dyadic_0.0000_depth_10"] == 0.8360774586891113
    assert stage["constants"]["dyadic_0.3333_depth_10"] == 0.8360774586891228
    witness = stage["witness"]
    for key, solve in witness["solver"].items():
        depth = int(key.rsplit("_", 1)[1])
        assert solve == {"iterations": 6 if depth == 6 else 2, "converged": True}
        assert witness["starts"][key] == ("seeded" if depth == 6 else "prolonged")
    assert len(witness["solver"]) == 9


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
