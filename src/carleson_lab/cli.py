"""Command-line front end: weight testers, embeddings, certification, bench.

Subcommands are the keys of :data:`COMMANDS`: ``test-weight``,
``embedding``, ``two-weight``, ``certify``, ``verify-lemma <name>`` (one of
the keys of :data:`LEMMAS`) and ``bench``.  Each command and each lemma
names the :class:`RunConfig` fields it reads; those, ``--out`` and
``--threads`` are its only options, and the report's ``config`` records
them.  Reports are JSON (CSV for bench);
identical configuration and seed produce byte-identical JSON apart from
the timing block, which holds the total, each stage and each setup step.
Stages that measure without testing carry a null verdict.  Exit codes: 0
all non-null verdicts true, 1 a numerical verdict false, 2 usage error
(including an option value out of range).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time

import numpy as np

from . import dirichlet as dirichlet_mod
from . import dyadic as dyadic_mod
from . import geometry, measures, operators
from .dirichlet import stage
from .errors import CarlesonLabError, ConfigError, WeightSpecError

SCHEMA_VERSION = 1
DEFAULT_SEED = 20260810


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(",") if s.strip())


@dataclasses.dataclass
class RunConfig:
    """The settings of one invocation.

    Every field but ``command`` and ``lemma`` (the positional argument of
    ``verify-lemma``) is the option ``--<field>``, with this default, of
    each command and lemma that names it (:func:`_options`).  A negative
    depth or seed, or fewer than one sample, raises :class:`ConfigError`.
    """

    command: str
    weight: str = "lebesgue"
    mu: str = "lebesgue"
    nu: str = "lebesgue"
    p: float = 2.0
    q: float = 2.0
    alpha: float = 1.0
    depth: int = 12
    quad_depth: int = 10
    samples: int = 10_000
    seed: int = DEFAULT_SEED
    out: str = ""
    format: str = dataclasses.field(default="json", metadata={"choices": ("json", "csv")})
    threads: int = 0
    lemma: str = ""
    sizes: tuple[int, ...] = dataclasses.field(default=(1024, 4096), metadata={"type": _sizes})

    def __post_init__(self) -> None:
        for name, least in (("depth", 0), ("samples", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"--{name} must be at least {least}, got {getattr(self, name)}")


@dataclasses.dataclass
class Report:
    command: str
    config: dict
    stages: list
    timings_ms: dict
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2, default=_jsonable)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    return repr(obj)


# ---------------------------------------------------------------------------
# Lemma suites: each returns (verdict, constants[, witness]) for the stage
# named after it
# ---------------------------------------------------------------------------


def _mei_cover(cfg: RunConfig, rng):
    n = cfg.samples
    starts = rng.uniform(0, geometry.TAU, n)
    lengths = np.concatenate(
        [
            rng.uniform(1e-9, 1.0, n // 2),
            2.0 ** -rng.uniform(0.0, 20.0, n - n // 2),
        ]
    )
    grids, levels, _ = geometry.mei_cover_batch(starts, lengths)
    covered = 2.0 ** -levels.astype(float)
    failures = int(np.sum(covered > 6.0 * lengths + 1e-12))
    return failures == 0, {"samples": n, "failures": failures}


def _sandwich(cfg: RunConfig, rng):
    failures = 0
    worst = 0.0
    trials = max(10, min(cfg.samples, 100))
    for k in range(trials):
        n = int(rng.integers(2, 60))
        pts = geometry.random_disk_points(rng, n, 0.9)
        dm = operators.DiscreteMeasure(pts, rng.uniform(0.1, 1.0, n))
        spec = (
            operators.KernelSpec.dirichlet()
            if k % 2 == 0
            else operators.KernelSpec.k_alpha(1.0)
        )
        rep = operators.norm_sandwich_check(spec, dm)
        if not (rep.lower_ok and rep.upper_ok):
            failures += 1
        worst = max(worst, rep.ratios[1])
    return failures == 0, {"trials": trials, "failures": failures, "max_ratio": worst}


def _gram_psd(cfg: RunConfig, rng):
    failures = 0
    worst = 0.0
    trials = max(10, min(cfg.samples, 200))
    spec = operators.KernelSpec.dirichlet()
    for _ in range(trials):
        n = int(rng.integers(2, 80))
        pts = geometry.random_disk_points(rng, n, 0.95)
        min_eig = operators.gram_psd_check(pts, spec)
        trace = float(np.sum(np.real(operators.eval_kernel(spec, pts, pts))))
        if min_eig < -1e-10 * trace:
            failures += 1
        worst = min(worst, min_eig / max(trace, 1e-300))
    return failures == 0, {"trials": trials, "failures": failures, "worst_relative": worst}


def _domination(cfg: RunConfig, rng):
    rep = dyadic_mod.domination_check(
        cfg.alpha, sample_pairs=cfg.samples, depth=cfg.depth, seed=cfg.seed
    )
    return rep.failures == 0, {"c_hat": rep.c_hat, "failures": rep.failures, "pairs": rep.pairs}


# Below this quadrature depth the midpoint error of the analytic projection
# exceeds the tolerance, so the discrepancy is reported without a verdict.
K1_PROJECTION_MIN_QUAD_DEPTH = 7


def _k1_projection(cfg: RunConfig, rng):
    quad = measures.build_quadrature(cfg.quad_depth, angular_base=64)
    keep = np.flatnonzero(quad.r <= 0.9)
    nodes = quad.z[rng.choice(keep, size=min(1000, keep.size), replace=False)]
    worst = operators.k1_projection_discrepancy(
        quad,
        (
            lambda z: np.conj(z),
            lambda z: np.abs(z) ** 2 + 0j,
            lambda z: np.conj(z) * z**2,
        ),
        nodes,
    )
    verdict = worst <= 1e-4 if cfg.quad_depth >= K1_PROJECTION_MIN_QUAD_DEPTH else None
    return verdict, {"max_discrepancy": worst}, {"min_quad_depth": K1_PROJECTION_MIN_QUAD_DEPTH}


def _factorization(cfg: RunConfig, rng):
    quad = measures.build_quadrature(cfg.quad_depth, angular_base=64)
    pts = geometry.random_disk_points(rng, 5, 0.36)
    err = operators.factorization_check(
        operators.DiscreteMeasure(pts, np.ones(5)), quad
    )
    return err <= 1e-3, {"max_error": err}


def _weak_type(cfg: RunConfig, rng):
    quad = measures.build_quadrature(cfg.quad_depth)
    depth = min(cfg.depth, quad.depth)
    w = measures.parse_weight(cfg.weight)
    t = cfg.q / cfg.p
    density = w.cell_density(quad)
    masses = measures.cell_trees(measures.row_sums(quad, density * quad.area), depth, quad)
    emb = dyadic_mod.carleson_embedding_constant(w, t, masses, k_max_level=depth)
    failures = 0
    trials = max(10, min(cfg.samples, 100))
    for _ in range(trials):
        f_mass = rng.uniform(0.0, 2.0, quad.n_cells) * density * quad.area
        integrals = measures.cell_trees(measures.row_sums(quad, f_mass), depth, quad)
        weak = dyadic_mod.weak_type_norm(t, dyadic_mod.tree_averages(integrals, masses), masses)
        l1 = float(np.sum(f_mass))
        if weak > emb.c1_hat ** (1.0 / t) * l1 * (1 + 1e-9):
            failures += 1
    return failures == 0, {"trials": trials, "failures": failures, "c1_hat": emb.c1_hat}


# Each lemma and the RunConfig fields it reads.
LEMMAS = {
    "mei-cover": (_mei_cover, ("samples", "seed")),
    "sandwich": (_sandwich, ("samples", "seed")),
    "gram-psd": (_gram_psd, ("samples", "seed")),
    "domination": (_domination, ("alpha", "depth", "samples", "seed")),
    "k1-projection": (_k1_projection, ("quad_depth", "seed")),
    "factorization": (_factorization, ("quad_depth", "seed")),
    "weak-type": (_weak_type, ("weight", "p", "q", "depth", "quad_depth", "samples", "seed")),
}


# ---------------------------------------------------------------------------
# Subcommand bodies: each returns the report's stages and may record wall
# milliseconds of its parts in ``timings``
# ---------------------------------------------------------------------------


def _run_test_weight(cfg: RunConfig, timings: dict):
    with dirichlet_mod.timed(timings, "parse-weight"):
        w = measures.parse_weight(cfg.weight)
    quad = None
    if not w.is_radial_power:
        with dirichlet_mod.timed(timings, "quadrature"):
            quad = measures.build_quadrature(cfg.quad_depth)
    with dirichlet_mod.timed(timings, "reverse-doubling"):
        # Both testers read one BoxMasses, built and timed with the first.
        masses = measures.box_masses(w, cfg.depth, quad)
        rev = measures.reverse_doubling_report(masses)
    with dirichlet_mod.timed(timings, "doubling"):
        dbl = measures.doubling_report(masses)
    return [
        stage("reverse-doubling", *dirichlet_mod.reverse_doubling_stage(rev)),
        stage("doubling", dbl.verdict, {"C_hat": dbl.c_hat},
              {"worst": None if dbl.worst is None else repr(dbl.worst), "depth": dbl.depth}),
    ]


def _run_embedding(cfg: RunConfig, timings: dict):
    with dirichlet_mod.timed(timings, "parse-weight"):
        w = measures.parse_weight(cfg.weight)
        econf = dyadic_mod.ExponentConfig(p=cfg.p, q=cfg.q, alpha=1.0)  # no figure reads alpha
    with dirichlet_mod.timed(timings, "quadrature"):
        quad = measures.build_quadrature(cfg.quad_depth)
        depth = min(cfg.depth, quad.depth)
    # One pass over the strata serves all three stages: each stratum's cell
    # masses and f times them, summed over its sublayers, and f**p's integral,
    # with f fixed by the seed; no cell array but the areas is built.  A
    # radial-power weight's constant keeps its closed-form masses.  The
    # stages and the frees run in timed blocks.
    with dirichlet_mod.timed(timings, "weighted-trees"):
        mass_rows, f_rows, f_power = [], [], 0.0
        for s in quad.strata:
            mass = w.density_rows(s) * s.rows(quad.area)
            f = dyadic_mod.fixed_values(s.cells, cfg.seed).reshape(mass.shape)
            mass_rows.append(mass.sum(axis=0))
            f_rows.append((f * mass).sum(axis=0))
            f **= econf.p
            f *= mass
            f_power += f.sum()
        masses = measures.cell_trees(mass_rows, depth, quad)
        avgs = dyadic_mod.tree_averages(measures.cell_trees(f_rows, depth, quad), masses)
        del mass_rows, f_rows, mass, f
    with dirichlet_mod.timed(timings, "embedding-constant"):
        exact = measures.box_masses(w, depth).trees if w.is_radial_power else masses
        emb = dyadic_mod.carleson_embedding_constant(w, econf.t, exact)
        stages = [stage("embedding-constant", None,
                        {"c1_hat": emb.c1_hat, "tail_estimate": emb.tail_estimate},
                        {"worst_box": repr(emb.worst_box), "quad_depth": quad.depth,
                         "cells": quad.n_cells, "depth": depth})]
    with dirichlet_mod.timed(timings, "weak-norm"):
        weak = dyadic_mod.weak_type_norm(econf.t, avgs, masses)
        stages.append(stage("weak-norm", None, {"weak_type_norm": weak}))
    with dirichlet_mod.timed(timings, "strong-ratio"):
        strong = dyadic_mod.strong_embedding_check(econf, f_power, avgs, masses)
        stages.append(stage("strong-ratio", None, {"strong_ratio": strong}))
        del quad, masses, avgs, exact
    return stages


def _run_two_weight(cfg: RunConfig, timings: dict):
    with dirichlet_mod.timed(timings, "parse-weight"):
        nu = measures.parse_weight(cfg.nu)
        mu = measures.parse_weight(cfg.mu)
    econf = dyadic_mod.ExponentConfig(p=cfg.p, q=cfg.q, alpha=cfg.alpha)
    quad = None
    if not (nu.is_radial_power and mu.is_radial_power):
        with dirichlet_mod.timed(timings, "quadrature"):
            quad = measures.build_quadrature(cfg.quad_depth)
    with dirichlet_mod.timed(timings, "testing-constant"):
        # nu's box masses are freed before the norm check, whose peak they would raise.
        testing = dyadic_mod.two_weight_testing_constant(
            measures.box_masses(nu, cfg.depth, quad), mu, econf)
    with dirichlet_mod.timed(timings, "norm-check"):
        norms = dyadic_mod.two_weight_norm_check(nu, mu, econf)
    return [
        stage("testing-constant", *dirichlet_mod.testing_constant_stage(testing)),
        stage("norm-check", *dirichlet_mod.norm_check_stage(norms)),
    ]


def _run_certify(cfg: RunConfig, timings: dict):
    with dirichlet_mod.timed(timings, "parse-weight"):
        w = measures.parse_weight(cfg.weight)
    report = dirichlet_mod.theorem_pipeline(w, depth=cfg.depth)
    timings.update(report.timings_ms)
    return list(report.stages)


def _run_verify_lemma(cfg: RunConfig, timings: dict):
    if cfg.lemma not in LEMMAS:
        raise WeightSpecError(f"unknown lemma {cfg.lemma!r}; choose from {tuple(LEMMAS)}")
    with dirichlet_mod.timed(timings, cfg.lemma):
        return [stage(cfg.lemma, *LEMMAS[cfg.lemma][0](cfg, np.random.default_rng(cfg.seed)))]


def _run_bench(cfg: RunConfig, timings: dict):
    with dirichlet_mod.timed(timings, "bench"):
        return [stage("bench", None, {"rows": bench(cfg.sizes, cfg.seed)})]


def bench(sizes, seed: int = DEFAULT_SEED) -> list[dict]:
    """Timing rows comparing the dense apply against the dyadic apply.

    Each requested size picks the smallest quadrature with at least that
    many cells; the dense apply is quadratic in the cell count while the
    dyadic aggregation is linear.
    """
    rows = []
    rng = np.random.default_rng(seed)
    for target in sizes:
        for d in range(2, 17):
            quad = measures.build_quadrature(d)
            if quad.n_cells >= target:
                break
        f = measures.SampledFunction(quad, rng.uniform(0.0, 1.0, quad.n_cells))
        t0 = time.perf_counter()
        dyadic_mod.dense_abs_apply(1.0, f, quad)
        dense_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        dyadic_mod.dyadic_apply(geometry.GRID_PLAIN, 1.0, f, quad, min(d, quad.depth))
        dyadic_ms = (time.perf_counter() - t0) * 1e3
        rows.append(
            {
                "N": quad.n_cells,
                "dense_ms": dense_ms,
                "dyadic_ms": dyadic_ms,
                "ratio": dense_ms / max(dyadic_ms, 1e-9),
            }
        )
    return rows


def _bench_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["N", "dense_ms", "dyadic_ms", "ratio"])
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# Each command and the RunConfig fields it reads; verify-lemma's are its lemma's.
COMMANDS = {
    "test-weight": (_run_test_weight, ("weight", "depth", "quad_depth")),
    "embedding": (_run_embedding, ("weight", "p", "q", "depth", "quad_depth", "seed")),
    "two-weight": (_run_two_weight, ("nu", "mu", "p", "q", "alpha", "depth", "quad_depth")),
    "certify": (_run_certify, ("weight", "depth")),
    "verify-lemma": (_run_verify_lemma, ()),
    "bench": (_run_bench, ("sizes", "seed", "format")),
}


def _options(command: str, lemma: str = "") -> tuple[str, ...]:
    """The fields a command (or a lemma of ``verify-lemma``) offers as options."""
    fields = LEMMAS[lemma][1] if command == "verify-lemma" else COMMANDS[command][1]
    return (*fields, "out", "threads")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _cap_threads(limit: int) -> None:
    if limit <= 0:
        return
    try:
        import threadpoolctl
    except ImportError:
        sys.stderr.write(f"warning: --threads {limit} ignored: threadpoolctl is not installed\n")
        return
    threadpoolctl.threadpool_limits(limits=limit)


def run(cfg: RunConfig) -> tuple[int, Report]:
    """Execute one configured command and build its report."""
    t0 = time.perf_counter()
    _cap_threads(cfg.threads)
    if cfg.command not in COMMANDS:
        raise WeightSpecError(f"unknown command {cfg.command!r}")
    timings: dict[str, float] = {}
    try:
        stages = COMMANDS[cfg.command][0](cfg, timings)
    except (WeightSpecError, ConfigError):
        raise
    except CarlesonLabError as exc:
        stages = [stage("error", False, {}, {"error": f"{type(exc).__name__}: {exc}"})]
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    keys = ("command", "lemma") if cfg.command == "verify-lemma" else ("command",)
    report = Report(
        command=cfg.command,
        config={k: getattr(cfg, k) for k in (*keys, *_options(cfg.command, cfg.lemma))},
        stages=stages,
        timings_ms={**timings, "total": elapsed_ms},
    )
    verdicts = [s["verdict"] for s in stages if s["verdict"] is not None]
    code = 0 if all(verdicts) else 1
    return code, report


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """Every command's parser; given ``argv``, only the invoked command (or
    lemma) gets options, so help and usage errors read the same, built faster."""
    parser = argparse.ArgumentParser(
        prog="carleson-lab",
        description="Numerical testers for Carleson boxes, doubling weights, "
        "dyadic model operators and two-weight embeddings on the disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        if name == "verify-lemma":
            lemmas = sub.add_parser(name).add_subparsers(dest="lemma", required=True)
            parsers = {lemma: lemmas.add_parser(lemma) for lemma in LEMMAS}
        else:
            parsers = {"": sub.add_parser(name)}
        for lemma, p in parsers.items():
            path = [name, lemma] if lemma else [name]
            if argv is not None and list(argv[: len(path)]) != path:
                continue
            for f in dataclasses.fields(RunConfig):
                if f.name in _options(name, lemma):
                    flag = "--" + f.name.replace("_", "-")
                    p.add_argument(flag, default=f.default, **{"type": type(f.default), **f.metadata})
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = RunConfig(**vars(args))
        measures.cell_cap()  # a malformed cap is a usage error for every command
        code, report = run(cfg)
    except (WeightSpecError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if cfg.command == "bench" and cfg.format == "csv":
        text = _bench_csv(report.stages[0]["constants"]["rows"])
    else:
        text = report.to_json()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
