"""Command-line front end: weight testers, embeddings, certification, bench.

Subcommands: ``test-weight``, ``embedding``, ``two-weight``, ``certify``,
``verify-lemma <name>``, ``bench``.  Reports are JSON (CSV for bench);
identical configuration and seed produce byte-identical JSON apart from
the timing block.  Stages that measure without testing carry a null
verdict.  Exit codes: 0 all non-null verdicts true, 1 a numerical verdict
false, 2 usage error.
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
from .errors import CarlesonLabError, ConfigError, WeightSpecError

SCHEMA_VERSION = 1
DEFAULT_SEED = 20260810

LEMMA_NAMES = (
    "mei-cover",
    "sandwich",
    "gram-psd",
    "domination",
    "k1-projection",
    "factorization",
    "weak-type",
)


@dataclasses.dataclass
class RunConfig:
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
    format: str = "json"
    threads: int = 0
    lemma: str = ""
    sizes: tuple[int, ...] = ()

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["sizes"] = list(self.sizes)
        return d


@dataclasses.dataclass
class Report:
    command: str
    config: dict
    stages: list
    timings_ms: dict
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": self.config,
            "stages": self.stages,
            "timings_ms": self.timings_ms,
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=_jsonable)


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


def _stage(name, verdict, constants, witness=None):
    return {
        "name": name,
        "verdict": verdict,
        "constants": constants,
        "witness": witness or {},
    }


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _run_test_weight(cfg: RunConfig):
    w = measures.parse_weight(cfg.weight)
    quad = None if w.is_radial_power else measures.build_quadrature(cfg.quad_depth)
    rev = measures.reverse_doubling_report(w, depth=cfg.depth, seed=cfg.seed, quad=quad)
    dbl = measures.doubling_report(w, samples=min(cfg.samples, 500), seed=cfg.seed)
    return [
        _stage(
            "reverse-doubling",
            rev.verdict,
            {"delta_hat": rev.delta_hat, "margin": rev.margin},
            {
                "worst_arc_start": rev.worst_arc.start,
                "worst_arc_length": rev.worst_arc.length,
            },
        ),
        _stage(
            "doubling",
            None,
            {"C_hat": dbl.c_hat},
            {"worst_radius": dbl.worst_radius},
        ),
    ]


def _run_embedding(cfg: RunConfig):
    w = measures.parse_weight(cfg.weight)
    econf = dyadic_mod.ExponentConfig(p=cfg.p, q=cfg.q, alpha=cfg.alpha)
    quad = measures.build_quadrature(cfg.quad_depth)
    depth = min(cfg.depth, quad.depth)
    emb = dyadic_mod.carleson_embedding_constant(w, econf.t, depth, quad=quad)
    rng = np.random.default_rng(cfg.seed)
    f = measures.SampledFunction(quad, rng.uniform(0.0, 1.0, quad.n_cells))
    weak = dyadic_mod.weak_type_norm(w, econf.t, f, depth, quad)
    strong = dyadic_mod.strong_embedding_check(w, econf, f, depth, quad)
    return [
        _stage(
            "embedding-constant",
            bool(np.isfinite(emb.c1_hat)),
            {"c1_hat": emb.c1_hat, "tail_estimate": emb.tail_estimate},
            {"worst_box": repr(emb.worst_box)},
        ),
        _stage("weak-norm", None, {"weak_type_norm": weak}),
        _stage("strong-ratio", None, {"strong_ratio": strong}),
    ]


def _run_two_weight(cfg: RunConfig):
    nu = measures.parse_weight(cfg.nu)
    mu = measures.parse_weight(cfg.mu)
    econf = dyadic_mod.ExponentConfig(p=cfg.p, q=cfg.q, alpha=cfg.alpha)
    quad = None
    if not (nu.is_radial_power and mu.is_radial_power):
        quad = measures.build_quadrature(cfg.quad_depth)
    testing = dyadic_mod.two_weight_testing_constant(
        nu, mu, econf, depth=cfg.depth, quad=quad, seed=cfg.seed
    )
    norms = dyadic_mod.two_weight_norm_check(nu, mu, econf, seed=cfg.seed)
    consts = {f"dense_depth_{lv.depth}": lv.dense_norm for lv in norms.levels}
    return [
        _stage(
            "testing-constant",
            bool(np.isfinite(testing.sup_value)),
            {"sup_value": testing.sup_value},
            {"worst": repr(testing.worst_box)},
        ),
        _stage(
            "norm-check",
            norms.stabilized,
            consts,
            {"method": norms.method, "solver": norms.solver_status()},
        ),
    ]


def _run_certify(cfg: RunConfig):
    w = measures.parse_weight(cfg.weight)
    report = dirichlet_mod.theorem_pipeline(w, depth=cfg.depth, seed=cfg.seed)
    stages = []
    for s in report.stages:
        witness = dict(s.witness)
        if s.error:
            witness["error"] = s.error
        stages.append(_stage(s.name, s.verdict, s.constants, witness))
    return stages


def _run_verify_lemma(cfg: RunConfig):
    name = cfg.lemma
    rng = np.random.default_rng(cfg.seed)
    if name == "mei-cover":
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
        return [
            _stage(
                "mei-cover",
                failures == 0,
                {"samples": n, "failures": failures},
            )
        ]
    if name == "sandwich":
        failures = 0
        worst = 0.0
        trials = max(10, min(cfg.samples, 100))
        for k in range(trials):
            n = int(rng.integers(2, 60))
            pts = np.sqrt(rng.uniform(0, 0.9, n)) * np.exp(
                1j * rng.uniform(0, geometry.TAU, n)
            )
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
        return [
            _stage(
                "sandwich",
                failures == 0,
                {"trials": trials, "failures": failures, "max_ratio": worst},
            )
        ]
    if name == "gram-psd":
        failures = 0
        worst = 0.0
        trials = max(10, min(cfg.samples, 200))
        for _ in range(trials):
            n = int(rng.integers(2, 80))
            pts = np.sqrt(rng.uniform(0, 0.95, n)) * np.exp(
                1j * rng.uniform(0, geometry.TAU, n)
            )
            min_eig = operators.gram_psd_check(pts, operators.KernelSpec.dirichlet())
            trace = float(
                np.sum(
                    np.real(
                        operators.eval_kernel(operators.KernelSpec.dirichlet(), pts, pts)
                    )
                )
            )
            if min_eig < -1e-10 * trace:
                failures += 1
            worst = min(worst, min_eig / max(trace, 1e-300))
        return [
            _stage(
                "gram-psd",
                failures == 0,
                {"trials": trials, "failures": failures, "worst_relative": worst},
            )
        ]
    if name == "domination":
        rep = dyadic_mod.domination_check(
            cfg.alpha, sample_pairs=cfg.samples, depth=cfg.depth, seed=cfg.seed
        )
        return [
            _stage(
                "domination",
                rep.failures == 0,
                {"c_hat": rep.c_hat, "failures": rep.failures, "pairs": rep.pairs},
            )
        ]
    if name == "k1-projection":
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
        return [
            _stage("k1-projection", worst <= 1e-4, {"max_discrepancy": worst})
        ]
    if name == "factorization":
        quad = measures.build_quadrature(cfg.quad_depth, angular_base=64)
        pts = np.sqrt(rng.uniform(0, 0.36, 5)) * np.exp(
            1j * rng.uniform(0, geometry.TAU, 5)
        )
        err = operators.factorization_check(
            operators.DiscreteMeasure(pts, np.ones(5)), quad
        )
        return [_stage("factorization", err <= 1e-3, {"max_error": err})]
    if name == "weak-type":
        quad = measures.build_quadrature(cfg.quad_depth)
        depth = min(cfg.depth, quad.depth)
        w = measures.parse_weight(cfg.weight)
        emb = dyadic_mod.carleson_embedding_constant(
            w, cfg.q / cfg.p, depth, quad=quad, k_max_level=depth,
            quadrature_masses=True,
        )
        failures = 0
        trials = max(10, min(cfg.samples, 100))
        t = cfg.q / cfg.p
        for _ in range(trials):
            f = measures.SampledFunction(quad, rng.uniform(0.0, 2.0, quad.n_cells))
            weak = dyadic_mod.weak_type_norm(w, t, f, depth, quad)
            l1 = float(np.sum(f.values * np.real(w.density(quad.z)) * quad.area))
            if weak > emb.c1_hat ** (1.0 / t) * l1 * (1 + 1e-9):
                failures += 1
        return [
            _stage(
                "weak-type",
                failures == 0,
                {"trials": trials, "failures": failures, "c1_hat": emb.c1_hat},
            )
        ]
    raise WeightSpecError(f"unknown lemma {name!r}; choose from {LEMMA_NAMES}")


def bench(sizes, seed: int = DEFAULT_SEED) -> list[dict]:
    """Timing rows comparing the dense apply against the dyadic apply.

    Each requested size picks the smallest quadrature with at least that
    many cells; the dense apply is quadratic in the cell count while the
    dyadic aggregation is linear.
    """
    rows = []
    rng = np.random.default_rng(seed)
    for target in sizes:
        d = 2
        while True:
            quad = measures.build_quadrature(d)
            if quad.n_cells >= target or d >= 16:
                break
            d += 1
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
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


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
    try:
        if cfg.command == "test-weight":
            stages = _run_test_weight(cfg)
        elif cfg.command == "embedding":
            stages = _run_embedding(cfg)
        elif cfg.command == "two-weight":
            stages = _run_two_weight(cfg)
        elif cfg.command == "certify":
            stages = _run_certify(cfg)
        elif cfg.command == "verify-lemma":
            stages = _run_verify_lemma(cfg)
        elif cfg.command == "bench":
            rows = bench(cfg.sizes, cfg.seed)
            stages = [_stage("bench", True, {"rows": rows})]
        else:
            raise WeightSpecError(f"unknown command {cfg.command!r}")
    except (WeightSpecError, ConfigError):
        raise
    except CarlesonLabError as exc:
        stages = [
            _stage("error", False, {}, {"error": f"{type(exc).__name__}: {exc}"})
        ]
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    report = Report(
        command=cfg.command,
        config=cfg.as_dict(),
        stages=stages,
        timings_ms={"total": elapsed_ms},
    )
    verdicts = [s["verdict"] for s in stages if s["verdict"] is not None]
    code = 0 if all(verdicts) else 1
    return code, report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carleson-lab",
        description="Numerical testers for Carleson boxes, doubling weights, "
        "dyadic model operators and two-weight embeddings on the disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--weight", default="lebesgue")
        p.add_argument("--mu", default="lebesgue")
        p.add_argument("--nu", default="lebesgue")
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--q", type=float, default=2.0)
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--depth", type=int, default=12)
        p.add_argument("--quad-depth", type=int, default=10, dest="quad_depth")
        p.add_argument("--samples", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", default="")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--threads", type=int, default=0)

    for name in ("test-weight", "embedding", "two-weight", "certify"):
        add_common(sub.add_parser(name))
    p = sub.add_parser("verify-lemma")
    p.add_argument("lemma", choices=LEMMA_NAMES)
    add_common(p)
    p = sub.add_parser("bench")
    p.add_argument("--sizes", default="1024,4096")
    add_common(p)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    sizes = ()
    if args.command == "bench":
        try:
            sizes = tuple(int(s) for s in str(args.sizes).split(",") if s.strip())
        except ValueError:
            print(f"bad --sizes value {args.sizes!r}", file=sys.stderr)
            return 2
    cfg = RunConfig(
        command=args.command,
        weight=args.weight,
        mu=args.mu,
        nu=args.nu,
        p=args.p,
        q=args.q,
        alpha=args.alpha,
        depth=args.depth,
        quad_depth=args.quad_depth,
        samples=args.samples,
        seed=args.seed,
        out=args.out,
        format=args.format,
        threads=args.threads,
        lemma=getattr(args, "lemma", ""),
        sizes=sizes,
    )
    try:
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
