"""Dirichlet-type norms, Carleson constants, and the certification pipeline.

Analytic polynomials carry two comparable square norms: the derivative
norm ``|a_0|^2 + sum n |a_n|^2`` and the kernel norm
``sum (n+1) |a_n|^2`` reproduced by the logarithmic kernel; they differ
by at most a factor of two, so a weight is a Carleson weight for one iff
for the other.  The certification pipeline for a weight runs, in order:
finiteness, the reverse-doubling tester, the two-weight testing constant
against Lebesgue at ``p = q = 2`` and order one, the measured operator
norms, and the Carleson constant estimate.  The ``*_stage`` functions map
a report to its stage's ``(verdict, constants, witness)``; the command
line uses the same ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    ExponentConfig,
    NormCheckReport,
    TestingConstantReport,
    two_weight_norm_check,
    two_weight_testing_constant,
)
from .errors import CarlesonLabError
from .measures import (
    DiskQuadrature,
    ReverseDoublingReport,
    Weight,
    build_quadrature,
    reverse_doubling_report,
)
from .operators import KernelSpec, cell_kernel_apply, power_norm

DEFAULT_DEGREE_CAP = 256


@dataclass(frozen=True)
class AnalyticPolynomial:
    """An analytic polynomial given by its complex coefficients."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if coeffs.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if coeffs.size - 1 > DEFAULT_DEGREE_CAP:
            raise ValueError(f"degree exceeds the cap {DEFAULT_DEGREE_CAP}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def __call__(self, z):
        out = np.zeros_like(np.asarray(z, dtype=complex))
        for c in self.coefficients[::-1]:
            out = out * z + c
        return out


def dirichlet_norm(f: AnalyticPolynomial) -> float:
    """``|a_0|^2 + sum_{n>=1} n |a_n|^2`` (the derivative-energy norm squared)."""
    a = np.abs(f.coefficients) ** 2
    n = np.arange(a.size, dtype=float)
    weights = np.where(n == 0, 1.0, n)
    return float(np.sum(weights * a))


def kernel_norm(f: AnalyticPolynomial) -> float:
    """``sum (n+1) |a_n|^2``, the norm reproduced by the logarithmic kernel."""
    a = np.abs(f.coefficients) ** 2
    n = np.arange(a.size, dtype=float)
    return float(np.sum((n + 1.0) * a))


def random_polynomials(
    count: int, degree: int, seed: int = 20260810
) -> list[AnalyticPolynomial]:
    """Seeded ensemble with coefficients ``CN(0, 1) / sqrt(n+1)``.

    The scaling spreads energy across the spectrum of the logarithmic
    kernel operator instead of piling it on the constant term.
    """
    rng = np.random.default_rng(seed)
    out = []
    scale = 1.0 / np.sqrt(np.arange(degree + 1, dtype=float) + 1.0)
    for _ in range(count):
        coeffs = scale * (
            rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        )
        out.append(AnalyticPolynomial(coeffs))
    return out


def polynomial_ratio(
    w: Weight, f: AnalyticPolynomial, quad: DiskQuadrature | None = None
) -> float:
    """``integral of |f|^2 against the weight / derivative norm of f``.

    The quantity the polynomial-sampling method maximizes; radial-power
    weights use exact moments.
    """
    if w.is_radial_power:
        mass_int = sum(
            abs(c) ** 2 * w.radial_moment(2 * n) for n, c in enumerate(f.coefficients)
        )
    else:
        if quad is None:
            quad = build_quadrature(10)
        mass_int = float(
            np.sum(np.abs(f(quad.z)) ** 2 * np.real(w.density(quad.z)) * quad.area)
        )
    return float(mass_int / dirichlet_norm(f))


@dataclass(frozen=True)
class CarlesonVerdict:
    constant_estimate: float
    method: str
    trace: tuple[tuple[int, float], ...]  # (quadrature depth used, estimate)
    verdict: bool | None  # None when nothing was tested: one depth, or a sampled lower bound


def _radial_gram_top_eigenvalue(
    w: Weight, quad: DiskQuadrature, series: int = 1024
) -> float:
    """Top eigenvalue of the logarithmic-kernel operator against ``w``, by
    power iteration on its positive semidefinite Gram matrix.

    Works through the monomial factorization: the operator is the Gram of
    the functions ``sqrt(b_n) z^n`` in the weighted space, and for radial
    weights the Gram matrix reduces to ring moments (the angular sums
    vanish except where the ring's angular count divides the frequency
    difference, with an alternating sign there).
    """
    b = 1.0 / (np.arange(series + 1, dtype=float) + 1.0)
    root_b = np.sqrt(b)
    # Ring moments grouped by angular count.
    by_count: dict[int, list[tuple[float, float]]] = {}
    for layer in quad.layers:
        area_cell = (layer.r_hi**2 - layer.r_lo**2) / layer.count
        ring_mass = float(
            layer.count * area_cell * np.real(w.density(np.array([layer.r_mid + 0j])))[0]
        )
        by_count.setdefault(layer.count, []).append((layer.r_mid, ring_mass))
    smax = 2 * series + 1
    moments: dict[int, np.ndarray] = {}
    for count, rows in by_count.items():
        radii = np.array([r for r, _ in rows])
        mass = np.array([m for _, m in rows])
        powers = radii[None, :] ** np.arange(smax + 1)[:, None]
        moments[count] = powers @ mass
    gram = np.zeros((series + 1, series + 1))
    total = sum(moments.values())
    idx = np.arange(series + 1)
    gram[idx, idx] = b * total[2 * idx]
    for count, mom in moments.items():
        d = count
        k = 1
        while d <= series:
            n = np.arange(series + 1 - d)
            vals = root_b[n] * root_b[n + d] * ((-1.0) ** k) * mom[2 * n + d]
            gram[n, n + d] += vals
            gram[n + d, n] += vals
            k += 1
            d += count
    gram = gram.astype(complex)  # one cast, instead of one per product with a complex vector
    return power_norm(
        lambda v: gram @ v, lambda v: gram @ v, series + 1, tol=1e-10, max_iter=500, seed=271828
    ).value


def carleson_constant(
    w: Weight,
    method: str = "operator-norm",
    quad_depths: tuple[int, ...] = (8, 10, 12),
    degree_cap: int = 64,
    samples: int = 200,
    seed: int = 20260810,
    stabilize_rtol: float = 0.05,
) -> CarlesonVerdict:
    """Estimate the best constant embedding the analytic space into L2(w).

    ``operator-norm`` estimates the norm of the logarithmic-kernel
    operator on refining discretizations; this equals the squared
    embedding constant for the kernel norm.  ``polynomial-sampling``
    maximizes ``integral |f|^2 w / derivative-norm(f)`` over a seeded
    polynomial ensemble and is a lower bound for the derivative-norm
    constant.
    """
    if method == "operator-norm":
        # Sampled weights apply the kernel between cell centers, capped at depth 8.
        cap = math.inf if w.is_radial_power else 8
        trace = []
        for d in dict.fromkeys(min(d, cap) for d in quad_depths):  # each depth once
            quad = build_quadrature(d)
            if w.is_radial_power:
                est = _radial_gram_top_eigenvalue(w, quad)
            else:
                # D^1/2 K D^1/2 with D the cell masses is hermitian: its own adjoint.
                root = np.sqrt(np.real(w.density(quad.z)) * quad.area)
                kernel = cell_kernel_apply(KernelSpec.dirichlet(), quad)

                def weighted(v):
                    return root * kernel(root * v)

                est = power_norm(weighted, weighted, quad.n_cells).value
            trace.append((d, float(est)))
        values = [v for _, v in trace]
        verdict = None  # a single depth has refined nothing
        if len(values) >= 2:
            delta = abs(values[-1] - values[-2])
            verdict = delta <= stabilize_rtol * max(abs(values[-1]), 1e-300)
        return CarlesonVerdict(values[-1], "operator-norm", tuple(trace), verdict)

    if method == "polynomial-sampling":
        best = 0.0
        quad = None if w.is_radial_power else build_quadrature(min(quad_depths[-1], 10))
        for f in random_polynomials(samples, degree_cap, seed):
            best = max(best, polynomial_ratio(w, f, quad))
        return CarlesonVerdict(
            float(best), "polynomial-sampling", ((quad_depths[-1], float(best)),), None
        )

    raise ValueError(f"unknown method {method!r}")


def reverse_doubling_stage(rep: ReverseDoublingReport) -> tuple[bool, dict, dict]:
    """The ``(verdict, constants, witness)`` of a reverse-doubling stage."""
    return (
        rep.verdict,
        {"delta_hat": rep.delta_hat, "margin": rep.margin},
        {"worst_arc_start": rep.worst_arc.start, "worst_arc_length": rep.worst_arc.length},
    )


def testing_constant_stage(rep: TestingConstantReport) -> tuple[bool, dict, dict]:
    """The ``(verdict, constants, witness)`` of a testing-constant stage."""
    return (
        bool(math.isfinite(rep.sup_value)),
        {"sup_value": rep.sup_value},
        {"worst": repr(rep.worst_box)},
    )


def norm_check_stage(rep: NormCheckReport) -> tuple[bool | None, dict, dict]:
    """The ``(verdict, constants, witness)`` of a norm-check stage; constants
    are keyed ``dense_depth_<d>`` and ``dyadic_<grid>_depth_<d>``."""
    consts = {f"dense_depth_{lv.depth}": lv.dense_norm for lv in rep.levels}
    for lv in rep.levels:
        for g, val in lv.dyadic_norms.items():
            consts[f"dyadic_{g:.4f}_depth_{lv.depth}"] = val
    return rep.stabilized, consts, {"method": rep.method, "solver": rep.solver_status()}


@dataclass(frozen=True)
class PipelineStage:
    name: str
    verdict: bool | None
    constants: dict
    witness: dict = field(default_factory=dict)
    error: str = ""


@dataclass(frozen=True)
class PipelineReport:
    stages: tuple[PipelineStage, ...]
    verdict: bool

    def stage(self, name: str) -> PipelineStage:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


def theorem_pipeline(
    w: Weight,
    depth: int = 12,
    quad: DiskQuadrature | None = None,
    seed: int = 20260810,
) -> PipelineReport:
    """Certify numerically that a finite reverse-doubling weight embeds.

    Stage errors are captured in the report instead of raised, so a
    failing hypothesis still yields measurements for the later stages.
    """
    stages: list[PipelineStage] = []
    needs_quad = not w.is_radial_power
    if needs_quad and quad is None:
        quad = build_quadrature(min(depth, 10))

    def run_stage(name, fn):
        try:
            verdict, constants, witness = fn()
            stages.append(PipelineStage(name, verdict, constants, witness))
        except CarlesonLabError as exc:
            stages.append(
                PipelineStage(name, False, {}, {}, f"{type(exc).__name__}: {exc}")
            )

    def stage_finite():
        mass = w.disk_mass(quad) if needs_quad else w.disk_mass()
        return bool(w.finite and math.isfinite(mass)), {"disk_mass": mass}, {}

    run_stage("finiteness", stage_finite)
    run_stage("reverse-doubling", lambda: reverse_doubling_stage(
        reverse_doubling_report(w, depth=depth, quad=quad, seed=seed)
    ))
    cfg, lebesgue = ExponentConfig(p=2.0, q=2.0, alpha=1.0), Weight.lebesgue()
    run_stage("testing-constant", lambda: testing_constant_stage(
        two_weight_testing_constant(w, lebesgue, cfg, depth=depth, quad=quad, seed=seed)
    ))
    run_stage("norm-check", lambda: norm_check_stage(
        two_weight_norm_check(w, lebesgue, cfg, seed=seed)
    ))

    def stage_carleson():
        est = carleson_constant(w, method="operator-norm", seed=seed)
        lower = carleson_constant(
            w, method="polynomial-sampling", samples=64, seed=seed
        )
        return (
            est.verdict,
            {
                "operator_norm_estimate": est.constant_estimate,
                "polynomial_lower_bound": lower.constant_estimate,
            },
            {"trace": est.trace},
        )

    run_stage("carleson-constant", stage_carleson)

    verdict = all(s.verdict for s in stages if s.verdict is not None)
    return PipelineReport(stages=tuple(stages), verdict=verdict)
