"""Dirichlet-type norms, Carleson constants, and the certification pipeline.

Analytic polynomials carry two comparable square norms: the derivative
norm ``|a_0|^2 + sum n |a_n|^2`` and the kernel norm
``sum (n+1) |a_n|^2`` reproduced by the logarithmic kernel; they differ
by at most a factor of two, so a weight is a Carleson weight for one iff
for the other.  :func:`carleson_constant` reads both of its constants
off one weighted monomial Gram of degree 64, built from one FFT of the
cell masses per stratum, scaled by each norm's weights: the
logarithmic-kernel operator norm on ``L2(w)`` and the exact maximum of
``integral |f|^2 w / derivative-norm(f)`` over those polynomials; for a
radial weight both are its disk mass.  The
certification pipeline for a weight runs, in order: finiteness, the
reverse-doubling tester, the two-weight testing constant against
Lebesgue at ``p = q = 2`` and order one, the measured operator norms,
and the Carleson constant.
Every report stage, here and on the command line, is one shape: the
dict ``{name, verdict, constants, witness}`` that :func:`stage` builds;
a stage that raised carries ``{"error": "<Type>: <message>"}`` as its
witness and no constants.  The ``*_stage`` functions map a report to its
stage's ``(verdict, constants, witness)``; the command line uses the same
ones.  The pipeline report also holds the wall milliseconds of each
stage, and of the quadrature it built, if any (:class:`timed`).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    ExponentConfig,
    NormCheckReport,
    TestingConstantReport,
    refinement_verdict,
    two_weight_norm_check,
    two_weight_testing_constant,
)
from .errors import CarlesonLabError
from .measures import (
    DiskQuadrature,
    ReverseDoublingReport,
    Weight,
    box_masses,
    build_quadrature,
    reverse_doubling_report,
)
from .operators import poly_eval

DEFAULT_DEGREE_CAP = 256
#: Degree of the polynomial space the Carleson lower bound maximizes over.
LOWER_BOUND_DEGREE = 64


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
        return poly_eval(self.coefficients, z)


def derivative_weights(size: int) -> np.ndarray:
    """``max(n, 1)`` for ``n < size``: the derivative norm's weight on ``|a_n|^2``."""
    return np.maximum(np.arange(size, dtype=float), 1.0)


def kernel_weights(size: int) -> np.ndarray:
    """``n + 1`` for ``n < size``: the kernel norm's weight on ``|a_n|^2``."""
    return np.arange(size, dtype=float) + 1.0


def dirichlet_norm(f: AnalyticPolynomial) -> float:
    """``|a_0|^2 + sum_{n>=1} n |a_n|^2`` (the derivative-energy norm squared)."""
    a = np.abs(f.coefficients) ** 2
    return float(np.sum(derivative_weights(a.size) * a))


def kernel_norm(f: AnalyticPolynomial) -> float:
    """``sum (n+1) |a_n|^2``, the norm reproduced by the logarithmic kernel."""
    a = np.abs(f.coefficients) ** 2
    return float(np.sum(kernel_weights(a.size) * a))


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


@dataclass(frozen=True)
class CarlesonVerdict:
    constant_estimate: float  # norm of the logarithmic-kernel operator on L2(w)
    lower_bound: float  # max of integral |f|^2 w / derivative norm, degree <= 64
    trace: tuple[tuple[int, float], ...]  # (quadrature depth used, estimate)
    verdict: bool | None  # None when one depth has refined nothing
    cells: tuple[tuple[int, int], ...] = ()  # (quadrature depth, cell count), as traced


def monomial_gram(quad: DiskQuadrature, mass: np.ndarray, degree: int) -> np.ndarray:
    """``G[n, m] = sum_i mass_i conj(z_i)^n z_i^m``, ``n, m <= degree``, so that
    ``a^H G a = sum_i mass_i |f(z_i)|^2`` for ``f = sum a_n z^n``.  At
    ``d = m - n`` a sublayer of radius ``r`` and angles ``(k + 1/2) 2 pi / c``
    adds ``r^(n+m) e^(i pi d / c) conj(F)[d mod c]``, ``F`` the FFT of its mass
    row: one GEMM of the powers ``r^K`` and those spectra gives ``H[n + m, d]``."""
    d = np.arange(-degree, degree + 1)
    spectra = [np.conj(np.fft.fft(s.rows(mass)))[:, d % s.count] * np.exp(1j * np.pi / s.count * d)
               for s in quad.strata]
    radii = np.concatenate([s.radii for s in quad.strata])
    h = (radii[:, None] ** np.arange(2 * degree + 1)).T @ np.concatenate(spectra)
    n, m = np.ogrid[: degree + 1, : degree + 1]
    return h[n + m, m - n + degree]


def gram_ratio(gram: np.ndarray, weights) -> float:
    """``max a^H G a / sum_n weights(n) |a_n|^2`` over the Gram's polynomials,
    ``weights`` one of the two norms' weight functions: the top eigenvalue
    of ``S G S``, ``S = diag(1/sqrt(weights))``."""
    s = 1.0 / np.sqrt(weights(gram.shape[0]))
    return float(np.linalg.eigvalsh(s[:, None] * gram * s[None, :])[-1])


def carleson_constant(w: Weight, quad_depths: tuple[int, ...] = (8, 10)) -> CarlesonVerdict:
    """The Carleson constant of ``w`` and a polynomial lower bound for it.

    The estimate is the norm of the logarithmic-kernel operator on
    ``L2(w)``, the squared embedding constant for the kernel norm.  The
    lower bound is the largest ``integral |f|^2 w / derivative-norm(f)``
    over polynomials of degree at most ``LOWER_BOUND_DEGREE``.

    Radial weights are exact: the monomials diagonalize the operator with
    eigenvalues ``M_2n / (n+1)`` and the ratio with values
    ``M_2n / max(n, 1)``, ``M_k`` the ``k``-th moment of ``|z|``; both are
    largest at ``n = 0`` since ``M_2n`` decreases, so the constant
    polynomial attains both and each is the disk mass ``M_0``.

    Sampled weights: one :func:`monomial_gram` of the cell masses per
    depth of ``quad_depths``, one FFT per stratum and one GEMM over the
    sublayers (192 at depth 10, about 1 ms), with no cell centers built.
    The operator norm is the top eigenvalue of the Gram of the orthonormal
    basis ``z^n / sqrt(n+1)``: the estimate is the kernel-weighted ratio,
    traced over the distinct depths in order; the verdict is their
    :func:`refinement_verdict` (``None`` after one depth).  The lower bound
    is the last Gram's derivative-weighted ratio.  The degree cap
    compresses the operator, so the estimate never exceeds the norm between
    cell centers and reads low for mass within about ``1/64`` of the circle.
    """
    if w.is_radial_power:
        mass = w.disk_mass()
        return CarlesonVerdict(mass, mass, (), True)
    trace, cells = [], []
    for d in dict.fromkeys(quad_depths):
        quad = build_quadrature(d)
        gram = monomial_gram(quad, w.cell_density(quad) * quad.area, LOWER_BOUND_DEGREE)
        trace.append((d, gram_ratio(gram, kernel_weights)))
        cells.append((d, quad.n_cells))
    verdict = refinement_verdict([estimate for _, estimate in trace])
    return CarlesonVerdict(trace[-1][1], gram_ratio(gram, derivative_weights), tuple(trace),
                           verdict, tuple(cells))


def reverse_doubling_stage(rep: ReverseDoublingReport) -> tuple[bool | None, dict, dict]:
    """The ``(verdict, constants, witness)`` of a reverse-doubling stage;
    the worst arc's fields are ``None`` when nothing was swept."""
    arc = rep.worst_arc
    return (
        rep.verdict,
        {"delta_hat": rep.delta_hat, "margin": rep.margin},
        {
            "worst_arc_start": None if arc is None else arc.start,
            "worst_arc_length": None if arc is None else arc.length,
            "depth": rep.depth,
            "window_arcs": rep.window_arcs,
        },
    )


def testing_constant_stage(rep: TestingConstantReport) -> tuple[bool, dict, dict]:
    """The ``(verdict, constants, witness)`` of a testing-constant stage."""
    return (
        rep.verdict,
        {"sup_value": rep.sup_value},
        {"worst": repr(rep.worst_box), "depth": rep.depth, "window_arcs": rep.window_arcs},
    )


def norm_check_stage(rep: NormCheckReport) -> tuple[bool | None, dict, dict]:
    """The ``(verdict, constants, witness)`` of a norm-check stage; constants,
    solves and starts are keyed by :func:`norm_check_key`, and ``cells``
    pairs each quadrature depth with its cell count."""
    keyed = rep.keyed()
    # The dense figures, which decide the verdict, lead; the models follow depth by depth.
    consts = {k: keyed[k][0].value for k in sorted(keyed, key=lambda k: k.startswith("dyadic_"))}
    witness = {
        "method": "power-iteration",
        "solver": rep.solver_status(),
        "starts": {key: start for key, (_, start) in keyed.items()},
        "cells": [[lv.depth, lv.cells] for lv in rep.levels],
    }
    return rep.stabilized, consts, witness


def stage(name: str, verdict: bool | None, constants: dict, witness: dict | None = None) -> dict:
    """One report stage: ``{name, verdict, constants, witness}``."""
    return {"name": name, "verdict": verdict, "constants": constants, "witness": witness or {}}


@dataclass(frozen=True)
class PipelineReport:
    stages: tuple[dict, ...]  # each built by :func:`stage`
    verdict: bool
    # Wall milliseconds per stage name, plus "quadrature" when one was built.
    timings_ms: dict = field(default_factory=dict)


class timed:
    """Record the wall milliseconds of the block as ``timings[name]`` (a
    generator context manager would spend microseconds outside it)."""

    def __init__(self, timings: dict, name: str):
        self.timings, self.name = timings, name

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.timings[self.name] = (time.perf_counter() - self.t0) * 1e3


def theorem_pipeline(w: Weight, depth: int = 12) -> PipelineReport:
    """Certify numerically that a finite reverse-doubling weight embeds.

    The last stage reports one :func:`carleson_constant` call: the
    operator-norm estimate, the polynomial lower bound and the depth
    trace.  Stage errors are captured in the report instead of raised, so a
    failing hypothesis still yields measurements for the later stages.
    """
    stages: list[dict] = []
    timings: dict[str, float] = {}
    quad = None
    if not w.is_radial_power:
        with timed(timings, "quadrature"):
            quad = build_quadrature(min(depth, 10))

    def run_stage(name, fn):
        with timed(timings, name):
            try:
                stages.append(stage(name, *fn()))
            except CarlesonLabError as exc:
                stages.append(stage(name, False, {}, {"error": f"{type(exc).__name__}: {exc}"}))

    def stage_finite():
        mass = w.disk_mass(quad)
        return bool(w.finite and math.isfinite(mass)), {"disk_mass": mass}, {}

    run_stage("finiteness", stage_finite)
    # Both box testers read w's box masses, built and timed with the first;
    # a build that raised raises again in the second.
    masses = functools.cache(lambda: box_masses(w, depth, quad))
    run_stage("reverse-doubling", lambda: reverse_doubling_stage(reverse_doubling_report(masses())))
    cfg, lebesgue = ExponentConfig(p=2.0, q=2.0, alpha=1.0), Weight.lebesgue()
    run_stage("testing-constant", lambda: testing_constant_stage(
        two_weight_testing_constant(masses(), lebesgue, cfg)))
    run_stage("norm-check", lambda: norm_check_stage(two_weight_norm_check(w, lebesgue, cfg)))

    def stage_carleson():
        c = carleson_constant(w)
        return (
            c.verdict,
            {
                "operator_norm_estimate": c.constant_estimate,
                "polynomial_lower_bound": c.lower_bound,
            },
            {"trace": c.trace, "cells": c.cells},
        )

    run_stage("carleson-constant", stage_carleson)

    verdict = all(s["verdict"] for s in stages if s["verdict"] is not None)
    return PipelineReport(stages=tuple(stages), verdict=verdict, timings_ms=timings)
