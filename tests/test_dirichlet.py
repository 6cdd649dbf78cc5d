import math

import numpy as np
import pytest

from carleson_lab import dirichlet
from carleson_lab.dirichlet import (
    LOWER_BOUND_DEGREE,
    AnalyticPolynomial,
    CarlesonVerdict,
    carleson_constant,
    derivative_weights,
    dirichlet_norm,
    gram_ratio,
    kernel_norm,
    monomial_gram,
    random_polynomials,
    theorem_pipeline,
)
from carleson_lab.measures import Weight, build_quadrature
from carleson_lab.operators import DiscreteMeasure, KernelSpec, assemble_operator

SEED = 20260810


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norm_of_constant():
    assert dirichlet_norm(AnalyticPolynomial([1.0])) == 1.0


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_norm_of_monomial(n):
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    assert dirichlet_norm(AnalyticPolynomial(coeffs)) == float(n)


def test_norm_of_one_plus_z():
    assert dirichlet_norm(AnalyticPolynomial([1.0, 1.0])) == 2.0


def test_norm_matches_derivative_energy():
    # oracle: |f(0)|^2 + (1/pi) * integral of |f'|^2, by polar quadrature
    rng = np.random.default_rng(SEED)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    f = AnalyticPolynomial(coeffs)
    quad = build_quadrature(12, angular_base=64)
    deriv = AnalyticPolynomial(coeffs[1:] * np.arange(1, 6))
    energy = float(np.sum(np.abs(deriv(quad.z)) ** 2 * quad.area))
    expected = abs(coeffs[0]) ** 2 + energy  # normalized area absorbs 1/pi
    assert dirichlet_norm(f) == pytest.approx(expected, rel=1e-3)


def test_degree_cap():
    with pytest.raises(ValueError):
        AnalyticPolynomial(np.ones(300))


def test_norm_comparability_random_polynomials():
    # n <= n+1 <= 2n for n >= 1, and equality at n = 0: coefficientwise exact
    n = np.arange(0, 33)
    low = np.where(n == 0, 1, n)
    assert np.all(low <= n + 1) and np.all(n + 1 <= 2 * low)
    for f in random_polynomials(1000, 32, seed=SEED):
        d = dirichlet_norm(f)
        k = kernel_norm(f)
        assert d <= k * (1 + 1e-12)
        assert k <= 2 * d * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Carleson constant
# ---------------------------------------------------------------------------


def _sampled_weight(offset=0.0):
    r = np.linspace(0.005, 0.995, 50)
    theta = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    values = np.outer(1.0 - r, 1.0 + 0.5 * np.cos(theta)) + offset
    return Weight.from_grid(r, theta, values)


def _cell_masses(w, depth):
    quad = build_quadrature(depth)
    return quad, w.cell_density(quad) * quad.area


def test_operator_norm_estimate_lebesgue_is_one():
    # oracle: monomials diagonalize the log-kernel operator with
    # eigenvalues 1/(n+1)^2, so the top is 1
    v = carleson_constant(Weight.lebesgue())
    assert v.verdict
    assert v.constant_estimate == pytest.approx(1.0, rel=1e-14)


def test_operator_norm_estimate_radial_power_below_lebesgue():
    v = carleson_constant(Weight.radial_power(1))
    assert v.verdict
    assert v.constant_estimate == pytest.approx(1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("a", [-0.5, 0.0, 1.0, 3.0])
def test_radial_constant_is_the_top_monomial_eigenvalue(a):
    # oracle: the eigenvalues M_2n / (n+1) of the diagonalized operator and
    # the ratios M_2n / max(n, 1) of the monomials, from the exact moments
    w = Weight.radial_power(a)
    moments = np.array([w.radial_moment(2 * n) for n in range(257)])
    n = np.arange(moments.size)
    v = carleson_constant(w)
    assert v.constant_estimate == pytest.approx(np.max(moments / (n + 1)), rel=1e-12)
    assert v.lower_bound == pytest.approx(np.max(moments / np.maximum(n, 1)), rel=1e-12)
    assert v.constant_estimate == v.lower_bound == w.disk_mass()
    assert v.trace == () and v.verdict is True


def test_polynomial_ratio_of_constant_is_one():
    # The Gram's [0, 0] entry is the integral of |1|^2 against Lebesgue.
    quad, mass = _cell_masses(Weight.lebesgue(), 10)
    gram = monomial_gram(quad, mass, 0)
    got = gram[0, 0].real / dirichlet_norm(AnalyticPolynomial([1.0]))
    assert got == pytest.approx(1.0, rel=1e-14)
    assert gram_ratio(gram, derivative_weights) == pytest.approx(1.0, rel=1e-14)


def test_polynomial_sampling_is_lower_bound():
    # oracle: the former best of 64 random degree-64 polynomials, on the
    # quadrature the Gram bound uses
    w = _sampled_weight()
    v = carleson_constant(w)
    quad, mass = _cell_masses(w, 10)
    sampled = max(
        float(np.sum(np.abs(f(quad.z)) ** 2 * mass)) / dirichlet_norm(f)
        for f in random_polynomials(64, LOWER_BOUND_DEGREE, SEED)
    )
    assert 0.0 < sampled <= v.lower_bound * (1 + 1e-12)
    # The derivative norm is at least half the kernel norm.
    assert v.lower_bound <= 2.0 * v.constant_estimate


def test_gram_lower_bound_never_falls_as_the_degree_grows():
    w = _sampled_weight()
    quad, mass = _cell_masses(w, 10)
    gram = monomial_gram(quad, mass, LOWER_BOUND_DEGREE)
    # A lower degree's Gram is the leading block of a higher degree's.
    low = monomial_gram(quad, mass, 16)
    assert np.max(np.abs(low - gram[:17, :17])) <= 1e-13 * np.max(np.abs(gram))
    bounds = np.array(
        [gram_ratio(gram[: d + 1, : d + 1], derivative_weights) for d in range(gram.shape[0])]
    )
    assert np.all(np.diff(bounds) >= -1e-13 * bounds[-1])
    assert bounds[-1] > bounds[0]
    assert bounds[-1] == carleson_constant(w).lower_bound


@pytest.mark.parametrize("depth", [6, 8])
@pytest.mark.parametrize("weight", ["lebesgue", "grid", "random"])
def test_fft_gram_equals_the_dense_gram(depth, weight):
    # oracle: conj(V).T diag(mass) V from the Vandermonde of every cell center;
    # the 16-angle strata alias the differences |m - n| >= 16 modulo 16
    quad = build_quadrature(depth)
    if weight == "random":
        mass = np.random.default_rng(SEED).uniform(0.0, 1.0, quad.n_cells) * quad.area
    else:
        w = Weight.lebesgue() if weight == "lebesgue" else _sampled_weight()
        mass = w.cell_density(quad) * quad.area
    v = np.vander(quad.z, LOWER_BOUND_DEGREE + 1, increasing=True)
    dense = np.conj(v.T) @ (mass[:, None] * v)
    got = monomial_gram(quad, mass, LOWER_BOUND_DEGREE)
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))
    assert np.max(np.abs(got - np.conj(got.T))) <= 1e-13 * np.max(np.abs(dense))


def test_carleson_constant_builds_no_cell_centers(monkeypatch):
    # The Gram reads each stratum's radii and mass rows, never quad.z.
    built = []

    def capture(*args, **kwargs):
        built.append(build_quadrature(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(dirichlet, "build_quadrature", capture)
    v = carleson_constant(_sampled_weight())
    assert [q.depth for q in built] == [d for d, _ in v.trace] == [8, 10]
    assert all("z" not in vars(q) for q in built)


def test_monotonicity_in_the_weight():
    # (1-r)^2 <= (1-r) <= 1 pointwise on the disk
    for name in ("constant_estimate", "lower_bound"):
        vals = [
            getattr(carleson_constant(w), name)
            for w in (Weight.radial_power(2), Weight.radial_power(1), Weight.lebesgue())
        ]
        assert vals[0] <= vals[1] <= vals[2]
    # the same sampled weight and the weight 0.1 above it
    low, high = carleson_constant(_sampled_weight()), carleson_constant(_sampled_weight(0.1))
    assert low.constant_estimate <= high.constant_estimate * (1 + 1e-6)
    assert low.lower_bound <= high.lower_bound


def test_sampled_weight_dense_route():
    r = np.linspace(0.005, 0.995, 200)
    theta = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    w = Weight.from_grid(r, theta, np.ones((200, 32)))
    v = carleson_constant(w, quad_depths=(6, 7, 8))
    assert v.constant_estimate == pytest.approx(1.0, rel=0.05)


def test_sampled_weight_computes_each_capped_depth_once():
    # The default depths 8 and 10 each build one Gram, so the trace refines
    # once and the verdict is earned.
    r = np.linspace(0.005, 0.995, 50)
    theta = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    w = Weight.from_grid(r, theta, np.outer(1.0 - r, 1.0 + 0.5 * np.cos(theta)))
    v = carleson_constant(w)
    assert [d for d, _ in v.trace] == [8, 10]
    assert isinstance(v.verdict, bool)
    refined = carleson_constant(w, quad_depths=(6, 7, 8))
    assert [d for d, _ in refined.trace] == [6, 7, 8]
    assert isinstance(refined.verdict, bool)
    assert refined.trace[-1] == v.trace[0]


def _dense_norm(w, depth):
    # oracle: the top eigenvalue of the assembled operator D^1/2 K D^1/2
    quad = build_quadrature(depth)
    dm = DiscreteMeasure(quad.z, w.cell_density(quad) * quad.area)
    return float(np.linalg.eigvalsh(assemble_operator(KernelSpec.dirichlet(), dm).weighted())[-1])


def test_sampled_operator_norm_equals_the_former_dense_route():
    # The estimate is the operator compressed to degree <= 64, so it never
    # exceeds the dense norm.  For a smooth weight it falls short by the
    # operator's tail beyond degree 64 (measured 6.6e-9 at depth 6 and
    # 3.6e-9 at depth 8), not by rounding alone, hence 1e-8 below.
    r = np.linspace(0.005, 0.995, 50)
    theta = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    w = Weight.from_grid(r, theta, np.outer(1.0 - r + 0.01, 1.0 + 0.5 * np.cos(theta)))
    for depth in (6, 8):
        dense = _dense_norm(w, depth)
        (d, got), = carleson_constant(w, quad_depths=(depth,)).trace
        assert d == depth
        assert dense * (1 - 1e-8) <= got <= dense * (1 + 1e-12)
    # Mass within 1/20 of the circle needs degrees beyond 64: the
    # compression reads low there, but never high.
    r = np.linspace(0.005, 0.995, 100)
    shell = Weight.from_grid(r, theta, np.where(r[:, None] > 0.95, 1.0, 1e-9) * np.ones((100, 16)))
    dense = _dense_norm(shell, 6)
    (_, got), = carleson_constant(shell, quad_depths=(6,)).trace
    assert 0.99 * dense <= got <= dense * (1 + 1e-12)


# ---------------------------------------------------------------------------
# certification pipeline
# ---------------------------------------------------------------------------


def test_pipeline_radial_power_passes():
    rep = theorem_pipeline(Weight.radial_power(1), depth=10)
    assert rep.verdict
    stages = {s["name"]: s for s in rep.stages}
    assert list(stages) == [
        "finiteness",
        "reverse-doubling",
        "testing-constant",
        "norm-check",
        "carleson-constant",
    ]
    assert stages["reverse-doubling"]["constants"]["delta_hat"] == pytest.approx(0.5)
    assert stages["testing-constant"]["constants"]["sup_value"] == pytest.approx(
        math.sqrt(1.0 / 3.0)
    )


def test_pipeline_lebesgue_passes():
    rep = theorem_pipeline(Weight.lebesgue(), depth=10)
    assert rep.verdict
    carleson = rep.stages[-1]
    assert carleson["name"] == "carleson-constant"
    assert carleson["constants"]["operator_norm_estimate"] == pytest.approx(1.0, rel=0.02)


def test_pipeline_thin_shell_reports_failure_but_measures():
    r = np.linspace(0.025, 0.975, 20)
    theta = np.linspace(0.1, 6.2, 16)
    values = np.where(r[:, None] > 0.95, 1.0, 1e-9) * np.ones((20, 16))
    w = Weight.from_grid(r, theta, values)
    rep = theorem_pipeline(w, depth=8)
    assert not rep.verdict
    stages = {s["name"]: s for s in rep.stages}
    assert not stages["reverse-doubling"]["verdict"]
    # later stages still carry measurements
    assert math.isfinite(stages["testing-constant"]["constants"]["sup_value"])


def test_pipeline_skips_the_carleson_stage_without_a_verdict(monkeypatch):
    # A stage with a null verdict is left out of the pipeline verdict.
    r = np.linspace(0.005, 0.995, 50)
    theta = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    w = Weight.from_grid(r, theta, np.outer(1.0 - r, 1.0 + 0.5 * np.cos(theta)))
    monkeypatch.setattr(
        dirichlet, "carleson_constant", lambda w: CarlesonVerdict(0.3, 0.3, ((8, 0.3),), None)
    )
    rep = theorem_pipeline(w, depth=8)
    *tested, carleson = rep.stages
    assert carleson["name"] == "carleson-constant" and carleson["verdict"] is None
    assert all(s["verdict"] for s in tested)
    assert rep.verdict
