import math
from functools import partial

import numpy as np
import pytest

from carleson_lab import operators
from carleson_lab.measures import SampledFunction, build_quadrature
from carleson_lab.operators import (
    DiscreteMeasure,
    KernelSpec,
    NormEstimate,
    OperatorMatrix,
    apply_k1,
    apply_kernel,
    assemble_operator,
    bergman_project,
    cell_kernel_apply,
    eval_kernel,
    factorization_check,
    gram_psd_check,
    k1_projection_discrepancy,
    kernel_rows,
    matrix_adjoint_apply,
    norm_sandwich_check,
    operator_norm,
    operator_norm_exact,
    poly_eval,
    power_norm,
    quadrature_apply,
    real_part_operator,
)

SEED = 20260810


def random_points(rng, n, r_max=0.95):
    return np.sqrt(rng.uniform(0, r_max**2, n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def two_by_two_sigma_max(a):
    """Closed-form largest singular value of a 2x2 complex matrix."""
    t = np.sum(np.abs(a) ** 2)
    d = abs(np.linalg.det(a)) ** 2
    return math.sqrt((t + math.sqrt(max(t * t - 4 * d, 0.0))) / 2.0)


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------


def test_log_kernel_at_origin():
    spec = KernelSpec.dirichlet()
    assert eval_kernel(spec, 0j, 0.3 + 0.2j) == 1.0
    assert eval_kernel(spec, 0.5 + 0.1j, 0j) == 1.0


def test_log_kernel_at_one_half():
    # oracle: partial sums of sum x^n / (n+1) at x = 1/2
    x = 0.5
    series = sum(x**n / (n + 1) for n in range(200))
    r = math.sqrt(0.5)
    got = eval_kernel(KernelSpec.dirichlet(), r + 0j, r + 0j)
    assert got.real == pytest.approx(series, abs=1e-12)
    assert got.real == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-15)


def test_log_kernel_at_imaginary_argument():
    # x = i/2; real part must be 2 * arctan(1/2), cross-checked by series
    r = math.sqrt(0.5)
    got = eval_kernel(KernelSpec.dirichlet(), 1j * r, r + 0j)
    x = 0.5j
    series = sum(x**n / (n + 1) for n in range(200))
    assert got == pytest.approx(series, abs=1e-12)
    assert got.real == pytest.approx(2.0 * math.atan(0.5), abs=1e-12)


def test_series_matches_closed_form_up_to_point_nine():
    rng = np.random.default_rng(SEED)
    x = np.sqrt(rng.uniform(0, 0.81, 500)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 500))
    closed = eval_kernel(KernelSpec.dirichlet(), x, np.ones_like(x))
    powers = x[:, None] ** np.arange(200)[None, :]
    partial = powers @ (1.0 / (np.arange(200) + 1.0))
    assert np.max(np.abs(closed - partial)) < 1e-10


def test_fractional_kernel_values():
    assert eval_kernel(KernelSpec.k_alpha(1.0), 0.5 + 0j, 0.5 + 0j) == pytest.approx(
        4.0 / 3.0
    )
    got = eval_kernel(KernelSpec.k_alpha(0.5), 0.5 + 0j, 0.5 + 0j)
    assert got == pytest.approx((1 - 0.25) ** -0.5)


def test_custom_series_kernel():
    spec = KernelSpec.custom_series([1.0, 0.5, 0.25])
    x = 0.4
    r = math.sqrt(x)
    assert eval_kernel(spec, r + 0j, r + 0j) == pytest.approx(1 + 0.5 * x + 0.25 * x * x)


def test_hermitian_symmetry_sweep():
    rng = np.random.default_rng(SEED)
    z = random_points(rng, 100_000)
    w = random_points(rng, 100_000)
    for spec in (KernelSpec.dirichlet(), KernelSpec.k_alpha(1.0), KernelSpec.k_alpha(0.7)):
        lhs = eval_kernel(spec, z, w)
        rhs = np.conj(eval_kernel(spec, w, z))
        assert np.max(np.abs(lhs - rhs)) < 1e-13


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([0.5 + 0j]), np.array([0.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([1.0 + 0j]), np.array([1.0]))


def test_assemble_single_atom():
    dm = DiscreteMeasure(np.array([0j]), np.array([1.0]))
    a = assemble_operator(KernelSpec.dirichlet(), dm)
    assert a.matrix.shape == (1, 1)
    assert a.matrix[0, 0] == 1.0


def test_assemble_two_atoms_log_kernel():
    r = 0.6
    dm = DiscreteMeasure(np.array([0j, r + 0j]), np.array([1.0, 1.0]))
    a = assemble_operator(KernelSpec.dirichlet(), dm).matrix
    assert a[0, 0] == 1.0 and a[0, 1] == 1.0 and a[1, 0] == 1.0
    assert a[1, 1].real == pytest.approx(math.log(1 / (1 - r * r)) / r**2)


def test_assemble_two_atoms_cauchy_kernel():
    dm = DiscreteMeasure(np.array([0j, 0.5 + 0j]), np.array([1.0, 1.0]))
    a = assemble_operator(KernelSpec.k_alpha(1.0), dm).matrix
    np.testing.assert_allclose(a, [[1.0, 1.0], [1.0, 4.0 / 3.0]], rtol=1e-15)


def test_real_part_operator():
    m = OperatorMatrix(np.array([[1.0, 1j], [-1j, 1.0]]), np.array([1.0, 1.0]))
    r = real_part_operator(m)
    np.testing.assert_array_equal(r.matrix, np.eye(2))
    dm = DiscreteMeasure(np.array([0j, 0.4 + 0j]), np.array([1.0, 1.0]))
    a = assemble_operator(KernelSpec.dirichlet(), dm)
    np.testing.assert_allclose(real_part_operator(a).matrix, a.matrix.real)


def test_operator_norm_identity_kernel():
    masses = np.array([0.3, 0.6, 0.1])
    m = OperatorMatrix(np.eye(3, dtype=complex), masses)
    est = operator_norm(m)
    assert est.converged
    assert est.value == pytest.approx(max(masses), rel=1e-7)


def test_operator_norm_rank_one_all_ones():
    m = OperatorMatrix(np.ones((2, 2), dtype=complex), np.array([0.5, 0.5]))
    assert operator_norm(m).value == pytest.approx(1.0, rel=1e-7)


def test_operator_norm_diagonal():
    m = OperatorMatrix(np.diag([2.0, 3.0]).astype(complex), np.array([1.0, 1.0]))
    assert operator_norm(m).value == pytest.approx(3.0, rel=1e-7)


def test_operator_norm_agrees_with_exact():
    rng = np.random.default_rng(SEED)
    pts = random_points(rng, 40)
    dm = DiscreteMeasure(pts, rng.uniform(0.1, 1.0, 40))
    a = assemble_operator(KernelSpec.dirichlet(), dm)
    assert operator_norm(a).value == pytest.approx(operator_norm_exact(a), rel=1e-6)


def test_power_norm_rectangular_complex_against_svd():
    rng = np.random.default_rng(SEED)
    b = rng.standard_normal((30, 17)) + 1j * rng.standard_normal((30, 17))
    est = power_norm(lambda v: b @ v, matrix_adjoint_apply(b), 17, tol=1e-12)
    assert est.converged and est.iterations > 1
    assert est.value == pytest.approx(np.linalg.norm(b, 2), rel=1e-10)


def test_power_norm_real_symmetric_against_eigvalsh():
    rng = np.random.default_rng(SEED + 1)
    m = rng.standard_normal((25, 25))
    gram = m @ m.T
    est = power_norm(lambda v: gram @ v, lambda v: gram @ v, 25, tol=1e-12)
    assert est.converged
    assert est.value == pytest.approx(np.linalg.eigvalsh(gram).max(), rel=1e-10)
    sym = m + m.T  # indefinite: the norm is the largest |eigenvalue|
    est = power_norm(lambda v: sym @ v, lambda v: sym @ v, 25, tol=1e-12)
    assert est.value == pytest.approx(np.abs(np.linalg.eigvalsh(sym)).max(), rel=1e-10)


def test_power_norm_zero_operator_and_empty_space():
    zero = np.zeros((4, 6))
    est = power_norm(lambda v: zero @ v, lambda u: zero.T @ u, 6)
    assert (est.value, est.iterations, est.converged) == (0.0, 1, True)
    assert power_norm(None, None, 0) == NormEstimate(0.0, 0, 0.0, True)


def test_power_norm_reports_exhausted_iterations():
    d = np.diag([1.0, 0.999, 0.5])
    est = power_norm(lambda v: d @ v, lambda v: d @ v, 3, tol=1e-14, max_iter=5)
    assert not est.converged
    assert est.iterations == 5 and est.residual > 1e-14
    assert est.value <= 1.0


def test_power_norm_at_two_two_against_eigvalsh():
    rng = np.random.default_rng(SEED + 3)
    b = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
    est = power_norm(lambda v: b @ v, matrix_adjoint_apply(b), 9, tol=1e-12, p=2.0, q=2.0)
    assert est == power_norm(lambda v: b @ v, matrix_adjoint_apply(b), 9, tol=1e-12)
    top = np.linalg.eigvalsh(b.conj().T @ b).max()
    assert est.value == pytest.approx(math.sqrt(top), rel=1e-10)


@pytest.mark.parametrize("p", [2.0, 3.0, 1.5])
def test_power_norm_starts_from_a_given_vector(p):
    rng = np.random.default_rng(SEED + 4)
    b = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    forward, adjoint = (lambda v: b @ v), matrix_adjoint_apply(b)
    seeded = power_norm(forward, adjoint, 5, p=p, q=p, seed=11)
    draw = np.random.default_rng(11)
    start = draw.standard_normal(5) + 1j * draw.standard_normal(5)
    # The seeded draw, given as a start, is the seeded solve; at another
    # scale it is normalized in l^p first.
    kept = start.copy()
    assert power_norm(forward, adjoint, 5, p=p, q=p, start=start) == seeded
    assert np.array_equal(start, kept)
    scaled = power_norm(forward, adjoint, 5, p=p, q=p, start=3.5 * start)
    assert scaled.iterations == seeded.iterations
    assert scaled.value == pytest.approx(seeded.value, rel=1e-14)
    assert np.allclose(scaled.vector, seeded.vector, rtol=0, atol=1e-14)
    assert np.linalg.norm(seeded.vector, p) == pytest.approx(1.0, rel=1e-12)
    # From its own final iterate the solve stops at once, no lower.
    again = power_norm(forward, adjoint, 5, p=p, q=p, start=seeded.vector)
    assert again.iterations <= 3 and again.value >= seeded.value * (1.0 - 1e-12)


def test_norm_estimates_compare_without_their_vector():
    a = NormEstimate(1.0, 2, 0.0, True, np.ones(3))
    assert a == NormEstimate(1.0, 2, 0.0, True) == NormEstimate(1.0, 2, 0.0, True, np.zeros(3))
    assert "vector" not in repr(a)


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_power_norm_keeps_zero_entries_at_zero(p):
    # The dual maps raise |x| to negative powers away from p = 2.
    d = np.diag([2.0, 0.0, 0.0])
    est = power_norm(lambda v: d @ v, lambda v: d @ v, 3, p=p, q=p)
    assert est.converged and est.value == pytest.approx(2.0, rel=1e-12)
    zero = np.zeros((2, 3))
    assert power_norm(lambda v: zero @ v, lambda u: zero.T @ u, 3, p=p, q=p).value == 0.0


def grid_maximum(ratio, lo, hi, points=201, starts=8, rounds=14):
    """Maximum of ``ratio`` (columns of parameters -> values) over a box:
    a full grid, then 21-point grids zoomed five-fold per round around
    each of the ``starts`` best grid points."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)

    def mesh(axes):
        return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])

    grid = mesh([np.linspace(a, b, points) for a, b in zip(lo, hi)])
    values = ratio(grid)
    best = values.max()
    for k in np.argsort(values)[-starts:]:
        center, half = grid[:, k], 2.0 * (hi - lo) / (points - 1)
        for _ in range(rounds):
            axes = [np.linspace(c - h, c + h, 21) for c, h in zip(center, half)]
            local = np.clip(mesh(axes), lo[:, None], hi[:, None])
            v = ratio(local)
            center, best, half = local[:, np.argmax(v)], max(best, v.max()), half / 5.0
    return best


def lp_ratio(a, p, q, vectors):
    """``params -> ||a x||_q / ||x||_p`` for the columns ``x = vectors(params)``."""

    def ratio(params):
        x = vectors(params)
        return np.linalg.norm(a @ x, q, axis=0) / np.linalg.norm(x, p, axis=0)

    return ratio


def nonnegative_directions(params):
    """Nonnegative vectors of ``len(params) + 1`` entries, by polar angles."""
    if len(params) == 1:
        return np.stack([np.cos(params[0]), np.sin(params[0])])
    t, s = params
    return np.stack([np.cos(t) * np.cos(s), np.cos(t) * np.sin(s), np.sin(t)])


def complex_directions(params):
    """Every vector of ``C^2`` up to scale and a common phase."""
    t, phase = params
    return np.stack([np.cos(t) + 0j, np.sin(t) * np.exp(1j * phase)])


@pytest.mark.parametrize("p", [3.0, 1.5])
@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (3, 3), (2, 3)])
def test_power_norm_reaches_the_grid_maximum_of_a_nonnegative_matrix(p, shape):
    # A nonnegative matrix attains its l^p -> l^p norm at a nonnegative vector.
    rng = np.random.default_rng(SEED + shape[0] * 10 + shape[1])
    for _ in range(4):
        a = rng.uniform(0.0, 1.0, shape)
        est = power_norm(lambda v: a @ v, matrix_adjoint_apply(a), shape[1], p=p, q=p)
        dims = shape[1] - 1
        best = grid_maximum(
            lp_ratio(a, p, p, nonnegative_directions), [0.0] * dims, [np.pi / 2] * dims
        )
        assert est.converged
        assert est.value == pytest.approx(best, abs=1e-6)


@pytest.mark.parametrize("rows", [2, 3])
def test_power_norm_of_a_complex_matrix_never_exceeds_the_grid_maximum(rows):
    # Every figure is an attained lower bound, also where the ascent stops
    # at a local maximum.
    rng = np.random.default_rng(SEED + rows)
    for _ in range(6):
        a = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
        est = power_norm(lambda v: a @ v, matrix_adjoint_apply(a), 2, p=2.0, q=3.0)
        best = grid_maximum(lp_ratio(a, 2.0, 3.0, complex_directions), [0.0, 0.0], [np.pi / 2, 2 * np.pi])
        assert 0.0 < est.value <= best * (1.0 + 1e-12)


def test_operator_norm_is_power_norm_on_the_weighted_matrix():
    rng = np.random.default_rng(SEED + 2)
    dm = DiscreteMeasure(random_points(rng, 50), rng.uniform(0.1, 1.0, 50))
    a = assemble_operator(KernelSpec.k_alpha(1.5), dm)
    b = a.weighted()
    bh = b.conj().T
    assert operator_norm(a) == power_norm(lambda v: b @ v, lambda u: bh @ u, 50)


# ---------------------------------------------------------------------------
# norm sandwich
# ---------------------------------------------------------------------------


def test_sandwich_real_kernel_equal_norms():
    rng = np.random.default_rng(SEED)
    pts = np.sort(rng.uniform(0.0, 0.9, 10)) + 0j  # real atoms: kernel is real
    dm = DiscreteMeasure(pts, rng.uniform(0.2, 1.0, 10))
    rep = norm_sandwich_check(KernelSpec.dirichlet(), dm)
    assert rep.lower_ok and rep.upper_ok
    assert rep.norm_full == pytest.approx(rep.norm_real, rel=1e-12)


def test_sandwich_single_atom():
    z0 = 0.5 * np.exp(0.7j)
    dm = DiscreteMeasure(np.array([z0]), np.array([0.8]))
    rep = norm_sandwich_check(KernelSpec.dirichlet(), dm)
    k = eval_kernel(KernelSpec.dirichlet(), z0, z0)
    assert rep.norm_full == pytest.approx(abs(k) * 0.8, rel=1e-12)
    assert rep.lower_ok and rep.upper_ok


def test_sandwich_two_atoms_against_svd_oracle():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(10):
        pts = random_points(rng, 2)
        masses = rng.uniform(0.2, 1.0, 2)
        dm = DiscreteMeasure(pts, masses)
        rep = norm_sandwich_check(KernelSpec.k_alpha(1.0), dm)
        root = np.sqrt(masses)
        weighted = (
            eval_kernel(KernelSpec.k_alpha(1.0), pts[:, None], pts[None, :])
            * root[:, None]
            * root[None, :]
        )
        assert rep.norm_full == pytest.approx(two_by_two_sigma_max(weighted), rel=1e-12)
        assert rep.lower_ok and rep.upper_ok


def test_sandwich_seeded_sweep():
    rng = np.random.default_rng(SEED)
    for k in range(20):
        n = int(rng.integers(2, 80))
        dm = DiscreteMeasure(random_points(rng, n), rng.uniform(0.05, 1.0, n))
        spec = KernelSpec.dirichlet() if k % 2 else KernelSpec.k_alpha(1.0)
        rep = norm_sandwich_check(spec, dm)
        assert rep.lower_ok and rep.upper_ok


# ---------------------------------------------------------------------------
# Gram positivity
# ---------------------------------------------------------------------------


def test_gram_single_origin_point():
    assert gram_psd_check([0j], KernelSpec.dirichlet()) == 1.0


def test_gram_two_points_closed_form():
    r = 0.7
    pts = [0j, r + 0j]
    krr = math.log(1 / (1 - r * r)) / r**2
    # 2x2 eigenvalues of [[1, 1], [1, krr]]
    tr, det = 1 + krr, krr - 1.0
    lo = (tr - math.sqrt(tr * tr - 4 * det)) / 2
    got = gram_psd_check(pts, KernelSpec.dirichlet())
    assert got == pytest.approx(lo, rel=1e-12)
    assert got >= 0.0


def test_gram_random_points_psd():
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        pts = random_points(rng, 50)
        min_eig = gram_psd_check(pts, KernelSpec.dirichlet())
        trace = float(
            np.sum(np.real(eval_kernel(KernelSpec.dirichlet(), pts, pts)))
        )
        assert min_eig >= -1e-10 * trace


def test_quadratic_form_positivity():
    rng = np.random.default_rng(SEED)
    pts = random_points(rng, 60)
    gram = np.asarray(eval_kernel(KernelSpec.dirichlet(), pts[:, None], pts[None, :]))
    trace = float(np.real(np.trace(gram)))
    for _ in range(50):
        v = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        quad_form = np.real(np.vdot(v, gram @ v))
        assert quad_form >= -1e-10 * trace * np.vdot(v, v).real


# ---------------------------------------------------------------------------
# real-valued vectors suffice, up to sqrt(2)
# ---------------------------------------------------------------------------


def test_complex_quadratic_sup_within_sqrt2_of_real():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        dm = DiscreteMeasure(random_points(rng, n), rng.uniform(0.1, 1.0, n))
        b = real_part_operator(assemble_operator(KernelSpec.dirichlet(), dm)).weighted()
        eigs = np.linalg.eigvalsh(b)
        sup_real = float(np.max(np.abs(eigs)))
        sup_complex = sup_real  # hermitian: attained on real vectors too
        for _ in range(20):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            sup_complex = max(sup_complex, abs(np.vdot(v, b @ v)))
        assert sup_complex <= math.sqrt(2.0) * sup_real * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Cauchy transform and analytic projection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quad12():
    return build_quadrature(12, angular_base=64)


@pytest.fixture(scope="module")
def eval_nodes(quad12):
    rng = np.random.default_rng(SEED)
    keep = np.flatnonzero(quad12.r <= 0.9)
    return quad12.z[rng.choice(keep, size=1500, replace=False)]


def test_k1_of_constant_is_constant(quad12, eval_nodes):
    f = SampledFunction.constant(quad12, 1.0 + 0j)
    out = apply_k1(f, quad12, eval_points=eval_nodes)
    assert np.max(np.abs(out - 1.0)) < 1e-4


def test_k1_kills_antianalytic(quad12, eval_nodes):
    f = SampledFunction.from_function(quad12, np.conj)
    out = apply_k1(f, quad12, eval_points=eval_nodes)
    assert np.max(np.abs(out)) < 1e-4


@pytest.mark.parametrize("n", [1, 2, 5])
def test_k1_divides_monomials(quad12, eval_nodes, n):
    f = SampledFunction.from_function(quad12, lambda z: z**n)
    out = apply_k1(f, quad12, eval_points=eval_nodes)
    assert np.max(np.abs(out - eval_nodes**n / (n + 1))) < 1e-4


def test_projection_kills_antianalytic(quad12):
    f = SampledFunction.from_function(quad12, np.conj)
    coeffs = bergman_project(f, quad12, degree=8)
    assert np.max(np.abs(coeffs)) < 1e-6


def test_projection_fixes_monomials(quad12):
    for n in (0, 3, 7):
        f = SampledFunction.from_function(quad12, lambda z: z**n)
        coeffs = bergman_project(f, quad12, degree=8)
        assert coeffs[n] == pytest.approx(1.0, abs=1e-4)
        others = np.delete(coeffs, n)
        assert np.max(np.abs(others)) < 1e-6


def test_projection_of_speed_squared(quad12):
    f = SampledFunction.from_function(quad12, lambda z: np.abs(z) ** 2 + 0j)
    coeffs = bergman_project(f, quad12, degree=8)
    assert coeffs[0] == pytest.approx(0.5, abs=1e-4)
    assert np.max(np.abs(coeffs[1:])) < 1e-6


def test_k1_projection_identity(quad12, eval_nodes):
    worst = k1_projection_discrepancy(
        quad12,
        (
            lambda z: np.conj(z),
            lambda z: np.abs(z) ** 2 + 0j,
            lambda z: np.conj(z) * z**2,
        ),
        eval_nodes,
    )
    assert worst <= 1e-4


def test_quadrature_apply_shares_blocks_across_stacked_columns(quad12, eval_nodes):
    rng = np.random.default_rng(SEED + 3)
    stacked = rng.standard_normal((quad12.n_cells, 3))
    spec = KernelSpec.k_alpha(2.0)
    kernel = partial(eval_kernel, spec)
    got = quadrature_apply(kernel, stacked, quad12, eval_nodes, block=100)
    assert got.shape == (eval_nodes.size, 3)
    for k in range(3):
        f = SampledFunction(quad12, stacked[:, k])
        np.testing.assert_allclose(
            got[:, k], apply_kernel(spec, f, quad12, eval_points=eval_nodes), rtol=1e-12
        )
    assert quadrature_apply(kernel, stacked, quad12, np.array([])).shape == (0, 3)


CELL_KERNELS = (
    KernelSpec.k_alpha(0.5),
    KernelSpec.k_alpha(1.0),
    KernelSpec.k_alpha(2.0),
    KernelSpec.dirichlet(),
    KernelSpec.custom_series([1.0, -0.5, 0.25, 0.0, 2.0]),
)


def dense_cell_apply(spec, quad, fw):
    return np.concatenate(
        [k @ fw for _, k in kernel_rows(partial(eval_kernel, spec), quad.z, quad.z)]
    )


@pytest.mark.parametrize("spec", CELL_KERNELS, ids=lambda s: f"{s.kind}-{s.alpha}")
@pytest.mark.parametrize("depth, angular_base", [(4, 16), (6, 16), (8, 16), (5, 64)])
def test_cell_kernel_apply_matches_the_dense_kernel(spec, depth, angular_base):
    quad = build_quadrature(depth, angular_base=angular_base)
    rng = np.random.default_rng(SEED + depth)
    fw = rng.standard_normal(quad.n_cells) + 1j * rng.standard_normal(quad.n_cells)
    got = cell_kernel_apply(spec, quad)(fw)
    want = dense_cell_apply(spec, quad, fw)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("spec", CELL_KERNELS, ids=lambda s: f"{s.kind}-{s.alpha}")
def test_cell_kernel_apply_is_hermitian(spec):
    quad = build_quadrature(7)
    rng = np.random.default_rng(SEED + 7)
    f, g = rng.standard_normal((2, quad.n_cells)) + 1j * rng.standard_normal((2, quad.n_cells))
    apply = cell_kernel_apply(spec, quad)
    left, right = np.vdot(g, apply(f)), np.vdot(apply(g), f)
    assert abs(left - right) <= 1e-12 * np.linalg.norm(apply(f)) * np.linalg.norm(g)


@pytest.mark.parametrize(
    "alpha, entries", [(1.0, 0), (2.0, 566_870)], ids=["closed-form", "fft-fill"]
)
def test_cell_kernel_apply_evaluates_one_table_per_hermitian_pair(monkeypatch, alpha, entries):
    # Depth 10 has angular classes 16, ..., 1024; the plan fills the pairs
    # with target count >= source count only (both orders: 1,737,216).  The
    # FFT fill evaluates each on half its angles (all of them: 1,081,856);
    # the closed form at alpha = 1 evaluates none.
    evaluated = []

    def counting(spec, z, w):
        out = eval_kernel(spec, z, w)
        evaluated.append(np.size(out))
        return out

    monkeypatch.setattr(operators, "eval_kernel", counting)
    apply = cell_kernel_apply(KernelSpec.k_alpha(alpha), build_quadrature(10))
    assert sum(evaluated) == entries
    assert all(t.dtype == np.float64 for t in apply.tables.values())
    assert sum(t.nbytes for t in apply.tables.values()) == 8_654_848  # 8.25 MiB


@pytest.mark.parametrize("depth", [6, 8, 10])
def test_k1_closed_form_tables_equal_the_fft_fill(depth):
    quad = build_quadrature(depth)
    spec = KernelSpec.k_alpha(1.0)
    closed = cell_kernel_apply(spec, quad).tables
    _, sampled, _, _ = operators._cell_tables(quad, partial(operators._fft_fill, spec))
    assert closed.keys() == sampled.keys()
    for q, table in closed.items():
        scale = np.max(np.abs(sampled[q]))
        assert np.max(np.abs(table - sampled[q])) <= 1e-14 * scale


def test_k1_closed_form_keeps_tiny_entries():
    # Target class 1024 against source class 16 at depth 10: the source
    # sublayers nearest the origin give entries far below the FFT fill's
    # rounding, which the closed form still carries to full relative precision.
    mpmath = pytest.importorskip("mpmath")
    quad = build_quadrature(10)
    cells, table, rows, _ = operators._cell_tables(quad, operators._k1_fill)
    p, q = 1024, 16
    rt, rs = (quad.r[cells[c][::c]] for c in (p, q))
    block = table[q][:, rows[q][p]].reshape(q, p // q, rt.size, rs.size)
    k, m, t, s = np.nonzero((block > 1e-290) & (block < 1e-200))
    assert k.size >= 5
    for i in np.linspace(0, k.size - 1, 5).astype(int):
        with mpmath.workdps(40):
            rho = mpmath.mpf(rt[t[i]]) * mpmath.mpf(rs[s[i]])
            want = float(p * rho ** int(m[i] * q + k[i]) / (1 + rho**p))
        assert block[k[i], m[i], t[i], s[i]] == pytest.approx(want, rel=1e-14, abs=0)


def test_poly_eval_horner():
    coeffs = np.array([1.0, 2.0, 3.0])
    z = np.array([0.5 + 0j])
    assert poly_eval(coeffs, z)[0] == pytest.approx(1 + 2 * 0.5 + 3 * 0.25)


# ---------------------------------------------------------------------------
# factorization of the log kernel through the Cauchy transform
# ---------------------------------------------------------------------------


def test_factorization_single_origin_atom(quad12):
    dm = DiscreteMeasure(np.array([0j]), np.array([1.0]))
    assert factorization_check(dm, quad12) < 1e-12


def test_factorization_two_atoms(quad12):
    dm = DiscreteMeasure(np.array([0j, 0.5 + 0j]), np.array([1.0, 1.0]))
    assert factorization_check(dm, quad12) < 1e-4


def test_factorization_refines(quad12):
    rng = np.random.default_rng(SEED)
    pts = random_points(rng, 5, r_max=0.6)
    dm = DiscreteMeasure(pts, np.ones(5))
    e8 = factorization_check(dm, build_quadrature(8, angular_base=64))
    e12 = factorization_check(dm, quad12)
    assert e12 <= 1e-3
    assert e12 < e8


# ---------------------------------------------------------------------------
# the log kernel diagonalizes on monomials
# ---------------------------------------------------------------------------


def test_monomial_diagonalization():
    quad = build_quadrature(12, angular_base=64, radial_refine=256)
    zt = 0.7 * np.exp(1j * np.linspace(0.1, 5.9, 7))
    for n in range(17):
        f = SampledFunction(quad, quad.z**n)
        got = apply_kernel(KernelSpec.dirichlet(), f, quad, eval_points=zt)
        assert np.max(np.abs(got - zt**n / (n + 1) ** 2)) < 1e-6
