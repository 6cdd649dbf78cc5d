"""Acceptance criteria, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible under
``pytest -s`` or in the captured output) and asserts the criterion at its
stated tolerance.  All randomness is seeded; the two domination constants
were frozen from a pre-run sweep with the same seed and procedure.
"""

import math
import time

import numpy as np
import pytest

from carleson_lab.dirichlet import (
    AnalyticPolynomial,
    carleson_constant,
    dirichlet_norm,
    kernel_norm,
    random_polynomials,
    theorem_pipeline,
)
from carleson_lab.dyadic import (
    ExponentConfig,
    carleson_embedding_constant,
    dense_abs_apply,
    domination_check,
    dyadic_apply,
    tree_averages,
    two_weight_testing_constant,
    weak_type_norm,
)
from carleson_lab.geometry import GRIDS, TAU, mei_cover_batch
from carleson_lab.measures import (
    SampledFunction,
    Weight,
    box_masses,
    build_quadrature,
    cell_trees,
    row_sums,
)
from carleson_lab.operators import (
    DiscreteMeasure,
    KernelSpec,
    assemble_operator,
    eval_kernel,
    factorization_check,
    gram_psd_check,
    k1_projection_discrepancy,
    norm_sandwich_check,
    real_part_operator,
)

SEED = 20260810

# Frozen by the pre-run sweeps below (same seed, same procedure):
#   - 10^4 random pairs at depth 24;
#   - the same pairs plus the full node-pair grid of the depth-8 quadrature,
#     which is what guarantees the pointwise bound at those nodes.
FROZEN_C_HAT_RANDOM = {1.0: 3.9106373717687517, 2.0: 15.29308465347441}
FROZEN_C_HAT_GRID8 = {1.0: 4.388256839227108, 2.0: 19.25679808702349}


def report(criterion: int, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def quad12_base64():
    return build_quadrature(12, angular_base=64)


def random_atoms(rng, n, r_max=0.95):
    return np.sqrt(rng.uniform(0, r_max**2, n)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, n)
    )


def test_criterion_01_reverse_doubling_lebesgue():
    from carleson_lab.measures import reverse_doubling_report

    t0 = time.perf_counter()
    rep = reverse_doubling_report(box_masses(Weight.lebesgue(), 16))
    elapsed = time.perf_counter() - t0
    ok = 0.7499 <= rep.delta_hat <= 0.7501 and rep.verdict and elapsed < 1.0
    report(
        1,
        ok,
        f"reverse doubling of Lebesgue: delta_hat={rep.delta_hat:.6f} "
        f"(oracle 3/4 at the full circle), {elapsed * 1e3:.0f} ms",
    )


def test_criterion_02_mei_covering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n = 100_000
    starts = rng.uniform(0, TAU, n)
    lengths = np.concatenate(
        [rng.uniform(1e-9, 1.0, n // 2), 2.0 ** -rng.uniform(0.0, 20.0, n - n // 2)]
    )
    grids, levels, positions = mei_cover_batch(starts, lengths)
    covered = 2.0 ** -levels.astype(float)
    length_failures = int(np.sum(covered > 6.0 * lengths + 1e-12))
    arc_turn = np.mod(grids + positions * covered, 1.0)
    offset = np.mod(starts / TAU - arc_turn, 1.0)
    offset = np.where(offset > 1.0 - 1e-9, 0.0, offset)
    contain_failures = int(
        np.sum(
            (covered < 1.0)
            & (offset + lengths > covered * (1 + 1e-9) + 1e-12)
        )
    )
    # the level-0 fallback: every arc longer than 1/6 is trivially covered
    big = lengths > 1.0 / 6.0
    fallback_ok = bool(np.all(covered[big] <= 1.0))
    elapsed = time.perf_counter() - t0
    ok = (
        length_failures == 0
        and contain_failures == 0
        and fallback_ok
        and elapsed < 5.0
    )
    report(
        2,
        ok,
        f"covering of {n} seeded arcs: {length_failures} length failures, "
        f"{contain_failures} containment failures, {elapsed:.2f} s",
    )


def test_criterion_03_norm_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = 0
    worst_upper = 0.0
    for k in range(50):
        n = int(rng.integers(2, 201))
        dm = DiscreteMeasure(random_atoms(rng, n), rng.uniform(0.05, 1.0, n))
        spec = KernelSpec.dirichlet() if k % 2 == 0 else KernelSpec.k_alpha(1.0)
        rep = norm_sandwich_check(spec, dm, slack=1e-9)
        if not (rep.lower_ok and rep.upper_ok):
            failures += 1
        worst_upper = max(worst_upper, rep.ratios[1])
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    report(
        3,
        ok,
        f"norm sandwich on 50 seeded measures: {failures} failures, "
        f"max full/real ratio {worst_upper:.4f} <= 2, {elapsed:.1f} s",
    )


def test_criterion_04_gram_positivity():
    rng = np.random.default_rng(SEED)
    failures = 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 101))
        pts = random_atoms(rng, n)
        min_eig = gram_psd_check(pts, KernelSpec.dirichlet())
        trace = float(np.sum(np.real(eval_kernel(KernelSpec.dirichlet(), pts, pts))))
        if min_eig < -1e-10 * trace:
            failures += 1
        worst = min(worst, min_eig / trace)
    report(
        4,
        failures == 0,
        f"Gram positivity on 100 seeded point sets: {failures} failures, "
        f"worst relative eigenvalue {worst:.2e}",
    )


def test_criterion_05_real_vectors_suffice():
    rng = np.random.default_rng(SEED)
    failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 60))
        dm = DiscreteMeasure(random_atoms(rng, n), rng.uniform(0.1, 1.0, n))
        b = real_part_operator(assemble_operator(KernelSpec.dirichlet(), dm)).weighted()
        sup_real = float(np.max(np.abs(np.linalg.eigvalsh(b))))
        sup_complex = sup_real
        for _ in range(40):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            sup_complex = max(sup_complex, abs(np.vdot(v, b @ v)))
        if sup_complex > math.sqrt(2.0) * sup_real * (1 + 1e-9):
            failures += 1
    report(
        5,
        failures == 0,
        f"complex quadratic-form sup within sqrt(2) of the real sup on 50 "
        f"real-symmetric operators: {failures} failures",
    )


def test_criterion_06_factorization_kernel(quad12_base64):
    rng = np.random.default_rng(SEED)
    quad8 = build_quadrature(8, angular_base=64)
    worst12 = 0.0
    decreasing = True
    for _ in range(5):
        pts = random_atoms(rng, 5, r_max=0.6)
        dm = DiscreteMeasure(pts, np.ones(5))
        e8 = factorization_check(dm, quad8)
        e12 = factorization_check(dm, quad12_base64)
        worst12 = max(worst12, e12)
        decreasing &= e12 < e8
    ok = worst12 <= 1e-3 and decreasing
    report(
        6,
        ok,
        f"factorization through the Cauchy transform: max error {worst12:.2e} "
        f"at depth 12 (<= 1e-3), decreasing under refinement 8 -> 12: {decreasing}",
    )


def test_criterion_07_k1_projection_identity(quad12_base64):
    rng = np.random.default_rng(SEED)
    keep = np.flatnonzero(quad12_base64.r <= 0.9)
    nodes = quad12_base64.z[rng.choice(keep, size=2000, replace=False)]
    worst = k1_projection_discrepancy(
        quad12_base64,
        (
            lambda z: np.conj(z),
            lambda z: np.abs(z) ** 2 + 0j,
            lambda z: np.conj(z) * z**2,
        ),
        nodes,
    )
    report(
        7,
        worst <= 1e-4,
        f"K1 of f equals K1 of the analytic projection: sup-node discrepancy "
        f"{worst:.2e} <= 1e-4 at depth 12",
    )


def test_criterion_08_embedding_constant():
    # closed-form oracle: (4 - 4 l / 3) / (2 - l) evaluated at l = 1
    oracle = (4.0 - 4.0 / 3.0) / 1.0
    rep = carleson_embedding_constant(
        Weight.lebesgue(), 1.0, box_masses(Weight.lebesgue(), 14).trees
    )
    ok = abs(rep.c1_hat - oracle) <= 0.01 * oracle
    report(
        8,
        ok,
        f"Carleson embedding constant for Lebesgue at t=1: {rep.c1_hat:.5f} "
        f"vs oracle 8/3 = {oracle:.5f} (within 1%) at depth 14",
    )


def test_criterion_09_weak_type_bound():
    rng = np.random.default_rng(SEED)
    quad = build_quadrature(9)
    depth = 9
    violations = 0
    for weight, t in (
        (Weight.lebesgue(), 1.0),
        (Weight.lebesgue(), 2.0),
        (Weight.radial_power(1), 1.0),
    ):
        density = np.real(weight.density(quad.z))
        masses = cell_trees(row_sums(quad, density * quad.area), depth, quad)
        emb = carleson_embedding_constant(weight, t, masses, k_max_level=depth)
        for _ in range(100):
            f_mass = rng.uniform(0.0, 2.0, quad.n_cells) * density * quad.area
            avgs = tree_averages(cell_trees(row_sums(quad, f_mass), depth, quad), masses)
            weak = weak_type_norm(t, avgs, masses)
            l1 = float(np.sum(f_mass))
            if weak > emb.c1_hat ** (1.0 / t) * l1 * (1 + 1e-9):
                violations += 1
    report(
        9,
        violations == 0,
        f"weak-type bound over 100 seeded functions x 3 weight/exponent "
        f"pairs: {violations} violations",
    )


def test_criterion_10_sparse_domination():
    rng = np.random.default_rng(SEED)
    quad = build_quadrature(8)
    depth = 8
    nodes = quad.z
    grid_z = np.broadcast_to(nodes[:, None], (nodes.size, nodes.size)).ravel()
    grid_w = np.broadcast_to(nodes[None, :], (nodes.size, nodes.size)).ravel()
    all_ok = True
    details = []
    for alpha in (1.0, 2.0):
        random_rep = domination_check(alpha, sample_pairs=10_000, depth=24, seed=SEED)
        frozen = FROZEN_C_HAT_RANDOM[alpha]
        random_ok = (
            random_rep.failures == 0
            and abs(random_rep.c_hat - frozen) <= 0.01 * frozen
        )
        grid_rep = domination_check(
            alpha,
            sample_pairs=10_000,
            depth=depth,
            seed=SEED,
            extra_z=grid_z,
            extra_w=grid_w,
        )
        frozen_grid = FROZEN_C_HAT_GRID8[alpha]
        grid_ok = (
            grid_rep.failures == 0
            and abs(grid_rep.c_hat - frozen_grid) <= 0.01 * frozen_grid
        )
        pointwise_ok = True
        for _ in range(20):
            f = SampledFunction(quad, rng.uniform(0.0, 1.0, quad.n_cells))
            lhs = dense_abs_apply(alpha, f, quad)
            rhs = sum(
                np.real(dyadic_apply(g, alpha, f, quad, depth).values) for g in GRIDS
            )
            if not np.all(lhs <= grid_rep.c_hat * rhs * (1 + 1e-9)):
                pointwise_ok = False
        all_ok &= random_ok and grid_ok and pointwise_ok
        details.append(
            f"alpha={alpha:g}: c_hat={random_rep.c_hat:.4f} "
            f"(frozen {frozen:.4f}), failures={random_rep.failures}, "
            f"pointwise ok={pointwise_ok}"
        )
    report(10, all_ok, "sparse domination: " + "; ".join(details))


def test_criterion_11_theorem_assembly():
    t0 = time.perf_counter()
    cfg = ExponentConfig(p=2.0, q=2.0, alpha=1.0)
    testing_ok = True
    for nu in (Weight.lebesgue(), Weight.radial_power(1)):
        rep = two_weight_testing_constant(box_masses(nu, 12), Weight.lebesgue(), cfg)
        expected = math.sqrt(nu.disk_mass())
        testing_ok &= abs(rep.sup_value - expected) <= 1e-6
    pipe_leb = theorem_pipeline(Weight.lebesgue(), depth=12)
    pipe_rp1 = theorem_pipeline(Weight.radial_power(1), depth=12)
    carleson = carleson_constant(Weight.lebesgue())
    carleson_ok = abs(carleson.constant_estimate - 1.0) <= 0.02
    elapsed = time.perf_counter() - t0
    ok = (
        testing_ok
        and pipe_leb.verdict
        and pipe_rp1.verdict
        and carleson_ok
        and elapsed < 120.0
    )
    report(
        11,
        ok,
        f"theorem assembly: testing constants match mass^(1/2) to 1e-6 "
        f"({testing_ok}), pipelines pass ({pipe_leb.verdict}, {pipe_rp1.verdict}), "
        f"Carleson constant of Lebesgue {carleson.constant_estimate:.5f} = 1 +- 2%, "
        f"{elapsed:.0f} s < 120 s",
    )


def test_criterion_12_norm_comparability():
    failures = 0
    for f in random_polynomials(1000, 48, seed=SEED):
        d = dirichlet_norm(f)
        k = kernel_norm(f)
        if not (d <= k * (1 + 1e-12) and k <= 2.0 * d * (1 + 1e-12)):
            failures += 1
    # the comparison is exact coefficientwise: n <= n + 1 <= 2n for n >= 1
    n = np.arange(1, 49)
    coefficientwise = bool(np.all(n <= n + 1) and np.all(n + 1 <= 2 * n))
    ok = failures == 0 and coefficientwise
    report(
        12,
        ok,
        f"norm comparability on 1000 random polynomials: {failures} failures",
    )


def test_criterion_13_bench_trend():
    from carleson_lab.cli import bench

    rows = bench([500, 1800, 6000], seed=SEED)
    lines = []
    soft_ok = True
    for a, b in zip(rows, rows[1:]):
        n_ratio = b["N"] / a["N"]
        dense_ratio = b["dense_ms"] / a["dense_ms"]
        dyadic_ratio = b["dyadic_ms"] / a["dyadic_ms"]
        lines.append(
            f"N {a['N']}->{b['N']}: dense x{dense_ratio:.1f}, "
            f"dyadic x{dyadic_ratio:.1f} (linear would be x{n_ratio:.1f})"
        )
        if dyadic_ratio > 1.5 * n_ratio or dense_ratio < 0.5 * n_ratio**2:
            soft_ok = False
    # soft criterion: logged, never failed on timing noise
    print(f"[{'PASS' if soft_ok else 'SOFT'}] criterion 13: " + "; ".join(lines))
    assert len(rows) == 3
