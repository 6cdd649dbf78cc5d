"""Tests of the reference module against known anchors.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import math

import numpy as np
import pytest

import inputs
import reference as ref


def flat(m):
    return 1.0 if m == 0 else 0.0


def test_outer_and_moments_are_consistent():
    # outer(1) is the disk mass of 1 - r, which is also the zeroth moment.
    assert ref.outer(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ref.moment(0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # M_k against a midpoint rule for 2 * integral of r**(k+1) (1 - r) dr.
    r = (np.arange(200_000) + 0.5) / 200_000
    for k in (0, 1, 5, 12):
        assert ref.moment(k) == pytest.approx(2.0 * np.mean(r ** (k + 1) * (1 - r)), rel=1e-8)
    # outer(s) against the same rule over [1 - s, 1).
    s = 0.3
    rr = 1 - s + s * r
    assert ref.outer(s) == pytest.approx(2.0 * s * np.mean(rr * (1 - rr)), rel=1e-8)


def test_radial_power_one_gram_eigenvalue_is_one_third():
    assert ref.gram_top_eigenvalue(flat) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_gram_matches_direct_quadrature():
    # G_nm = <z^m, z^n>_w / sqrt((n+1)(m+1)) for w = (1 - r) g, by brute force.
    w = inputs.product_weight(3)
    nr, nt = 400, 256
    r = (np.arange(nr) + 0.5) / nr
    t = (np.arange(nt) + 0.5) * (2 * math.pi / nt)
    z = r[:, None] * np.exp(1j * t[None, :])
    dens = (1 - r)[:, None] * w.g(t)[None, :] * (2 * r[:, None] / nr) / nt
    for n, m in ((0, 0), (1, 0), (3, 1), (2, 5)):
        direct = np.sum(z**m * np.conj(z) ** n * dens)
        formula = ref.moment(n + m) * w.fourier(n - m)
        assert abs(direct - formula) <= 2e-5


def test_gram_eigenvalue_of_a_doubling_product_weight():
    lam = ref.gram_top_eigenvalue(inputs.product_weight(1).fourier)
    # The (0, 0) entry is 1/3 and the matrix is positive definite.
    assert 1.0 / 3.0 <= lam <= 1.0 / 3.0 * 1.5


def test_lebesgue_embedding_sum_is_eight_thirds():
    # sum_j 2**j * area(level-j box), area = l**2 (2 - l) with l = 2**-j: 4 - 4/3.
    explicit = ref.embedding_constant(ref.flat_turn_integral, ref.outer_lebesgue, 20, 0)
    assert explicit == pytest.approx(8.0 / 3.0, rel=1e-5)


def test_product_weight_embedding_constant_is_twelve_sevenths():
    # sum_j outer(2**-j) / outer(1) = 3 (4/3 - (2/3)(8/7)), whatever g is.
    exact = ref.embedding_constant(inputs.product_weight(2).g_turn_integral, ref.outer, 20, 8)
    assert exact == pytest.approx(12.0 / 7.0, rel=1e-9)


def test_reverse_doubling_ratio_peaks_at_one_half():
    lengths = np.linspace(1e-6, 1.0, 10_001)
    ratios = ref.reverse_doubling_ratio(lengths)
    assert ratios.max() == pytest.approx(0.5, abs=1e-15)
    assert ratios[0] == pytest.approx(0.25, abs=1e-5)


@pytest.mark.parametrize("seed", [0, 1, 2**40, -7])
def test_generated_angular_factor(seed):
    w = inputs.product_weight(seed)
    theta = np.linspace(0, 2 * math.pi, 4097)
    assert w.amplitudes.sum() == pytest.approx(0.5)
    assert np.all(w.g(theta) >= 0.5 - 1e-12) and np.all(w.g(theta) <= 1.5 + 1e-12)
    assert w.g_turn_integral(0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    # The closed-form arc integral against a midpoint rule.
    a, b = 0.1, 0.37
    mid = a + (b - a) * (np.arange(100_000) + 0.5) / 100_000
    assert w.g_turn_integral(a, b) == pytest.approx((b - a) * np.mean(w.g(2 * math.pi * mid)), rel=1e-9)


def test_grid_file_round_trip(tmp_path):
    w = inputs.product_weight(5)
    path = tmp_path / "w.txt"
    inputs.write_grid_file(str(path), w)
    header = path.read_text().splitlines()[0].split()
    rows = np.loadtxt(path, skiprows=1)
    assert header == [str(inputs.R_COUNT), str(inputs.THETA_COUNT)]
    assert rows.shape == (inputs.R_COUNT * inputs.THETA_COUNT, 3)
    assert np.allclose(rows[:, 2], (1 - rows[:, 0]) * w.g(rows[:, 1]), rtol=1e-15)
    assert np.all(np.diff(rows[:: inputs.THETA_COUNT, 0]) > 0)
