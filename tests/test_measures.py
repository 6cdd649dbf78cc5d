import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleson_lab import measures
from carleson_lab.errors import (
    ConfigError,
    DegenerateWeightError,
    InfiniteMassError,
    MemoryGuardError,
    ResolutionError,
    WeightSpecError,
)
from carleson_lab.geometry import (
    GRID_PLAIN,
    GRID_THIRD,
    GRIDS,
    TAU,
    Arc,
    CarlesonBox,
    DyadicIndex,
    full_box_area,
)
from carleson_lab.measures import (
    BoxMasses,
    SampledFunction,
    Weight,
    box_level_sums,
    box_mass,
    box_masses,
    build_quadrature,
    doubling_report,
    dual_weight,
    parse_weight,
    positive,
    reverse_doubling_report,
    row_sums,
    sweep,
)

SEED = 20260810


def thin_shell_weight(floor: float = 1e-9) -> Weight:
    """Sampled density carrying almost all mass in the shell r > 0.95."""
    r = np.linspace(0.025, 0.975, 20)
    theta = np.linspace(0.1, 6.2, 16)
    values = np.where(r[:, None] > 0.95, 1.0, floor) * np.ones((20, 16))
    return Weight.from_grid(r, theta, values)


# ---------------------------------------------------------------------------
# quadrature construction
# ---------------------------------------------------------------------------


def test_depth_one_base_four_has_eight_cells():
    quad = build_quadrature(1, angular_base=4)
    assert quad.n_cells == 8
    assert quad.area.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("depth", [2, 5, 9])
def test_total_area_is_one(depth):
    quad = build_quadrature(depth)
    assert quad.area.sum() == pytest.approx(1.0, abs=1e-12)


def test_bad_quadrature_arguments():
    with pytest.raises(ConfigError):
        build_quadrature(0)
    with pytest.raises(ConfigError):
        build_quadrature(4, angular_base=3)
    with pytest.raises(ConfigError):
        build_quadrature(4, angular_base=24)


def test_memory_guard(monkeypatch):
    monkeypatch.setenv(measures.MAX_CELLS_ENV, "100")
    with pytest.raises(MemoryGuardError):
        build_quadrature(10)


@pytest.mark.parametrize("angular_base", [4, 16, 64])
@pytest.mark.parametrize("depth", [1, 2, 5, 10, 13])
def test_strata_tile_the_cells(depth, angular_base):
    quad = build_quadrature(depth, angular_base=angular_base)
    assert [s.level for s in quad.strata] == list(range(depth + 1))
    stop = 0
    for s in quad.strata:
        assert s.cells.start == stop
        stop = s.cells.stop
        assert s.count == max(angular_base, 2**s.level)
        assert np.all(quad.stratum[s.cells] == s.level)
        midpoints = 0.5 * (s.edges[:-1] + s.edges[1:])
        assert np.all(s.rows(quad.r) == midpoints[:, None])
        inner = 1.0 - 2.0**-s.level
        outer = 1.0 if s.level == depth else 1.0 - 2.0 ** -(s.level + 1)
        assert (s.edges[0], s.edges[-1]) == (inner, outer)
        assert quad.area[s.cells].sum() == pytest.approx(outer**2 - inner**2, rel=1e-12)
    assert stop == quad.n_cells


@pytest.mark.parametrize("coarse_depth, fine_depth", [(4, 6), (6, 8), (8, 10), (3, 11), (5, 5)])
@pytest.mark.parametrize("angular_base", [4, 16])
def test_parent_index_holds_every_fine_center(coarse_depth, fine_depth, angular_base):
    coarse = build_quadrature(coarse_depth, angular_base=angular_base)
    fine = build_quadrature(fine_depth, angular_base=angular_base)
    parent = coarse.parent_index(fine)
    assert parent.shape == (fine.n_cells,)
    for s in coarse.strata:
        mine = (parent >= s.cells.start) & (parent < s.cells.stop)
        k, m = np.divmod(parent[mine] - s.start, s.count)
        r, theta = fine.r[mine], fine.theta[mine]
        assert np.all((s.edges[k] <= r) & (r < s.edges[k + 1]))
        assert np.all((m * TAU / s.count <= theta) & (theta < (m + 1) * TAU / s.count))
    if coarse_depth == fine_depth:
        assert np.array_equal(parent, np.arange(fine.n_cells))


@pytest.mark.parametrize("angular_base", [4, 16, 64])
def test_cell_centers_are_r_exp_i_theta_bit_for_bit(angular_base):
    # One exp row per stratum gives the bits of the elementwise product.
    for depth in range(1, 17):
        quad = build_quadrature(depth, angular_base=angular_base)
        want = quad.r * np.exp(1j * quad.theta)
        assert quad.z.view(np.uint64).tobytes() == want.view(np.uint64).tobytes(), depth


@pytest.mark.parametrize("radial_refine", [None, 1])
def test_lazy_cell_arrays_equal_an_eager_build(radial_refine):
    # Cell by cell from the stored edges: sublayer midpoints, angle midpoints.
    names = ("r", "theta", "z", "stratum")
    for depth in range(1, 11):
        quad = build_quadrature(depth, radial_refine=radial_refine)
        assert not set(names) & vars(quad).keys()  # nothing but area is built
        eager = {name: [] for name in names}
        for s in quad.strata:
            mid = 0.5 * (s.edges[:-1] + s.edges[1:])
            angles = (np.arange(s.count) + 0.5) * (TAU / s.count)
            eager["r"].append(np.repeat(mid, s.count))
            eager["theta"].append(np.tile(angles, mid.size))
            eager["z"].append((mid[:, None] * np.exp(1j * angles)).ravel())
            eager["stratum"].append(np.full(mid.size * s.count, s.level, dtype=np.int64))
        for name in names:
            want = np.concatenate(eager[name])
            got = getattr(quad, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (depth, name)
            assert getattr(quad, name) is got  # built once, then kept
        assert quad.n_cells == quad.area.size == quad.z.size


def test_boxes_are_exact_cell_unions_at_depth_ten():
    # every plain-grid box is a union of whole cells: the cells inside it,
    # selected geometrically, reproduce its area exactly
    quad = build_quadrature(10)
    rng = np.random.default_rng(SEED)
    turns = np.mod(quad.theta / TAU, 1.0)
    for level in (1, 4, 7, 10):
        for m in rng.integers(0, 2**level, size=3):
            inside = (quad.stratum >= level) & (
                (turns * 2**level).astype(int) == int(m)
            )
            assert quad.area[inside].sum() == pytest.approx(
                full_box_area(2.0**-level), abs=1e-14
            )


# ---------------------------------------------------------------------------
# weights and the mini-language
# ---------------------------------------------------------------------------


def test_parse_basic_specs():
    assert parse_weight("lebesgue").a == 0.0
    assert parse_weight("radial-power:1.5").a == 1.5
    w = parse_weight("product:radial-power:1,radial-power:0.5")
    assert w.is_radial_power and w.a == 1.5
    with pytest.raises(WeightSpecError):
        parse_weight("nonsense")
    with pytest.raises(WeightSpecError):
        parse_weight("product:lebesgue")
    with pytest.raises(WeightSpecError):
        parse_weight("lebesgue,extra")


def test_grid_file_roundtrip(tmp_path):
    r = np.array([0.25, 0.75])
    theta = np.array([1.0, 3.0, 5.0])
    values = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    lines = ["2 3"]
    for i, ri in enumerate(r):
        for j, tj in enumerate(theta):
            lines.append(f"{ri} {tj} {values[i, j]}")
    path = tmp_path / "weight.grid"
    path.write_text("\n".join(lines) + "\n")
    w = parse_weight(f"grid:{path}")
    assert w.kind == "grid"
    assert w.density(0.25 * np.exp(1.0j)) == pytest.approx(1.0)
    assert w.density(0.75 * np.exp(5.0j)) == pytest.approx(6.0)


def test_grid_density_is_the_nearest_node_value():
    rng = np.random.default_rng(SEED)
    r = np.sort(rng.uniform(0.0, 1.0, 9))
    theta = np.sort(rng.uniform(0.0, 2 * math.pi, 11))
    w = Weight.from_grid(r, theta, rng.uniform(0.5, 2.0, (9, 11)))
    # Points at the nodes and halfway between neighbours test the ties.
    zr = np.concatenate([rng.uniform(0.0, 1.0, 150), r, 0.5 * (r[1:] + r[:-1])])
    zt = rng.uniform(0.0, 2 * math.pi, zr.size)
    zt[:11] = theta
    zt[11:21] = 0.5 * (theta[1:] + theta[:-1])
    z = zr * np.exp(1j * zt)
    dist_r = np.abs(r[None, :] - np.abs(z)[:, None])
    dist_t = np.abs(theta[None, :] - np.mod(np.angle(z), 2 * math.pi)[:, None])
    oracle = w.grid_values[np.argmin(dist_r, axis=1), np.argmin(dist_t, axis=1)]
    assert np.array_equal(w.density(z), oracle)
    square = z[:156].reshape(12, 13)
    assert np.array_equal(w.density(square), oracle[:156].reshape(12, 13))
    assert w.density(z[3]) == oracle[3]


def test_cell_density_reads_the_nearest_node_of_the_exact_cell():
    quad = build_quadrature(8, angular_base=64)
    for w in (Weight.lebesgue(), Weight.radial_power(1.5)):
        assert w.cell_density(quad).tobytes() == w.density(quad.z).tobytes()
    # Two angular nodes an exact 2**-8 either side of every angle of the
    # 64-angle strata: each of their cells sits at a tie in floating point.
    rng = np.random.default_rng(SEED)
    centers = (np.arange(64) + 0.5) * (TAU / 64)
    theta = np.sort(np.concatenate([centers - 2.0**-8, centers + 2.0**-8]))
    r = np.sort(rng.uniform(0.0, 1.0, 9))
    w = Weight.from_grid(r, theta, rng.uniform(0.5, 2.0, (9, 128)))
    dist = np.abs(theta[None, :] - quad.theta[:, None])
    two = np.sort(dist, axis=1)[:, :2]
    tie = two[:, 0] == two[:, 1]
    assert np.array_equal(tie, quad.stratum <= 6)
    got = w.cell_density(quad)
    # Off the ties, the exact cell and its center z read the same node.
    assert np.array_equal(got[~tie], w.density(quad.z[~tie]))
    # At a tie, every sublayer reads the lower node (argmin keeps the first).
    i = np.argmin(np.abs(r[None, :] - quad.r[:, None]), axis=1)
    lower = w.grid_values[i, np.argmin(dist, axis=1)]
    assert np.array_equal(got[tie], lower[tie])
    product = Weight.product(Weight.radial_power(0.5), w)
    assert np.array_equal(
        product.cell_density(quad), Weight.radial_power(0.5).density(quad.z) * got
    )


def stratum_angles(count: int) -> np.ndarray:
    """The angles of a ``count``-angle stratum, as ``Stratum.angles`` builds them."""
    return (np.arange(count) + 0.5) * (TAU / count)


def assert_runs_count_the_nearest_nodes(nodes, x):
    runs = measures._node_runs(nodes, x)
    nearest = measures._nearest_node(nodes, x)
    assert runs.tolist() == np.bincount(nearest, minlength=nodes.size).tolist()


def test_node_runs_count_the_angles_nearest_each_node():
    # The perfbench grid's 128 angular nodes put every angle of a stratum of
    # 64 or fewer angles, and some angles of every count 64 times an odd
    # number over a power of two, midway between two nodes: a tie decided by
    # the last bits.  Every count up to 4,096, then every 97th and each power
    # of two up to 65,536 (the whole range checks the same, but takes minutes).
    nodes = stratum_angles(128)
    counts = [*range(16, 4097), *range(4099, 65537, 97), *(2**k for k in range(13, 17))]
    for count in counts:
        assert_runs_count_the_nearest_nodes(nodes, stratum_angles(count))
    # Random non-uniform nodes, with fewer and more angles than nodes, and
    # nodes inside [1, 5] so that angles fall below and above all of them.
    rng = np.random.default_rng(SEED)
    for size, low, high in ((200, 0.0, TAU), (7, 0.0, TAU), (40, 1.0, 5.0), (1, 1.0, 5.0)):
        nodes = np.unique(rng.uniform(low, high, size))
        for count in (4, 16, 33, 64, 100, 1024, 4000):
            assert_runs_count_the_nearest_nodes(nodes, stratum_angles(count))
        ties = np.sort(np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1])]))
        assert_runs_count_the_nearest_nodes(nodes, ties)


def test_grid_density_rows_keep_one_runs_per_angle_count(monkeypatch):
    # Levels 0-4 of a depth-10 quadrature share 16 angles: seven counts, each
    # searched once, and a second pass reads the same bits with no search.
    rng = np.random.default_rng(SEED)
    w = Weight.from_grid(np.sort(rng.uniform(0.0, 1.0, 9)), stratum_angles(128),
                         rng.uniform(0.5, 2.0, (9, 128)))
    searched, node_runs = [], measures._node_runs
    monkeypatch.setattr(measures, "_node_runs",
                        lambda n, x: searched.append(x.size) or node_runs(n, x))
    quad = build_quadrature(10)
    first = w.cell_density(quad)
    assert searched == [16, 32, 64, 128, 256, 512, 1024]
    assert w.cell_density(quad).tobytes() == first.tobytes()
    assert len(searched) == 7 and sorted(w._runs) == searched
    i = measures._nearest_node(w.grid_r, quad.r)
    k = measures._nearest_node(w.grid_theta, quad.theta)
    assert first.tobytes() == w.grid_values[i, k].tobytes()


def test_grid_file_rejects_negative(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("1 1\n0.5 0.0 -1.0\n")
    with pytest.raises(WeightSpecError):
        parse_weight(f"grid:{path}")


@pytest.mark.parametrize(
    "r, theta",
    [
        ((0.75, 0.25), (4.0, 1.0)),  # both descending
        ((0.25, 0.75), (4.0, 1.0)),
        ((0.25, 0.25), (1.0, 4.0)),  # a repeated radius
        ((0.25, math.nan), (1.0, 4.0)),
        ((0.25, 0.75), (1.0, math.inf)),
    ],
)
def test_grid_rejects_nodes_not_strictly_ascending(r, theta):
    # The nearest-node search bisects: on the descending grid it would read
    # densities [4, 4, 4] where the ascending one reads [1, 4, 2].
    with pytest.raises(WeightSpecError, match="strictly ascending"):
        Weight.from_grid(r, theta, [[2.0, 4.0], [4.0, 1.0]])
    assert np.array_equal(
        Weight.from_grid((0.25, 0.75), (1.0, 4.0), [[1.0, 4.0], [4.0, 2.0]]).density(
            np.array([0.2, 0.7j, 0.8 * np.exp(4.1j)])
        ),
        [1.0, 4.0, 2.0],
    )


@pytest.mark.parametrize(
    "rows",
    [
        ["0.25 1 1", "0.75 4 4", "0.75 1 4", "0.75 4 2"],  # r changes within a block
        ["0.25 1 1", "0.25 4 4", "0.75 1 4", "0.75 5 2"],  # theta differs between blocks
    ],
)
def test_grid_file_rejects_inconsistent_node_columns(rows, tmp_path):
    # The reader takes r from each block's first row and theta from the
    # first block; a file that disagrees with them is an error, not ignored.
    path = tmp_path / "bad.grid"
    path.write_text("\n".join(["2 2", *rows]) + "\n")
    with pytest.raises(WeightSpecError, match="constant within each block of 2 rows"):
        parse_weight(f"grid:{path}")


def test_radial_power_finiteness_flag():
    assert Weight.radial_power(-0.5).finite
    assert not Weight.radial_power(-1.0).finite
    assert not Weight.radial_power(-2.0).finite


# ---------------------------------------------------------------------------
# box masses
# ---------------------------------------------------------------------------


def test_lebesgue_box_masses_are_areas():
    assert box_mass(Weight.lebesgue(), CarlesonBox(Arc(0, 0.5))) == pytest.approx(
        3.0 / 8.0, abs=1e-15
    )
    assert box_mass(Weight.lebesgue(), CarlesonBox(Arc(0, 1.0))) == 1.0


def test_radial_power_box_masses_beta_integrals():
    # oracle: 2 * integral_{1-l}^{1} (1-r)^a r dr, evaluated by the primitive
    rp1 = Weight.radial_power(1)
    assert box_mass(rp1, CarlesonBox(Arc(0, 1.0))) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert box_mass(rp1, CarlesonBox(Arc(0, 1.0), "top")) == pytest.approx(
        1.0 / 6.0, rel=1e-14
    )

    def oracle(a, length):
        # brute-force radial quadrature of 2 l * int (1-r)^a r dr
        r = np.linspace(1 - length, 1, 400_001)
        return length * np.trapezoid(2 * (1 - r) ** a * r, r)

    for a in (0.5, 1.0, 2.0):
        for length in (1.0, 0.5, 0.125):
            got = box_mass(Weight.radial_power(a), CarlesonBox(Arc(0, length)))
            assert got == pytest.approx(oracle(a, length), rel=1e-8)


def test_radial_box_mass_trees_are_one_closed_form_for_both_grids():
    # A radial weight is rotation invariant: both grids read one list, each
    # level-j box weighing 2**-j times the outer annulus of width 2**-j.
    w = Weight.radial_power(1)
    masses = box_masses(w, 8, build_quadrature(6))
    trees = masses.trees
    assert masses.rows is None and masses.depth == 6
    assert list(trees) == list(GRIDS)
    assert trees[GRID_PLAIN] is trees[GRID_THIRD]
    assert len(trees[GRID_PLAIN]) == 7  # the quadrature caps the depth
    for j, level in enumerate(trees[GRID_PLAIN]):
        np.testing.assert_array_equal(level, np.full(2**j, 2.0**-j * w.outer_radial_mass(2.0**-j)))
        assert level[0] == box_mass(w, CarlesonBox(DyadicIndex(GRID_THIRD, j, 0).arc))


def test_quadrature_path_matches_closed_form():
    # A product with a constant grid weight takes the quadrature path.
    quad = build_quadrature(12)
    one = Weight.from_grid([0.5], [1.0], [[1.0]])
    for w in (Weight.lebesgue(), Weight.radial_power(1)):
        for level in range(9):
            box = CarlesonBox(DyadicIndex(GRID_PLAIN, level, 0).arc)
            exact = box_mass(w, box)
            approx = box_mass(Weight.product(w, one), box, quad)
            assert approx == pytest.approx(exact, rel=1e-3)


def test_box_finer_than_quadrature_raises():
    quad = build_quadrature(4)
    w = thin_shell_weight()
    with pytest.raises(ResolutionError):
        box_mass(w, CarlesonBox(Arc(0, 2.0**-6)), quad)


def test_mass_additivity_closed_form():
    w = Weight.radial_power(1)
    for grid in GRIDS:
        parent = DyadicIndex(grid, 2, 1)
        c1, c2 = parent.children()
        m_parent = box_mass(w, CarlesonBox(parent.arc))
        m_top = box_mass(w, CarlesonBox(parent.arc, "top"))
        m_c1 = box_mass(w, CarlesonBox(c1.arc))
        m_c2 = box_mass(w, CarlesonBox(c2.arc))
        assert m_c1 + m_c2 == pytest.approx(m_top, rel=1e-10)
        ring = m_parent - m_top
        assert ring > 0
        assert m_c1 + m_c2 + ring == pytest.approx(m_parent, rel=1e-10)


def test_mass_additivity_sampled():
    w = thin_shell_weight(floor=0.3)
    quad = build_quadrature(9)
    trees = box_masses(w, 6, quad).trees
    for grid in GRIDS:
        levels = trees[grid]
        for j in range(6):
            children = levels[j + 1][0::2] + levels[j + 1][1::2]
            top = np.array(
                [
                    box_mass(w, CarlesonBox(DyadicIndex(grid, j, m).arc, "top"), quad)
                    for m in range(2**j)
                ]
            )
            np.testing.assert_allclose(children, top, rtol=1e-10, atol=1e-14)
            assert np.all(levels[j] >= children - 1e-12)


def test_mass_monotone_under_inclusion():
    w = Weight.radial_power(0.5)
    outer = box_mass(w, CarlesonBox(DyadicIndex(GRID_PLAIN, 1, 0).arc))
    inner = box_mass(w, CarlesonBox(DyadicIndex(GRID_PLAIN, 3, 1).arc))
    assert inner < outer


# ---------------------------------------------------------------------------
# dual weights
# ---------------------------------------------------------------------------


def test_dual_of_lebesgue_is_lebesgue():
    for p in (1.5, 2.0, 3.0, 10.0):
        d = dual_weight(Weight.lebesgue(), p)
        assert d.is_radial_power and d.a == 0.0


def test_dual_exponent_arithmetic():
    d = dual_weight(Weight.radial_power(1), 2.0)
    assert d.a == -1.0
    assert not d.finite  # infinite-mass flag
    d = dual_weight(Weight.radial_power(1), 3.0)
    assert d.a == pytest.approx(-0.5)
    assert d.finite


def test_dual_requires_strict_positivity():
    r = np.array([0.3, 0.8])
    theta = np.array([1.0, 4.0])
    w = Weight.from_grid(r, theta, np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        dual_weight(w, 2.0)


def test_dual_bad_exponent():
    with pytest.raises(ValueError):
        dual_weight(Weight.lebesgue(), 1.0)


# ---------------------------------------------------------------------------
# reverse doubling
# ---------------------------------------------------------------------------


def test_reverse_doubling_lebesgue():
    # oracle: ratio (1 - l/4)/(2 - l) increases in l, so the sup is 3/4 at l = 1
    rep = reverse_doubling_report(box_masses(Weight.lebesgue(), 16))
    assert rep.delta_hat == pytest.approx(0.75, abs=1e-12)
    assert rep.worst_arc.length == 1.0
    assert rep.verdict


def test_reverse_doubling_radial_power_one():
    # closed-form oracle: ratio(l) = (3 - l) / (12 - 8 l), increasing,
    # so the sup over arcs is 1/2 at l = 1 (and 1/4 only in the l -> 0 limit)
    lengths = np.linspace(1e-6, 1.0, 1001)
    oracle = (3.0 - lengths) / (12.0 - 8.0 * lengths)
    assert oracle[0] == pytest.approx(0.25, abs=1e-5)
    rep = reverse_doubling_report(box_masses(Weight.radial_power(1), 16))
    assert rep.delta_hat == pytest.approx(float(oracle.max()), abs=1e-9)
    assert rep.delta_hat == pytest.approx(0.5, abs=1e-12)
    assert rep.verdict


def test_reverse_doubling_fails_for_thin_shell():
    w = thin_shell_weight()
    quad = build_quadrature(10)
    rep = reverse_doubling_report(box_masses(w, 8, quad))
    assert rep.delta_hat > 0.999
    assert not rep.verdict


def test_reverse_doubling_sweeps_the_whole_circle_box_once():
    # Level 0 is the whole circle on both grids.  Box masses with ratio
    # 0.9 at level 0 and 0.5 below, the one-third grid's level 0 one ulp
    # lighter: the worst arc must still be the plain grid's.
    def fake_levels(grid, depth):
        masses = [np.array([1.0]), np.array([0.45, 0.45])]
        for j in range(2, depth + 1):
            masses.append(np.repeat(masses[-1] / 4.0, 2))
        if grid == GRID_THIRD:
            masses[0] = np.nextafter(masses[0], 0.0)
        return masses

    third = fake_levels(GRID_THIRD, 1)
    assert (third[1].sum() / third[0])[0] > 0.9
    trees = {grid: fake_levels(grid, 4) for grid in GRIDS}
    w = Weight.from_grid(np.linspace(0.05, 0.95, 10), np.linspace(0.3, 6.0, 8), np.ones((10, 8)))
    quad = build_quadrature(6)
    rep = reverse_doubling_report(BoxMasses(w, quad, trees, w.mass_rows(quad)))
    assert rep.delta_hat == 0.9
    assert rep.worst_arc.start == 0.0 and rep.worst_arc.length == 1.0


def test_reverse_doubling_infinite_mass_rejected():
    with pytest.raises(InfiniteMassError):
        reverse_doubling_report(box_masses(Weight.radial_power(-1.0), 16))


def test_reverse_doubling_degenerate_weight():
    r = np.linspace(0.05, 0.95, 10)
    theta = np.linspace(0.3, 6.0, 8)
    values = np.zeros((10, 8))
    values[:5] = 1.0  # all mass inside r < 0.5: outer boxes carry zero mass
    w = Weight.from_grid(r, theta, values)
    quad = build_quadrature(8)
    with pytest.raises(DegenerateWeightError):
        reverse_doubling_report(box_masses(w, 6, quad))


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------


def test_doubling_report_lebesgue():
    # Equal masses at each level: the box and its two neighbours weigh three boxes.
    rep = doubling_report(box_masses(Weight.lebesgue(), 12))
    assert rep.c_hat == 3.0
    assert rep.worst == DyadicIndex(GRID_PLAIN, 2, 0)  # a tie keeps the coarsest box
    assert (rep.verdict, rep.depth) == (True, 12)


def test_doubling_report_radial_power():
    for a in (1, 3, -0.5):
        rep = doubling_report(box_masses(Weight.radial_power(a), 16))
        assert (rep.c_hat, rep.verdict) == (3.0, True)


def perfbench_seed1_weight(path) -> Weight:
    """The perfbench seed-1 product weight, written as a grid file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.write_grid_file(str(path), inputs.product_weight(1))
    return parse_weight(f"grid:{path}")


def test_doubling_report_on_the_perfbench_grid(tmp_path):
    # The quadrature caps depth 12 at 10; the supremum sits on level 4.
    rep = doubling_report(box_masses(perfbench_seed1_weight(tmp_path / "seed1.grid"), 12,
                                     build_quadrature(10)))
    assert rep.c_hat == pytest.approx(3.5538, abs=1e-4)
    assert rep.worst == DyadicIndex(GRID_PLAIN, 4, 5)
    assert (rep.verdict, rep.depth) == (True, 10)


def test_doubling_report_fails_a_weight_that_vanishes_at_one_point():
    # The box next to theta = 0 outweighs it by a factor that grows without bound.
    rep = doubling_report(box_masses(vanishing_weight(), 12, build_quadrature(10)))
    assert rep.c_hat > 1e28
    assert rep.worst.level == rep.depth == 10
    assert rep.verdict is False


def test_doubling_report_degenerate_weight():
    r = np.linspace(0.05, 0.95, 10)
    theta = np.linspace(0.3, 6.0, 8)
    values = np.ones((10, 8))
    values[:, theta > 3.0] = 0.0  # half the circle carries no mass
    with pytest.raises(DegenerateWeightError, match="zero-mass box"):
        doubling_report(box_masses(Weight.from_grid(r, theta, values), 6, build_quadrature(8)))


def test_doubling_report_sweeps_nothing_below_level_two():
    for depth in (0, 1):
        assert doubling_report(box_masses(Weight.lebesgue(), depth)) == (
            measures.DoublingReport(None, None, None, depth)
        )
    with pytest.raises(InfiniteMassError):
        doubling_report(box_masses(Weight.radial_power(-1.0), 16))


# ---------------------------------------------------------------------------
# aggregation machinery
# ---------------------------------------------------------------------------


def test_level_sums_match_direct_masses():
    quad = build_quadrature(8)
    w = thin_shell_weight(floor=0.5)
    values = w.density(quad.z) * quad.area
    for grid in GRIDS:
        sums = box_level_sums(quad, row_sums(quad, values), grid, 5)
        for level in (0, 2, 5):
            for m in (0, 2**level - 1):
                direct = box_mass(
                    w, CarlesonBox(DyadicIndex(grid, level, m).arc), quad
                )
                assert sums[level][m] == pytest.approx(direct, rel=1e-12)


def test_level_sums_depth_overflow():
    quad = build_quadrature(4)
    with pytest.raises(ResolutionError):
        box_level_sums(quad, row_sums(quad, quad.area), GRID_PLAIN, 6)


def fsum_box_sum(quad, values, start_turn, length, r_in=None) -> float:
    """Sum of ``values`` over the box above the arc of ``length`` turns from
    ``start_turn``, by ``math.fsum``: every cell weighted by the fraction of
    its angle inside the arc and of its ``r**2`` above ``r_in``, by default
    the box's inner radius ``1 - length``."""
    r_in = 1.0 - length if r_in is None else r_in
    sublayers = [(s.count, lo, hi) for s in quad.strata for lo, hi in zip(s.edges, s.edges[1:])]
    counts, r_lo, r_hi = (
        np.concatenate([np.full(layer[0], layer[i]) for layer in sublayers]) for i in range(3)
    )
    radial = np.clip((r_hi**2 - r_in**2) / (r_hi**2 - r_lo**2), 0.0, 1.0)
    k = np.concatenate([np.arange(count) for count, _, _ in sublayers])
    lo, hi = k / counts, (k + 1) / counts
    a = start_turn % 1.0
    b = a + length
    covered = sum(
        np.clip(np.minimum(hi, b + shift) - np.maximum(lo, a + shift), 0.0, None)
        for shift in (-1.0, 0.0, 1.0)
    )
    frac = covered * counts * radial
    keep = frac > 0.0
    return math.fsum((values[keep] * frac[keep]).tolist())


@pytest.mark.parametrize(
    ("grid", "quad_depth", "depth"),
    # The oracle's shifted-grid fractions round to about 1e-12 of a cell
    # at depth 14, so the deep case is on the plain grid only.
    [
        pytest.param(GRID_PLAIN, 8, 8, id=str(GRID_PLAIN)),
        pytest.param(GRID_THIRD, 8, 8, id=str(GRID_THIRD)),
        pytest.param(GRID_PLAIN, 14, 14, id=f"{GRID_PLAIN}-quad14"),
        pytest.param(GRID_PLAIN, 8, 5, id=f"{GRID_PLAIN}-depth5"),
        pytest.param(GRID_THIRD, 8, 5, id=f"{GRID_THIRD}-depth5"),
    ],
)
def test_level_sums_match_an_fsum_oracle(grid, quad_depth, depth):
    quad = build_quadrature(quad_depth)
    values = np.random.default_rng(SEED).uniform(0.5, 1.5, quad.n_cells) * quad.area
    sums = box_level_sums(quad, row_sums(quad, values), grid, depth)
    assert len(sums) == depth + 1
    rng = np.random.default_rng(SEED + 1)
    for level in range(depth + 1):
        positions = {0, 2**level - 1, *rng.integers(0, 2**level, 3).tolist()}
        for m in sorted(positions):
            want = fsum_box_sum(quad, values, m * 2.0**-level + grid, 2.0**-level)
            assert abs(sums[level][m] - want) <= 1e-13 * want, (level, m)


def rolled_level_sums(rows: list, grid: float, depth: int) -> list:
    """The per-level box sums with each window rotated by ``np.roll``: the
    formula that :func:`box_level_sums` slices, kept as its oracle."""

    def window_sums(row, j):
        shift = (grid % 1.0) * row.size
        whole = math.floor(shift)
        windows = np.roll(row, -whole).reshape(-1, row.size >> j)
        sums = windows.sum(axis=1)
        if shift > whole:
            first = windows[:, 0]
            sums += (shift - whole) * (np.roll(first, -1) - first)
        return sums

    sums = [None] * (depth + 1)
    sums[depth] = sum(window_sums(row, depth) for row in rows[depth:])
    for j in range(depth - 1, -1, -1):
        sums[j] = window_sums(rows[j], j) + sums[j + 1][0::2] + sums[j + 1][1::2]
    return sums


@pytest.mark.parametrize("quad_depth", range(4, 17))
def test_level_sums_equal_the_rolled_windows_bit_for_bit(quad_depth):
    # Every level on both grids, at the quadrature depth and two levels short of it.
    quad = build_quadrature(quad_depth)
    rows = row_sums(quad, np.random.default_rng(SEED + quad_depth).uniform(size=quad.n_cells))
    for grid in GRIDS:
        for depth in (quad_depth, quad_depth - 2):
            got = box_level_sums(quad, rows, grid, depth)
            want = rolled_level_sums(rows, grid, depth)
            assert [s.tobytes() for s in got] == [s.tobytes() for s in want], (grid, depth)


def test_radial_box_levels_respect_the_cell_cap(monkeypatch):
    # No quadrature bounds a radial weight's depth: 2**depth boxes on the
    # finest level count against the cell cap.
    monkeypatch.setenv(measures.MAX_CELLS_ENV, "1024")
    w = Weight.radial_power(1)
    assert box_masses(w, 10).trees[GRID_PLAIN][10].size == 1024
    with pytest.raises(MemoryGuardError):
        box_masses(w, 11)


def test_box_mass_trees_of_a_sampled_weight_need_a_quadrature():
    with pytest.raises(ValueError):
        box_masses(thin_shell_weight(), 4)


def test_sampled_function_shape_check():
    quad = build_quadrature(3)
    with pytest.raises(ValueError):
        SampledFunction(quad, np.ones(quad.n_cells + 1))


# ---------------------------------------------------------------------------
# one-box sums and the window sweep
# ---------------------------------------------------------------------------

ARC_DEPTH = 6
ARC_QUAD = build_quadrature(ARC_DEPTH)


def vanishing_weight() -> Weight:
    """``exp(-0.3/|theta|)`` on 1,024 angular nodes, constant in radius."""
    theta = (np.arange(1024) + 0.5) * (TAU / 1024)
    return Weight.from_grid([0.5], theta, np.exp(-0.3 / np.minimum(theta, TAU - theta))[None, :])


@st.composite
def grid_weights(draw):
    """Nearest-node grid weights with a few distinct nodes and positive densities."""
    n_r = draw(st.integers(1, 6))
    n_theta = draw(st.integers(1, 6))
    r = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=n_r, max_size=n_r, unique=True)))
    theta = np.sort(
        draw(st.lists(st.floats(0.0, TAU), min_size=n_theta, max_size=n_theta, unique=True))
    )
    values = draw(
        st.lists(
            st.floats(0.01, 10.0), min_size=n_r * n_theta, max_size=n_r * n_theta
        )
    )
    return Weight.from_grid(r, theta, np.reshape(values, (n_r, n_theta)))


# Wrapped arcs (start + length > 1), the whole circle, and arcs exactly at
# the quadrature's resolution, besides arbitrary lengths.
arc_lengths = st.one_of(
    st.just(1.0),
    st.just(2.0**-ARC_DEPTH),
    st.floats(2.0**-ARC_DEPTH, 1.0),
)
arcs = st.builds(
    lambda turn, length: Arc(turn * TAU, length, start_turn=turn),
    st.floats(0.0, 1.0, exclude_max=True),
    arc_lengths,
)


def assert_box_masses_match_the_oracle(w, batch):
    """``box_mass`` of each arc's box and top half against the fsum oracle."""
    values = w.cell_density(ARC_QUAD) * ARC_QUAD.area
    for arc in batch:
        for kind in ("full", "top"):
            box = CarlesonBox(arc, kind)
            want = fsum_box_sum(ARC_QUAD, values, arc.start_turn, arc.length, box.inner_radius)
            assert box_mass(w, box, ARC_QUAD) == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(grid_weights(), st.lists(arcs, min_size=1, max_size=12))
def test_box_mass_matches_an_fsum_oracle(w, batch):
    assert_box_masses_match_the_oracle(w, batch)


def test_box_mass_covers_wrapped_and_resolution_arcs():
    batch = [Arc(0.9 * TAU, 0.35), Arc(0.0, 1.0), Arc(2.0, 1.0), Arc(1.0, 2.0**-ARC_DEPTH)]
    assert_box_masses_match_the_oracle(thin_shell_weight(floor=0.3), batch)


def test_box_mass_keeps_the_digits_of_a_tiny_box():
    # The wrapped level-9 box next to theta = 0 weighs about 2.6e-48.  A
    # difference of prefix sums, each about 1e-3, read half of it.
    quad = build_quadrature(10)
    w = vanishing_weight()
    values = w.cell_density(quad) * quad.area
    want = fsum_box_sum(quad, values, 1023 / 1024, 2.0**-9)
    assert want == pytest.approx(2.598e-48, rel=1e-3)
    box = CarlesonBox(Arc(0.0, 2.0**-9, start_turn=1023 / 1024))
    assert box_mass(w, box, quad) == pytest.approx(want, rel=1e-12)
    # Its windows keep their digits too: no window reads zero, and the
    # box over the gap sends the ratio to 1.
    rep = reverse_doubling_report(box_masses(w, 12, quad))
    assert rep.delta_hat == 1.0 and rep.verdict is False


@settings(max_examples=30, deadline=None)
@given(grid_weights(), st.floats(0.0, 1.0, exclude_max=True))
def test_whole_circle_box_is_the_disk_mass(w, turn):
    mass = box_mass(w, CarlesonBox(Arc(turn * TAU, 1.0, start_turn=turn)), ARC_QUAD)
    assert mass == pytest.approx(w.disk_mass(ARC_QUAD), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    grid_weights(),
    st.sampled_from(GRIDS),
    st.integers(0, ARC_DEPTH - 1),
    st.integers(0, 2**ARC_DEPTH - 1),
)
def test_children_and_ring_sum_to_the_parent(w, grid, level, position):
    parent = DyadicIndex(grid, level, position % 2**level)
    p_mass, c1, c2 = (
        box_mass(w, CarlesonBox(idx.arc), ARC_QUAD) for idx in (parent, *parent.children())
    )
    # The ring is stratum ``level`` of the quadrature, summed over the arc alone.
    values = w.cell_density(ARC_QUAD) * ARC_QUAD.area * (ARC_QUAD.stratum == level)
    ring = fsum_box_sum(ARC_QUAD, values, parent.arc.start_turn, parent.arc.length)
    assert c1 + c2 + ring == pytest.approx(p_mass, rel=1e-12, abs=1e-12)


def test_box_mass_resolution_and_quadrature_errors():
    w = thin_shell_weight()
    with pytest.raises(ResolutionError):
        box_mass(w, CarlesonBox(Arc(0.0, 2.0**-(ARC_DEPTH + 1))), ARC_QUAD)
    with pytest.raises(ValueError):
        box_mass(w, CarlesonBox(Arc(0.0, 0.5)))


@settings(max_examples=30, deadline=None)
@given(grid_weights(), st.data())
def test_windows_match_an_fsum_oracle(w, data):
    values = w.cell_density(ARC_QUAD) * ARC_QUAD.area
    levels = []
    for grid, j, full, top in box_masses(w, ARC_DEPTH, ARC_QUAD).windows(ARC_DEPTH):
        levels.append((grid, j))
        n = full.size
        for k in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            start, length = grid + k / n, 2.0**-j
            want = fsum_box_sum(ARC_QUAD, values, start, length)
            assert full[k] == pytest.approx(want, rel=1e-12)
            if j < ARC_DEPTH:  # the finest stratum does not split a box of its own level
                want = fsum_box_sum(ARC_QUAD, values, start, length, 1.0 - length / 2.0)
                assert top[k] == pytest.approx(want, rel=1e-12)
    assert levels == [(grid, j) for grid in GRIDS for j in range(ARC_DEPTH, 0, -1)]


@pytest.mark.parametrize(
    "quad",
    # Depth 2 at base 16: every stratum is finer than its level's grid.
    [ARC_QUAD, build_quadrature(2), build_quadrature(9, angular_base=4), build_quadrature(12)],
    ids=["depth6", "depth2", "depth9-base4", "depth12"],
)
def test_windows_at_grid_starts_are_the_grid_boxes(quad):
    w = thin_shell_weight(floor=0.3)
    masses = box_masses(w, quad.depth, quad)
    boxes = masses.trees
    for grid, j, full, top in masses.windows(quad.depth):
        step = full.size >> j
        np.testing.assert_allclose(full[::step], boxes[grid][j], rtol=1e-15, atol=0.0)
        if j < quad.depth:
            children = boxes[grid][j + 1][0::2] + boxes[grid][j + 1][1::2]
            np.testing.assert_allclose(top[::step], children, rtol=1e-15, atol=0.0)


def test_zero_mass_window_raises():
    # Mass on two angular cells, near turns 0.21 and 0.60: every grid box
    # of levels 0 and 1 holds one of them, but the half circle from turn
    # 40/64 holds neither.
    theta = (np.arange(64) + 0.5) * (TAU / 64)
    values = np.zeros((1, 64))
    values[0, [13, 38]] = 1.0
    w = Weight.from_grid([0.5], theta, values)
    masses = box_masses(w, 2, ARC_QUAD)
    trees = masses.trees
    assert all(np.all(trees[grid][j] > 0.0) for grid in GRIDS for j in (0, 1))
    with pytest.raises(DegenerateWeightError, match="zero-mass window at grid 0.0, level 1"):
        reverse_doubling_report(masses)


def test_testing_constant_fails_when_a_window_of_the_finest_length_is_worst(tmp_path):
    # The box quantity grows as boxes shrink.  At depth 8 over a depth-10
    # quadrature, a window of length 2**-8 that starts off the grids beats
    # every level-8 grid box, so the supremum sits on the finest length.
    from carleson_lab.dyadic import ExponentConfig, two_weight_testing_constant

    nu = Weight.product(Weight.radial_power(-0.5), perfbench_seed1_weight(tmp_path / "g.grid"))
    cfg = ExponentConfig(2.0, 3.0, 2.0)
    rep = two_weight_testing_constant(box_masses(nu, 8, build_quadrature(10)), Weight.lebesgue(), cfg)
    assert isinstance(rep.worst_box, Arc) and rep.worst_box.length == 2.0**-8
    assert rep.worst_box.start_turn * 2**8 % 1.0 != 0.0
    assert (rep.depth, rep.window_arcs, rep.verdict) == (8, 2 * 8 * 1024, False)


# ---------------------------------------------------------------------------
# the one sweep behind every box tester
# ---------------------------------------------------------------------------


def test_sweep_keeps_a_grid_box_against_an_equal_window():
    boxes = [(GRID_PLAIN, 0, np.array([0.5])), (GRID_THIRD, 2, np.array([0.1, 0.9, 0.2, 0.3]))]
    windows = [(GRID_PLAIN, 2, np.array([0.9, 0.1, 0.2, 0.5, 0.3, 0.0, 0.4, 0.9]))]
    # The windows are counted although none replaces the box.
    assert sweep(boxes, windows) == (0.9, DyadicIndex(GRID_THIRD, 2, 1), 8)


def test_sweep_takes_a_strictly_larger_window_as_its_arc():
    boxes = [(GRID_PLAIN, 1, np.array([0.2, 0.4]))]
    windows = [(GRID_PLAIN, 2, np.array([0.1, 0.3])), (GRID_THIRD, 1, np.array([0.1, 0.3, 0.4, 0.5]))]
    best, worst, swept = sweep(iter(boxes), iter(windows))
    assert (best, swept) == (0.5, 6)
    # The level-1 arc from the fourth of four starts past the one-third grid.
    assert worst == Arc(0.0, 0.5, start_turn=GRID_THIRD + 3 / 4)
    assert worst.start_turn == pytest.approx(1 / 12)


def test_sweep_of_nothing_finds_nothing():
    assert sweep(()) == sweep([], []) == (-math.inf, None, 0)


def test_positive_names_the_box_or_window_its_grid_and_level():
    masses = np.array([1.0, 2.0])
    assert positive(masses, "box", GRID_PLAIN, 1) is masses
    for what in ("box", "window"):
        message = f"zero-mass {what} at grid {GRID_THIRD}, level 3"
        with pytest.raises(DegenerateWeightError, match=f"^{re.escape(message)}$"):
            positive(np.array([1.0, 0.0]), what, GRID_THIRD, 3)
