import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carleson_lab.errors import DepthError
from carleson_lab.geometry import (
    GRID_PLAIN,
    GRID_THIRD,
    GRIDS,
    TAU,
    Arc,
    CarlesonBox,
    DyadicIndex,
    box_area,
    box_children,
    bridge_box,
    bridge_box_batch,
    dyadic_interval,
    full_box_area,
    mei_cover,
    mei_cover_batch,
    top_box_area,
)

SEED = 20260810

# Measured once over the seeded 1e4-pair sweep below (min 0.4427, max 3.9107)
# and frozen with margin; the bridging construction keeps the ratio here.
BRIDGE_RATIO_LO = 0.44
BRIDGE_RATIO_HI = 3.92


# ---------------------------------------------------------------------------
# dyadic_interval
# ---------------------------------------------------------------------------


def test_level_zero_is_full_circle():
    arc = dyadic_interval(GRID_PLAIN, 0, 0)
    assert arc.start == 0.0
    assert arc.length == 1.0


def test_plain_grid_member():
    arc = dyadic_interval(GRID_PLAIN, 3, 0)
    assert arc.start == 0.0
    assert arc.length == 0.125


def test_shifted_grid_wraps():
    arc = dyadic_interval(GRID_THIRD, 1, 1)
    assert arc.length == 0.5
    assert math.isclose(arc.start, math.pi + TAU / 3.0)
    # the arc wraps through 0: it covers [5pi/3, 2pi) and [0, 2pi/3)
    assert arc.contains_angle(0.1)
    assert arc.contains_angle(arc.start + 0.1)
    assert arc.contains_angle(math.pi / 2)
    assert not arc.contains_angle(math.pi)


def test_position_out_of_range():
    with pytest.raises(ValueError):
        dyadic_interval(GRID_PLAIN, 2, 4)
    with pytest.raises(ValueError):
        dyadic_interval(GRID_PLAIN, 2, -1)
    with pytest.raises(ValueError):
        dyadic_interval(0.5, 2, 0)


# ---------------------------------------------------------------------------
# box areas
# ---------------------------------------------------------------------------


def test_full_disk_box():
    assert box_area(CarlesonBox(Arc(0.0, 1.0))) == 1.0


def test_half_arc_areas():
    # polar integration: l^2 (2 - l) and l (1 - (1 - l/2)^2)
    assert box_area(CarlesonBox(Arc(0.0, 0.5))) == pytest.approx(3.0 / 8.0, abs=1e-15)
    assert box_area(CarlesonBox(Arc(0.0, 0.5), "top")) == pytest.approx(
        7.0 / 32.0, abs=1e-15
    )


def test_box_contains_points():
    box = CarlesonBox(Arc(0.0, 0.25))
    assert box.contains(0.8 * np.exp(0.3j))
    assert not box.contains(0.5 * np.exp(0.3j))  # too deep
    assert not box.contains(0.8 * np.exp(2.0j))  # wrong angle


def test_children_partition_parent():
    idx = DyadicIndex(GRID_PLAIN, 1, 1)
    c1, c2 = box_children(idx)
    assert (c1.level, c1.position) == (2, 2)
    assert (c2.level, c2.position) == (2, 3)
    c1, c2 = box_children(DyadicIndex(GRID_PLAIN, 0, 0))
    assert (c1.position, c2.position) == (0, 1)
    c1, c2 = box_children(DyadicIndex(GRID_THIRD, 0, 0))
    assert c1.grid == GRID_THIRD and c2.grid == GRID_THIRD
    assert math.isclose(c1.arc.start, TAU / 3.0)


def test_children_depth_overflow():
    with pytest.raises(DepthError):
        box_children(DyadicIndex(GRID_PLAIN, 24, 0), max_depth=24)


def test_box_decomposition_identity():
    # children boxes tile the top half: areas match in closed form
    for length in (1.0, 0.5, 2.0**-7, 0.3):
        child = 2.0 * full_box_area(length / 2.0)
        assert child == pytest.approx(top_box_area(length), rel=1e-14)


# ---------------------------------------------------------------------------
# partition / nesting invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("level", [0, 1, 3, 6])
def test_level_partitions_circle(grid, level):
    arcs = [dyadic_interval(grid, level, m) for m in range(2**level)]
    assert sum(a.length for a in arcs) == pytest.approx(1.0, abs=1e-12)
    thetas = np.linspace(0.0, TAU, 4097, endpoint=False)
    membership = np.zeros(thetas.size, dtype=int)
    for a in arcs:
        membership += a.contains_angle(thetas).astype(int)
    assert np.all(membership == 1)


@given(
    grid=st.sampled_from(GRIDS),
    j1=st.integers(0, 8),
    m1=st.integers(0, 255),
    j2=st.integers(0, 8),
    m2=st.integers(0, 255),
)
@settings(max_examples=200, deadline=None)
def test_same_grid_arcs_nested_or_disjoint(grid, j1, m1, j2, m2):
    m1 %= 2**j1
    m2 %= 2**j2
    a = DyadicIndex(grid, j1, m1)
    b = DyadicIndex(grid, j2, m2)
    if j1 > j2:
        a, b = b, a
    # now a is the coarser index; b nests inside a iff the positions agree
    # after truncating b to a's level
    nested = (b.position >> (b.level - a.level)) == a.position
    contains = a.arc.contains_arc(b.arc)
    assert contains == nested
    if not nested and a.level > 0:
        # interior probe points of b must all avoid a
        turns = b.arc.start_turn + (np.arange(17) + 0.5) / 17.0 * b.arc.length
        assert not np.any(a.arc.contains_angle(turns % 1.0 * TAU))


# ---------------------------------------------------------------------------
# mei_cover
# ---------------------------------------------------------------------------


def test_cover_of_dyadic_arc_is_itself():
    idx = mei_cover(Arc(0.0, 0.125))
    assert (idx.grid, idx.level, idx.position) == (GRID_PLAIN, 3, 0)


def test_cover_of_fifth_is_within_factor_six():
    j = Arc(0.0, 0.2)
    idx = mei_cover(j)
    assert idx.arc.contains_arc(j)
    assert idx.length <= 6.0 * j.length


def test_cover_falls_back_to_level_zero():
    # an arc straddling breakpoints of both grids at every positive level
    start = TAU / 3.0 - 0.1
    j = Arc(start, 0.2)
    idx = mei_cover(j)
    assert idx.level == 0
    assert idx.length == 1.0


def test_cover_straddling_plain_breakpoint_uses_shifted_grid():
    length = 1.0 / 32.0
    j = Arc(math.pi - length * TAU / 2.0, length)
    idx = mei_cover(j)
    assert idx.grid == GRID_THIRD
    assert idx.length <= 6.0 * length
    assert idx.arc.contains_arc(j)


def test_cover_property_seeded_sweep():
    rng = np.random.default_rng(SEED)
    n = 20_000
    starts = rng.uniform(0, TAU, n)
    lengths = np.concatenate(
        [rng.uniform(1e-9, 1.0, n // 2), 2.0 ** -rng.uniform(0.0, 20.0, n - n // 2)]
    )
    grids, levels, positions = mei_cover_batch(starts, lengths)
    covered = 2.0 ** -levels.astype(float)
    assert np.all(covered <= 6.0 * lengths + 1e-12)
    # containment, batch-verified in turn space (wrap guard at coincident
    # starts; the level-0 cover is the whole circle and contains everything)
    arc_turn = np.mod(grids + positions * covered, 1.0)
    offset = np.mod(starts / TAU - arc_turn, 1.0)
    offset = np.where(offset > 1.0 - 1e-9, 0.0, offset)
    ok = (covered >= 1.0) | (offset + lengths <= covered * (1 + 1e-9) + 1e-12)
    assert np.all(ok)


@given(
    start=st.floats(0.0, TAU, exclude_max=True, allow_nan=False),
    length=st.floats(1e-7, 1.0, allow_nan=False),
)
@example(start=1e-15, length=2.0**-14)  # covered by its own level-14 arc, up to rounding
@settings(max_examples=300, deadline=None)
def test_cover_property_hypothesis(start, length):
    j = Arc(start, length)
    idx = mei_cover(j)
    assert idx.arc.contains_arc(j)
    assert idx.length <= 6.0 * length * (1 + 1e-9)


# ---------------------------------------------------------------------------
# bridge_box
# ---------------------------------------------------------------------------


def test_bridge_at_origin():
    idx, ratio = bridge_box(0j, 0j)
    assert idx.level == 0
    assert ratio == 1.0


def test_bridge_same_point_radius_three_quarters():
    idx, ratio = bridge_box(0.75 + 0j, 0.75 + 0j)
    assert idx.length >= 0.25
    box = CarlesonBox(idx.arc)
    assert box.contains(0.75 + 0j)
    expected = abs(1 - 0.75**2) / math.sqrt(full_box_area(idx.length))
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_bridge_antipodal_points():
    idx, ratio = bridge_box(0.9 + 0j, -0.9 + 0j)
    assert idx.level == 0
    assert ratio == pytest.approx(1.81, rel=1e-12)


def test_bridge_membership_and_ratio_interval():
    rng = np.random.default_rng(SEED)
    n = 10_000
    z = np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, TAU, n))
    w = np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, TAU, n))
    grids, levels, positions, ratios = bridge_box_batch(z, w)
    assert np.all(ratios >= BRIDGE_RATIO_LO)
    assert np.all(ratios <= BRIDGE_RATIO_HI)
    # membership spot check on a deterministic subsample
    for k in range(0, n, 997):
        idx = DyadicIndex(float(grids[k]), int(levels[k]), int(positions[k]))
        box = CarlesonBox(idx.arc)
        assert box.contains(z[k]) and box.contains(w[k])


# ---------------------------------------------------------------------------
# the shared finest-arc search
# ---------------------------------------------------------------------------


def test_level_zero_cover_can_be_the_shifted_grid():
    # [1/2, 6/5) turns crosses the plain grid's break at 0 but fits in the
    # shifted grid's level-0 arc [1/3, 4/3).
    idx = mei_cover(Arc(0.5 * TAU, 0.7))
    assert (idx.grid, idx.level, idx.position) == (GRID_THIRD, 0, 0)


def test_batches_of_no_arcs_and_no_pairs_are_empty():
    empty = np.array([])
    cover = mei_cover_batch(empty, empty)
    bridge = bridge_box_batch(empty.astype(complex), empty.astype(complex))
    assert [a.size for a in cover] == [0, 0, 0]
    assert [a.size for a in bridge] == [0, 0, 0, 0]
