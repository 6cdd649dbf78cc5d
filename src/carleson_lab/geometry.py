"""Arcs, shifted dyadic grids, and Carleson boxes over the unit disk.

Conventions used throughout the package:

* arc length is a fraction of the circle, in ``(0, 1]``;
* the disk has total area 1, so the box over an arc of length ``l``
  has area ``l^2 (2 - l)`` and its top half has area ``l^2 (1 - l/4)``;
* two dyadic grids are available: the plain binary partition of the
  circle (grid ``0``) and its copy rotated by one third of a turn
  (grid ``1/3``).  Together they cover every arc by a grid arc at most
  six times longer, which is what drives the kernel domination.

All objects here are immutable values and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi

GRID_PLAIN = 0.0
GRID_THIRD = 1.0 / 3.0
GRIDS = (GRID_PLAIN, GRID_THIRD)

#: Finest dyadic level handled by default (arc lengths down to 2**-24).
DEFAULT_MAX_DEPTH = 24

_REL_TOL = 1e-12
_ABS_TOL = 1e-15


def _fits(end, size):
    """Whether an arc ending ``end`` turns past a grid arc's start lies in
    that arc of ``size`` turns, up to rounding slack: the one containment
    tolerance, shared by :func:`mei_cover_batch` and :meth:`Arc.contains_arc`."""
    return end <= size * (1.0 + _REL_TOL) + _ABS_TOL


@dataclass(frozen=True)
class Arc:
    """An arc of the circle: ``[start, start + 2*pi*length)`` modulo ``2*pi``.

    ``start`` is an angle in ``[0, 2*pi)`` and ``length`` the fraction of
    the circle covered, in ``(0, 1]``.  Arcs whose nominal end exceeds
    ``2*pi`` denote the wrapped union.  Membership arithmetic runs in
    turns (fractions of the circle), where dyadic breakpoints are exact
    floating-point numbers; ``start_turn`` may be supplied to pin the
    exact value (grid arcs do), otherwise it is derived from ``start``.
    """

    start: float
    length: float
    start_turn: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.length <= 1.0:
            raise ValueError(f"arc length must lie in (0, 1], got {self.length}")
        if self.start_turn is None:
            object.__setattr__(self, "start_turn", (float(self.start) / TAU) % 1.0)
        else:
            object.__setattr__(self, "start_turn", float(self.start_turn) % 1.0)
        object.__setattr__(self, "start", (self.start_turn * TAU) % TAU)

    def contains_angle(self, theta) -> np.ndarray | bool:
        """Membership of an angle (or array of angles), half-open convention."""
        offset = np.mod(np.asarray(theta, dtype=float) / TAU - self.start_turn, 1.0)
        result = offset < self.length
        if np.isscalar(theta):
            return bool(result)
        return result

    def contains_arc(self, other: "Arc") -> bool:
        """Whether ``other`` is contained in this arc (up to rounding slack)."""
        if self.length >= 1.0:
            return True
        offset = (other.start_turn - self.start_turn) % 1.0
        if offset > 1.0 - 1e-12:
            offset = 0.0
        return _fits(offset + other.length, self.length)


@dataclass(frozen=True)
class DyadicIndex:
    """Address of an arc inside one of the two shifted dyadic grids.

    Level ``j`` splits the circle into ``2**j`` arcs of length ``2**-j``;
    grid ``1/3`` shifts every arc by one third of a turn (and wraps).
    """

    grid: float
    level: int
    position: int

    def __post_init__(self) -> None:
        if self.grid not in GRIDS:
            raise ValueError(f"grid must be one of {GRIDS}, got {self.grid}")
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if not 0 <= self.position < 2**self.level:
            raise ValueError(
                f"position {self.position} out of range for level {self.level}"
            )

    @property
    def length(self) -> float:
        return 2.0**-self.level

    @property
    def arc(self) -> Arc:
        turn = (self.position * self.length + self.grid) % 1.0
        return Arc(start=turn * TAU, length=self.length, start_turn=turn)

    def children(self) -> tuple["DyadicIndex", "DyadicIndex"]:
        return (
            DyadicIndex(self.grid, self.level + 1, 2 * self.position),
            DyadicIndex(self.grid, self.level + 1, 2 * self.position + 1),
        )

    def parent(self) -> "DyadicIndex":
        if self.level == 0:
            raise ValueError("the level-0 arc has no parent")
        return DyadicIndex(self.grid, self.level - 1, self.position // 2)


@dataclass(frozen=True)
class CarlesonBox:
    """The box over an arc, or its top (outer) half.

    For an arc of length ``l`` the full box occupies radii
    ``[1 - l, 1)`` and the top half radii ``(1 - l/2, 1)``.
    """

    arc: Arc
    kind: str = "full"

    def __post_init__(self) -> None:
        if self.kind not in ("full", "top"):
            raise ValueError(f"kind must be 'full' or 'top', got {self.kind!r}")

    @property
    def inner_radius(self) -> float:
        if self.kind == "full":
            return 1.0 - self.arc.length
        return 1.0 - self.arc.length / 2.0

    @property
    def area(self) -> float:
        """Exact normalized area (disk area normalized to 1)."""
        length = self.arc.length
        if self.kind == "full":
            return float(full_box_area(length))
        return float(length * length * (1.0 - length / 4.0))

    def contains(self, z) -> np.ndarray | bool:
        """Membership of disk points (radius inclusive at the inner edge)."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        theta = np.mod(np.angle(z), TAU)
        inside = (r >= self.inner_radius) & (r < 1.0)
        inside &= self.arc.contains_angle(theta)
        if z.ndim == 0:
            return bool(inside)
        return inside


def full_box_area(length) -> np.ndarray | float:
    """Normalized area of the box over an arc of the given length."""
    length = np.asarray(length, dtype=float)
    out = length * length * (2.0 - length)
    return float(out) if out.ndim == 0 else out


def _finest_grid_arcs(j0: np.ndarray, locate):
    """Per item, the finest grid arc accepted by ``locate(grid, level, rows)``,
    which returns the candidate positions of the items ``rows`` and a mask
    of the accepted ones.  Levels run from the item's ``j0`` down to 0, the
    plain grid first; level 0 is tested too (the shifted grid's level-0 arc
    wraps past angle 0), and the fallback is the whole circle, plain grid.
    """
    n = j0.size
    out_grid, found = np.zeros(n), np.zeros(n, dtype=bool)
    out_level, out_pos = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for j in range(int(j0.max(initial=0)), -1, -1):
        for grid in GRIDS:
            rows = np.flatnonzero(~found & (j0 >= j))
            if rows.size == 0:
                break
            pos, ok = locate(grid, j, rows)
            idx = rows[ok]
            out_grid[idx] = grid
            out_level[idx] = j
            out_pos[idx] = pos[ok]
            found[idx] = True
    return out_grid, out_level, out_pos


def _grid_position(turns, grid: float, level: int):
    """Position of the arc of ``(grid, level)`` holding each turn, and the
    turn's offset from that arc's start."""
    size = 2.0**-level
    t = np.mod(turns - grid, 1.0)
    m = np.minimum(np.floor(t / size), 2**level - 1).astype(np.int64)
    return m, t - m * size


def mei_cover_batch(starts, lengths, max_depth: int = DEFAULT_MAX_DEPTH):
    """Vectorized covering of arcs by grid arcs at most six times longer.

    For each input arc returns the smallest arc of either grid that
    contains it (grid 0 preferred on ties).  The level-0 arc always
    succeeds, so the search terminates.
    """
    turns = np.mod(np.asarray(starts, dtype=float), TAU) / TAU
    lengths = np.asarray(lengths, dtype=float)
    if np.any((lengths <= 0.0) | (lengths > 1.0)):
        raise ValueError("arc lengths must lie in (0, 1]")
    # Smallest candidate level: arcs of length 2**-j still >= the target.
    j0 = np.clip(np.floor(-np.log2(lengths)).astype(np.int64), 0, max_depth)

    def fits(grid, j, rows):
        m, offset = _grid_position(turns[rows], grid, j)
        return m, _fits(offset + lengths[rows], 2.0**-j)

    return _finest_grid_arcs(j0, fits)


def mei_cover(arc: Arc, max_depth: int = DEFAULT_MAX_DEPTH) -> DyadicIndex:
    """Smallest grid arc (either grid) containing ``arc``.

    The returned arc is never more than six times longer than the input.
    """
    g, lev, pos = mei_cover_batch(
        np.array([arc.start]), np.array([arc.length]), max_depth
    )
    return DyadicIndex(float(g[0]), int(lev[0]), int(pos[0]))


def bridge_box_batch(z, w, max_depth: int = DEFAULT_MAX_DEPTH, min_length: float = 0.0):
    """Vectorized common box for point pairs, plus the comparability ratio.

    For each pair ``(z, w)`` finds an index ``L`` of either grid whose box
    contains both points, scanning from the finest admissible level (arc
    length at least ``max(angular span, 1 - min radius, min_length)``)
    upward, and returns ``|1 - z * conj(w)| / sqrt(area(Q_L))``.
    """
    z = np.asarray(z, dtype=complex).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    rz, rw = np.abs(z), np.abs(w)
    if np.any(rz >= 1.0) or np.any(rw >= 1.0):
        raise ValueError("bridge points must lie strictly inside the disk")
    tz = np.mod(np.angle(z), TAU)
    tw = np.mod(np.angle(w), TAU)

    gap = np.abs(tz - tw)
    span = np.minimum(gap, TAU - gap) / TAU
    needed = np.maximum(span, 1.0 - np.minimum(rz, rw))
    needed = np.maximum(needed, max(min_length, 2.0**-max_depth))
    j0 = np.clip(np.floor(np.log2(1.0 / needed)).astype(np.int64), 0, max_depth)

    def same_arc(grid, j, rows):
        mz, _ = _grid_position(tz[rows] / TAU, grid, j)
        mw, _ = _grid_position(tw[rows] / TAU, grid, j)
        return mz, mz == mw

    out_grid, out_level, out_pos = _finest_grid_arcs(j0, same_arc)
    lengths = 2.0 ** -out_level.astype(float)
    ratio = np.abs(1.0 - z * np.conj(w)) / np.sqrt(full_box_area(lengths))
    return out_grid, out_level, out_pos, ratio


def bridge_box(
    z: complex,
    w: complex,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_length: float = 0.0,
) -> tuple[DyadicIndex, float]:
    """A grid box containing both points, and ``|1 - z conj(w)| / area**0.5``."""
    g, lev, pos, ratio = bridge_box_batch(
        np.array([z]), np.array([w]), max_depth, min_length
    )
    return DyadicIndex(float(g[0]), int(lev[0]), int(pos[0])), float(ratio[0])
