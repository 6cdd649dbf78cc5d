#!/usr/bin/env python3
"""Arcs, the two shifted dyadic grids, Carleson boxes, and arc covering.

Walks through the geometric layer: how the circle is split into dyadic
arcs, what the box over an arc looks like, and why two grids (the plain
one and the one rotated by a third of a turn) are enough to cover every
arc by a grid arc at most six times longer.
"""

import numpy as np

from carleson_lab import (
    Arc,
    CarlesonBox,
    DyadicIndex,
    GRID_PLAIN,
    GRID_THIRD,
    bridge_box,
    mei_cover,
)
from carleson_lab.geometry import TAU

print("== dyadic arcs ==")
for grid, level, pos in ((GRID_PLAIN, 0, 0), (GRID_PLAIN, 3, 0), (GRID_THIRD, 1, 1)):
    arc = DyadicIndex(grid, level, pos).arc
    print(
        f"grid {grid:5.3f}, level {level}, position {pos}: "
        f"start {arc.start:.4f} rad, length {arc.length:g} of the circle"
    )

print("\n== box areas (disk area normalized to 1) ==")
for length in (1.0, 0.5, 0.125):
    full = CarlesonBox(Arc(0.0, length)).area
    top = CarlesonBox(Arc(0.0, length), "top").area
    print(f"arc length {length:7g}: box {full:.6f}, top half {top:.6f}, ratio {top/full:.4f}")
print("the ratio grows toward 3/4 as the arc grows; that 3/4 is the")
print("reverse-doubling constant of area measure (see demo 02)")

print("\n== covering arcs by grid arcs ==")
for arc in (Arc(0.0, 0.125), Arc(0.0, 0.2), Arc(np.pi - 0.1, 1 / 32)):
    idx = mei_cover(arc)
    print(
        f"arc(start={arc.start:.3f}, len={arc.length:g}) -> "
        f"grid {idx.grid:.3f}, level {idx.level} (len {idx.length:g}, "
        f"{idx.length / arc.length:.2f}x the input)"
    )

# the inflation factor over many random arcs never exceeds 6
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(5000):
    arc = Arc(rng.uniform(0, TAU), 2.0 ** -rng.uniform(0, 16))
    idx = mei_cover(arc)
    worst = max(worst, idx.length / arc.length)
print(f"worst inflation over 5000 random arcs: {worst:.3f} (must be <= 6)")

print("\n== a common box for a pair of points ==")
for z, w in ((0j, 0j), (0.9 + 0j, -0.9 + 0j), (0.7 * np.exp(0.3j), 0.72 * np.exp(0.5j))):
    idx, ratio = bridge_box(z, w)
    print(
        f"z={z:.3f}, w={w:.3f}: box level {idx.level}, "
        f"|1 - z conj(w)| / area^0.5 = {ratio:.4f}"
    )
print("the last column stays inside a fixed interval over all pairs;")
print("that comparability is what turns the kernel into box sums (demo 05)")
