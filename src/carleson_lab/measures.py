"""Weights on the disk, dyadic-aligned quadrature, and box-mass machinery.

A weight is a nonnegative density against normalized area.  Radial
closed-form families (``lebesgue`` is the exponent-0 member of the
``radial-power`` family) carry exact outer-annulus integrals, so box
masses for them bypass the quadrature entirely.  Everything else is
integrated by midpoint sums over quadrature cells that are aligned with
the plain dyadic grid; boxes of the shifted grid are handled by exact
fractional overlap of the boundary cells.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateWeightError,
    InfiniteMassError,
    MemoryGuardError,
    ResolutionError,
    WeightSpecError,
)
from .geometry import (
    GRID_PLAIN,
    GRIDS,
    TAU,
    Arc,
    CarlesonBox,
    DyadicIndex,
)

DEFAULT_MAX_CELLS = 2_000_000
GRID_DENSITY_BLOCK = 32_768  # points per block of a grid weight's density
MAX_CELLS_ENV = "CARLESON_LAB_MAX_CELLS"
#: How far below 1 a reverse-doubling ratio must stay.
REVERSE_DOUBLING_MARGIN = 1e-6


def cell_cap() -> int:
    """The quadrature cell cap: ``CARLESON_LAB_MAX_CELLS``, else the default."""
    raw = os.environ.get(MAX_CELLS_ENV, "").strip()
    if not raw:
        return DEFAULT_MAX_CELLS
    if not raw.isdecimal() or int(raw) == 0:
        raise ConfigError(f"{MAX_CELLS_ENV}={raw!r} is not a positive integer")
    return int(raw)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """A density on the disk.

    ``kind`` is one of ``radial-power`` (exponent ``a``; ``a = 0`` is
    Lebesgue), ``product`` (of two weights; products of radial powers are
    collapsed at construction), or ``grid`` (sampled density on a polar
    grid, piecewise constant by nearest node, a tie going to the lower one;
    :meth:`cell_density` looks up each sublayer and stratum angle once).
    """

    kind: str
    a: float = 0.0
    factors: tuple = ()
    grid_r: np.ndarray | None = field(default=None, repr=False)
    grid_theta: np.ndarray | None = field(default=None, repr=False)
    grid_values: np.ndarray | None = field(default=None, repr=False)
    spec: str = ""

    # -- constructors -------------------------------------------------

    @staticmethod
    def lebesgue() -> "Weight":
        return Weight(kind="radial-power", a=0.0, spec="lebesgue")

    @staticmethod
    def radial_power(a: float) -> "Weight":
        return Weight(kind="radial-power", a=float(a), spec=f"radial-power:{a}")

    @staticmethod
    def product(w1: "Weight", w2: "Weight") -> "Weight":
        if w1.kind == "radial-power" and w2.kind == "radial-power":
            return Weight(
                kind="radial-power",
                a=w1.a + w2.a,
                spec=f"product:{w1.spec},{w2.spec}",
            )
        return Weight(
            kind="product", factors=(w1, w2), spec=f"product:{w1.spec},{w2.spec}"
        )

    @staticmethod
    def from_grid(r, theta, values, spec: str = "grid:<arrays>") -> "Weight":
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape != (r.size, theta.size):
            raise WeightSpecError(
                f"grid weight shape mismatch: {values.shape} vs "
                f"({r.size}, {theta.size})"
            )
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise WeightSpecError("grid densities must be finite and >= 0")
        # The nearest-node search bisects, so the nodes must ascend.
        for name, nodes in (("r", r), ("theta", theta)):
            if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
                raise WeightSpecError(f"grid {name} nodes must be finite and strictly ascending")
        return Weight(
            kind="grid", grid_r=r, grid_theta=theta, grid_values=values, spec=spec
        )

    @staticmethod
    def from_grid_file(path: str) -> "Weight":
        try:
            with open(path) as fh:
                counts = [int(h) if h.isdigit() else 0 for h in fh.readline().split()]
                if len(counts) != 2 or min(counts) < 1:
                    raise ValueError("the header must be two positive integer counts")
                with warnings.catch_warnings():
                    # Rows absent after a header: the shape check below says so.
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    data = np.loadtxt(fh, ndmin=2)
        except (OSError, ValueError) as exc:  # unreadable, a bad header, or a row not numbers
            raise WeightSpecError(f"cannot read grid file {path!r}: {exc}") from exc
        r_count, theta_count = counts
        if data.shape != (r_count * theta_count, 3):
            raise WeightSpecError(
                f"grid file {path!r}: expected {r_count * theta_count} rows of "
                f"'r theta density', got shape {data.shape}"
            )
        r_col, theta_col, values = (data[:, c].reshape(r_count, theta_count) for c in range(3))
        r, theta = r_col[:, 0], theta_col[0]
        if np.any(r_col != r[:, None]) or np.any(theta_col != theta):
            raise WeightSpecError(
                f"grid file {path!r}: r must be constant within each block of "
                f"{theta_count} rows, and theta the same in every block"
            )
        return Weight.from_grid(r, theta, values, spec=f"grid:{path}")

    # -- structure flags ----------------------------------------------

    @property
    def is_radial_power(self) -> bool:
        return self.kind == "radial-power"

    @property
    def finite(self) -> bool:
        if self.kind == "radial-power":
            return self.a > -1.0
        if self.kind == "product":
            return all(w.finite for w in self.factors)
        return True

    @property
    def strictly_positive(self) -> bool:
        if self.kind == "radial-power":
            return True
        if self.kind == "product":
            return all(w.strictly_positive for w in self.factors)
        return bool(np.all(self.grid_values > 0))

    # -- evaluation ----------------------------------------------------

    def density(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if self.kind == "grid":
            if z.size <= GRID_DENSITY_BLOCK:
                return self._grid_density(z)
            # The nearest-node search holds about twenty temporaries the
            # size of its input; blocks keep them to a few megabytes.
            flat = z.ravel()
            out = np.empty(flat.size, dtype=self.grid_values.dtype)
            for lo in range(0, flat.size, GRID_DENSITY_BLOCK):
                block = slice(lo, lo + GRID_DENSITY_BLOCK)
                out[block] = self._grid_density(flat[block])
            return out.reshape(z.shape)
        r = np.abs(z)
        if self.kind == "radial-power":
            if self.a == 0.0:
                return np.ones_like(r)
            return np.power(np.maximum(1.0 - r, 0.0), self.a)
        w1, w2 = self.factors
        return w1.density(z) * w2.density(z)

    def _grid_density(self, z: np.ndarray) -> np.ndarray:
        """Value at the nearest grid node in radius and in angle."""
        i = _nearest_node(self.grid_r, np.abs(z))
        k = _nearest_node(self.grid_theta, np.mod(np.angle(z), TAU))
        return self.grid_values[i, k]

    def cell_density(self, quad: "DiskQuadrature") -> np.ndarray:
        """The density at every cell center of ``quad``: for a grid, the
        nearest radial node of each sublayer and angular node of each
        stratum angle, from the exact ``quad.r`` and ``quad.theta``."""
        if self.kind == "product":
            w1, w2 = self.factors
            return w1.cell_density(quad) * w2.cell_density(quad)
        if self.kind != "grid":
            return self.density(quad.z)
        radii = [s.rows(quad.r)[:, 0] for s in quad.strata]
        angles = [s.rows(quad.theta)[0] for s in quad.strata]
        i = _nearest_node(self.grid_r, np.concatenate(radii))
        k = _nearest_node(self.grid_theta, np.concatenate(angles))
        cuts = np.cumsum([(a.size, b.size) for a, b in zip(radii, angles)], axis=0)[:-1]
        out = np.empty(quad.n_cells, dtype=self.grid_values.dtype)
        for s, i_s, k_s in zip(quad.strata, np.split(i, cuts[:, 0]), np.split(k, cuts[:, 1])):
            s.rows(out)[:] = self.grid_values[i_s[:, None], k_s]
        return out

    def outer_radial_mass(self, s) -> np.ndarray | float:
        """``2 * integral of density(r) * r dr`` over radii ``[1 - s, 1)``.

        Only available for the radial-power family, where it is the exact
        Beta-type primitive ``2 (s^(a+1)/(a+1) - s^(a+2)/(a+2))``.
        """
        if not self.is_radial_power:
            raise ValueError("closed-form radial mass requires a radial-power weight")
        if not self.finite:
            raise InfiniteMassError(f"weight {self.spec!r} has infinite mass")
        s = np.asarray(s, dtype=float)
        a = self.a
        out = 2.0 * (s ** (a + 1.0) / (a + 1.0) - s ** (a + 2.0) / (a + 2.0))
        return float(out) if out.ndim == 0 else out

    def disk_mass(self, quad: "DiskQuadrature | None" = None) -> float:
        if self.is_radial_power:
            return float(self.outer_radial_mass(1.0))
        if quad is None:
            raise ValueError("disk mass of a sampled weight needs a quadrature")
        return float(np.sum(self.cell_density(quad) * quad.area))

    def radial_moment(self, k: int) -> float:
        """Exact ``integral of |z|^k`` against the weight, radial-power only."""
        if not self.is_radial_power:
            raise ValueError("closed-form moments require a radial-power weight")
        if not self.finite:
            raise InfiniteMassError(f"weight {self.spec!r} has infinite mass")
        a = self.a
        return 2.0 * math.exp(
            math.lgamma(k + 2.0) + math.lgamma(a + 1.0) - math.lgamma(k + a + 3.0)
        )


def _nearest_node(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the node nearest each ``x``; a tie goes to the lower node."""
    i = np.minimum(np.searchsorted(nodes, x), nodes.size - 1)
    i_lo = np.maximum(i - 1, 0)
    return np.where(np.abs(nodes[i_lo] - x) <= np.abs(nodes[i] - x), i_lo, i)


def parse_weight(spec: str) -> Weight:
    """Parse the weight mini-language.

    Grammar: ``lebesgue``, ``radial-power:<a>``, ``product:<spec>,<spec>``,
    ``grid:<path>``.
    """
    weight, rest = _parse_weight_prefix(spec.strip())
    if rest:
        raise WeightSpecError(f"trailing text {rest!r} in weight spec {spec!r}")
    return weight


def _parse_weight_prefix(spec: str) -> tuple[Weight, str]:
    if spec.startswith("lebesgue"):
        return Weight.lebesgue(), spec[len("lebesgue"):]
    if spec.startswith("radial-power:"):
        body = spec[len("radial-power:"):]
        head, sep, rest = body.partition(",")
        try:
            a = float(head)
        except ValueError as exc:
            raise WeightSpecError(f"bad radial-power exponent {head!r}") from exc
        return Weight.radial_power(a), (sep + rest if sep else "")
    if spec.startswith("product:"):
        w1, rest = _parse_weight_prefix(spec[len("product:"):])
        if not rest.startswith(","):
            raise WeightSpecError(f"product spec needs two comma-separated parts: {spec!r}")
        w2, rest = _parse_weight_prefix(rest[1:])
        return Weight.product(w1, w2), rest
    if spec.startswith("grid:"):
        return Weight.from_grid_file(spec[len("grid:"):]), ""
    raise WeightSpecError(f"unrecognized weight spec {spec!r}")


def dual_weight(w: Weight, p: float) -> Weight:
    """The weight raised to the power ``1 - p/(p-1)`` (the duality exponent).

    Lebesgue is fixed for every ``p``; a radial power maps to the radial
    power with exponent ``a * (1 - p')``.  The result may be flagged
    non-finite (exponent at or below -1), which downstream two-weight
    sweeps refuse with an infinite-mass error.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    if not w.strictly_positive:
        raise ValueError("dual weight requires a strictly positive density")
    exponent = 1.0 - p / (p - 1.0)
    if w.kind == "radial-power":
        out = Weight.radial_power(w.a * exponent)
        if w.a == 0.0:
            out = Weight.lebesgue()
        return out
    if w.kind == "product":
        w1, w2 = w.factors
        return Weight.product(dual_weight(w1, p), dual_weight(w2, p))
    return Weight.from_grid(
        w.grid_r,
        w.grid_theta,
        np.power(w.grid_values, exponent),
        spec=f"dual({w.spec},p={p})",
    )


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    """The cells of one dyadic level, consecutive from ``start``: cell
    ``start + k * count + m`` is angle ``m`` of the radial sublayer
    ``edges[k] <= r < edges[k + 1]``."""

    level: int
    count: int
    start: int  # index of the stratum's first cell in the flat arrays
    edges: np.ndarray = field(repr=False)  # sublayer radii, ascending

    @property
    def cells(self) -> slice:
        return slice(self.start, self.start + (self.edges.size - 1) * self.count)

    def rows(self, values: np.ndarray) -> np.ndarray:
        """The ``(sublayers, count)`` view of a cell array on this stratum."""
        return values[self.cells].reshape(-1, self.count)


@dataclass(frozen=True)
class DiskQuadrature:
    """Midpoint cells on geometric radial strata aligned with dyadic boxes.

    ``strata[j]`` spans radii ``[1 - 2**-j, 1 - 2**-(j+1))`` (the last one
    closes the disk), so a level-``j`` box covers exactly strata ``j`` and
    above.  It is cut into ``max(angular_base, 2**j)`` equal angles, so
    every level ``j`` arc of the plain grid bounds cells exactly, and into
    radial sublayers that share them, so the midpoint rule keeps
    converging under depth refinement.
    """

    depth: int
    angular_base: int
    strata: tuple[Stratum, ...]
    z: np.ndarray = field(repr=False)
    area: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    stratum: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return self.z.size

    def parent_index(self, finer: "DiskQuadrature") -> np.ndarray:
        """For each cell of ``finer``, the index of the cell of this
        quadrature that holds its center.

        A center at level ``j`` lies in stratum ``min(j, depth)``, in the
        sublayer found by ``searchsorted`` on that stratum's edges, and in
        angle ``floor(theta / 2 pi * count)``.
        """
        out = np.empty(finer.n_cells, dtype=np.int64)
        for f in finer.strata:
            s = self.strata[min(f.level, self.depth)]
            radii = f.rows(finer.r)[:, 0]
            k = np.clip(np.searchsorted(s.edges, radii, side="right") - 1, 0, s.edges.size - 2)
            m = np.minimum((f.rows(finer.theta)[0] / TAU * s.count).astype(np.int64), s.count - 1)
            f.rows(out)[:] = s.start + k[:, None] * s.count + m[None, :]
        return out


def build_quadrature(
    depth: int, angular_base: int = 16, radial_refine: int | None = None
) -> DiskQuadrature:
    """Build the dyadic-aligned polar quadrature of the unit disk.

    ``radial_refine`` caps how many radial sublayers a stratum receives
    (default ``2**ceil(depth/2)``, which makes midpoint moment errors
    shrink by about 16x for every two extra levels of depth).  Each
    stratum is filled with whole-array operations; edges are squared by
    ``np.float_power``, libm ``pow`` as Python's ``**`` on floats; ``z``
    by one complex ``exp`` row per stratum.
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    if angular_base < 4 or angular_base & (angular_base - 1) != 0:
        raise ConfigError(f"angular_base must be a power of two >= 4, got {angular_base}")
    refine = radial_refine if radial_refine is not None else 2 ** math.ceil(depth / 2)

    strata: list[Stratum] = []
    start = 0
    for j in range(depth + 1):
        r_hi = 1.0 if j == depth else 1.0 - 2.0 ** -(j + 1)
        n_sub = 1 if j == depth else max(1, min(refine, 2 ** (depth - 1 - j)))
        edges = np.linspace(1.0 - 2.0**-j, r_hi, n_sub + 1)
        strata.append(Stratum(j, max(angular_base, 2**j), start, edges))
        start = strata[-1].cells.stop
    total, cap = start, cell_cap()
    if total > cap:
        raise MemoryGuardError(
            f"quadrature would need {total} cells, above the cap {cap} "
            f"(set {MAX_CELLS_ENV} to raise it)"
        )

    r = np.empty(total)
    theta = np.empty(total)
    area = np.empty(total)
    z = np.empty(total, dtype=complex)
    stratum = np.empty(total, dtype=np.int64)
    for s in strata:
        sq = np.float_power(s.edges, 2.0)
        mid = (0.5 * (s.edges[:-1] + s.edges[1:]))[:, None]
        angles = (np.arange(s.count) + 0.5) * (TAU / s.count)
        s.rows(r)[:] = mid
        s.rows(theta)[:] = angles
        s.rows(z)[:] = mid * np.exp(1j * angles)
        s.rows(area)[:] = ((sq[1:] - sq[:-1]) / s.count)[:, None]
        stratum[s.cells] = s.level
    return DiskQuadrature(
        depth=depth,
        angular_base=angular_base,
        strata=tuple(strata),
        z=z,
        area=area,
        r=r,
        theta=theta,
        stratum=stratum,
    )


@dataclass(frozen=True)
class SampledFunction:
    """Values of a function at the quadrature cell centers."""

    quad: DiskQuadrature
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.quad.n_cells,):
            raise ValueError("sampled values must match the quadrature cell count")

    @staticmethod
    def from_function(quad: DiskQuadrature, fn) -> "SampledFunction":
        return SampledFunction(quad, np.asarray(fn(quad.z)))

    @staticmethod
    def constant(quad: DiskQuadrature, value=1.0) -> "SampledFunction":
        return SampledFunction(quad, np.full(quad.n_cells, value, dtype=type(value)))


# ---------------------------------------------------------------------------
# Cell aggregation over boxes
# ---------------------------------------------------------------------------


def _range_sums(values_cumsum, count, a_pos, width):
    """Angular window sums ``[a, a + width)`` on rows of ``count`` cells.

    ``values_cumsum`` holds each row's cumsum, with a leading zero, along
    its last axis; every row answers every window.  Positions are measured
    in cells (fractions allowed); fractional ends weight the boundary cell
    by its covered angle, which is exact for integrands constant on cells.
    Windows longer than a row wrap once.
    """

    def interp(x):
        i = np.minimum(np.floor(x).astype(np.int64), count - 1)
        i = np.maximum(i, 0)
        frac = np.clip(x - i, 0.0, 1.0)
        lo = values_cumsum[..., i]
        return lo + frac * (values_cumsum[..., i + 1] - lo)

    a = np.mod(a_pos, count)
    b = a + width
    over = np.maximum(b - count, 0.0)
    main = interp(np.minimum(b, count)) - interp(a)
    return main + np.where(over > 0.0, interp(over), 0.0)


def box_level_sums(
    quad: DiskQuadrature, cell_values: np.ndarray, grid: float, depth: int
) -> list[np.ndarray]:
    """Per-level sums of ``cell_values`` over all grid boxes up to ``depth``.

    Returns ``sums[j][m] = sum over cells in the level-j, position-m box``,
    a shifted-grid boundary cell counted by its covered angle.  A stratum's
    sublayers share their angles, so they are added into one row of
    ``count`` cells.  A level-``j`` window spans ``count >> j`` cells from
    ``(grid % 1) * count`` cells past a multiple of that width: the row is
    rolled back by that offset's whole cells and reshaped to one window per
    line, and each window passes the left-over fraction of its first cell
    to the window before it.  The leaves collect the rows of strata at or
    below ``depth``; each parent adds its own row to its two children.
    """
    if depth > quad.depth:
        raise ResolutionError(
            f"box depth {depth} exceeds quadrature depth {quad.depth}"
        )
    cell_values = np.asarray(cell_values)
    rows = [s.rows(cell_values).sum(axis=0) for s in quad.strata]

    def window_sums(row: np.ndarray, j: int) -> np.ndarray:
        shift = (grid % 1.0) * row.size
        whole = math.floor(shift)
        windows = np.roll(row, -whole).reshape(-1, row.size >> j)
        sums = windows.sum(axis=1)
        if shift > whole:
            first = windows[:, 0]
            sums += (shift - whole) * (np.roll(first, -1) - first)
        return sums

    sums: list[np.ndarray | None] = [None] * (depth + 1)
    sums[depth] = sum(window_sums(row, depth) for row in rows[depth:])
    for j in range(depth - 1, -1, -1):
        child = sums[j + 1]
        sums[j] = window_sums(rows[j], j) + child[0::2] + child[1::2]
    return sums  # type: ignore[return-value]


def box_mass_levels(
    w: Weight, quad: DiskQuadrature | None, grid: float, depth: int
) -> list[np.ndarray]:
    """Masses of every grid box up to ``depth`` under the weight: the
    closed form for radial-power weights, cell sums over ``quad`` otherwise.
    No quadrature bounds a radial weight's depth, so the cell cap does."""
    if w.is_radial_power:
        if 2**depth > cell_cap():
            raise MemoryGuardError(
                f"box depth {depth} needs 2**{depth} boxes, above the cap {cell_cap()} "
                f"(set {MAX_CELLS_ENV} to raise it)"
            )
        return [
            np.full(2**j, 2.0**-j * w.outer_radial_mass(2.0**-j))
            for j in range(depth + 1)
        ]
    if quad is None:
        raise ValueError("box masses of a sampled weight need a quadrature")
    return box_level_sums(quad, w.cell_density(quad) * quad.area, grid, depth)


def arc_box_sums(
    cell_values: np.ndarray, quad: DiskQuadrature, r_in, start_turn, length
) -> np.ndarray:
    """Sums of a cellwise quantity over the regions ``{r >= r_in} x arc``.

    Takes equal-shaped float arrays, one entry per region.  Each stratum
    takes one cumsum along its rows and answers the whole batch on every
    sublayer with one window sum; sublayers straddling ``r_in`` count the
    covered fraction of their area.  Sublayers are added in quadrature
    order, so every entry equals the sum taken one region at a time.
    """
    r_in_sq = np.float_power(r_in, 2.0)  # libm pow, as Python's ``**`` on floats
    total = np.zeros(r_in.shape)
    for s in quad.strata:
        edges = s.edges.reshape((-1,) + (1,) * r_in.ndim)  # one row per sublayer
        lo, hi = edges[:-1], edges[1:]
        inside = hi > r_in
        if not inside.any():
            continue
        lo_sq, hi_sq = np.float_power(lo, 2.0), np.float_power(hi, 2.0)
        radial_frac = np.where(lo < r_in, (hi_sq - r_in_sq) / (hi_sq - lo_sq), 1.0)
        cs = np.zeros((lo.size, s.count + 1))
        np.cumsum(s.rows(cell_values), axis=1, out=cs[:, 1:])
        sums = _range_sums(cs, s.count, start_turn * s.count, length * s.count)
        for part, keep in zip(radial_frac * sums, inside):
            np.add(total, part, out=total, where=keep)
    return total


def box_masses(
    w: Weight,
    start_turn,
    length,
    quad: DiskQuadrature | None = None,
    kind: str = "full",
) -> np.ndarray:
    """Masses of the boxes (``kind="full"``) or top halves over a batch of arcs.

    The arcs are given as equal-shaped arrays of start turns and lengths.
    Radial-power weights take the exact closed form (the angular factor is
    the arc length); every other weight sums its cells over ``quad`` with
    :func:`arc_box_sums`.
    """
    length = np.asarray(length, dtype=float)
    if w.is_radial_power:
        return length * w.outer_radial_mass(length if kind == "full" else length / 2.0)
    if quad is None:
        raise ValueError("box masses of a sampled weight need a quadrature")
    fine = length < 2.0**-quad.depth * (1.0 - 1e-12)
    if fine.any():
        raise ResolutionError(
            f"box of arc length {length[fine][0]} is finer than quadrature depth {quad.depth}"
        )
    r_in = 1.0 - length if kind == "full" else 1.0 - length / 2.0
    return arc_box_sums(
        w.cell_density(quad) * quad.area, quad, r_in, np.asarray(start_turn, dtype=float), length
    )


def box_mass(w: Weight, box: CarlesonBox, quad: DiskQuadrature | None = None) -> float:
    """Mass of one box under a weight; see :func:`box_masses`."""
    turn, length = np.array([box.arc.start_turn]), np.array([box.arc.length])
    return float(box_masses(w, turn, length, quad, box.kind)[0])


def draw_arcs(
    rng: np.random.Generator, count: int, min_length: float
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uniformly random arcs as arrays ``(start_turn, length)``.

    Each arc is drawn as its length, then its start angle: one draw of
    ``2 * count`` uniforms, interleaved, is the same stream as ``2 * count``
    scalar ``rng.uniform`` calls.  The start turn is the one :class:`Arc`
    derives from that angle.
    """
    u = rng.random(2 * count)
    length = min_length + (1.0 - min_length) * u[0::2]
    start_turn = np.mod(TAU * u[1::2] / TAU, 1.0)
    return start_turn, length


# ---------------------------------------------------------------------------
# Doubling and reverse doubling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReverseDoublingReport:
    delta_hat: float
    worst_arc: Arc
    verdict: bool
    margin: float
    depth: int  # the finest level swept, after the quadrature cap
    random_arcs: int


def reverse_doubling_report(
    w: Weight,
    depth: int = 16,
    random_arcs: int = 1000,
    seed: int = 7,
    quad: DiskQuadrature | None = None,
) -> ReverseDoublingReport:
    """Largest observed ratio mass(top half) / mass(box) over many arcs.

    Sweeps every dyadic arc of both grids up to ``depth`` (the whole
    circle, level 0 of both, once) plus uniformly random arcs; the weight
    is reverse doubling when the ratio stays below
    ``1 - REVERSE_DOUBLING_MARGIN``.  Box masses come from
    :func:`box_mass_levels` and :func:`box_masses`: closed form for a
    radial-power weight, cell sums over ``quad`` (which also caps
    ``depth``) for any other.
    """
    if not w.finite:
        raise InfiniteMassError(f"weight {w.spec!r} has infinite mass")
    rng = np.random.default_rng(seed)
    if quad is not None:
        depth = min(depth, quad.depth)
    delta = -math.inf
    worst = Arc(0.0, 1.0)
    for grid in GRIDS:
        masses = box_mass_levels(w, quad, grid, depth)
        # Level 0 is the whole circle on both grids: sweep it once.
        for j in range(0 if grid == GRID_PLAIN else 1, depth):
            q = masses[j]
            if np.any(q <= 0.0):
                raise DegenerateWeightError(f"zero-mass box at grid {grid}, level {j}")
            b = masses[j + 1][0::2] + masses[j + 1][1::2]
            ratios = b / q
            k = int(np.argmax(ratios))
            if ratios[k] > delta:
                delta = float(ratios[k])
                worst = DyadicIndex(grid, j, k).arc
    turn, length = draw_arcs(rng, random_arcs, 2.0**-depth)
    if length.size:
        q = box_masses(w, turn, length, quad)
        if np.any(q <= 0.0):
            raise DegenerateWeightError("zero-mass box on a random arc")
        ratios = box_masses(w, turn, length, quad, "top") / q
        k = int(np.argmax(ratios))  # the first maximum, as a strict-> scan keeps
        if ratios[k] > delta:
            delta = float(ratios[k])
            worst = Arc(0.0, float(length[k]), start_turn=float(turn[k]))

    return ReverseDoublingReport(
        delta_hat=delta,
        worst_arc=worst,
        verdict=bool(delta < 1.0 - REVERSE_DOUBLING_MARGIN),
        margin=REVERSE_DOUBLING_MARGIN,
        depth=depth,
        random_arcs=random_arcs,
    )


@dataclass(frozen=True)
class DoublingReport:
    c_hat: float
    worst_center: complex
    worst_radius: float
    samples: int


def _unit_disk_ball_overlap(center: float, radius: float) -> float:
    """Normalized area of ``B(c, radius)`` intersected with the unit disk."""
    d = abs(center)
    if d >= 1.0 + radius:
        return 0.0
    if d <= abs(1.0 - radius):
        return min(1.0, radius * radius)
    # Standard two-circle lens, divided by pi to normalize the disk area.
    alpha = math.acos(np.clip((d * d + radius * radius - 1.0) / (2 * d * radius), -1, 1))
    beta = math.acos(np.clip((d * d + 1.0 - radius * radius) / (2 * d), -1, 1))
    tri = 0.5 * math.sqrt(
        max(
            (-d + radius + 1.0)
            * (d + radius - 1.0)
            * (d - radius + 1.0)
            * (d + radius + 1.0),
            0.0,
        )
    )
    return (radius * radius * alpha + beta - tri) / math.pi


def ball_masses(w: Weight, centers, radii, nodes: int = 32) -> np.ndarray:
    """Masses of the balls ``B(centers[k], radii[k])`` intersected with the disk.

    Lebesgue uses the exact two-circle lens area, ball by ball.  Other
    weights are integrated on a polar midpoint grid native to each ball (a
    fixed disk quadrature cannot resolve balls smaller than its local
    cells), evaluating the density only at the nodes inside the disk.
    """
    centers = np.asarray(centers, dtype=complex)
    radii = np.asarray(radii, dtype=float)
    if w.is_radial_power and w.a == 0.0:
        return np.array(
            [_unit_disk_ball_overlap(abs(c), r) for c, r in zip(centers.tolist(), radii.tolist())]
        )
    rho = radii[:, None] * (np.arange(nodes) + 0.5) / nodes
    phi = (np.arange(nodes) + 0.5) * (TAU / nodes)
    pts = centers[:, None, None] + rho[:, :, None] * np.exp(1j * phi)
    cell = rho * (radii[:, None] / nodes) * (TAU / nodes) / math.pi  # per ring cell
    inside = np.abs(pts) < 1.0
    dens = np.zeros(pts.shape)
    dens[inside] = np.real(w.density(pts[inside]))
    return np.sum((dens * cell[:, :, None]).reshape(len(radii), -1), axis=1)


def ball_mass(w: Weight, center: complex, radius: float, nodes: int = 32) -> float:
    """Mass of ``B(center, radius)`` intersected with the disk; see
    :func:`ball_masses`."""
    return float(ball_masses(w, [center], [radius], nodes)[0])


def doubling_report(
    w: Weight,
    samples: int = 200,
    seed: int = 11,
) -> DoublingReport:
    """Sampled doubling constant: sup of mass(B(z,2r) n D) / mass(B(z,r) n D).

    Balls are intersected with the disk; see :func:`ball_masses` for how
    their masses are computed.
    """
    if not w.finite:
        raise InfiniteMassError(f"weight {w.spec!r} has infinite mass")
    rng = np.random.default_rng(seed)
    centers = np.sqrt(rng.uniform(0, 1, samples)) * np.exp(
        1j * rng.uniform(0, TAU, samples)
    )
    radii = np.exp(rng.uniform(math.log(0.02), math.log(1.5), samples))

    inner = ball_masses(w, centers, radii)
    empty = np.flatnonzero(inner <= 0.0)
    if empty.size:
        k = empty[0]
        raise DegenerateWeightError(
            f"zero-mass inner ball at center {centers[k]}, radius {radii[k]}"
        )
    ratios = ball_masses(w, centers, 2.0 * radii) / inner
    k = int(np.argmax(ratios))  # the first maximum, as a strict-> scan keeps
    return DoublingReport(
        c_hat=float(ratios[k]),
        worst_center=complex(centers[k]),
        worst_radius=float(radii[k]),
        samples=samples,
    )
