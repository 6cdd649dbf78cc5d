"""Weights on the disk, dyadic-aligned quadrature, and box-mass machinery.

A weight is a nonnegative density against normalized area.  Radial
closed-form families (``lebesgue`` is the exponent-0 member of the
``radial-power`` family) carry exact outer-annulus integrals, so box
masses for them bypass the quadrature entirely.  Everything else is
integrated by midpoint sums over quadrature cells that are aligned with
the plain dyadic grid; boxes of the shifted grid are handled by exact
fractional overlap of the boundary cells.  The reverse-doubling and
doubling testers read their ratios off one :class:`BoxMasses` value, the
box masses of both grids from one pass of the cell masses
(:func:`box_masses`); reverse doubling also reads the box over every
dyadic-length arc from each finest angle (:meth:`BoxMasses.windows`).
Every box tester takes its supremum with one :func:`sweep`.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property

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
    grid, piecewise constant by nearest node, a tie going to the lower one).
    Quadrature readers go stratum by stratum through :meth:`density_rows`,
    which :meth:`cell_density` and :meth:`mass_rows` share.  A grid keeps
    the :func:`_node_runs` of each stratum angle count it has read, so its
    rows are one gather of node rows and one ``np.repeat``.
    """

    kind: str
    a: float = 0.0
    factors: tuple = ()
    grid_r: np.ndarray | None = field(default=None, repr=False)
    grid_theta: np.ndarray | None = field(default=None, repr=False)
    grid_values: np.ndarray | None = field(default=None, repr=False)
    spec: str = ""
    # A grid's angle count -> its angles' runs on grid_theta (_node_runs).
    _runs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def lebesgue() -> "Weight":
        return Weight(kind="radial-power", a=0.0, spec="lebesgue")

    @staticmethod
    def radial_power(a: float) -> "Weight":
        return Weight(kind="radial-power", a=float(a), spec=f"radial-power:{a}")

    @staticmethod
    def product(w1: "Weight", w2: "Weight") -> "Weight":
        spec = f"product:{w1.spec},{w2.spec}"
        if w1.kind == "radial-power" and w2.kind == "radial-power":
            return Weight(kind="radial-power", a=w1.a + w2.a, spec=spec)
        return Weight(kind="product", factors=(w1, w2), spec=spec)

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
        if self.kind == "grid":  # the value at the nearest node in radius and in angle
            i = _nearest_node(self.grid_r, np.abs(z))
            k = _nearest_node(self.grid_theta, np.mod(np.angle(z), TAU))
            return self.grid_values[i, k]
        r = np.abs(z)
        if self.kind == "radial-power":
            if self.a == 0.0:
                return np.ones_like(r)
            return np.power(np.maximum(1.0 - r, 0.0), self.a)
        w1, w2 = self.factors
        return w1.density(z) * w2.density(z)

    def density_rows(self, s: "Stratum") -> np.ndarray:
        """The density on stratum ``s``'s ``(sublayers, count)`` rows: for a
        grid, at the node nearest each exact sublayer radius and angle (each
        node's value repeated over its run of angles), else :meth:`density`
        at the centers, the bits of ``DiskQuadrature.z``."""
        if self.kind == "grid":
            runs = self._runs.get(s.count)
            if runs is None:
                runs = self._runs[s.count] = _node_runs(self.grid_theta, s.angles)
            return np.repeat(self.grid_values[_nearest_node(self.grid_r, s.radii)], runs, axis=1)
        if self.kind == "product":
            w1, w2 = self.factors
            return w1.density_rows(s) * w2.density_rows(s)
        if self.a == 0.0:  # Lebesgue needs no centers
            return np.ones((s.edges.size - 1, s.count))
        return self.density(s.radii[:, None] * np.exp(1j * s.angles))

    def cell_density(self, quad: "DiskQuadrature") -> np.ndarray:
        """The density at every cell center of ``quad`` (:meth:`density_rows`)."""
        return _fill(quad.strata, float, self.density_rows)

    def mass_rows(self, quad: "DiskQuadrature") -> list[np.ndarray]:
        """:func:`row_sums` of ``cell_density(quad) * quad.area``, one stratum at a time."""
        return [(self.density_rows(s) * s.rows(quad.area)).sum(axis=0) for s in quad.strata]

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


def _nearest_node(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the node nearest each ``x``; a tie goes to the lower node."""
    i = np.minimum(np.searchsorted(nodes, x), nodes.size - 1)
    i_lo = np.maximum(i - 1, 0)
    return np.where(np.abs(nodes[i_lo] - x) <= np.abs(nodes[i] - x), i_lo, i)


def _node_runs(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.bincount(_nearest_node(nodes, x), minlength=nodes.size)`` for
    ascending ``x``, from one search of the node midpoints.

    ``x`` goes to a node at most ``j`` exactly when ``fl(x - nodes[j]) <=
    fl(nodes[j + 1] - x)`` (the tie rule of :func:`_nearest_node`), which
    holds up to some index of ``x`` and fails after it.  The midpoint
    search finds that index up to the rounding of the comparison, and one
    step mends it when the ``x`` are spaced more than a few ulps apart, as
    stratum angles are.
    """
    a, b = nodes[:-1], nodes[1:]
    c = np.searchsorted(x, 0.5 * (a + b), side="right")
    lo, hi = x[np.maximum(c - 1, 0)], x[np.minimum(c, x.size - 1)]
    c += (c < x.size) & (hi - a <= b - hi)
    c -= (c > 0) & (lo - a > b - lo)
    return np.diff(c, prepend=0, append=x.size)


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
        return Weight.lebesgue() if w.a == 0.0 else Weight.radial_power(w.a * exponent)
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

    @property
    def radii(self) -> np.ndarray:
        """Each sublayer's midpoint radius: the radius of its cells."""
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def angles(self) -> np.ndarray:
        """Each angle's midpoint, shared by every sublayer."""
        return (np.arange(self.count) + 0.5) * (TAU / self.count)

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

    Only ``area`` is stored per cell.  The cell centers ``z``, their
    radii ``r`` and angles ``theta``, and each cell's ``stratum`` level are
    built from each stratum's ``radii`` and ``angles`` on first read and
    kept; whole-stratum readers take those two rows instead.
    """

    depth: int
    angular_base: int
    strata: tuple[Stratum, ...]
    area: np.ndarray = field(repr=False)

    r = cached_property(lambda self: _fill(self.strata, float, lambda s: s.radii[:, None]))
    theta = cached_property(lambda self: _fill(self.strata, float, lambda s: s.angles))
    # One complex exp row per stratum: the bits of ``r * exp(1j * theta)``.
    z = cached_property(lambda self: _fill(
        self.strata, complex, lambda s: s.radii[:, None] * np.exp(1j * s.angles)
    ))
    stratum = cached_property(lambda self: _fill(self.strata, np.int64, lambda s: s.level))

    @property
    def n_cells(self) -> int:
        return self.area.size

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
            k = np.clip(np.searchsorted(s.edges, f.radii, side="right") - 1, 0, s.edges.size - 2)
            m = np.minimum((f.angles / TAU * s.count).astype(np.int64), s.count - 1)
            f.rows(out)[:] = s.start + k[:, None] * s.count + m[None, :]
        return out


def build_quadrature(
    depth: int, angular_base: int = 16, radial_refine: int | None = None
) -> DiskQuadrature:
    """Build the dyadic-aligned polar quadrature of the unit disk.

    ``radial_refine`` caps how many radial sublayers a stratum receives
    (default ``2**ceil(depth/2)``, which makes midpoint moment errors
    shrink by about 16x for every two extra levels of depth).  Cell areas
    take one row per stratum, the edges squared by ``np.float_power``
    (libm ``pow``, as Python's ``**`` on floats).
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

    area = _fill(strata, float, lambda s: (np.diff(np.float_power(s.edges, 2.0)) / s.count)[:, None])
    return DiskQuadrature(depth, angular_base, tuple(strata), area)


def _fill(strata, dtype, row) -> np.ndarray:
    """The cell array whose rows on each stratum ``s`` are ``row(s)``."""
    out = np.empty(strata[-1].cells.stop, dtype=dtype)
    for s in strata:
        s.rows(out)[:] = row(s)
    return out


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


def row_sums(quad: DiskQuadrature, values: np.ndarray) -> list[np.ndarray]:
    """Each stratum's cells of ``values`` summed over its sublayers (which share angles)."""
    return [s.rows(values).sum(axis=0) for s in quad.strata]


def box_level_sums(
    quad: DiskQuadrature, rows: list[np.ndarray], grid: float, depth: int
) -> list[np.ndarray]:
    """Per-level sums of cell values over all grid boxes up to ``depth``,
    from their ``rows``, one per stratum of ``quad`` (:func:`row_sums`).

    Returns ``sums[j][m] = sum over cells in the level-j, position-m box``,
    a shifted-grid boundary cell counted by its covered angle.  A
    level-``j`` window spans ``count >> j`` cells from
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

    def window_sums(row: np.ndarray, j: int) -> np.ndarray:
        shift = (grid % 1.0) * row.size
        whole = math.floor(shift)
        windows = np.concatenate((row[whole:], row[:whole])).reshape(-1, row.size >> j)
        sums = windows.sum(axis=1)
        if shift > whole:
            first = windows[:, 0]
            sums += (shift - whole) * (np.append(first[1:], first[0]) - first)
        return sums

    sums: list[np.ndarray | None] = [None] * (depth + 1)
    sums[depth] = sum(window_sums(row, depth) for row in rows[depth:])
    for j in range(depth - 1, -1, -1):
        child = sums[j + 1]
        sums[j] = window_sums(rows[j], j) + child[0::2] + child[1::2]
    return sums  # type: ignore[return-value]


def cell_trees(rows: list[np.ndarray], depth: int, quad: DiskQuadrature) -> dict:
    """The box sums on both grids up to ``depth`` of the cells whose stratum
    ``rows`` (:func:`row_sums`) both read: each grid's per-level arrays."""
    return {grid: box_level_sums(quad, rows, grid, depth) for grid in GRIDS}


@dataclass(frozen=True, eq=False)  # equal only to itself: its trees hold arrays
class BoxMasses:
    """The box masses of ``weight`` that the box testers read
    (:func:`box_masses`): ``trees``, each grid's per-level arrays up to
    :attr:`depth`, and the stratum ``rows`` of its cell masses over
    ``quad`` they were summed from, ``None`` for a radial-power weight,
    whose trees are closed form."""

    weight: Weight
    quad: DiskQuadrature | None
    trees: dict = field(repr=False)
    rows: list[np.ndarray] | None = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.trees[GRID_PLAIN]) - 1

    def windows(self, depth: int):
        """Masses of the box, and its top half, above every arc of length
        ``2**-j`` that starts a whole number of finest angles past either
        grid: yields ``(grid, j, full, top)`` for each grid and ``j`` from
        ``depth`` down to 1, entry ``k`` for the arc from ``grid + k / n``
        turns (``n`` the finest stratum's angle count), so every grid box is
        among them.  A radial-power weight is rotation invariant: one
        closed-form mass a level.

        Any other weight sums its cell masses over ``quad``: each stratum's
        row is split evenly onto the ``n`` angles, exactly as ``n / count``
        is a power of two, and added to the finer strata's, so row ``j``
        spans a level-``j`` box's radii and row ``j + 1`` its top half's
        (none at the quadrature depth).  Off the plain grid an angle takes
        the covered fractions of the two it straddles.  Windows of
        ``n >> j`` angles are built by doubling; as no term is a
        difference, a tiny window keeps its digits.
        """
        if self.rows is None:
            mass = self.weight.outer_radial_mass
            for grid in GRIDS:
                for j in range(depth, 0, -1):
                    yield grid, j, *(np.array([2.0**-j * mass(2.0**-i)]) for i in (j, j + 1))
            return
        quad, n = self.quad, self.quad.strata[-1].count
        spread = np.zeros((quad.depth + 2, n))
        for s in reversed(quad.strata):
            split = n // s.count
            spread[s.level] = spread[s.level + 1] + np.repeat(self.rows[s.level] / split, split)
        for grid in GRIDS:
            shift = grid * n
            whole = math.floor(shift)
            sums = np.roll(spread, -whole, axis=1)
            if shift > whole:
                sums = (1.0 - (shift - whole)) * sums + (shift - whole) * np.roll(sums, -1, axis=1)
            for j in range(n.bit_length() - 1, 0, -1):  # windows of n >> j angles
                if j <= depth:
                    yield grid, j, sums[j], sums[j + 1]
                sums = sums[: j + 1] + np.roll(sums[: j + 1], -(n >> j), axis=1)


def box_masses(w: Weight, depth: int, quad: DiskQuadrature | None = None) -> BoxMasses:
    """The :class:`BoxMasses` of the weight on both grids up to ``depth``
    capped by ``quad``'s.

    A radial-power weight takes the closed form, one list for both grids;
    no quadrature bounds its depth, so the cell cap does.  Any other weight
    sums its cell masses over ``quad`` (:func:`cell_trees`) from one pass
    of :meth:`Weight.mass_rows`."""
    if not w.finite:
        raise InfiniteMassError(f"weight {w.spec!r} has infinite mass")
    if quad is not None:
        depth = min(depth, quad.depth)
    if w.is_radial_power:
        if 2**depth > cell_cap():
            raise MemoryGuardError(
                f"box depth {depth} needs 2**{depth} boxes, above the cap {cell_cap()} "
                f"(set {MAX_CELLS_ENV} to raise it)"
            )
        levels = [np.full(2**j, 2.0**-j * w.outer_radial_mass(2.0**-j)) for j in range(depth + 1)]
        return BoxMasses(w, quad, dict.fromkeys(GRIDS, levels), None)
    if quad is None:
        raise ValueError("box masses of a sampled weight need a quadrature")
    rows = w.mass_rows(quad)
    return BoxMasses(w, quad, cell_trees(rows, depth, quad), rows)


def box_mass(w: Weight, box: CarlesonBox, quad: DiskQuadrature | None = None) -> float:
    """Mass of one box under a weight.

    A radial-power weight takes the exact closed form (the angular factor
    is the arc length).  Any other weight sums its cell masses over
    ``quad``, each weighted by the fraction of its ``r**2`` above the box's
    inner radius and of its angle inside the arc: every term is
    nonnegative, so a tiny box keeps its digits.
    """
    length = box.arc.length
    if w.is_radial_power:
        return length * w.outer_radial_mass(length if box.kind == "full" else length / 2.0)
    if quad is None:
        raise ValueError("box masses of a sampled weight need a quadrature")
    if length < 2.0**-quad.depth * (1.0 - 1e-12):
        raise ResolutionError(
            f"box of arc length {length} is finer than quadrature depth {quad.depth}"
        )
    values, r_in_sq, total = w.cell_density(quad) * quad.area, box.inner_radius**2, 0.0
    for s in quad.strata:
        sq, k = s.edges**2, np.arange(s.count)
        radial = np.clip((sq[1:] - r_in_sq) / np.diff(sq), 0.0, 1.0)
        a = box.arc.start_turn * s.count
        b = a + length * s.count
        # Each angle's covered fraction; the arc wraps at most once.
        cover = sum(
            np.clip(np.minimum(k + 1, b - c) - np.maximum(k, a - c), 0, 1) for c in (0, s.count)
        )
        total += radial @ s.rows(values) @ cover
    return float(total)


# ---------------------------------------------------------------------------
# Box sweeps: doubling and reverse doubling
# ---------------------------------------------------------------------------


def positive(masses: np.ndarray, what: str, grid: float, j: int) -> np.ndarray:
    """``masses``, once every one is positive; a zero-mass ``what`` (a
    ``"box"`` or a ``"window"``) raises :class:`DegenerateWeightError`."""
    if np.any(masses <= 0.0):
        raise DegenerateWeightError(f"zero-mass {what} at grid {grid}, level {j}")
    return masses


def sweep(boxes, windows=()) -> tuple[float, DyadicIndex | Arc | None, int]:
    """The largest value of the ``(grid, j, values)`` arrays of ``boxes``,
    entry ``k`` at ``DyadicIndex(grid, j, k)``, then of ``windows``, entry
    ``k`` at the arc of length ``2**-j`` from ``grid + k / values.size``
    turns (:meth:`BoxMasses.windows`): ``(best, worst, windows_swept)``.
    A later array replaces the best only when strictly larger, so a tie
    keeps the first; ``(-inf, None, 0)`` when nothing is swept.
    """
    best, worst, swept = -math.inf, None, 0
    for grid, j, values in boxes:
        k = int(np.argmax(values))
        if values[k] > best:
            best, worst = float(values[k]), DyadicIndex(grid, j, k)
    for grid, j, values in windows:
        k = int(np.argmax(values))
        swept += values.size
        if values[k] > best:
            best, worst = float(values[k]), Arc(0.0, 2.0**-j, start_turn=grid + k / values.size)
    return best, worst, swept


@dataclass(frozen=True)
class ReverseDoublingReport:
    delta_hat: float | None  # None when no arc was swept (depth 0)
    worst_arc: Arc | None
    verdict: bool | None
    margin: float
    depth: int  # the finest level swept, after the quadrature cap
    window_arcs: int  # windows swept besides the grid boxes


def reverse_doubling_report(m: BoxMasses) -> ReverseDoublingReport:
    """Largest ratio mass(top half) / mass(box) over the arcs of dyadic length.

    One :func:`sweep` of every dyadic arc of both grids up to ``m.depth``
    (the whole circle, level 0 of both, once), then of the windows at
    levels 1 to ``m.depth - 1`` (:meth:`BoxMasses.windows`); a radial-power
    weight is rotation invariant, so its boxes hold every window.  The
    weight is reverse doubling when the ratio stays below
    ``1 - REVERSE_DOUBLING_MARGIN``; at depth 0 nothing is swept, and the
    ratio, its arc and the verdict are ``None``.
    """
    t = m.trees
    # Level 0 is the whole circle on both grids: sweep it once.
    boxes = ((g, j, (t[g][j + 1][0::2] + t[g][j + 1][1::2]) / positive(t[g][j], "box", g, j))
             for g in GRIDS for j in range(0 if g == GRID_PLAIN else 1, m.depth))
    windows = () if m.rows is None else (
        (g, j, top / positive(full, "window", g, j)) for g, j, full, top in m.windows(m.depth - 1)
    )
    delta, worst, swept = sweep(boxes, windows)
    if worst is None:
        return ReverseDoublingReport(None, None, None, REVERSE_DOUBLING_MARGIN, m.depth, swept)
    worst = worst.arc if isinstance(worst, DyadicIndex) else worst
    verdict = bool(delta < 1.0 - REVERSE_DOUBLING_MARGIN)
    return ReverseDoublingReport(delta, worst, verdict, REVERSE_DOUBLING_MARGIN, m.depth, swept)


@dataclass(frozen=True)
class DoublingReport:
    c_hat: float | None  # None when no level was swept (depth below 2)
    worst: DyadicIndex | None
    verdict: bool | None
    depth: int  # the finest level swept, after the quadrature cap


def doubling_report(m: BoxMasses) -> DoublingReport:
    """Largest ratio of the mass of a box and its two same-level neighbours
    to the mass of the box itself.

    The three boxes lie in the box over the tripled arc, so a doubling
    weight bounds the ratio at every level: this is a necessary condition
    for doubling.  Levels 2 to ``m.depth`` of both grids are swept
    (:func:`sweep`), where an arc is shorter than a third of the circle and
    its neighbours are two other arcs; coarse levels first, so a tie keeps
    the coarser box.  The verdict is false when the supremum sits on the
    finest level swept, where it has not stopped growing; below depth 2
    nothing is swept and it is ``None``.
    """

    def ratios(grid, j):
        q = positive(m.trees[grid][j], "box", grid, j)
        # 1 + (left + right) / q reads 3 exactly on equal masses.
        return 1.0 + (np.roll(q, 1) + np.roll(q, -1)) / q

    best, worst, _ = sweep((g, j, ratios(g, j)) for j in range(2, m.depth + 1) for g in GRIDS)
    if worst is None:
        return DoublingReport(None, None, None, m.depth)
    return DoublingReport(best, worst, worst.level < m.depth, m.depth)
