"""Dyadic model operators, tree mappings, and two-weight testing.

The model operator of order ``alpha`` on a grid replaces the kernel
``|1 - z conj(w)|**-alpha`` by a sum over grid boxes of
``area(Q)**(-alpha/2)`` times the box integral of the input; summed over
the two shifted grids it dominates the continuous operator pointwise on
nonnegative functions.  It counts a quadrature cell in a box when the box
contains the cell's center, on both grids, so its matrix is symmetric.
Tree mappings send a function to its weighted box averages; their strong
and weak norms against the box-mass measure ``mass(Q)**t`` are what the
embedding results control.  A tree is the shape the box testers read
(``BoxMasses.trees``): a dict from each grid to its per-level arrays,
``tree[grid][j][m]`` at the level-j, position-m box.  The embedding
constant and both tree norms read two such trees, the box masses of a
weight and the averages of ``f`` against it, both summed from one row per
stratum.  Box masses and averages are integrals: they count a shifted-grid
boundary cell by its covered fraction (:func:`box_level_sums`).  The
two-weight testing constant reads the :class:`BoxMasses` of ``nu`` and of
the dual weight; it and the embedding constant take their suprema with the
box testers' one :func:`sweep`.  The two-weight norm check measures the
``L^p(mu) -> L^q(nu)`` norms of the kernel and model operators, for every
``(p, q)``, with one power method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfiniteMassError, ResolutionError
from .geometry import (
    GRIDS,
    TAU,
    Arc,
    DyadicIndex,
    bridge_box_batch,
    full_box_area,
    random_disk_points,
)
from .measures import (
    BoxMasses,
    DiskQuadrature,
    SampledFunction,
    Weight,
    box_masses,
    build_quadrature,
    dual_weight,
    positive,
    sweep,
)
from .operators import (
    KernelSpec,
    NormEstimate,
    cell_kernel_apply,
    power_norm,
    quadrature_apply,
)


@dataclass(frozen=True)
class ExponentConfig:
    """Exponent bundle ``(p, q, alpha)`` with the derived quantities."""

    p: float
    q: float
    alpha: float

    def __post_init__(self) -> None:
        if not (1.0 < self.p <= self.q < math.inf):
            raise ConfigError(f"need 1 < p <= q < inf, got p={self.p}, q={self.q}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def t(self) -> float:
        return self.q / self.p


def dyadic_plan(grid: float, alpha: float, quad: DiskQuadrature, depth: int):
    """Plan the dyadic model operator of order ``alpha`` on one grid.

    A cell counts in the boxes that contain its center: the boxes over
    its angle at every level up to its stratum, capped at ``depth``.  Its
    deepest box is its index in a flat heap (level ``j``, position ``m``
    at ``2**j - 1 + m``).  The plan computes that index and the level
    factors ``area(Q)**(-alpha/2)`` once, raising :class:`ResolutionError`
    if ``depth`` exceeds the quadrature's, and returns ``values -> values
    at the cells``: ``values * area`` is scattered to the index, box
    integrals are added upward by child sums, and the value at a cell is
    the root-to-leaf prefix sum of ``area(Q)**(-alpha/2) * integral(Q)``,
    gathered through the same index.  Scatter and gather share the index,
    so the kernel between cell centers is symmetric.  An apply runs in
    ``O(cells + boxes)`` and leaves its input unchanged.
    """
    if depth > quad.depth:
        raise ResolutionError(f"depth {depth} exceeds quadrature depth {quad.depth}")
    level = np.minimum(quad.stratum, depth)
    turns = _frac(quad.theta / TAU - grid)
    node = 2**level - 1 + np.minimum((turns * 2.0**level).astype(np.int64), 2**level - 1)
    n_boxes = 2 ** (depth + 1) - 1
    factors = [full_box_area(2.0**-j) ** (-alpha / 2.0) for j in range(depth + 1)]

    def apply(values: np.ndarray) -> np.ndarray:
        weights = values * quad.area
        tree = np.bincount(node, np.real(weights), n_boxes).astype(weights.dtype)
        if np.iscomplexobj(weights):
            tree.imag = np.bincount(node, np.imag(weights), n_boxes)
        levels = [tree[2**j - 1 : 2 ** (j + 1) - 1] for j in range(depth + 1)]  # views
        for j in range(depth - 1, -1, -1):
            levels[j] += levels[j + 1][0::2] + levels[j + 1][1::2]
        for j in range(depth + 1):
            levels[j] *= factors[j]
            if j > 0:
                levels[j] += np.repeat(levels[j - 1], 2)
        return tree[node]

    return apply


def dyadic_apply(
    grid: float,
    alpha: float,
    f: SampledFunction,
    quad: DiskQuadrature,
    depth: int,
) -> SampledFunction:
    """Apply the dyadic model operator of order ``alpha`` on one grid once,
    through a fresh :func:`dyadic_plan`."""
    return SampledFunction(quad, dyadic_plan(grid, alpha, quad, depth)(f.values))


def dense_abs_apply(
    alpha: float, f: SampledFunction, quad: DiskQuadrature, eval_points=None
) -> np.ndarray:
    """``integral of f(w) / |1 - z conj(w)|**alpha`` by quadrature."""

    def kernel(z, w):
        return np.abs(1.0 - z * np.conj(w)) ** (-alpha)

    return quadrature_apply(kernel, np.real(f.values), quad, eval_points, 512)


@dataclass(frozen=True)
class DominationReport:
    c_hat: float
    failures: int
    pairs: int
    alpha: float
    depth: int


def domination_check(
    alpha: float,
    sample_pairs: int = 10_000,
    depth: int = 24,
    seed: int = 20260810,
    extra_z=None,
    extra_w=None,
) -> DominationReport:
    """Smallest constant witnessing the kernel bound over sampled pairs.

    For each pair a common box ``Q_L`` at level <= ``depth`` is produced by
    the bridging construction, and the report returns the largest value of
    ``area(Q_L)**(alpha/2) / |1 - z conj(w)|**alpha`` seen.  ``extra_z`` /
    ``extra_w`` append deterministic pairs (used to cover the node grids of
    the pointwise checks).  Failures count pairs with no covering box at an
    admissible level; the bridging construction makes that impossible by
    design, so the count should always be zero.
    """
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    rng = np.random.default_rng(seed)
    z = random_disk_points(rng, sample_pairs)
    w = random_disk_points(rng, sample_pairs)
    if extra_z is not None:
        z = np.concatenate([z, np.asarray(extra_z, dtype=complex).ravel()])
        w = np.concatenate([w, np.asarray(extra_w, dtype=complex).ravel()])
    _, levels, _, ratio = bridge_box_batch(
        z, w, max_depth=depth, min_length=2.0**-depth
    )
    failures = int(np.sum(levels > depth))
    c_hat = float(np.max(ratio**alpha))
    return DominationReport(
        c_hat=c_hat, failures=failures, pairs=z.size, alpha=alpha, depth=depth
    )


# ---------------------------------------------------------------------------
# Tree mappings
# ---------------------------------------------------------------------------


_WEAK_BINS = 4096  # value bins of weak_type_norm


def tree_averages(integrals: dict, masses: dict) -> dict:
    """Weighted box averages of ``f`` on the grids of ``masses``.

    ``integrals`` holds the integrals of ``f`` against a weight over every
    box (:func:`cell_trees` of the stratum rows of ``f`` times the cell
    masses) and ``masses`` the box masses of the same weight.  Each
    integral is divided in place, so ``avgs[grid][j][m]``, the returned
    tree, is the average over the level-j, position-m box, and a constant
    function averages to exactly 1; no tree is allocated.
    """
    for grid, levels in masses.items():
        for j, mass_j in enumerate(levels):
            integrals[grid][j] /= positive(mass_j, "box", grid, j)
    return {grid: integrals[grid] for grid in masses}


@dataclass(frozen=True)
class EmbeddingReport:
    c1_hat: float
    worst_box: DyadicIndex
    t: float
    depth: int
    tail_estimate: float


def carleson_embedding_constant(
    w: Weight, t: float, masses: dict, k_max_level: int | None = None
) -> EmbeddingReport:
    """Largest ratio ``sum over boxes inside Q_K of mass**t / mass(Q_K)**t``.

    ``masses`` holds the box masses of ``w`` on each grid swept, keyed by
    grid (``box_masses(...).trees`` or :func:`cell_trees`).  Box sums run
    over their levels, up to ``depth``; outer boxes ``Q_K`` run over
    levels up to ``k_max_level`` (default ``depth // 2``), in one
    :func:`sweep`.  A geometric tail estimate for the truncated inner sum
    is reported alongside.
    """
    if t < 1.0:
        raise ConfigError(f"t must be >= 1, got {t}")
    if not w.finite:
        raise InfiniteMassError(f"weight {w.spec!r} has infinite mass")
    depth = len(next(iter(masses.values()))) - 1
    k_cap = depth // 2 if k_max_level is None else k_max_level

    tails = [0.0]

    def ratios():
        for grid, levels in masses.items():
            powered = [positive(m, "box", grid, j) ** t for j, m in enumerate(levels)]
            # Bottom-up: subtree sums of mass**t.
            subtree = [None] * (depth + 1)
            subtree[depth] = powered[depth].copy()
            for j in range(depth - 1, -1, -1):
                subtree[j] = powered[j] + subtree[j + 1][0::2] + subtree[j + 1][1::2]
            for k in range(min(k_cap, depth) + 1):
                yield grid, k, subtree[k] / powered[k]
            last_term = float(np.sum(powered[depth]) / powered[0][0])
            prev = float(np.sum(powered[depth - 1]) / powered[0][0]) if depth >= 1 else 0.0
            ratio_step = last_term / prev if prev > 0 else 0.0
            # Geometric tail: if per-level totals decay by factor rho, the
            # missing levels contribute about last * rho / (1 - rho).
            rho = min(ratio_step, 0.99)
            tails.append(last_term * rho / (1.0 - rho) if rho < 1.0 else math.inf)

    best, worst, _ = sweep(ratios())
    return EmbeddingReport(best, worst or DyadicIndex(GRIDS[0], 0, 0), t, depth, float(max(tails)))


def weak_type_norm(t: float, avgs: dict, masses: dict) -> float:
    """Weak norm of the tree of box averages against ``mass**t``, the
    largest over the grids of ``avgs``.

    ``avgs`` holds the box averages of a nonnegative ``f`` on each grid
    and ``masses`` the box masses they were taken against
    (:func:`tree_averages`); a negative average raises ``ValueError``.
    Computes ``sup over lambda of lambda * (sum of mass(Q)**t over boxes
    with average > lambda)**(1/t)``, the left limit at each attained
    average, 0 when none is positive.  Average ``a`` falls in bin
    ``b = floor(a / width)``, ``width = top / 4096`` for the largest
    average ``top``; ``above[b]`` sums ``mass**t`` over bins ``b`` and up.
    No box of bin ``b`` is worth more than ``(b + 1) width above[b]**(1/t)``,
    and the least average at or above bin ``b`` at least ``b width
    above[b]**(1/t)``.  Only bins whose bound reaches the largest such
    floor, less ``1e-9`` relative, are sorted (a few hundred of 131,071
    boxes at depth 16); a box's level set is ``above[b + 1]`` plus its
    running sum in bin ``b``.  The slack covers rounding: a bound and its
    bin's values add the same masses in two orders, at most ``2k`` ulps
    apart for ``k`` boxes.  Summed by bin, the figure may differ in its
    last bits from one sorted running sum.
    """
    results = [0.0]
    buf = np.empty(max(a.size for levels in avgs.values() for a in levels), np.intp)
    for grid, levels in avgs.items():
        levels = [np.real(a) for a in levels]
        if min(np.min(a) for a in levels) < 0:
            raise ValueError("weak-type norm expects nonnegative averages")
        width = max(np.max(a) for a in levels) / _WEAK_BINS
        if width == 0:
            continue

        def bins(a):  # into one buffer for every level and grid
            return np.divide(a, width, out=buf[: a.size], casting="unsafe")

        powered = [m if t == 1.0 else m**t for m in masses[grid]]  # t = 1 reads m: no fresh pages
        hist = sum(np.bincount(bins(a), w, _WEAK_BINS + 1) for a, w in zip(levels, powered))
        above = np.append(np.cumsum(hist[::-1])[::-1], 0.0)
        edges = np.arange(_WEAK_BINS + 2) * width
        root = above[:-1] ** (1.0 / t)
        keep = edges[1:] * root >= np.max(edges[:-1] * root) * (1.0 - 1e-9)
        picked = []
        for a, w in zip(levels, powered):
            b = bins(a)
            k = np.flatnonzero(keep[b] & (a > 0))
            picked.append((a[k], w[k], b[k]))
        a, w, b = (np.concatenate(x) for x in zip(*picked))
        order = np.argsort(-a)
        a, b, run = a[order], b[order], np.cumsum(w[order])
        # A bin's boxes are contiguous in ``order``: subtract the run before it.
        level = above[b + 1] + (run - np.append(0.0, run)[np.searchsorted(-b, -b)])
        results.append(float(np.max(a * level ** (1.0 / t), initial=0.0)))
    return max(results)


def strong_embedding_check(cfg: ExponentConfig, f_power: float, avgs: dict, masses: dict) -> float:
    """Ratio of the tree norm to the weighted input norm, the largest over
    the grids of ``avgs``.

    ``avgs`` holds the box averages of a nonnegative ``f`` on each grid
    and ``masses`` the box masses of the weight they were taken against;
    ``f_power`` is the integral of ``f**p`` against that weight.  Left
    side: ``(sum over boxes of mass**t * average**q)**(1/q)``, summed level
    by level; right side: ``f_power**(1/p)``.  Returns 0 for an
    identically zero input; a negative average raises ``ValueError``.
    """
    right = float(f_power) ** (1.0 / cfg.p)
    if right == 0.0:
        return 0.0
    ratios = []
    for grid, levels in avgs.items():
        e = [np.real(a) for a in levels]
        if min(np.min(a) for a in e) < 0:
            raise ValueError("strong embedding check expects nonnegative averages")
        left = sum(float(np.sum(m**cfg.t * a**cfg.q)) for a, m in zip(e, masses[grid]))
        ratios.append(left ** (1.0 / cfg.q) / right)
    return max(ratios)


# ---------------------------------------------------------------------------
# Two-weight testing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestingConstantReport:
    sup_value: float
    worst_box: DyadicIndex | Arc
    dual_spec: str
    verdict: bool
    depth: int  # the finest level swept, after the quadrature cap
    window_arcs: int  # windows swept besides the grid boxes


def two_weight_testing_constant(
    m: BoxMasses, mu: Weight, cfg: ExponentConfig
) -> TestingConstantReport:
    """Supremum of ``mass_nu(Q)**(1/q) mass_dual(Q)**(1/p') / area(Q)**(alpha/2)``.

    ``m`` holds the box masses of ``nu``, and the dual weight of ``mu``,
    which must have finite mass, takes its :func:`box_masses` at
    ``m.depth`` on ``m.quad``.  One :func:`sweep` reads both grids up to
    that depth, then, unless both weights are radial, the windows of
    :meth:`BoxMasses.windows` at levels 1 to it.  The verdict is false when
    the supremum sits on an arc of the finest length swept, where it has
    not stopped growing.
    """
    dual = dual_weight(mu, cfg.p)
    if not dual.finite:
        raise InfiniteMassError(
            f"dual weight {dual.spec!r} has infinite mass; the testing constant "
            "is undefined"
        )
    du = box_masses(dual, m.depth, m.quad)

    def quantity(m_nu, m_du, j):
        area = full_box_area(2.0**-j)
        return m_nu ** (1.0 / cfg.q) * m_du ** (1.0 / cfg.p_prime) / area ** (cfg.alpha / 2.0)

    boxes = ((g, j, quantity(m.trees[g][j], du.trees[g][j], j))
             for g in GRIDS for j in range(m.depth + 1))
    windows = () if m.rows is None and du.rows is None else (
        (grid, j, quantity(m_nu, m_du, j))
        for (grid, j, m_nu, _), (_, _, m_du, _) in zip(m.windows(m.depth), du.windows(m.depth))
    )
    best, worst, swept = sweep(boxes, windows)
    verdict = math.isfinite(best) and worst.length != 2.0**-m.depth
    return TestingConstantReport(best, worst, dual.spec, verdict, m.depth, swept)


@dataclass(frozen=True)
class NormCheckLevel:
    depth: int
    cells: int
    # Keyed by operator, "dense" or a grid: the power-method solve behind
    # each norm, and how it started: "seeded" from the generator, "fixed"
    # (:func:`fixed_start`), or "prolonged" from the previous depth's
    # final iterate.
    solves: dict
    starts: dict


def norm_check_key(op, depth: int) -> str:
    """The report key of operator ``op`` (``"dense"`` or a grid) at ``depth``."""
    return f"dense_depth_{depth}" if op == "dense" else f"dyadic_{op:.4f}_depth_{depth}"


@dataclass(frozen=True)
class NormCheckReport:
    levels: tuple[NormCheckLevel, ...]
    stabilized: bool | None  # None for p < q (a local maximum may stop the ascent) or one depth

    def keyed(self) -> dict:
        """Every solve and how it started, as ``(solve, start)`` under its
        :func:`norm_check_key`."""
        return {
            norm_check_key(op, lv.depth): (est, lv.starts[op])
            for lv in self.levels
            for op, est in lv.solves.items()
        }

    def solver_status(self) -> dict:
        """Iterations and convergence of every solve."""
        return {
            key: {"iterations": est.iterations, "converged": est.converged}
            for key, (est, _) in self.keyed().items()
        }


# Power-method settings of the norm check.
_NORM_SOLVE = {"tol": 1e-6, "max_iter": 500, "seed": 314159}
#: Relative agreement of the last two refinements behind a "stabilized" verdict.
STABILIZE_RTOL = 0.05


def refinement_verdict(figures: list[float]) -> bool | None:
    """Whether the last two ``figures``, one per distinct depth in order,
    agree within ``STABILIZE_RTOL``; ``None`` below two depths."""
    if len(figures) < 2:
        return None
    a, b = figures[-2:]
    return bool(abs(a - b) <= STABILIZE_RTOL * max(abs(b), 1e-300))


def _frac(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``v - floor(v)``: the bits of ``np.mod(v, 1.0)`` for every finite
    ``v``, negatives included (both round the exact fraction once), at a
    fraction of its cost."""
    return np.subtract(v, np.floor(v), out=out)


def fixed_values(cells: slice, seed: int = 0) -> np.ndarray:
    """``frac(k**2 (sqrt 2 - 1) + frac(seed phi))``, ``phi`` the golden ratio,
    for ``k = i + 1`` at each cell index ``i`` of ``cells``, built in place
    with the exact :func:`_frac`: no random number is drawn.  Below
    2,000,000 cells ``k**2`` is exact and the sum keeps at least 12
    fraction bits."""
    v = np.arange(cells.start + 1.0, cells.stop + 1.0)
    v *= v
    v *= math.sqrt(2.0) - 1.0
    v += seed * ((1.0 + math.sqrt(5.0)) / 2.0) % 1.0
    return _frac(v, out=v)


def fixed_start(n: int) -> np.ndarray:
    """The norm check's start on ``C^n`` at ``p = q``, the same on every call.

    Entry ``k = 1..n`` is ``frac(k phi) - 1/2 + i (frac(k**2 (sqrt 2 - 1)) - 1/2)``
    with ``phi`` the golden ratio: nonzero everywhere, and neither constant
    nor one angular Fourier mode, which would stay in the invariant
    subspace of a radial problem and could miss its top singular vector.
    It draws no random numbers; the imaginary part is :func:`fixed_values`.
    """
    k = np.arange(1.0, n + 1.0)
    return _frac(k * ((1.0 + math.sqrt(5.0)) / 2.0)) - 0.5 + 1j * (
        fixed_values(slice(0, n)) - 0.5
    )


def _prolongation(coarse: DiskQuadrature, coarse_root, fine: DiskQuadrature, fine_root):
    """Map a final iterate on ``coarse`` to a start on ``fine`` and its label.

    An iterate ``v`` unit in ``l^p`` stands for the function
    ``v / (mu area)**(1/p)``, unit in ``L^p(mu)``; its value is copied to
    every cell whose center the coarse cell holds and weighted back by the
    fine ``(mu area)**(1/p)`` (``*_root``), zero where mu is: the start
    ``(v, "prolonged")``.  A start that would vanish everywhere is
    ``(fixed_start(n), "fixed")`` instead.
    """
    parent = coarse.parent_index(fine)

    def prolong(est: NormEstimate) -> tuple[np.ndarray, str]:
        f = np.divide(
            est.vector, coarse_root, out=np.zeros(coarse.n_cells, dtype=complex),
            where=coarse_root > 0,
        )
        v = f[parent] * fine_root
        return (v, "prolonged") if np.any(v) else (fixed_start(fine.n_cells), "fixed")

    return prolong


def two_weight_norm_check(
    nu: Weight,
    mu: Weight,
    cfg: ExponentConfig,
    quad_depths: tuple[int, ...] = (6, 8, 10),
) -> NormCheckReport:
    """Measured ``L^p(mu) -> L^q(nu)`` norms of the dense and dyadic
    operators across refinements.

    The kernel ``k_alpha`` is applied exactly between cell centers, one
    pair of radial sublayers at a time (:func:`cell_kernel_apply`), from
    real blocks stored for one of each Hermitian pair of sublayers instead
    of a dense ``n x n`` matrix: at the deepest default depth, 10, the
    closed-form factors at ``alpha = 1`` take 0.49 MiB and the full table
    of any other ``alpha`` 8.25 MiB.  The dyadic model operator of each
    grid, planned once per depth (:func:`dyadic_plan`), acts on the same
    weighted cell values, divided by the cell areas first.  Cell weights ``(nu area)**(1/q)`` on
    the left and ``area / (mu area)**(1/p)`` on the right turn each
    operator into a plain matrix whose ``l^p -> l^q`` norm is the one
    sought, and one loop measures every operator with Boyd's power method
    (:func:`power_norm`).  The kernel is Hermitian and the weights real, so
    the adjoint swaps the two weights; the dyadic model operator counts a
    cell in the boxes containing its center on both grids, so it is its
    own adjoint.  Every figure is a lower bound on the discrete norm, and
    at ``p = q = 2`` the largest singular value.  The distinct depths of
    ``quad_depths`` are measured in order; for ``p = q`` the verdict is the
    :func:`refinement_verdict` of the dense figures, and for ``p < q`` it
    is ``None``, since the ascent may stop at a local maximum there.  At
    ``p = q`` the first depth starts every solve from :func:`fixed_start`,
    and every later depth from the previous depth's final iterate,
    prolonged through :meth:`DiskQuadrature.parent_index` (the function it
    stands for is copied to the finer cells; a prolonged start that
    vanishes falls back to the fixed one); the ascent from there reaches
    the cold solve's figure in two or three steps, and no random number is
    drawn.  At ``p < q`` every solve starts from the seeded draw, since a
    continuation start can settle on a lower local maximum.  Each level's
    ``starts`` names how every solve began.  A weight ``nu`` of infinite
    mass raises :class:`InfiniteMassError` before any quadrature is built.
    """
    if not nu.finite:
        raise InfiniteMassError(f"weight {nu.spec!r} has infinite mass")
    levels = []
    spec = KernelSpec.k_alpha(cfg.alpha)
    solve = {**_NORM_SOLVE, "p": cfg.p, "q": cfg.q}
    warm = cfg.p == cfg.q
    for d in dict.fromkeys(quad_depths):
        quad = build_quadrature(d)
        depth = min(d, quad.depth)
        nu_d = nu.cell_density(quad)
        mu_d = mu.cell_density(quad)
        inv_area = 1.0 / quad.area
        ops = {"dense": cell_kernel_apply(spec, quad)}
        for g in GRIDS:
            ops[g] = lambda x, plan=dyadic_plan(g, cfg.alpha, quad, depth): plan(x * inv_area)
        left = np.power(nu_d * quad.area, 1.0 / cfg.q)
        root = np.power(mu_d * quad.area, 1.0 / cfg.p)
        right = np.divide(quad.area, root, out=np.zeros_like(root), where=mu_d > 0)
        prolong = _prolongation(coarse, coarse_root, quad, root) if warm and levels else None
        solves, starts = {}, {}
        for name, op in ops.items():
            if not warm:
                start, starts[name] = None, "seeded"
            elif prolong:
                start, starts[name] = prolong(levels[-1].solves[name])
            else:
                start, starts[name] = fixed_start(quad.n_cells), "fixed"
            solves[name] = power_norm(
                lambda v: left * op(right * v),
                lambda u: right * op(left * u),
                quad.n_cells,
                **solve,
                start=start,
            )
        levels.append(NormCheckLevel(d, quad.n_cells, solves, starts))
        coarse, coarse_root = quad, root
    dense = [lv.solves["dense"].value for lv in levels]
    return NormCheckReport(tuple(levels), refinement_verdict(dense) if warm else None)
