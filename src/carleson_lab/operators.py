"""Kernels on the disk, their discretizations, and norm estimation.

The two built-in kernel families are the fractional Cauchy kernels
``1 / (1 - z conj(w))**alpha`` and the logarithmic kernel
``log(1 / (1 - z conj(w))) / (z conj(w))`` whose power series is
``sum x**n / (n + 1)``; the latter reproduces the analytic functions with
norm ``sum (n+1) |a_n|^2``.  Operators against a discrete measure are
plain dense matrices.  Three routines serve the whole package:
:func:`power_norm`, the one power method, for every ``l^p -> l^q`` norm
(on callables, so dense matrices and matrix-free operators alike);
:func:`kernel_rows`, the one blocked loop over kernel rows, behind every
quadrature apply at arbitrary points (the dense builds of
:func:`assemble_operator`, :func:`gram_psd_check` and
:func:`factorization_check` evaluate their kernel matrix unblocked); and
:func:`cell_kernel_apply`, the exact kernel apply between quadrature cell
centers, one FFT convolution per pair of radial sublayers, from a real
table that stores one block of each Hermitian pair (8.25 MiB at
quadrature depth 10).  For ``k_alpha`` at ``alpha = 1`` the table is a
closed form, a geometric sum of the aliased Taylor terms; every other
kernel fills it from samples on half the angles, one FFT per pair.
Dense eigensolves stay available as an oracle for small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError
from .geometry import TAU
from .measures import DiskQuadrature, SampledFunction

_SERIES_SWITCH = 0.5
_SERIES_TERMS = 64
_CUSTOM_SERIES_CAP = 10_000


@dataclass(frozen=True)
class KernelSpec:
    """One of the supported positive-definite kernel families."""

    kind: str  # "k_alpha" | "dirichlet" | "custom-series"
    alpha: float = 1.0
    coefficients: tuple = ()

    @staticmethod
    def k_alpha(alpha: float) -> "KernelSpec":
        if alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {alpha}")
        return KernelSpec(kind="k_alpha", alpha=float(alpha))

    @staticmethod
    def dirichlet() -> "KernelSpec":
        return KernelSpec(kind="dirichlet")

    @staticmethod
    def custom_series(coefficients) -> "KernelSpec":
        coeffs = tuple(float(c) for c in coefficients)
        if len(coeffs) > _CUSTOM_SERIES_CAP:
            raise ValueError(f"custom series capped at {_CUSTOM_SERIES_CAP} terms")
        return KernelSpec(kind="custom-series", coefficients=coeffs)


def _dirichlet_values(x: np.ndarray) -> np.ndarray:
    """``sum x**n / (n+1)`` via the series for small ``|x|``, the closed
    form ``log(1/(1-x)) / x`` otherwise; the removable point is 1."""
    x = np.asarray(x, dtype=complex)
    out = np.empty_like(x)
    small = np.abs(x) <= _SERIES_SWITCH
    out[small] = poly_eval(1.0 / np.arange(1.0, _SERIES_TERMS + 1.0), x[small])
    xl = x[~small]
    out[~small] = -np.log(1.0 - xl) / xl
    return out


def eval_kernel(spec: KernelSpec, z, w) -> np.ndarray | complex:
    """Kernel value at points (or arrays of points) strictly inside the disk."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    x = np.asarray(z * np.conj(w))  # a fresh array: k_alpha works in it in place
    if spec.kind == "k_alpha":
        out = np.subtract(1.0, x, out=x)
        if spec.alpha in (1.0, 2.0):
            np.divide(1.0, out, out=out)
            if spec.alpha == 2.0:
                out *= out
        else:
            np.log(out, out=out)
            out *= -spec.alpha
            np.exp(out, out=out)
    elif spec.kind == "dirichlet":
        out = _dirichlet_values(x)
    else:
        out = poly_eval(spec.coefficients, x)
    if out.ndim == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many atoms strictly inside the disk, all with positive mass."""

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=complex).ravel()
        masses = np.asarray(self.masses, dtype=float).ravel()
        if points.size == 0:
            raise ValueError("a discrete measure needs at least one atom")
        if points.size != masses.size:
            raise ValueError("points and masses must have equal length")
        if np.any(masses <= 0):
            raise ValueError("atom masses must be positive")
        if np.any(np.abs(points) >= 1.0):
            raise ValueError("atoms must lie strictly inside the disk")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "masses", masses)

    @property
    def size(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class OperatorMatrix:
    """A kernel sampled on atoms, acting on the mass-weighted space.

    The action is ``(Tf)_i = sum_j A[i, j] f_j mass_j`` and norms are taken
    in ``l^2(mass)``.
    """

    matrix: np.ndarray
    masses: np.ndarray

    @property
    def size(self) -> int:
        return self.masses.size

    def weighted(self) -> np.ndarray:
        """Similar matrix ``D^1/2 A D^1/2`` whose plain 2-norm is the
        weighted operator norm."""
        root = np.sqrt(self.masses)
        return self.matrix * root[:, None] * root[None, :]


def assemble_operator(spec: KernelSpec, m: DiscreteMeasure) -> OperatorMatrix:
    """Dense matrix ``A[i, j] = k(z_i, z_j)`` over the measure's atoms."""
    a = eval_kernel(spec, m.points[:, None], m.points[None, :])
    return OperatorMatrix(matrix=np.asarray(a), masses=m.masses)


def real_part_operator(a: OperatorMatrix) -> OperatorMatrix:
    """Entrywise real part; hermitian input becomes real symmetric."""
    return OperatorMatrix(matrix=np.real(a.matrix).astype(float), masses=a.masses)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    iterations: int
    residual: float
    converged: bool
    # The final iterate, unit in l^p: a start for a related solve.
    vector: np.ndarray | None = field(default=None, compare=False, repr=False)


def _dual(x: np.ndarray, s: float) -> np.ndarray:
    """``|x|**(s - 2) x``, zero where ``x`` is."""
    if s == 2.0:  # the identity, so p = q = 2 keeps plain power iteration's arithmetic
        return x
    a = np.abs(x)
    return np.power(a, s - 2.0, out=np.ones_like(a), where=a > 0) * x


def power_norm(
    forward,
    adjoint,
    n: int,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    seed: int = 20260810,
    p: float = 2.0,
    q: float = 2.0,
    start: np.ndarray | None = None,
) -> NormEstimate:
    """The ``l^p -> l^q`` norm of ``forward`` on ``C^n`` by Boyd's power method.

    Each step maps ``v`` (unit in ``l^p``) to ``y = forward(v)``,
    ``z = adjoint(|y|**(q-2) y)`` and ``nz = ||z||_p'``, then to
    ``sigma = nz**(1/q)`` and the next ``v = |z|**(p'-2) z / nz**(p'-1)``,
    again unit in ``l^p``.  At ``p = q = 2`` this is power iteration on
    ``adjoint(forward(.))``.  Every ``sigma`` is a lower bound on the norm:
    ``sigma <= ||forward||`` by Holder's inequality and duality.  By the
    same duality ``||forward(v)||_q <= sigma <= ||forward(v_next)||_q``,
    so the figures never fall and climb towards a local maximum of the
    ratio.  The start vector is ``start`` when given, else drawn from a
    seeded generator so runs are reproducible; either is normalized in
    ``l^p``, and the final iterate comes back as ``vector``.  Iteration
    stops when ``sigma`` changes by at most ``tol`` relative, and
    non-convergence is reported through the ``converged`` flag rather than
    raised.  A hermitian operator may pass the same callable twice.
    """
    if n == 0:
        return NormEstimate(0.0, 0, 0.0, True)
    p_dual = p / (p - 1.0)
    if start is None:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        v = np.array(start, dtype=complex)
    v /= np.linalg.norm(v, p)
    sigma_old = 0.0
    for it in range(1, max_iter + 1):
        z = adjoint(_dual(forward(v), q))
        nz = np.linalg.norm(z, p_dual)
        if nz == 0.0:
            return NormEstimate(0.0, it, 0.0, True, v)
        v = _dual(z, p_dual)
        v /= np.power(nz, p_dual - 1.0)
        # Unlike a float's **, np.power takes the q = 2 root as np.sqrt does.
        sigma = float(np.power(nz, 1.0 / q))
        residual = abs(sigma - sigma_old) / max(sigma, 1e-300)
        if residual <= tol:
            return NormEstimate(sigma, it, residual, True, v)
        sigma_old = sigma
    return NormEstimate(sigma, max_iter, residual, False, v)


def matrix_adjoint_apply(b: np.ndarray):
    """``u -> conj(b).T @ u`` without a conjugated copy of ``b``."""
    return lambda u: np.conj(b.T @ np.conj(u))


def operator_norm(
    a: OperatorMatrix,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    seed: int = 20260810,
) -> NormEstimate:
    """Weighted operator norm: :func:`power_norm` on the similar matrix."""
    b = a.weighted()
    return power_norm(lambda v: b @ v, matrix_adjoint_apply(b), a.size, tol, max_iter, seed)


def operator_norm_exact(a: OperatorMatrix) -> float:
    """Dense singular-value oracle for small matrices."""
    return float(np.linalg.norm(a.weighted(), 2))


@dataclass(frozen=True)
class SandwichReport:
    lower_ok: bool
    upper_ok: bool
    norm_full: float
    norm_real: float
    ratios: tuple[float, float]


def norm_sandwich_check(
    spec: KernelSpec,
    m: DiscreteMeasure,
    slack: float = 1e-9,
) -> SandwichReport:
    """Check ``|T_Re| <= |T| <= 2 |T_Re|`` on the discrete weighted space,
    with norms from the dense singular-value oracle."""
    t_full = assemble_operator(spec, m)
    t_real = real_part_operator(t_full)
    n_full = operator_norm_exact(t_full)
    n_real = operator_norm_exact(t_real)
    lower_ok = n_real <= n_full * (1.0 + slack)
    upper_ok = n_full <= 2.0 * n_real * (1.0 + slack)
    ratios = (n_real / max(n_full, 1e-300), n_full / max(n_real, 1e-300))
    return SandwichReport(lower_ok, upper_ok, n_full, n_real, ratios)


def gram_psd_check(points, spec: KernelSpec) -> float:
    """Minimum eigenvalue of the kernel Gram matrix on the given points."""
    points = np.asarray(points, dtype=complex).ravel()
    gram = eval_kernel(spec, points[:, None], points[None, :])
    return float(np.linalg.eigvalsh(np.asarray(gram)).min())


# ---------------------------------------------------------------------------
# Blocked kernel applies, the Cauchy transform, and the analytic projection
# ---------------------------------------------------------------------------


def kernel_rows(kernel, zs: np.ndarray, ws: np.ndarray, block: int = 1024):
    """The matrix ``kernel(zs[:, None], ws[None, :])`` one row block at a time.

    Yields ``(rows, values)`` with ``rows`` a slice of ``zs``, so at most
    ``block * ws.size`` entries (and their temporaries) are alive at once.
    It serves :func:`quadrature_apply`; the dense kernel builds of
    :func:`assemble_operator`, :func:`gram_psd_check` and
    :func:`factorization_check` do not use it and evaluate in one piece.
    """
    for lo in range(0, zs.size, block):
        rows = slice(lo, min(lo + block, zs.size))
        yield rows, kernel(zs[rows, None], ws[None, :])


def _fold(a: np.ndarray, r: int) -> np.ndarray:
    """Axis 0 of length ``r * b``, index ``m * b + k``, as axes ``(k, m)``."""
    return a.reshape(r, -1, *a.shape[1:]).swapaxes(0, 1)


def _fft_fill(spec: KernelSpec, radii: dict):
    """Fill a table block from kernel samples and one FFT per pair.

    With ``r = P / Q`` and ``c = (1 - r) / 2`` the sequence
    ``g[d] = k(rho e^{2 pi i (d + c) / P})`` is conjugate symmetric about
    ``d = -c``, so the kernel is evaluated on half the angles.
    """

    def fill(block: np.ndarray, p: int, q: int) -> None:
        r = p // q
        rho = np.multiply.outer(radii[p], radii[q])[:, :, None]
        if r == 1:
            # c = 0: g[d] for d = 0 .. p/2, the rest its conjugate mirror.
            half = eval_kernel(spec, np.exp(TAU * 1j * np.arange(p // 2 + 1) / p), rho)
            real = np.fft.hfft(half, p)
        else:
            # c is a half-integer: the positions e = d + c > 0 are
            # 1/2 .. p/2 - 1/2, and each -e adds the conjugate term, so
            # R[K] = 2 Re(e^{-pi i K / p} sum_j g(j + 1/2) e^{-2 pi i K j / p}).
            turns = (np.arange(p // 2) + 0.5) / p
            half = eval_kernel(spec, np.exp(TAU * 1j * turns), rho)
            spectrum = np.fft.fft(half, p)
            spectrum *= 2.0 * np.exp(-TAU * 0.5j * np.arange(p) / p)
            real = spectrum.real
        # real[target, source, m * q + k] is block[k, m, target, source].
        block[...] = real.reshape(radii[p].size, radii[q].size, r, q).transpose(3, 2, 0, 1)

    return fill


def _k1_fill(radii: dict):
    """Fill a table block of ``k_1`` in closed form, evaluating no kernel.

    ``k_1(x) = sum x**n``, so the FFT over ``P`` angles of ``g`` keeps the
    Taylor terms ``n = K + j P``, each times ``P e^{2 pi i n c / P}``, which
    is the phase ``e^{2 pi i K c / P}`` times ``P sigma**j`` with
    ``sigma = e^{2 pi i c}``: ``+1`` for ``P = Q`` and ``-1`` for ``P > Q``,
    where ``c`` is a half-integer.  The sum is geometric, so
    ``R[K] = P rho**K / (1 - sigma rho**P)``.  ``rho**K = r_t**K r_s**K``
    takes each sublayer's powers, computed once per class for ``K`` up to
    the largest count.  A power that underflows to 0 stands for an entry
    far below the FFT fill's rounding, and ``rho**P`` stays below
    ``e**-1`` on every quadrature (the outermost sublayers approach it from
    below), so the denominator does not cancel.
    """
    top = max(radii)
    # r**K = r**(32 j) r**i for K = 32 j + i: two short power tables per
    # class cost a sixth of one full table, at one more rounding.
    high, low = np.arange(0, top + 1, 32)[:, None], np.arange(32)[:, None]
    powers = {  # [K, sublayer]
        c: (np.power(rad, high)[:, None] * np.power(rad, low)).reshape(-1, rad.size)[: top + 1]
        for c, rad in radii.items()
    }

    def fill(block: np.ndarray, p: int, q: int) -> None:
        r = p // q
        np.multiply(
            _fold(powers[p][:p], r)[:, :, :, None],
            _fold(powers[q][:p], r)[:, :, None, :],
            out=block,
        )
        sigma = 1.0 if r == 1 else -1.0
        block *= p / (1.0 - sigma * np.multiply.outer(powers[p][p], powers[q][p]))

    return fill


def _cell_tables(quad: DiskQuadrature, make_fill):
    """The classes' cells, and the tables, their row ranges and phases that
    :func:`cell_kernel_apply` applies, each block filled by
    ``make_fill(radii)`` (``radii`` keyed by class)."""
    classes: dict[int, list] = {}
    for s in quad.strata:
        classes.setdefault(s.count, []).append(s)
    counts = sorted(classes)
    cells = {
        p: np.concatenate([np.arange(s.cells.start, s.cells.stop) for s in strata])
        for p, strata in classes.items()
    }
    radii = {p: quad.r[c[::p]] for p, c in cells.items()}  # one per sublayer, its midpoint
    fill = make_fill(radii)
    # table[q][k] stacks, for each class p >= q in ascending order, the rows
    # (m, target) of target frequency m * q + k against the sources of q;
    # phase[q, p][k, m] is that frequency's phase (for p > q only).
    table, rows, phase = {}, {}, {}
    for q in counts:
        finer = [p for p in counts if p >= q]
        sizes = [p // q * radii[p].size for p in finer]
        bounds = np.cumsum([0] + sizes)
        table[q] = np.empty((q, bounds[-1], radii[q].size))
        rows[q] = {p: slice(lo, hi) for p, lo, hi in zip(finer, bounds[:-1], bounds[1:])}
        for p in finer:
            r = p // q
            # A view, since the reshape only splits the row axis.
            fill(table[q][:, rows[q][p]].reshape(q, r, radii[p].size, radii[q].size), p, q)
            if r > 1:
                c = (1 - r) / 2
                phase[q, p] = _fold(np.exp(TAU * 1j * np.arange(p) * c / p), r)[:, :, None]
    return cells, table, rows, phase


def cell_kernel_apply(spec: KernelSpec, quad: DiskQuadrature):
    """The exact apply ``fw -> sum_j k(z_i, z_j) fw_j`` over the cell centers.

    The kernel depends on ``z conj(w)`` alone and every radial sublayer
    holds its stratum's power-of-two count of equally spaced angles, so
    the block between a target sublayer of count ``P`` and a source
    sublayer of count ``Q`` is a cyclic convolution on ``C = max(P, Q)``
    angles; the half-cell offset between the two grids sits in the first
    row of the convolving sequence.  The strata of one count form a class.
    The kernel is Hermitian, so the plan stores the FFT of that sequence
    only for pairs with ``P >= Q``: one table per source class, its rows
    the sublayers of every class at least as fine (``O(cells * sublayers)``
    entries in all).  Every kernel family has real Taylor coefficients, so
    ``k(conj x) = conj k(x)``: with ``r = P / Q`` and ``c = (1 - r) / 2``
    the sequence ``g[d] = k(rho e^{2 pi i (d + c) / P})`` is conjugate
    symmetric about ``d = -c`` and its FFT is ``e^{2 pi i K c / P} R[K]``
    with ``R`` real, stored as ``float64`` (8.25 MiB at quadrature depth
    10).  For ``k_alpha`` at ``alpha = 1`` the plan writes ``R`` in closed
    form, ``R[K] = P rho**K / (1 - sigma rho**P)`` with ``sigma = +1`` for
    ``P = Q`` and ``-1`` for ``P > Q`` (:func:`_k1_fill`), and evaluates no
    kernel; for every other kernel it samples the kernel on half the
    angles and takes one FFT per pair (:func:`_fft_fill`).  The apply
    multiplies ``R`` by each spectrum viewed as two real columns and
    applies the phase per target frequency.  An apply takes one FFT per
    class and two batches of matrix products per class, one inverse FFT
    per class.  A coarser source's spectrum repeats every ``Q``
    frequencies (zero-insertion upsampling), so frequency ``k`` of the
    source meets every target frequency congruent to ``k``.  A coarser
    target keeps the mean of its ``r = Q / P`` aliases (decimation); with
    unnormalized FFTs its block at frequency ``k`` is the conjugate
    transpose of the stored block of the reverse pair divided by ``r``,
    applied as ``(s * conj(phase) / r) @ R`` on the folded spectrum ``s``.
    The returned apply carries the tables, keyed by source class, as
    ``apply.tables``.
    """
    make_fill = _k1_fill if spec == KernelSpec.k_alpha(1.0) else partial(_fft_fill, spec)
    cells, table, rows, phase = _cell_tables(quad, make_fill)
    counts = sorted(cells)

    def apply(fw: np.ndarray) -> np.ndarray:
        spectra = {q: np.fft.fft(fw[cells[q]].reshape(-1, q).T, axis=0) for q in counts}
        acc = dict.fromkeys(counts, 0.0)
        for q in counts:
            h = (table[q] @ spectra[q][..., None].view(float)).view(complex)[..., 0]
            for p, block in rows[q].items():
                h_p = h[:, block].reshape(q, p // q, -1)
                if p > q:
                    h_p = h_p * phase[q, p]
                acc[p] = acc[p] + h_p.swapaxes(0, 1).reshape(p, -1)
        for p in counts[:-1]:
            # Finer sources reach p through the conjugate transpose of the
            # rows that table[p] stores for them as targets: fold each
            # source's aliases of frequency k and take their mean.
            folded = np.concatenate(
                [
                    (_fold(spectra[q], q // p) * (np.conj(phase[p, q]) / (q // p))).reshape(p, -1)
                    for q in counts
                    if q > p
                ],
                axis=1,
            )
            coarse = table[p][:, rows[p][p].stop :].swapaxes(1, 2)
            acc[p] = acc[p] + (coarse @ folded[..., None].view(float)).view(complex)[..., 0]
        out = np.empty(quad.n_cells, dtype=complex)
        for p in counts:
            out[cells[p]] = np.fft.ifft(acc[p], axis=0).T.ravel()
        return out

    apply.tables = table
    return apply


def quadrature_apply(
    kernel, values: np.ndarray, quad: DiskQuadrature, eval_points=None, block: int = 1024
) -> np.ndarray:
    """``sum_j kernel(z, u_j) values_j area_j`` at each evaluation point.

    ``values`` has shape ``(n_cells,)`` or ``(n_cells, k)``; each kernel
    block is shared across the ``k`` stacked columns.  Evaluates at
    ``eval_points`` (default: every cell center).
    """
    zs = quad.z if eval_points is None else np.asarray(eval_points, dtype=complex).ravel()
    values = np.asarray(values)
    fw = values * (quad.area if values.ndim == 1 else quad.area[:, None])
    parts = [k @ fw for _, k in kernel_rows(kernel, zs, quad.z, block)]
    return np.concatenate(parts) if parts else np.empty((0,) + fw.shape[1:], dtype=complex)


def apply_kernel(
    spec: KernelSpec, f: SampledFunction, quad: DiskQuadrature, eval_points=None
) -> np.ndarray:
    """Quadrature apply of an arbitrary kernel: ``sum_j k(z, u_j) f_j a_j``."""
    if f.quad is not quad:
        raise ValueError("sampled function does not live on the given quadrature")
    return quadrature_apply(partial(eval_kernel, spec), f.values, quad, eval_points)


def apply_k1(f: SampledFunction, quad: DiskQuadrature, eval_points=None) -> np.ndarray:
    """The Cauchy-area transform ``sum_j f(u_j) / (1 - z conj(u_j)) * area_j``."""
    return apply_kernel(KernelSpec.k_alpha(1.0), f, quad, eval_points)


def k1_projection_discrepancy(
    quad: DiskQuadrature,
    functions,
    eval_points,
    degree: int = 16,
) -> float:
    """Largest node discrepancy between ``K_1 f`` and ``K_1`` of the
    analytic projection of ``f``, over the given functions."""
    columns = []
    for fn in functions:
        f = SampledFunction.from_function(quad, fn)
        coeffs = bergman_project(f, quad, degree=degree)
        columns.append(f.values)
        columns.append(poly_eval(coeffs, quad.z))
    stacked = np.stack(columns, axis=1)
    k1 = partial(eval_kernel, KernelSpec.k_alpha(1.0))
    images = quadrature_apply(k1, stacked, quad, eval_points)
    diffs = images[:, 0::2] - images[:, 1::2]
    return float(np.max(np.abs(diffs)))


def bergman_project(f: SampledFunction, quad: DiskQuadrature, degree: int = 64) -> np.ndarray:
    """Monomial coefficients ``c_n = (n+1) <f, z^n>`` under normalized area.

    This is the analytic (Bergman) projection truncated at ``degree``; the
    monomials ``sqrt(n+1) z^n`` are orthonormal for the disk of unit area.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    powers = np.ones(quad.n_cells, dtype=complex)
    cu = np.conj(quad.z)
    fw = f.values * quad.area
    coeffs = np.empty(degree + 1, dtype=complex)
    for n in range(degree + 1):
        coeffs[n] = (n + 1.0) * np.sum(fw * powers)
        powers = powers * cu
    return coeffs


def poly_eval(coeffs, z) -> np.ndarray:
    """Evaluate ``sum c_n z**n`` (numpy-style Horner)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in np.asarray(coeffs)[::-1]:
        out = out * z + c
    return out


def factorization_check(m: DiscreteMeasure, quad: DiskQuadrature) -> float:
    """Largest entry discrepancy between the composed Cauchy transforms
    and the logarithmic kernel matrix.

    The composition has kernel ``integral of dA(u) / ((1 - z conj(u)) (1 - u conj(w)))``
    which is evaluated here by quadrature in ``u`` and compared against the
    closed-form logarithmic kernel on the same atoms.
    """
    z = m.points
    left = 1.0 / (1.0 - z[:, None] * np.conj(quad.z)[None, :])  # (k, N)
    right = 1.0 / (1.0 - quad.z[:, None] * np.conj(z)[None, :])  # (N, k)
    composed = (left * quad.area[None, :]) @ right
    direct = eval_kernel(KernelSpec.dirichlet(), z[:, None], z[None, :])
    return float(np.max(np.abs(composed - direct)))
