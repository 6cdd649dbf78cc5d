"""Kernels on the disk, their discretizations, and norm estimation.

The two built-in kernel families are the fractional Cauchy kernels
``1 / (1 - z conj(w))**alpha`` and the logarithmic kernel
``log(1 / (1 - z conj(w))) / (z conj(w))`` whose power series is
``sum x**n / (n + 1)``; the latter reproduces the analytic functions with
norm ``sum (n+1) |a_n|^2``.  Operators against a discrete measure are
plain dense matrices.  Three routines serve the whole package:
:func:`power_norm`, the one power method, for every ``l^p -> l^q`` norm
(on callables, so dense matrices and matrix-free operators alike);
:func:`quadrature_apply`, the one blocked loop over kernel rows, for
every kernel sum over the cells at arbitrary points (the dense builds of
:func:`assemble_operator`, :func:`gram_psd_check` and
:func:`factorization_check` evaluate their kernel matrix unblocked); and
:func:`cell_kernel_apply`, the exact kernel apply between quadrature cell
centers, one FFT convolution per pair of radial sublayers, from real
blocks stored for one of each Hermitian pair.  For ``k_alpha`` at
``alpha = 1`` those blocks are the factors of a closed form, a geometric
sum of the aliased Taylor terms (0.49 MiB at quadrature depth 10); every
other kernel fills a full table from samples on half the angles, one FFT
per pair (8.25 MiB at depth 10).
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


def _fold(a: np.ndarray, r: int) -> np.ndarray:
    """Axis 0 of length ``r * b``, index ``m * b + k``, as axes ``(k, m)``."""
    return a.reshape(r, -1, *a.shape[1:]).swapaxes(0, 1)


def _cell_layout(quad: DiskQuadrature):
    """The classes' cells and sublayer radii, and the row ranges and phases
    through which :func:`cell_kernel_apply` applies what its plan stores."""
    classes: dict[int, list] = {}
    for s in quad.strata:
        classes.setdefault(s.count, []).append(s)
    counts = sorted(classes)
    cells = {
        p: np.concatenate([np.arange(s.cells.start, s.cells.stop) for s in strata])
        for p, strata in classes.items()
    }
    radii = {p: np.concatenate([s.radii for s in strata]) for p, strata in classes.items()}
    # Source class q's rows stack, for each class p >= q in ascending order,
    # the rows (m, target) of target frequency m * q + k; phase[q, p][k, m]
    # is that frequency's phase (for p > q only).
    rows, phase = {}, {}
    for q in counts:
        finer = [p for p in counts if p >= q]
        bounds = np.cumsum([0] + [p // q * radii[p].size for p in finer])
        rows[q] = {p: slice(lo, hi) for p, lo, hi in zip(finer, bounds[:-1], bounds[1:])}
        for p in finer[1:]:
            c = (1 - p // q) / 2
            phase[q, p] = _fold(np.exp(TAU * 1j * np.arange(p) * c / p), p // q)[:, :, None]
    return cells, radii, rows, phase


def _fft_fill(spec: KernelSpec, radii: dict, rows: dict) -> dict:
    """Each source class's full table, ``table[q][k]`` holding ``R[m q + k]``
    in the rows ``rows[q][p]``, from kernel samples on half the angles and
    one FFT per pair (see :func:`cell_kernel_apply`)."""
    table = {}
    for q, blocks in rows.items():
        table[q] = np.empty((q, blocks[max(blocks)].stop, radii[q].size))
        for p, block in blocks.items():
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
            # real[target, source, m * q + k] is table[q][k, (m, target), source];
            # the reshape only splits the row axis, so it is a view.
            table[q][:, block].reshape(q, r, radii[p].size, radii[q].size)[...] = (
                real.reshape(radii[p].size, radii[q].size, r, q).transpose(3, 2, 0, 1)
            )
    return table


def _k1_factors(radii: dict, rows: dict) -> tuple[dict, dict]:
    """Each source class's ``B`` in the rows ``rows[q][p]``, and each
    class's powers ``r**k`` for ``k`` below its count: the factors of
    ``k_1``'s closed form (see :func:`cell_kernel_apply`).  A power that
    underflows to 0 stands for an entry far below the FFT fill's rounding,
    and ``rho**P`` stays below ``e**-1`` on every quadrature, so the
    denominator does not cancel."""
    powers = {c: np.power(rad, np.arange(c)[:, None]) for c, rad in radii.items()}
    factors = {}
    for q, blocks in rows.items():
        rs = radii[q]
        factors[q] = np.empty((blocks[max(blocks)].stop, rs.size))
        for p, block in blocks.items():
            rt, sigma = radii[p], 1.0 if p == q else -1.0
            aliases = np.power(rs, q * np.arange(p // q)[:, None])[:, None, :]  # [m, 1, s]
            np.divide(
                p * aliases,
                1.0 - sigma * np.multiply.outer(np.power(rt, p), np.power(rs, p)),
                out=factors[q][block].reshape(p // q, rt.size, rs.size),
            )
    return factors, powers


def _real_product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m[k] @ x[k]`` for each frequency ``k``, or one shared matrix ``m``
    when it is 2-D, with ``x`` complex viewed as two real columns so ``m``
    needs no complex copy; ``x`` is ``(frequencies, columns)``, as is the result."""
    if m.ndim == 2:
        return (m @ np.ascontiguousarray(x.T).view(float)).view(complex).T
    return (m @ x[..., None].view(float)).view(complex)[..., 0]


def _cell_apply(n_cells: int, layout: tuple, tables: dict, powers: dict):
    """The apply over a :func:`_cell_layout` of a plan's tables and powers
    (none for a full table), all keyed by class."""
    cells, _, rows, phase = layout
    counts = sorted(cells)

    def apply(fw: np.ndarray) -> np.ndarray:
        spectra = {
            q: np.fft.fft(fw[cells[q]].reshape(-1, q).T, axis=0) * powers.get(q, 1.0)
            for q in counts
        }
        acc = dict.fromkeys(counts, 0.0)
        for q in counts:
            h = _real_product(tables[q], spectra[q])
            for p, block in rows[q].items():
                h_p = h[:, block].reshape(q, p // q, -1)
                if p > q:
                    h_p = h_p * phase[q, p]
                acc[p] = acc[p] + h_p.swapaxes(0, 1).reshape(p, -1)
        for p in counts[:-1]:
            # Finer sources reach p through the transpose of the rows that
            # tables[p] stores for them as targets: fold each source's
            # aliases of frequency k and take their mean.
            folded = np.concatenate([
                (_fold(spectra[q], q // p) * (np.conj(phase[p, q]) / (q // p))).reshape(p, -1)
                for q in counts if q > p
            ], axis=1)
            coarse = tables[p][..., rows[p][p].stop :, :].swapaxes(-1, -2)
            acc[p] = acc[p] + _real_product(coarse, folded)
        out = np.empty(n_cells, dtype=complex)
        for p in counts:
            out[cells[p]] = np.fft.ifft(acc[p] * powers.get(p, 1.0), axis=0).T.ravel()
        return out

    apply.tables, apply.powers = tables, powers
    return apply


def cell_kernel_apply(spec: KernelSpec, quad: DiskQuadrature):
    """The exact apply ``fw -> sum_j k(z_i, z_j) fw_j`` over the cell centers.

    The kernel depends on ``z conj(w)`` alone and every radial sublayer
    holds its stratum's power-of-two count of equally spaced angles, so
    the block between a target sublayer of count ``P`` and a source
    sublayer of count ``Q`` is a cyclic convolution on ``C = max(P, Q)``
    angles; the half-cell offset between the two grids sits in the first
    row of the convolving sequence.  The strata of one count form a class.
    The kernel is Hermitian, so the plan stores the FFT of that sequence
    only for pairs with ``P >= Q``, keyed by source class, its rows the
    sublayers of every class at least as fine.  Every kernel family has
    real Taylor coefficients, so ``k(conj x) = conj k(x)``: with
    ``r = P / Q`` and ``c = (1 - r) / 2`` the sequence
    ``g[d] = k(rho e^{2 pi i (d + c) / P})`` is conjugate symmetric about
    ``d = -c`` and its FFT is ``e^{2 pi i K c / P} R[K]`` with ``R`` real.

    For ``k_alpha`` at ``alpha = 1`` the plan evaluates no kernel:
    ``k_1(x) = sum x**n``, so ``R[K]`` keeps the Taylor terms
    ``n = K + j P``, each times ``P sigma**j`` with ``sigma = e^{2 pi i c}``
    (``+1`` for ``P = Q``, ``-1`` for ``P > Q``), a geometric sum:
    ``R[K] = P rho**K / (1 - sigma rho**P)``.  With ``K = m Q + k`` and
    ``k < Q`` it factors as ``R[K]_ts = r_t**K B[m]_ts r_s**k``, where
    ``B[m]_ts = P r_s**(m Q) / (1 - sigma (r_t r_s)**P)`` does not depend
    on ``k``.  The plan stores ``B`` and each class's powers ``r**k`` for
    ``k`` below its count (:func:`_k1_factors`; 0.49 MiB and 48 KiB at
    quadrature depth 10).  Every other kernel is sampled on half the
    angles, one FFT per pair, into a full table of ``R``
    (:func:`_fft_fill`, 8.25 MiB at depth 10), the only full table.

    An apply takes one FFT per class, then per class one product of the
    spectrum, viewed as two real columns, with its stored rows, applying
    the phase per target frequency, then one inverse FFT per class.  A
    full table takes one matrix per frequency ``k``; ``B`` serves every
    ``k`` in one matrix product, with the source powers applied to the
    spectra and the target powers to the sums.  A coarser source's spectrum repeats every ``Q`` frequencies
    (zero-insertion upsampling), so frequency ``k`` of the source meets
    every target frequency congruent to ``k``.  A coarser target keeps
    the mean of its ``r = Q / P`` aliases (decimation); with unnormalized
    FFTs its block at frequency ``k`` is the conjugate transpose of the
    stored block of the reverse pair divided by ``r``, applied as
    ``(s * conj(phase) / r) @ R`` on the folded spectrum ``s``.  The
    apply carries what the plan stores as ``apply.tables`` and
    ``apply.powers``, keyed by class.
    """
    layout = _cell_layout(quad)
    _, radii, rows, _ = layout
    if spec == KernelSpec.k_alpha(1.0):
        tables, powers = _k1_factors(radii, rows)
    else:
        tables, powers = _fft_fill(spec, radii, rows), {}
    return _cell_apply(quad.n_cells, layout, tables, powers)


def quadrature_apply(
    kernel, values: np.ndarray, quad: DiskQuadrature, eval_points=None, block: int = 1024
) -> np.ndarray:
    """``sum_j kernel(z, u_j) values_j area_j`` at each evaluation point.

    ``values`` has shape ``(n_cells,)`` or ``(n_cells, k)``; each kernel
    block is shared across the ``k`` stacked columns.  Evaluates at
    ``eval_points`` (default: every cell center), ``block`` points at a
    time, so at most ``block * n_cells`` kernel values are alive at once.
    """
    zs = quad.z if eval_points is None else np.asarray(eval_points, dtype=complex).ravel()
    values = np.asarray(values)
    fw = values * (quad.area if values.ndim == 1 else quad.area[:, None])
    parts = [kernel(zs[lo : lo + block, None], quad.z[None, :]) @ fw
             for lo in range(0, zs.size, block)]
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
