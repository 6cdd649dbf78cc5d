"""Seeded inputs: the sampled product weight ``w = (1 - r) g(theta)``.

``g(theta) = 1 + sum_k c_k cos(k theta + phi_k)`` with seeded amplitudes
(``sum |c_k| = 1/2``, so ``1/2 <= g <= 3/2``) and seeded phases.  The
program receives only the grid file written by :func:`write_grid_file`;
the reference side keeps the exact ``(c_k, phi_k)``.

The 64 radial nodes are geometric in ``1 - r`` (ratio ``2**-0.3``, from
``1 - r = 0.9`` down to ``2**-18.9``), so the nearest-node profile follows
``1 - r`` at every dyadic scale down to quadrature depth 16; with equally
spaced radii the outer ``1/128`` band would be flat, and the deep boxes
would see Lebesgue measure rather than the product weight.  The 128
angular nodes are cell centres ``(j + 1/2) 2 pi / 128``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

R_COUNT = 64
THETA_COUNT = 128
MODES = 6  # frequencies 1..MODES
RADIAL_STEP = 0.3  # log2 ratio between neighbouring values of 1 - r


@dataclass(frozen=True)
class ProductWeight:
    """The exact weight behind a generated grid file."""

    amplitudes: np.ndarray  # c_k, k = 1..MODES
    phases: np.ndarray  # phi_k

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(1, self.amplitudes.size + 1)

    def g(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        k = self.frequencies
        return 1.0 + np.sum(
            self.amplitudes * np.cos(np.multiply.outer(theta, k) + self.phases), axis=-1
        )

    def g_turn_integral(self, a_turn, b_turn) -> np.ndarray:
        """``(1 / 2 pi) * integral of g`` over angles ``[2 pi a, 2 pi b]``."""
        a = np.asarray(a_turn, dtype=float)
        b = np.asarray(b_turn, dtype=float)
        k = self.frequencies
        ta = np.multiply.outer(math.tau * a, k) + self.phases
        tb = np.multiply.outer(math.tau * b, k) + self.phases
        waves = np.sum(self.amplitudes / (math.tau * k) * (np.sin(tb) - np.sin(ta)), axis=-1)
        return (b - a) + waves

    def fourier(self, m: int) -> complex:
        """``g_hat(m) = (1 / 2 pi) * integral of g(theta) exp(-i m theta)``."""
        if m == 0:
            return 1.0 + 0j
        k = abs(m)
        if k > self.amplitudes.size:
            return 0j
        c, phi = self.amplitudes[k - 1], self.phases[k - 1]
        return 0.5 * c * complex(math.cos(phi), math.copysign(1.0, m) * math.sin(phi))


def product_weight(seed: int) -> ProductWeight:
    rng = np.random.default_rng(seed % 2**64)
    raw = rng.uniform(0.1, 1.0, MODES)
    return ProductWeight(
        amplitudes=0.5 * raw / raw.sum(),
        phases=rng.uniform(0.0, math.tau, MODES),
    )


def grid_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Radial and angular node coordinates, both ascending."""
    one_minus_r = 0.9 * 2.0 ** (-RADIAL_STEP * np.arange(R_COUNT))
    r = np.sort(1.0 - one_minus_r)
    theta = (np.arange(THETA_COUNT) + 0.5) * (math.tau / THETA_COUNT)
    return r, theta


def write_grid_file(path: str, weight: ProductWeight) -> None:
    """Write the ``r_count theta_count`` header and ``r theta density`` rows."""
    r, theta = grid_nodes()
    density = (1.0 - r)[:, None] * weight.g(theta)[None, :]
    rows = np.column_stack(
        [np.repeat(r, theta.size), np.tile(theta, r.size), density.ravel()]
    )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"{r.size} {theta.size}\n")
        np.savetxt(fh, rows, fmt="%.17g")
