"""Reference values computed apart from the program (numpy only).

Conventions are those the program documents: the disk has unit area, an
arc is a fraction of the circle, the box over an arc of length ``l`` is
``{|z| >= 1 - l}`` over that arc, and the two dyadic grids are the binary
partition of the circle and its copy rotated by one third of a turn.

For ``w = (1 - r) g(theta)`` with ``g_hat(0) = 1``:

* ``outer(s) = s**2 - 2 s**3 / 3`` is the mass of ``{|z| >= 1 - s}``
  under ``1 - r``, so a box over arc ``I`` of length ``l`` has mass
  ``G(I) outer(l)`` with ``G(I)`` the normalised integral of ``g`` over
  ``I``; the top half of the box has ``G(I) outer(l / 2)``.
* ``M_k = 2 / ((k + 2) (k + 3))`` is the moment of ``|z|**k`` under
  ``1 - r``.
* The logarithmic-kernel operator on ``L2(w)`` is the Gram of
  ``z**n / sqrt(n + 1)``, i.e. ``G_nm = M_{n+m} g_hat(n - m) /
  sqrt((n + 1)(m + 1))``; its top eigenvalue is the squared embedding
  constant that ``certify`` estimates.
"""

from __future__ import annotations

import numpy as np

GRIDS = (0.0, 1.0 / 3.0)


def outer(s):
    """Mass of ``{|z| >= 1 - s}`` under the density ``1 - |z|``."""
    s = np.asarray(s, dtype=float)
    return s**2 - 2.0 * s**3 / 3.0


def outer_lebesgue(s):
    """Area of ``{|z| >= 1 - s}``."""
    s = np.asarray(s, dtype=float)
    return 2.0 * s - s**2


def moment(k):
    """``M_k``, the integral of ``|z|**k (1 - |z|)`` against unit-area measure."""
    k = np.asarray(k, dtype=float)
    return 2.0 / ((k + 2.0) * (k + 3.0))


def gram_top_eigenvalue(fourier, size: int = 256) -> float:
    """Top eigenvalue of ``G_nm = M_{n+m} g_hat(n - m) / sqrt((n+1)(m+1))``.

    ``fourier(m)`` returns ``g_hat(m)``; ``size`` monomials are kept (the
    entries decay like ``1 / n**3``, so 256 leaves the eigenvalue exact to
    double precision for the bounded ``g`` used here).
    """
    n = np.arange(size)
    diff = n[:, None] - n[None, :]
    lags = np.arange(-(size - 1), size)
    table = np.array([fourier(int(m)) for m in lags], dtype=complex)
    ghat = table[diff + size - 1]
    scale = 1.0 / np.sqrt((n[:, None] + 1.0) * (n[None, :] + 1.0))
    gram = moment(n[:, None] + n[None, :]) * ghat * scale
    return float(np.linalg.eigvalsh(gram)[-1])


def level_box_masses(turn_integral, outer_fn, grid: float, level: int) -> np.ndarray:
    """Exact masses of the ``2**level`` boxes of one grid at one level.

    ``turn_integral(a, b)`` is the normalised integral of the angular
    factor over turns ``[a, b]``; ``outer_fn`` is the radial profile.
    """
    length = 2.0**-level
    a = grid + length * np.arange(2**level)
    return turn_integral(a, a + length) * outer_fn(length)


def embedding_constant(turn_integral, outer_fn, depth: int, k_max: int) -> float:
    """``max over boxes Q at levels <= k_max`` of
    ``sum over boxes Q' inside Q with level <= depth of mass(Q') / mass(Q)``,
    over both grids (the ``t = 1`` Carleson embedding sum)."""
    best = 0.0
    for grid in GRIDS:
        masses = [
            level_box_masses(turn_integral, outer_fn, grid, j) for j in range(depth + 1)
        ]
        subtree = masses[depth]
        for j in range(depth - 1, -1, -1):
            subtree = masses[j] + subtree[0::2] + subtree[1::2]
            if j <= k_max:
                best = max(best, float(np.max(subtree / masses[j])))
    return best


def flat_turn_integral(a, b):
    """Angular factor ``g = 1``."""
    return np.asarray(b, dtype=float) - np.asarray(a, dtype=float)


def reverse_doubling_ratio(lengths) -> np.ndarray:
    """Top-half to full-box mass ratio for ``(1 - r) g``, any ``g``."""
    lengths = np.asarray(lengths, dtype=float)
    return outer(lengths / 2.0) / outer(lengths)
