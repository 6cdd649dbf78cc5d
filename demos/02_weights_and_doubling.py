#!/usr/bin/env python3
"""Weights on the disk and the doubling / reverse-doubling testers.

A weight is reverse doubling when no box concentrates all of its mass in
the outer half.  Area measure has constant 3/4; the weight (1 - |z|)
has 1/2; a density living only on a thin boundary shell fails.  A
doubling weight bounds the mass of a box and its two neighbours by a
multiple of the box's own mass.
"""

import numpy as np

from carleson_lab import (
    Arc,
    CarlesonBox,
    Weight,
    box_mass,
    box_masses,
    build_quadrature,
    doubling_report,
    reverse_doubling_report,
)

print("== box masses ==")
leb, rp1 = Weight.lebesgue(), Weight.radial_power(1)
for length in (1.0, 0.5, 0.125):
    box = CarlesonBox(Arc(0.0, length))
    print(
        f"arc length {length:7g}: area mass {box_mass(leb, box):.6f}, "
        f"(1-|z|) mass {box_mass(rp1, box):.6f}"
    )

print("\n== reverse doubling ==")
for w in (leb, rp1, Weight.radial_power(3)):
    rep = reverse_doubling_report(box_masses(w, 16))
    print(
        f"{w.spec:16s}: delta_hat = {rep.delta_hat:.6f} at arc length "
        f"{rep.worst_arc.length:.4f} -> {'reverse doubling' if rep.verdict else 'FAILS'}"
    )

# a density concentrated on the boundary shell is the canonical failure
r = np.linspace(0.025, 0.975, 20)
theta = np.linspace(0.1, 6.2, 16)
shell = Weight.from_grid(r, theta, np.where(r[:, None] > 0.95, 1.0, 1e-9) * np.ones((20, 16)))
rep = reverse_doubling_report(box_masses(shell, 8, build_quadrature(10)))
print(f"boundary shell    : delta_hat = {rep.delta_hat:.6f} -> verdict {rep.verdict}")

print("\n== doubling (a box with its two neighbours, over the box) ==")
for w in (leb, rp1):
    rep = doubling_report(box_masses(w, 16))
    print(f"{w.spec:16s}: C_hat = {rep.c_hat:.6f} at {rep.worst} -> verdict {rep.verdict}")

# a density vanishing to infinite order at theta = 0 is not doubling
theta = (np.arange(1024) + 0.5) * (2 * np.pi / 1024)
gap = Weight.from_grid([0.5], theta, np.exp(-0.3 / np.minimum(theta, 2 * np.pi - theta))[None, :])
rep = doubling_report(box_masses(gap, 16, build_quadrature(10)))
print(
    f"exp(-0.3/|theta|): C_hat = {rep.c_hat:.3g} at level {rep.worst.level} "
    f"of {rep.depth} -> verdict {rep.verdict}"
)
print("equal masses read 3 at every level; a ratio still growing at the")
print("finest level swept fails")
