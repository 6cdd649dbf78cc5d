#!/usr/bin/env python3
"""From the embedding condition to the two-weight bound to certification.

The chain for a finite reverse-doubling weight: the box-mass sums satisfy
the embedding condition, the tree of box averages is weak-type and then
strong-type bounded, the two-weight testing constant against area measure
is finite, and the weight embeds the analytic space (a Carleson weight).
"""

import math

import numpy as np

from carleson_lab import (
    ExponentConfig,
    Weight,
    box_masses,
    build_quadrature,
    carleson_constant,
    carleson_embedding_constant,
    cell_trees,
    row_sums,
    strong_embedding_check,
    theorem_pipeline,
    tree_averages,
    two_weight_testing_constant,
    weak_type_norm,
)

quad = build_quadrature(10)
depth = 10

print("== embedding condition ==")
for w in (Weight.lebesgue(), Weight.radial_power(1)):
    rep = carleson_embedding_constant(w, 1.0, box_masses(w, 14).trees)
    print(f"{w.spec:16s}: c1 = {rep.c1_hat:.5f} (truncation tail ~{rep.tail_estimate:.1e})")
print("closed forms: 8/3 for area measure, 12/7 for (1 - |z|)")

print("\n== weak and strong tree norms ==")
rng = np.random.default_rng(4)
w = Weight.radial_power(1)
cfg = ExponentConfig(p=2.0, q=2.0, alpha=1.0)
# One cell density and its box masses on both grids serve every draw; each
# draw's box integrals, divided into averages, are read by both norms.
density = w.cell_density(quad)
masses = cell_trees(row_sums(quad, density * quad.area), depth, quad)
emb = carleson_embedding_constant(w, 1.0, masses, k_max_level=depth)
worst_weak, worst_strong = 0.0, 0.0
for _ in range(25):
    f = rng.uniform(0.0, 1.0, quad.n_cells)
    f_mass = f * density * quad.area
    avgs = tree_averages(cell_trees(row_sums(quad, f_mass), depth, quad), masses)
    l1 = float(np.sum(f_mass))
    f_power = float(np.sum(f**cfg.p * density * quad.area))
    worst_weak = max(worst_weak, weak_type_norm(1.0, avgs, masses) / l1)
    worst_strong = max(worst_strong, strong_embedding_check(cfg, f_power, avgs, masses))
print(f"sup weak norm / L1 norm over 25 draws: {worst_weak:.4f} (bound c1 = {emb.c1_hat:.4f})")
print(f"sup strong ratio over 25 draws:        {worst_strong:.4f}")

print("\n== two-weight testing constant against area measure ==")
for nu in (Weight.lebesgue(), Weight.radial_power(1)):
    rep = two_weight_testing_constant(box_masses(nu, 16), Weight.lebesgue(), cfg)
    print(
        f"nu = {nu.spec:16s}: sup = {rep.sup_value:.6f} "
        f"(= total mass^0.5 = {math.sqrt(nu.disk_mass()):.6f})"
    )

print("\n== Carleson constants (closed form for radial weights) ==")
for w in (Weight.lebesgue(), Weight.radial_power(1)):
    c = carleson_constant(w)
    print(f"{w.spec:16s}: operator norm {c.constant_estimate:.5f}, polynomial lower "
          f"bound {c.lower_bound:.5f} (disk mass {w.disk_mass():.5f})")

print("\n== end-to-end certification ==")
rep = theorem_pipeline(Weight.radial_power(1), depth=10)
for stage in rep.stages:
    keys = {k: round(v, 5) for k, v in stage["constants"].items() if isinstance(v, float)}
    print(f"  {stage['name']:18s} verdict={stage['verdict']} {keys}")
print(f"overall verdict: {rep.verdict}")
