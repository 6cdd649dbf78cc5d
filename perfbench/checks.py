"""Checks of CLI reports against :mod:`reference`, one operation per stage.

An operation *fails* when its stage raised, returned a false verdict, or
returned a true verdict it did not earn: a refinement trace whose values
are identical across the different depths it names has not refined
anything.  The numbers of every stage that did not raise, failed or not, must
agree with the references, or satisfy a property the method must have.
``null`` verdicts mark stages that measure without testing; they do not
fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import reference

# The radial-power weight has closed-form box masses and moments, which
# the program evaluates exactly; its dense norms are quadratures at
# depth 10.  The sampled weight is a 64 x 128 nearest-node grid of
# (1 - r) g(theta); its figures measured within 0.7 % of the exact
# product weight, so 3 % covers the sampling with room to spare.  The
# embedding constant is a ratio of box masses over all scales, and stayed
# within 0.055 % over 18 seeds; 0.3 % still catches a box-sum recursion
# that counts one child twice, which moves it by 0.49 %.
EXACT = 1e-9
RADIAL_QUADRATURE = 0.01
SAMPLED = 0.03
SAMPLED_EMBEDDING = 0.003

# sup over arc lengths l in (0, 1] of the top-half to full-box mass ratio.
DELTA_HAT = float(reference.reverse_doubling_ratio(np.linspace(1e-6, 1.0, 10_001)).max())


@dataclass(frozen=True)
class Expected:
    """Reference values for one workload."""

    value_tol: float  # closed-form box masses and the disk mass
    quadrature_tol: float  # operator norms from a discretization
    eigenvalue: float = 1.0 / 3.0  # top Gram eigenvalue of the weight
    embedding: float = 0.0  # exact-mass t = 1 Carleson embedding sum


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _close(value, reference, rtol) -> bool:
    return isinstance(value, (int, float)) and abs(value - reference) <= rtol * abs(reference)


def _positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def _unearned(stage) -> str:
    """Why a true verdict is vacuous, or the empty string."""
    trace = stage["witness"].get("trace")
    if stage["verdict"] is not True or not trace:
        return ""
    depths = {d for d, _ in trace}
    values = {v for _, v in trace}
    if len(depths) > 1 and len(values) == 1:
        return f"'stabilized' over depths {sorted(depths)} with one identical value {trace[0][1]}"
    return ""


def _certify_problems(name, c, stages, exp: Expected) -> list[str]:
    third = 1.0 / 3.0
    if name == "finiteness":
        if not _close(c.get("disk_mass"), third, exp.value_tol):
            return [f"disk_mass {c.get('disk_mass')} != 1/3 within {exp.value_tol}"]
    elif name == "reverse-doubling":
        out = []
        delta = c.get("delta_hat")
        if not _close(delta, DELTA_HAT, exp.value_tol):
            out.append(f"delta_hat {delta} != sup outer(l/2)/outer(l) = {DELTA_HAT} within {exp.value_tol}")
        elif stages[name]["verdict"] != (delta < 1.0 - c["margin"]):
            out.append(f"verdict {stages[name]['verdict']} disagrees with delta_hat {delta}")
        return out
    elif name == "testing-constant":
        sup = c.get("sup_value")
        if not _close(sup, math.sqrt(third), exp.value_tol):
            return [f"sup_value {sup} != sqrt(1/3) within {exp.value_tol}"]
        mass = stages.get("finiteness", {}).get("constants", {}).get("disk_mass")
        # Every box lies in the disk, and the level-0 box is the disk.
        if mass is not None and not _close(sup * sup, mass, EXACT):
            return [f"sup_value^2 {sup * sup} != disk_mass {mass}"]
    elif name == "norm-check":
        dense = {int(k.rsplit("_", 1)[1]): v for k, v in c.items() if k.startswith("dense_depth_")}
        if not dense:
            return ["no dense norms"]
        deepest = dense[max(dense)]
        root = math.sqrt(exp.eigenvalue)
        out = []
        if not _close(deepest, root, exp.quadrature_tol):
            out.append(
                f"dense_depth_{max(dense)} {deepest} != sqrt(Gram eigenvalue) {root} "
                f"within {exp.quadrature_tol}"
            )
        bad = [k for k, v in c.items() if k.startswith("dyadic_") and not _positive(v)]
        if bad:
            out.append(f"dyadic norms not finite and positive: {bad}")
        return out
    elif name == "carleson-constant":
        est = c.get("operator_norm_estimate")
        lower = c.get("polynomial_lower_bound")
        out = []
        if not _close(est, exp.eigenvalue, exp.quadrature_tol):
            out.append(
                f"operator_norm_estimate {est} != Gram eigenvalue {exp.eigenvalue} "
                f"within {exp.quadrature_tol}"
            )
        # The derivative norm is at least half the kernel norm.
        if not (_positive(lower) and lower <= 2.0 * exp.eigenvalue * (1 + exp.quadrature_tol)):
            out.append(f"polynomial_lower_bound {lower} not in (0, 2 * {exp.eigenvalue}]")
        return out
    return []


def _embedding_problems(name, c, stages, exp: Expected) -> list[str]:
    if name == "embedding-constant":
        c1 = c.get("c1_hat")
        if not _close(c1, exp.embedding, exp.value_tol):
            return [f"c1_hat {c1} != exact-mass sum {exp.embedding} within {exp.value_tol}"]
        if not (isinstance(c.get("tail_estimate"), float) and c["tail_estimate"] >= 0):
            return [f"tail_estimate {c.get('tail_estimate')} is not >= 0"]
    elif name == "weak-norm":
        if not _positive(c.get("weak_type_norm")):
            return [f"weak_type_norm {c.get('weak_type_norm')} not finite and positive"]
    elif name == "strong-ratio":
        strong = c.get("strong_ratio")
        c1 = stages.get("embedding-constant", {}).get("constants", {}).get("c1_hat")
        # Weighted dyadic Carleson embedding at p = q = 2: constant 4 C.
        if not (_positive(strong) and c1 is not None and strong**2 <= 4.0 * c1 * (1 + EXACT)):
            return [f"strong_ratio^2 {strong and strong**2} exceeds 4 * c1_hat = {c1 and 4 * c1}"]
    return []


STAGES = {
    "certify": (
        ("finiteness", "reverse-doubling", "testing-constant", "norm-check", "carleson-constant"),
        _certify_problems,
    ),
    "embedding": (("embedding-constant", "weak-norm", "strong-ratio"), _embedding_problems),
}


def check_report(report: dict, exit_code: int, exp: Expected, outcome: Outcome, tag: str) -> None:
    """Check one report; add its operations to ``outcome``."""
    names, problems_of = STAGES[report["command"]]
    stages = {s["name"]: s for s in report["stages"]}
    for name in names:
        outcome.attempted += 1
        stage = stages.get(name)
        if stage is None:
            outcome.problems.append(f"{tag} {name}: stage missing")
            continue
        error = stage["witness"].get("error")
        why = error or _unearned(stage) or ("verdict false" if stage["verdict"] is False else "")
        if why:
            outcome.failed += 1
            outcome.failures.append(f"{tag} {name}: {why}")
        if error:
            continue
        # A stage that failed on its verdict still reports constants; check them.
        outcome.problems += [f"{tag} {name}: {p}" for p in problems_of(name, stage["constants"], stages, exp)]
    verdicts = [s["verdict"] for s in report["stages"] if s["verdict"] is not None]
    if exit_code != (0 if all(verdicts) else 1):
        outcome.problems.append(f"{tag}: exit code {exit_code} disagrees with verdicts {verdicts}")
