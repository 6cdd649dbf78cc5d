"""Numerical toolkit for Carleson-box analysis on the unit disk.

Submodules: :mod:`geometry` (arcs, shifted dyadic grids, boxes),
:mod:`measures` (weights, quadrature, doubling testers),
:mod:`operators` (kernels, discrete operators, norm estimation),
:mod:`dyadic` (model operators, embeddings, two-weight testing),
:mod:`dirichlet` (analytic norms and the certification pipeline),
:mod:`cli` (command-line front end).
"""

from .dirichlet import (
    AnalyticPolynomial,
    CarlesonVerdict,
    carleson_constant,
    dirichlet_norm,
    kernel_norm,
    random_polynomials,
    theorem_pipeline,
)
from .dyadic import (
    ExponentConfig,
    carleson_embedding_constant,
    domination_check,
    dyadic_apply,
    dyadic_plan,
    strong_embedding_check,
    tree_averages,
    two_weight_norm_check,
    two_weight_testing_constant,
    weak_type_norm,
)
from .errors import (
    CarlesonLabError,
    DegenerateWeightError,
    InfiniteMassError,
    MemoryGuardError,
    ResolutionError,
    WeightSpecError,
)
from .geometry import (
    Arc,
    CarlesonBox,
    DyadicIndex,
    GRID_PLAIN,
    GRID_THIRD,
    bridge_box,
    mei_cover,
)
from .measures import (
    BoxMasses,
    DiskQuadrature,
    SampledFunction,
    Weight,
    box_mass,
    box_masses,
    build_quadrature,
    cell_trees,
    doubling_report,
    dual_weight,
    parse_weight,
    reverse_doubling_report,
    row_sums,
    sweep,
)
from .operators import (
    DiscreteMeasure,
    KernelSpec,
    NormEstimate,
    OperatorMatrix,
    apply_k1,
    assemble_operator,
    bergman_project,
    eval_kernel,
    factorization_check,
    gram_psd_check,
    norm_sandwich_check,
    operator_norm,
    real_part_operator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
