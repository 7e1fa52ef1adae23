"""Numerical workbench for weighted operator calculus on model shrinking solitons.

The package implements two closed-form model geometries (flat Gaussian space and
round cylinders), weighted quadrature grids over truncated domains, discrete
weighted divergence / drift-Laplacian operators with exact adjointness by
construction, a symmetric weighted eigensolver, and the approximate-symmetry
extension pipeline with its distance to the symmetry, a propagation gate and
polynomial-growth diagnostics.
"""

from .models import (
    CYLINDER,
    GAUSSIAN,
    ModelError,
    ModelShrinker,
    check_soliton_identities,
    make_model,
    random_points,
)
from .grid import Grid, GridError, WeightedMeasure, build_grid
from .fields import (
    Field,
    FieldError,
    angular_rotation,
    dilation,
    euclidean_rotation,
    radial_bump,
    scalar_field,
    translation,
    vector_field,
)
from .grid import RadialProfile, radial_profile
from .operators import (
    IdentityReport,
    OperatorHandle,
    OperatorKind,
    Operators,
    identity_residuals,
)
from .spectral import (
    EigenfieldDecomposition,
    NearKernelBlock,
    SolverError,
    SpectralPair,
    decompose_eigenfield,
    lowest_eigenpairs,
    near_kernel_block,
)
from .propagation import (
    Cutoff,
    DefectReport,
    GrowthReport,
    PropagationError,
    PropagationResult,
    build_cutoff,
    check_growth_bound,
    extend_symmetry,
    fit_growth_exponent,
    measure_defect,
)
from .verification import (
    DichotomyVerdict,
    cao_zhou_check,
    classify_killing,
    drift_bochner_residual,
    harmonicity_check,
    interp_inequality_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
