"""Numerical workbench for weighted operator calculus on model shrinking solitons.

The package implements two closed-form model geometries (flat Gaussian space and
round cylinders), weighted quadrature grids over truncated domains, discrete
weighted divergence / drift-Laplacian operators with exact adjointness by
construction, a symmetric weighted eigensolver, and the approximate-symmetry
extension pipeline with its distance to the symmetry and a propagation gate.
"""

import importlib

# each exported name by the module that defines it; a name, and its module
# with it, loads on first access (PEP 562), so `import shrinkerlab.cli`
# loads no numerical layer, and no numpy or scipy; the model kinds and
# ModelError come from `kinds`, which imports nothing
_EXPORTS = {
    "kinds": ("CYLINDER", "GAUSSIAN", "ModelError"),
    "models": ("ModelShrinker", "check_soliton_identities", "make_model", "random_points"),
    "grid": ("Grid", "GridError", "WeightedMeasure", "build_grid"),
    "fields": ("Field", "FieldError", "angular_rotation", "dilation", "euclidean_rotation",
               "radial_bump", "scalar_field", "translation", "vector_field"),
    "operators": ("IdentityReport", "OperatorHandle", "OperatorKind", "Operators",
                  "identity_residuals"),
    "errors": ("PropagationError", "SolverError"),
    "spectral": ("EigenfieldDecomposition", "NearKernelBlock", "SpectralPair",
                 "decompose_eigenfield", "lowest_eigenpairs", "near_kernel_block"),
    "propagation": ("Cutoff", "DefectReport", "PropagationResult", "build_cutoff",
                    "extend_symmetry", "measure_defect"),
    "verification": ("DichotomyVerdict", "cao_zhou_check", "classify_killing",
                     "drift_bochner_residual", "harmonicity_check", "interp_inequality_check"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
