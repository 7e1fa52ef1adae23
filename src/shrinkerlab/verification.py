"""Standalone checks: Killing dichotomy, harmonicity, Bochner, interpolation,
and the distance/volume growth constants.

Vanishing verdicts use the stencil-order floor `Grid.stencil_tol`, 10 h^order,
which separates identities that hold exactly on the continuum from plain
discretization error; every check is a pure function of sampled fields and
closed-form geometry. Whether a field is Killing is one test
(`_killing_test`), the Killing defect alone: the dichotomy adds its other
evidence to it, and the harmonicity check runs it and nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .fields import Field, FieldError, SCALAR
from .grid import Grid

PRESERVES_F = "PreservesF"
SPLITS_LINE = "SplitsLine"
NOT_KILLING = "NotKilling"


@dataclass(frozen=True)
class DichotomyVerdict:
    """Killing-field classification with the measured evidence attached."""

    verdict: str
    evidence: dict
    tolerance: float

    @property
    def consistent(self) -> bool:
        # a line-splitting verdict requires the parallel-gradient evidence
        if self.verdict != SPLITS_LINE:
            return True
        return self.evidence["hess_divf_norm"] <= self.tolerance


def _killing_test(Y: Field) -> tuple[Field, float, bool]:
    """The test that `Y` is Killing: Y scaled to unit norm, its Killing defect
    |div_f^* Y| over interior_mask(3), and whether that defect is shown to be
    within `Grid.stencil_tol` (a NaN defect, from an empty mask, is not)."""
    nrm = Y.norm()
    if nrm <= 0.0:
        raise FieldError("cannot classify the zero field")
    Yn = Y * (1.0 / nrm)
    grid = Y.grid
    residual = grid.ops().div_star(Yn).norm_where(grid.interior_mask(applications=3))
    return Yn, residual, residual <= grid.stencil_tol


def _df_pairing(X: Field) -> Field:
    """The scalar <df, X> of a vector field X."""
    grid = X.grid
    return Field(grid, SCALAR, np.sum(grid.model.dpotential(grid.coords).T * X.values, axis=0))


def classify_killing(Y: Field) -> DichotomyVerdict:
    """Classify a sampled field: not Killing, f-preserving, or line-splitting.

    Evidence (on the unit-normalized field): the Killing defect |div_f^* Y|
    (`_killing_test`), the pairing |<grad f, Y>|, and |Hess(div_f Y)| whose
    vanishing witnesses a parallel gradient field. The verdict is
    scale-invariant.
    """
    grid = Y.grid
    ops = grid.ops()
    Yn, killing_residual, killing = _killing_test(Y)
    tol = grid.stencil_tol
    interior = grid.interior_mask(applications=3)

    df_pairing_norm = _df_pairing(Yn).norm_where(interior)
    v = ops.div(Yn)
    del Yn  # released before the Hessian, the largest step
    hess_divf_norm = ops.hess(v).norm_where(interior)

    if not killing:
        verdict = NOT_KILLING
    elif df_pairing_norm <= tol:
        verdict = PRESERVES_F
    else:
        verdict = SPLITS_LINE
    return DichotomyVerdict(
        verdict=verdict,
        evidence={
            "killing_residual": killing_residual,
            "df_pairing_norm": df_pairing_norm,
            "hess_divf_norm": hess_divf_norm,
        },
        tolerance=tol,
    )


@dataclass(frozen=True)
class HarmonicityReport:
    residual: float
    passed: bool


def harmonicity_check(Y: Field) -> HarmonicityReport:
    """For a Killing field, div_f Y is harmonic for the unweighted Laplacian.

    A field that `_killing_test` does not show to be Killing fails, with a
    NaN residual: the statement says nothing of it.
    """
    Yn, _, killing = _killing_test(Y)
    if not killing:
        return HarmonicityReport(residual=float("nan"), passed=False)
    grid = Y.grid
    ops = grid.ops()
    v = ops.div(Yn)
    lap_plain = ops.lap(v) + _df_pairing(ops.grad(v))
    interior = grid.interior_mask(applications=3)
    residual = lap_plain.norm_where(interior) / max(v.norm(), 1.0)
    return HarmonicityReport(residual=residual, passed=residual <= grid.stencil_tol)


@dataclass(frozen=True)
class BochnerReport:
    residual: float
    eigen_residual: float
    warned: bool
    lhs_norm: float = 0.0
    rhs_norm: float = 0.0


def drift_bochner_residual(v: Field, mu: float) -> BochnerReport:
    """Residual of (1/2) L |grad v|^2 = |Hess v|^2 + (1/2 - mu) |grad v|^2.

    Expects an approximate drift eigenfunction with L v = -mu v; warns when
    that fails, since the identity is then not expected to hold.
    """
    grid = v.grid
    ops = grid.ops()
    vn = v.norm()
    if vn <= 0.0:
        raise FieldError("zero field")
    eig_resid = (ops.lap(v) + v * mu).norm_where(grid.interior_mask(2)) / ((abs(mu) + 0.5) * vn)
    warned = not eig_resid <= 0.1  # a NaN residual (empty mask) warns too

    gv = ops.grad(v)
    q = Field(grid, SCALAR, gv.pointwise_norm_sq())
    hv = ops.hess(v)
    hsq = Field(grid, SCALAR, hv.pointwise_norm_sq())
    lhs = ops.lap(q) * 0.5
    rhs = hsq + q * (0.5 - mu)
    interior = grid.interior_mask(applications=3)
    lhs_norm = lhs.norm_where(interior)
    rhs_norm = rhs.norm_where(interior)
    den = max(lhs_norm, rhs_norm, q.norm(), 1e-300)
    return BochnerReport(
        residual=(lhs - rhs).norm_where(interior) / den,
        eigen_residual=eig_resid,
        warned=warned,
        lhs_norm=lhs_norm,
        rhs_norm=rhs_norm,
    )


@dataclass(frozen=True)
class InterpReport:
    lhs: float
    rhs: float
    passed: bool


def interp_inequality_check(Y: Field) -> InterpReport:
    """Check |grad Y|^2 + |div_f Y|^2 <= 2 |Y| |(2P + 1/2) Y| by quadrature."""
    grid = Y.grid
    ops = grid.ops()
    grad_sq = float(np.sum(grid.weights * ops.grad_norm_sq(Y)))
    lhs = grad_sq + ops.div(Y).norm() ** 2
    rhs_field = ops.p_apply(Y) * 2.0 + Y * grid.model.kappa
    rhs = 2.0 * Y.norm() * rhs_field.norm()
    return InterpReport(lhs=lhs, rhs=rhs, passed=lhs <= rhs * (1.0 + 1e-9) + 1e-14)


@dataclass(frozen=True)
class CaoZhouReport:
    c1: float
    c2: float
    c3: float
    passed: bool


def cao_zhou_check(grid: Grid, radii=None) -> CaoZhouReport:
    """Fit the smallest constants in the distance and volume growth bounds.

    c1, c2 make (r - c1)^2/4 <= f <= (r + c2)^2/4 hold over the grid; c3 is
    the largest Vol(B_r)/r^n over the radius ladder. The basepoint is the
    model's `base_point`. It passes when c1 and c2 stay within the model's
    closed-form suprema (`distance_b_gaps`), up to round-off.
    """
    model = grid.model
    t_axis = grid.axes[0]
    r_cover = float(np.max(np.abs(t_axis.coords))) + t_axis.h / 2.0
    dist = model.distance(grid.coords, model.base_point)
    c1 = float(np.max(np.maximum(dist - grid.b, 0.0)))
    c2 = float(np.max(np.maximum(grid.b - dist, 0.0)))
    sup1, sup2 = model.distance_b_gaps()
    roundoff = 1e-12 * grid.truncation_radius

    if radii is None:
        radii = np.linspace(max(2.0, 0.25 * r_cover), 0.9 * r_cover, 8)
    radii = np.asarray(radii, dtype=float)
    vols = np.array([float(np.sum(grid.unweighted_volumes[dist <= r])) for r in radii])
    c3 = float(np.max(vols / radii**model.n))
    return CaoZhouReport(c1=c1, c2=c2, c3=c3,
                         passed=c1 <= sup1 + roundoff and c2 <= sup2 + roundoff)
