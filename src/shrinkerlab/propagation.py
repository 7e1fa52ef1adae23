"""Approximate-symmetry extension: cutoff, defect, eigensolve, and the
distance to the symmetry that says how far it propagates.

Pipeline: a vector field with small symmetry defect on {f < r^2/4} is cut off
with a C^2 spline in b, renormalized, and projected by the weighted inner
product onto the lowest near-degenerate eigen-block of P on the full
truncated domain (`spectral.near_kernel_block`, solved once per grid), so
the discrete variational bound mu <= |div_f^* V|^2 / |V|^2 holds exactly.
How far the symmetry carries is measured by `distance`, the weighted
distance of a field to the line of another on a ball {b < rho}, on the
ladder of `distance_profile`.

The pipeline derives none of its quantities itself: the cutoff is
`fields.radial_bump`, the norms on {b < r} are `Field.norm_where`, the
extended field is measured as an eigenpair by `SpectralPair.of`, and every
distance reads `Grid.inner`. The growth diagnostics (`fit_growth_exponent`,
`check_growth_bound`, `measured_lambda_bar`) act on shell profiles from
`grid.radial_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import VECTOR, Field, radial_bump
from .grid import Grid, RadialProfile
from .spectral import NearKernelBlock, SpectralPair, near_kernel_block


# rungs of the distance profile, np.linspace(r, R, RUNGS)
RUNGS = 5
# the propagation gate: e(rho) <= GATE_C (input_gap + floor(rho)) on every
# rung. Measured max_rho e / (input_gap + floor), eps 1e-3 to 1e-1 (r 4; it
# is 1 at eps 0, where e is the floor): on the 2D Gaussian 0.72-0.97 at R 6,
# res 200; 0.64-0.77 at R 8, res 256; 0.57-0.67 at R 12, res 512, r 5; at
# most 1 in 1D, where the block is one pair and e equals the floor. With Z
# replaced by the translation it is 10-128 at R 6 and 11-803 at R 8, res
# 270; with Z replaced by the cut-off input, 3.8-33.7 and 4.5-295.
GATE_C = 2.0


class PropagationError(RuntimeError):
    """Pipeline precondition failures or internal consistency violations."""


@dataclass(frozen=True)
class Cutoff:
    """C^2 radial cutoff: 1 on {b <= r - 2/r}, 0 on {b >= r - 1/r}
    (`radial_bump` over that band)."""

    eta: Field
    transition_band: tuple[float, float]
    grad_bound: float


def build_cutoff(grid: Grid, r: float) -> Cutoff:
    """Build the radial cutoff; the transition band must span >= 4 cells."""
    if r < 4.0:
        raise PropagationError("cutoff scale r must be >= 4")
    if r > grid.truncation_radius:
        raise PropagationError("r exceeds truncation_radius")
    h_b = grid.b_spacing()
    inner, outer = r - 2.0 / r, r - 1.0 / r
    if inner < 2.0 * h_b:
        raise PropagationError("cutoff plateau too small for this grid")
    band = outer - inner
    if band < 4.0 * h_b:
        raise PropagationError(
            f"transition band under-resolved: {band / h_b:.2f} cells, need >= 4"
        )
    eta_vals = radial_bump(grid, inner, outer)
    eta = Field(grid, "scalar", eta_vals)
    grad_eta = grid.ops().grad(eta)
    grad_bound = float(np.sqrt(np.max(grad_eta.pointwise_norm_sq())))
    if grad_bound > 2.0 * r * 1.05:
        raise PropagationError(
            f"measured max |grad eta| = {grad_bound:.3g} violates the 2r bound"
        )
    plateau = grid.b <= inner - h_b
    if np.any(plateau) and np.min(eta_vals[plateau]) < 1.0 - 1e-12:
        raise PropagationError("cutoff is not identically 1 on the plateau")
    return Cutoff(eta=eta, transition_band=(inner, outer), grad_bound=grad_bound)


@dataclass(frozen=True)
class DefectReport:
    """Restricted norm and symmetry defect of a field on {f < r^2/4}."""

    norm: float
    mu_bar: float
    c1_measured: float
    hypothesis_ok: bool


def measure_defect(Y: Field, r: float) -> DefectReport:
    """Weighted norm and defect mu_bar = |div_f^* Y|^2 on {b < r}, norm-normalized.

    Also measures the linear-growth constant sup (|Y| + |grad Y|) / r over the
    ball, the quantity hypothesized to stay bounded for admissible inputs.
    """
    grid = Y.grid
    ops = grid.ops()
    inside = grid.b < r
    if not np.any(inside):
        raise PropagationError("no grid nodes inside {b < r}")
    norm = Y.norm_where(inside)
    if norm <= 0.0:
        raise PropagationError("zero field on {b < r}")
    defect = (ops.div_star(Y).norm_where(inside) / norm) ** 2

    point_bound = np.sqrt(Y.pointwise_norm_sq()) + np.sqrt(ops.grad_norm_sq(Y))
    c1 = float(np.max(point_bound[inside]) / r)
    return DefectReport(
        norm=norm,
        mu_bar=defect,
        c1_measured=c1,
        hypothesis_ok=defect <= 0.25,
    )


@dataclass
class PropagationResult:
    """Outcome of one extension run, with its fitted constants."""

    z: SpectralPair
    mu: float
    c2_fit: float
    c_tail_fit: float
    tail: float
    defect: DefectReport
    v_norm_sq: float
    div_star_v_norm_sq: float
    hypothesis_mu_bar_lt_1: bool
    cutoff: Cutoff
    near_kernel: NearKernelBlock


def extend_symmetry(
    Y_local: Field,
    r: float,
    seed: int = 0,
) -> PropagationResult:
    """Extend an approximate symmetry on {b < r} to an eigenfield of P.

    Returns the weighted projection of the cutoff input onto the near-kernel
    block of P (`NearKernelBlock.block`), so the reported mu satisfies the
    variational bound exactly. A projection of norm at most 1e-10 says the
    block holds nothing of the input, and is a PropagationError.
    """
    grid = Y_local.grid
    ops = grid.ops()
    defect = measure_defect(Y_local, r)
    if not defect.hypothesis_ok:
        raise PropagationError(f"defect mu_bar = {defect.mu_bar:.3g} exceeds 1/4")

    cutoff = build_cutoff(grid, r)
    Y_unit = Y_local * (1.0 / defect.norm)
    V_raw = Y_unit.scale_by(cutoff.eta.values)
    v_norm_sq = V_raw.inner(V_raw)
    if v_norm_sq <= 0.0:
        raise PropagationError("cutoff annihilated the field")
    V = V_raw * (1.0 / np.sqrt(v_norm_sq))
    dsv = ops.div_star(V)
    dsv_sq = dsv.inner(dsv)

    near = near_kernel_block(grid, seed=seed)
    block = near.block
    z_vals = np.zeros_like(block[0].field.values)
    for p in block:
        z_vals += V.inner(p.field) * p.field.values
    Z = Field(grid, VECTOR, z_vals)
    if Z.norm() <= 1e-10:
        raise PropagationError("the near-kernel block holds none of the cut-off input")
    # mu is the Rayleigh quotient |div_f^* Z|^2 / |Z|^2
    zpair = SpectralPair.of(Z)
    mu = zpair.mu

    # V has unit norm, so |div_f^* V|^2 is its Rayleigh quotient
    if mu > dsv_sq + 1e-10:
        raise PropagationError(
            "internal bug: variational bound mu <= |div_f^* V|^2 violated"
        )

    n = grid.model.n
    tail = r ** (4 + n) * np.exp(-(r**2) / 4.0)
    c2_fit = mu / (defect.mu_bar + tail)
    c_tail_fit = max((mu - 3.0 * defect.mu_bar) / tail, 0.0)

    return PropagationResult(
        z=zpair,
        mu=mu,
        c2_fit=c2_fit,
        c_tail_fit=c_tail_fit,
        tail=tail,
        defect=defect,
        v_norm_sq=v_norm_sq,
        div_star_v_norm_sq=dsv_sq,
        hypothesis_mu_bar_lt_1=dsv_sq < 1.0,
        cutoff=cutoff,
        near_kernel=near,
    )


def distance(F: Field, G: Field, mask: np.ndarray) -> float:
    """dist(F, G; mask) = min_c |F - c G| / |F| over the nodes of `mask`: the
    sine of the weighted angle between the two vector fields there, 0 when
    F is a multiple of G. It is read off the cosine, so it resolves
    distances down to about sqrt(machine epsilon), 1.5e-8."""
    grid = F.grid
    fg = grid.inner(VECTOR, F.values, G.values, mask)
    ff = grid.inner(VECTOR, F.values, F.values, mask)
    gg = grid.inner(VECTOR, G.values, G.values, mask)
    return float(np.sqrt(max(0.0, 1.0 - fg * fg / (ff * gg))))


def rung_radii(grid: Grid, r: float) -> np.ndarray:
    """The radii of the distance profile, from r to the truncation radius."""
    return np.linspace(r, grid.truncation_radius, RUNGS)


def distance_profile(F: Field, G: Field, r: float) -> np.ndarray:
    """dist(F, G; b < rho) for rho on `rung_radii`."""
    grid = F.grid
    return np.array([distance(F, G, grid.b < rho) for rho in rung_radii(grid, r)])


@dataclass(frozen=True)
class GrowthReport:
    """Worst pairwise ratio against the polynomial doubling bound."""

    worst_ratio: float
    worst_pair: Optional[tuple[float, float]]
    passed: bool
    skipped_pairs: int
    lambda_bar: float


def check_growth_bound(profile: RadialProfile, lambda_bar: float, r0: float) -> GrowthReport:
    """Check I(r2) <= 2 (r2/r1)^(5 lambda_bar) I(r1) for all ladder pairs r2 > r1 >= r0."""
    if lambda_bar < 0:
        raise PropagationError("lambda_bar must be nonnegative")
    radii = np.asarray(profile.radii)
    values = np.asarray(profile.values)
    keep = radii >= r0
    radii, values = radii[keep], values[keep]
    if len(radii) < 2:
        raise PropagationError("need at least two ladder radii above r0")
    worst = 0.0
    worst_pair = None
    skipped = 0
    for i in range(len(radii)):
        for j in range(i + 1, len(radii)):
            if values[i] <= 0.0 or values[j] <= 0.0:
                skipped += 1
                continue
            ratio = values[j] / (2.0 * (radii[j] / radii[i]) ** (5.0 * lambda_bar) * values[i])
            if ratio > worst:
                worst = ratio
                worst_pair = (float(radii[i]), float(radii[j]))
    return GrowthReport(
        worst_ratio=worst,
        worst_pair=worst_pair,
        passed=worst <= 1.0 + 1e-6,
        skipped_pairs=skipped,
        lambda_bar=lambda_bar,
    )


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    max_residual: float


def fit_growth_exponent(profile: RadialProfile) -> GrowthFit:
    """Least-squares fit of log I against log r over the positive samples."""
    radii = np.asarray(profile.radii)
    values = np.asarray(profile.values)
    pos = values > 0.0
    if not np.any(pos):
        raise PropagationError("no positive samples")
    if int(pos.sum()) < 4:
        raise PropagationError("fewer than 4 positive samples")
    x = np.log(radii[pos])
    y = np.log(values[pos])
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return GrowthFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        max_residual=float(np.max(np.abs(resid))),
    )


def measured_lambda_bar(w: Field) -> float:
    """Rayleigh lower-bound constant: smallest lambda with <Lw, w> >= -lambda |w|^2."""
    ops = w.grid.ops()
    lw = ops.lap(w)
    wn = w.norm()
    if wn <= 0:
        raise PropagationError("zero field")
    return max(0.0, -w.inner(lw) / wn**2)
