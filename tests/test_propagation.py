import numpy as np
import pytest

from shrinkerlab import build_grid, make_model, propagation, radial_profile
from shrinkerlab.fields import Field, euclidean_rotation, perturbed, translation
from shrinkerlab.grid import RadialProfile
from shrinkerlab.operators import OperatorKind
from shrinkerlab.propagation import (
    PropagationError,
    build_cutoff,
    check_growth_bound,
    distance,
    distance_profile,
    extend_symmetry,
    fit_growth_exponent,
    measure_defect,
    measured_lambda_bar,
)
from shrinkerlab.spectral import (
    NearKernelBlock,
    SpectralPair,
    canonicalize_degenerate,
    decompose_eigenfield,
    lowest_eigenpairs,
)


@pytest.fixture(scope="module")
def cutoff_grid():
    # fine enough to resolve the transition band of r ~ 5
    return build_grid(make_model("gaussian", 2), 384, 9.0)


@pytest.fixture(scope="module")
def extend_run():
    # moderate full pipeline: r = 4 needs band 1/4 >= 4 cells
    grid, _ = build_grid(make_model("gaussian", 2), 256, 8.0)
    Y = perturbed(euclidean_rotation(grid), 1e-2)
    return grid, extend_symmetry(Y, 4.0, seed=3)


# ---- input --------------------------------------------------------------------


@pytest.mark.parametrize("which", ["rotation", "translation_1d", "translation_cylinder"])
def test_perturbed_input(request, which):
    # the input of every propagate run: the rotation on a Gaussian of
    # dimension >= 2, else translation 0
    if which == "rotation":
        grid, _ = request.getfixturevalue("grid2_64")
        base = euclidean_rotation(grid)
    else:
        grid, _ = request.getfixturevalue("grid1_256" if which == "translation_1d" else "cyl_grid")
        base = translation(grid, 0)
    np.testing.assert_array_equal(perturbed(base, 0.0).values, base.values)
    diff = (perturbed(base, 1e-2) - base).values
    np.testing.assert_array_equal(diff[:, grid.b >= 3.5], 0.0)
    # x_0^2 d_0 at full strength on {b <= 2}
    core = grid.b <= 2.0
    np.testing.assert_allclose(diff[0, core], 1e-2 * grid.coords[core, 0] ** 2, rtol=1e-12)
    np.testing.assert_array_equal(diff[1:], 0.0)


# ---- cutoff -------------------------------------------------------------------


def test_cutoff_plateau_band_and_outside(cutoff_grid):
    grid, _ = cutoff_grid
    cut = build_cutoff(grid, 5.0)
    b = grid.b
    eta = cut.eta.values
    inner, outer = cut.transition_band
    assert inner == pytest.approx(5.0 - 2.0 / 5.0)
    assert outer == pytest.approx(5.0 - 1.0 / 5.0)
    np.testing.assert_allclose(eta[b <= inner - 1e-9], 1.0)
    np.testing.assert_allclose(eta[b >= outer], 0.0)
    assert np.all((eta >= 0.0) & (eta <= 1.0))


def test_cutoff_gradient_bound(cutoff_grid):
    grid, _ = cutoff_grid
    cut = build_cutoff(grid, 5.0)
    assert cut.grad_bound <= 2.0 * 5.0 * 1.05
    # the quintic spline tops out near 1.875 r; the discrete maximum
    # undershoots it slightly on a 4-cell band
    assert 0.75 * 1.875 * 5.0 <= cut.grad_bound <= 1.05 * 2.0 * 5.0


def test_cutoff_weight_bound_on_band(cutoff_grid):
    # e^{-f} on the support of grad(eta) is within e * e^{-r^2/4}: the band
    # sits inside {b < r}, so the weight there exceeds e^{-r^2/4} itself
    grid, _ = cutoff_grid
    r = 5.0
    cut = build_cutoff(grid, r)
    band = (grid.b >= cut.transition_band[0]) & (grid.b <= cut.transition_band[1])
    wmax = float(np.max(np.exp(-grid.f[band])))
    assert wmax <= np.e * np.exp(-(r**2) / 4.0) * (1.0 + 1e-9)
    assert wmax >= np.exp(-(r**2) / 4.0)


def test_cutoff_underresolved_band_rejected(grid2_64):
    grid, _ = grid2_64
    with pytest.raises(PropagationError, match="under-resolved"):
        build_cutoff(grid, 7.0)


def test_cutoff_r_exceeding_truncation_rejected(cutoff_grid):
    grid, _ = cutoff_grid
    with pytest.raises(PropagationError, match="exceeds"):
        build_cutoff(grid, 11.0)


def test_cutoff_small_r_rejected(cutoff_grid):
    grid, _ = cutoff_grid
    with pytest.raises(PropagationError):
        build_cutoff(grid, 2.0)


def test_cutoff_mass_tail_bound_with_calibrated_constant(cutoff_grid):
    # |eta Y|^2 >= 1 - C r^{n+2} e^{-r^2/4}: C calibrated at the smallest
    # scale bounds every larger scale (the measured constant decays in r,
    # so the stated power is an upper envelope, not a sharp rate)
    grid, _ = cutoff_grid
    Y = euclidean_rotation(grid)
    cs = []
    for r in (4.0, 4.5, 5.0):
        cut = build_cutoff(grid, r)
        inside = grid.b < r
        w = grid.weights * Y.pointwise_norm_sq()
        restricted = float(np.sum(w[inside]))
        vnorm = float(np.sum(w * cut.eta.values**2))
        deficit = 1.0 - vnorm / restricted
        assert 0.0 < deficit < 0.1
        cs.append(deficit / (r ** (2 + grid.n) * np.exp(-(r**2) / 4.0)))
    calibrated = cs[0]
    assert all(c <= calibrated * 1.01 for c in cs)


# ---- defect measurement ---------------------------------------------------------


def test_measure_defect_pure_rotation(gaussian2):
    grid, _ = build_grid(gaussian2, 256, 6.0)
    rep = measure_defect(euclidean_rotation(grid), 5.0)
    assert rep.mu_bar <= 1e-6
    assert rep.hypothesis_ok


def test_measure_defect_scales_with_epsilon_squared(cutoff_grid):
    # oracle: direct quadrature of the closed-form perturbation defect
    grid, _ = cutoff_grid
    r = 5.0
    eps = 1e-2
    rep = measure_defect(perturbed(euclidean_rotation(grid), eps), r)
    assert rep.mu_bar == pytest.approx(eps**2 * _defect_quadrature(grid, r), rel=0.05)
    assert rep.c1_measured > 0


def _defect_quadrature(grid, r):
    """Independent quadrature of |div_f^*(x1^2 bump d_1)|^2 / |rotation|^2 on {b<r}.

    Uses the closed-form symmetrized derivative of the perturbation, evaluated
    analytically and summed with the quadrature weights (no operator matrices).
    """
    x1, x2 = grid.coords[:, 0], grid.coords[:, 1]
    b = grid.b
    inner, outer = 2.0, 3.5
    u = (outer - b) / (outer - inner)
    uc = np.clip(u, 0.0, 1.0)
    bump = uc**3 * (10.0 - 15.0 * uc + 6.0 * uc**2)
    dstep = np.where((u > 0) & (u < 1), (30.0 * uc**2 - 60.0 * uc**3 + 30.0 * uc**4), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        db1 = np.where(b > 0, x1 / b, 0.0)
        db2 = np.where(b > 0, x2 / b, 0.0)
    dbump1 = -dstep / (outer - inner) * db1
    dbump2 = -dstep / (outer - inner) * db2
    # Y_pert = x1^2 bump d_1; (L_Y g)_ij = d_i Y_j + d_j Y_i in the flat chart
    dY1_1 = 2.0 * x1 * bump + x1**2 * dbump1
    dY1_2 = x1**2 * dbump2
    h11 = -dY1_1
    h12 = -0.5 * dY1_2
    dens = (h11**2 + 2.0 * h12**2) * grid.weights
    inside = grid.b < r
    rot_sq = float(np.sum((grid.weights * (x1**2 + x2**2))[inside]))
    return float(np.sum(dens[inside])) / rot_sq


def test_measure_defect_zero_field(grid2_small):
    grid, _ = grid2_small
    with pytest.raises(PropagationError, match="zero"):
        measure_defect(Field(grid, "vector", np.zeros((grid.n, grid.n_nodes))), 4.0)


# ---- extension pipeline ----------------------------------------------------------


def test_extend_recovers_global_rotation(extend_run):
    grid, res = extend_run
    rot = euclidean_rotation(grid)
    rot = rot * (1.0 / rot.norm())
    assert abs(res.z.field.inner(rot)) >= 0.99
    assert res.mu <= 10.0 * grid.max_spacing**2


def test_extend_variational_bound_exact(extend_run):
    _, res = extend_run
    assert res.mu <= res.div_star_v_norm_sq + 1e-10
    assert res.hypothesis_mu_bar_lt_1


def test_extend_defect_bound_shape(extend_run):
    _, res = extend_run
    assert res.mu <= 3.0 * res.defect.mu_bar + max(res.c_tail_fit, 1.0) * res.tail
    assert res.v_norm_sq <= 1.0 + 1e-12


def test_extend_requires_small_defect(cutoff_grid):
    grid, _ = cutoff_grid
    Y = perturbed(euclidean_rotation(grid), 2.0)  # defect above 1/4
    with pytest.raises(PropagationError, match="1/4"):
        extend_symmetry(Y, 5.0)


def test_extend_refuses_a_block_disjoint_from_the_input(monkeypatch):
    # a block whose one pair lives on {b >= r}, where the cut-off input is 0:
    # the projection is exactly 0, and no other field stands in for it
    grid, _ = build_grid(make_model("gaussian", 1), 170, 5.0)
    outside = translation(grid, 0).scale_by(grid.b >= 4.0)
    block = NearKernelBlock(pairs=[SpectralPair.of(outside)], unknowns=grid.n_nodes,
                            guard_mus=[1.0], guard_residuals=[0.0])
    monkeypatch.setattr(propagation, "near_kernel_block", lambda grid, seed=0: block)
    with pytest.raises(PropagationError, match="holds none"):
        extend_symmetry(translation(grid, 0), 4.0)


def test_distance_to_a_line(grid2_64):
    # the sine of the weighted angle: 0 on the field itself, round-off (read
    # off the cosine, about sqrt(machine epsilon)) on a multiple of it, and
    # c |X| / sqrt(|Y|^2 + c^2 |X|^2) for X orthogonal to Y on the ball
    grid, _ = grid2_64
    rot = euclidean_rotation(grid)
    inside = grid.b < 4.0
    assert distance(rot, rot, inside) == 0.0
    assert distance(rot, rot * -3.0, inside) <= 1e-7
    trans = translation(grid, 0)
    assert abs(grid.inner("vector", rot.values, trans.values, inside)) <= 1e-12 * rot.norm() ** 2
    c = 1e-2
    expected = c * trans.norm_where(inside) / np.hypot(rot.norm_where(inside),
                                                     c * trans.norm_where(inside))
    assert distance(rot + trans * c, rot, inside) == pytest.approx(expected, rel=1e-6)
    profile = distance_profile(rot + trans * c, rot, 4.0)
    assert profile.shape == (5,) and np.all(profile > 0)


def test_extension_of_a_killing_field_sits_at_the_floor(extend_run):
    # the rotation's own extension is its floor: Z stays within the floor's
    # distance of the rotation, and the eps-1e-2 input's extension is nearer
    # the rotation than the input itself on {b < 4}
    grid, res = extend_run
    rot = euclidean_rotation(grid)
    floor = distance_profile(rot, extend_symmetry(rot, 4.0, seed=3).z.field, 4.0)
    e = distance_profile(rot, res.z.field, 4.0)
    gap = distance(perturbed(rot, 1e-2), rot, grid.b < 4.0)
    assert np.all(floor < e) and np.all(e <= 2.0 * (gap + floor))


# ---- growth diagnostics -----------------------------------------------------------


def test_fit_growth_exponent_exact_power_law():
    radii = np.array([4.0, 5.0, 6.0, 8.0])
    prof = RadialProfile(radii=radii, values=7.0 * radii**3)
    fit = fit_growth_exponent(prof)
    assert fit.slope == pytest.approx(3.0, abs=1e-10)
    assert fit.intercept == pytest.approx(np.log(7.0), abs=1e-10)
    assert fit.max_residual <= 1e-12


def test_fit_growth_exponent_no_positive_samples():
    prof = RadialProfile(radii=np.array([4.0, 5.0, 6.0, 7.0]), values=np.zeros(4))
    with pytest.raises(PropagationError, match="no positive samples"):
        fit_growth_exponent(prof)


def test_fit_growth_exponent_needs_four_points():
    prof = RadialProfile(radii=np.array([4.0, 5.0, 6.0, 7.0]), values=np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(PropagationError, match="fewer than 4"):
        fit_growth_exponent(prof)


def test_growth_bound_constant_profile_passes():
    prof = RadialProfile(radii=np.linspace(4, 8, 5), values=np.full(5, 2.0))
    rep = check_growth_bound(prof, 0.0, 4.0)
    assert rep.passed
    assert rep.worst_ratio <= 0.5 + 1e-12


def test_growth_bound_exponential_fails():
    radii = np.linspace(4, 8, 6)
    prof = RadialProfile(radii=radii, values=np.exp(radii))
    rep = check_growth_bound(prof, 0.1, 4.0)
    assert not rep.passed
    assert rep.worst_pair is not None
    assert rep.worst_ratio > 1.0


def test_growth_bound_skips_zero_values():
    prof = RadialProfile(radii=np.array([4.0, 5.0, 6.0]), values=np.array([0.0, 1.0, 1.0]))
    rep = check_growth_bound(prof, 0.0, 4.0)
    assert rep.skipped_pairs == 2


def test_polynomial_growth_of_quarter_mode_defect(gaussian2):
    # an eigenfield with genuinely nonzero defect: profile grows polynomially
    grid, _ = build_grid(gaussian2, 128, 9.0)
    ops = grid.ops()
    pairs = canonicalize_degenerate(
        lowest_eigenpairs(ops.handle(OperatorKind.OP_P), 5, method="complement")
    )
    quarter = next(p for p in pairs if p.mu > 0.1)
    dec = decompose_eigenfield(quarter)
    w = ops.div_star(dec.z)
    radii = np.linspace(4.0, 7.2, 8)
    prof = radial_profile(w, radii)
    fit = fit_growth_exponent(prof)
    assert fit.max_residual <= 0.5
    lam = measured_lambda_bar(w)
    assert check_growth_bound(prof, lam, radii[0]).passed
