import numpy as np
import pytest

from shrinkerlab import build_grid, make_model
from shrinkerlab.fields import (
    Field,
    FieldError,
    angular_rotation,
    bump_vector,
    dilation,
    euclidean_rotation,
    killing_fields,
    scalar_field,
    translation,
    vector_field,
)
from shrinkerlab.operators import Operators
from shrinkerlab.verification import (
    cao_zhou_check,
    classify_killing,
    drift_bochner_residual,
    harmonicity_check,
    interp_inequality_check,
)


def coordinate_stretch(grid):
    return vector_field(
        grid,
        lambda c: np.stack([c[:, 0]] + [np.zeros(len(c))] * (grid.n - 1)),
    )


# ---- dichotomy ---------------------------------------------------------------


@pytest.mark.parametrize("order, floor", [(2, 2.5), (4, 0.625)])
def test_stencil_tol_is_the_dichotomy_tolerance(gaussian2, order, floor):
    # h = 2 R / resolution = 0.5, so 10 h^order is exact in binary
    grid, _ = build_grid(gaussian2, 32, 8.0, stencil_order=order)
    assert grid.stencil_tol == floor
    assert classify_killing(euclidean_rotation(grid)).tolerance == grid.stencil_tol


def test_rotation_preserves_f(gaussian2):
    grid, _ = build_grid(gaussian2, 64, 6.0)
    v = classify_killing(euclidean_rotation(grid))
    assert v.verdict == "PreservesF"
    assert v.evidence["df_pairing_norm"] <= 1e-12


def test_cylinder_translation_splits_line(cylinder32):
    grid, _ = build_grid(cylinder32, 64, 6.0)
    v = classify_killing(translation(grid, 0))
    assert v.verdict == "SplitsLine"
    assert v.consistent  # the Hessian evidence for the parallel gradient


def test_stretch_not_killing(gaussian2):
    grid, _ = build_grid(gaussian2, 64, 6.0)
    assert classify_killing(coordinate_stretch(grid)).verdict == "NotKilling"


def test_verdicts_scale_invariant(gaussian2, cylinder32):
    g2, _ = build_grid(gaussian2, 64, 6.0)
    gc, _ = build_grid(cylinder32, 64, 6.0)
    for Y in (euclidean_rotation(g2), coordinate_stretch(g2), translation(gc, 0)):
        assert classify_killing(Y).verdict == classify_killing(Y * 3.0).verdict
        assert classify_killing(Y).verdict == classify_killing(Y * -0.2).verdict


def test_verdicts_stable_under_refinement(gaussian2, cylinder32):
    for model, builder, expected in (
        (gaussian2, euclidean_rotation, "PreservesF"),
        (gaussian2, coordinate_stretch, "NotKilling"),
        (cylinder32, lambda g: translation(g, 0), "SplitsLine"),
    ):
        for res in (64, 128):
            grid, _ = build_grid(model, res, 6.0)
            assert classify_killing(builder(grid)).verdict == expected


def test_polar_rotation_preserves_f(cyl_grid):
    grid, _ = cyl_grid
    v = classify_killing(angular_rotation(grid))
    assert v.verdict == "PreservesF"


def test_classify_zero_field_rejected(grid2_small):
    grid, _ = grid2_small
    with pytest.raises(FieldError):
        classify_killing(Field(grid, "vector", np.zeros((grid.n, grid.n_nodes))))


# ---- harmonicity --------------------------------------------------------------


def test_harmonicity_of_killing_divergences(gaussian2, cylinder32):
    g2, _ = build_grid(gaussian2, 96, 8.0)
    gc, _ = build_grid(cylinder32, 96, 8.0)
    for Y in (translation(g2, 0), euclidean_rotation(g2), translation(gc, 0)):
        rep = harmonicity_check(Y)
        assert rep.passed, rep


def test_harmonicity_residual_decreases(gaussian2):
    vals = []
    for res in (48, 96):
        grid, _ = build_grid(gaussian2, res, 8.0)
        vals.append(harmonicity_check(translation(grid, 0)).residual)
    assert vals[1] <= vals[0] / 2.0


def test_harmonicity_check_runs_no_hessian(grid2_small, monkeypatch):
    # the Killing test that gates it is the defect alone: the dichotomy's
    # Hessian evidence is not computed
    grid, _ = grid2_small

    def hess(self, u):
        raise AssertionError("harmonicity_check applied the Hessian")

    monkeypatch.setattr(Operators, "hess", hess)
    assert harmonicity_check(translation(grid, 0)).passed
    assert not harmonicity_check(coordinate_stretch(grid)).passed


def test_harmonicity_rejects_non_killing(grid2_small):
    # a field not shown to be Killing fails, and its residual is NaN: the
    # statement says nothing of it
    grid, _ = grid2_small
    rep = harmonicity_check(coordinate_stretch(grid))
    assert not rep.passed and np.isnan(rep.residual)


# ---- drift Bochner -------------------------------------------------------------


def test_bochner_linear_eigenfunction(grid1_256):
    grid, _ = grid1_256
    rep = drift_bochner_residual(scalar_field(grid, lambda c: c[:, 0]), 0.5)
    assert not rep.warned
    assert rep.residual <= 5e-3


def test_bochner_quadratic_eigenfunction_converges(gaussian1):
    vals = []
    for res in (128, 256):
        grid, _ = build_grid(gaussian1, res, 10.0)
        v = scalar_field(grid, lambda c: c[:, 0] ** 2 - 2.0)
        rep = drift_bochner_residual(v, 1.0)
        assert not rep.warned
        vals.append(rep.residual)
    assert vals[1] <= vals[0] / 2.5


def test_bochner_constant_trivial(grid1_256):
    # both sides vanish identically; absolute norms sit at the noise floor
    grid, _ = grid1_256
    rep = drift_bochner_residual(scalar_field(grid, lambda c: np.ones(len(c))), 0.0)
    assert rep.lhs_norm <= 1e-5
    assert rep.rhs_norm <= 1e-5


def test_bochner_warns_for_non_eigenfunction(grid1_256):
    grid, _ = grid1_256
    rep = drift_bochner_residual(scalar_field(grid, lambda c: np.sin(3 * c[:, 0])), 0.5)
    assert rep.warned


# ---- interpolation inequality ---------------------------------------------------


def test_interp_inequality_bump(grid2_64):
    grid, _ = grid2_64
    rep = interp_inequality_check(bump_vector(grid, 0, 2.5, 5.0))
    assert rep.passed
    assert rep.rhs > rep.lhs


def test_interp_inequality_eigenfield_scale(grid1_256):
    # for the dilation eigenfield the right side approaches 2(2 mu + 1/2) = 3
    grid, _ = grid1_256
    Y = dilation(grid)
    Y = Y * (1.0 / Y.norm())
    rep = interp_inequality_check(Y)
    assert rep.passed
    assert rep.rhs == pytest.approx(3.0, rel=0.02)
    assert rep.lhs <= rep.rhs


def test_interp_inequality_zero_field(grid2_small):
    grid, _ = grid2_small
    rep = interp_inequality_check(Field(grid, "vector", np.zeros((grid.n, grid.n_nodes))))
    assert rep.passed
    assert rep.lhs == 0.0 and rep.rhs == 0.0


# ---- distance and volume growth -------------------------------------------------


def test_cao_zhou_gaussian_constants(gaussian2):
    grid, _ = build_grid(gaussian2, 128, 8.0)
    rep = cao_zhou_check(grid)
    assert rep.c1 <= 1e-8
    assert rep.c2 <= 1e-8
    assert rep.c3 == pytest.approx(np.pi, rel=0.05)


def test_cao_zhou_cylinder_stable(cylinder32):
    radii = np.linspace(2.0, 6.5, 8)
    c3s = []
    for R, res in ((8.0, 64), (10.0, 80), (12.0, 96)):
        grid, _ = build_grid(cylinder32, res, R)
        rep = cao_zhou_check(grid, radii=radii)
        assert np.isfinite(rep.c1) and np.isfinite(rep.c2) and np.isfinite(rep.c3)
        assert rep.c1 > 0.5  # sphere diameter enters the distance comparison
        c3s.append(rep.c3)
    assert max(c3s) <= 1.1 * min(c3s)


def test_cao_zhou_insufficient_data(gaussian2):
    # the smallest grid that build_grid makes still fits every constant
    grid, _ = build_grid(gaussian2, 16, 4.0)
    small = cao_zhou_check(grid, radii=[1.0, 2.0, 3.0])
    assert small.passed
    assert np.isfinite(small.c3)


@pytest.mark.parametrize("args, res", [(("gaussian", 2), 48), (("cylinder", 3, 2), 24)])
def test_cao_zhou_fails_a_stretched_distance(args, res):
    # c1 and c2 are gated on the model's closed-form suprema of dist - b and
    # b - dist; a distance stretched by 1.1 exceeds them
    model = make_model(*args)

    class Stretched(type(model)):
        def distance(self, points, base):
            return 1.1 * super().distance(points, base)

    grid, _ = build_grid(model, res, 6.0)
    assert cao_zhou_check(grid).passed
    stretched, _ = build_grid(Stretched(model.kind, model.n, model.k), res, 6.0)
    assert not cao_zhou_check(stretched).passed


def test_killing_fields_read_the_product_structure():
    # the (4,2) cylinder has a two-dimensional flat factor, so its rotation
    # is a named Killing field, as it is in killing_basis
    grid, _ = build_grid(make_model("cylinder", 4, 2), 16, 4.0)
    names = list(killing_fields(grid))
    assert names == ["translation_0", "translation_1", "rotation_01", "polar_rotation"]
