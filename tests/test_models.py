import dataclasses

import numpy as np
import pytest

from shrinkerlab import (
    ModelError,
    check_soliton_identities,
    make_model,
    random_points,
)
from shrinkerlab.models import (
    SOLITON_TOL,
    ModelShrinker,
    ResidualReport,
    sym2_contraction_weights,
    sym_pairs,
)


def test_make_model_gaussian():
    m = make_model("gaussian", 2)
    assert m.kappa == 0.5
    assert m.potential([[2.0, 0.0]]) == pytest.approx([1.0])
    assert m.scalar_curvature([[0.3, -1.0]]) == [0.0]


def test_make_model_cylinder_radius_and_offset():
    m = make_model("cylinder", 3, 2)
    assert m.sphere_radius == pytest.approx(np.sqrt(2.0))
    assert m.f_offset == pytest.approx(1.0)
    # S = k(k-1)/r^2 = k/2
    assert m.scalar_curvature([[0.0, 1.0, 0.0]]) == pytest.approx([1.0])


def test_make_model_rejects_circle_factor():
    with pytest.raises(ModelError, match=r"must be S\^2 \(k = 2\), got k = 1"):
        make_model("cylinder", 3, 1)


def test_make_model_rejects_missing_euclidean_factor():
    with pytest.raises(ModelError, match="needs a Euclidean factor"):
        make_model("cylinder", 2, 2)
    with pytest.raises(ModelError):
        make_model("cylinder", 3, 3)
    with pytest.raises(ModelError):
        make_model("cylinder", 2, 4)


def test_make_model_rejects_bad_dimension():
    with pytest.raises(ModelError):
        make_model("gaussian", 0)
    with pytest.raises(ModelError):
        make_model("nonsense", 2)


def test_potential_data_gaussian_unit_gradb():
    m = make_model("gaussian", 2)
    assert m.potential([[2.0, 0.0]]) == pytest.approx([1.0])
    assert m.b_value([[2.0, 0.0]]) == pytest.approx([2.0])
    assert m.grad_b_norm_sq([[2.0, 0.0]]) == pytest.approx([1.0], abs=1e-12)


def test_potential_data_singular_at_origin():
    m = make_model("gaussian", 2)
    origin = np.zeros((1, 2))
    assert m.potential(origin) == [0.0]
    assert m.b_value(origin) == [0.0]
    # b is not differentiable at f = 0: |grad b|^2 reads 0 there
    assert m.grad_b_norm_sq(origin) == [0.0]
    np.testing.assert_allclose(m.dpotential(origin), 0.0)
    # Hess f = g/2 at the origin
    np.testing.assert_allclose(m.hess_potential_packed(origin), [[0.5, 0.0, 0.5]])


def test_potential_data_cylinder_axis_point():
    m = make_model("cylinder", 3, 2)
    pt = [[0.0, np.pi / 2, 0.3]]
    assert m.potential(pt) == pytest.approx([1.0])
    assert m.b_value(pt) == pytest.approx([2.0])
    np.testing.assert_allclose(m.dpotential(pt), 0.0, atol=1e-15)


def test_curvature_gaussian_flat(rng):
    m = make_model("gaussian", 3)
    pt = rng.uniform(-3, 3, size=(1, 3))
    np.testing.assert_allclose(m.ricci_packed(pt), 0.0)
    assert m.scalar_curvature(pt) == [0.0]
    np.testing.assert_allclose(m.riemann_action_matrix(pt[0]), 0.0)


def test_curvature_cylinder_riemann_action_on_sphere_metric():
    m = make_model("cylinder", 3, 2)
    pt = [0.4, 1.1, 2.0]
    g = m.metric_diag([pt])[0]
    pairs = sym_pairs(3)
    h = np.array([g[i] if (i == j and i >= 1) else 0.0 for i, j in pairs])
    rh = m.riemann_action_matrix(pt) @ h
    # constant-curvature sphere factor: R(g_sph) = g_sph / 2
    np.testing.assert_allclose(rh, 0.5 * h, atol=1e-14)


def test_riemann_action_self_adjoint(rng):
    m = make_model("cylinder", 4, 2)
    pairs = sym_pairs(4)
    for _ in range(10):
        pt = random_points(m, 1, rng)
        action = m.riemann_action_matrix(pt[0])
        weights = sym2_contraction_weights(1.0 / m.metric_diag(pt))[:, 0]
        h = rng.standard_normal(len(pairs))
        k = rng.standard_normal(len(pairs))
        left = np.sum(weights * (action @ h) * k)
        right = np.sum(weights * h * (action @ k))
        assert abs(left - right) <= 1e-12 * max(1.0, abs(left))


@pytest.mark.parametrize(
    "kind,n,k",
    [("gaussian", 1, None), ("gaussian", 2, None), ("cylinder", 3, 2), ("cylinder", 5, 2)],
)
def test_soliton_identities_hold(kind, n, k, rng):
    m = make_model(kind, n, k)
    rep = check_soliton_identities(m, random_points(m, 100, rng))
    assert rep.passed, rep
    assert rep.soliton_residual <= 1e-10
    assert rep.trace_residual <= 1e-10
    assert rep.potential_residual <= 1e-10
    assert rep.gradb_excess <= 1e-10


class ShiftedOffset(ModelShrinker):
    """A cylinder whose potential is off by 0.1: a model kind built by
    overriding what it changes, as a non-soliton control would be."""

    @property
    def f_offset(self) -> float:
        return super().f_offset + 0.1


def test_perturbed_offset_is_flagged(rng):
    bad = ShiftedOffset(kind="cylinder", n=3, k=2)
    rep = check_soliton_identities(bad, random_points(bad, 50, rng))
    assert not rep.passed
    assert rep.potential_residual == pytest.approx(0.1, rel=1e-9)
    assert "|grad f|^2 + S - f" in rep.failures()


def test_empty_sample_rejected():
    with pytest.raises(ModelError):
        check_soliton_identities(make_model("gaussian", 2), np.zeros((0, 2)))


def test_cylinder_rejects_polar_cap_points():
    m = make_model("cylinder", 3, 2)
    with pytest.raises(ModelError, match="polar cap"):
        m.validate_points([[0.0, 0.0, 1.0]])


@pytest.mark.parametrize("method", ["potential", "metric_diag", "validate_points"])
def test_one_point_form_rejected(method):
    m = make_model("cylinder", 3, 2)
    with pytest.raises(ModelError, match=r"shape \(m, 3\), got \(3,\)"):
        getattr(m, method)([0.0, 1.0, 0.0])
    # a point array with the wrong coordinate count names the shape too
    with pytest.raises(ModelError, match=r"shape \(m, 3\), got \(1, 2\)"):
        getattr(m, method)([[0.0, 1.0]])


def test_model_stores_kind_n_and_k_only():
    cyl = make_model("cylinder", 3, 2)
    assert [f.name for f in dataclasses.fields(cyl)] == ["kind", "n", "k"]
    # the derived constants follow k
    assert cyl.sphere_radius == pytest.approx(np.sqrt(2.0))
    assert make_model("cylinder", 5, 2).f_offset == 1.0
    gauss = make_model("gaussian", 2)
    assert gauss.sphere_radius is None and gauss.f_offset == 0.0


def test_distance_closed_forms():
    m = make_model("gaussian", 2)
    assert m.distance([[3.0, 4.0]], [0.0, 0.0]) == pytest.approx([5.0])
    cyl = make_model("cylinder", 3, 2)
    base = [0.0, np.pi / 2, 0.0]
    # pure axial separation, then a quarter turn along the equator: arc = r * pi/2
    pts = [[2.0, np.pi / 2, 0.0], [0.0, np.pi / 2, np.pi / 2]]
    arc = cyl.sphere_radius * np.pi / 2
    np.testing.assert_allclose(cyl.distance(pts, base), [2.0, arc], rtol=1e-12)


def test_distance_b_gaps_closed_forms(cylinder32, gaussian2, rng):
    assert gaussian2.distance_b_gaps() == (0.0, 0.0)
    gaps = cylinder32.distance_b_gaps()
    assert gaps == pytest.approx((np.pi * np.sqrt(2.0) - 2.0, 2.0), rel=1e-15)
    # the suprema bound a sample and are reached at the antipode of the base
    # point and at the base point itself
    base = cylinder32.base_point
    pts = np.vstack([random_points(cylinder32, 2000, rng), [[0.0, np.pi / 2, 0.0]], [base]])
    gap = cylinder32.distance(pts, base) - cylinder32.b_value(pts)
    assert np.max(gap) == pytest.approx(gaps[0], rel=1e-12) and gap[-2] == np.max(gap)
    assert np.max(-gap) == pytest.approx(gaps[1], rel=1e-12) and gap[-1] == np.min(gap)


def test_nan_residual_fails_the_soliton_report():
    # a residual that is not shown within tolerance fails, wherever it sits
    rep = ResidualReport(0.0, 0.0, 0.0, float("nan"), SOLITON_TOL)
    assert not rep.passed
    assert rep.failures() == ["|grad b| <= 1"]
