import numpy as np
import pytest
from scipy.special import erf
from scipy import integrate

import shrinkerlab.grid as grid_module
from shrinkerlab import GridError, build_grid, make_model
from shrinkerlab.fields import (
    Field,
    FieldError,
    components_for,
    scalar_field,
    translation,
)
from shrinkerlab.grid import DIRICHLET, ONESIDED, PERIODIC
from shrinkerlab.models import sym2_contraction_weights
from shrinkerlab.operators import _CLOSURES, _STENCIL_2, _STENCIL_4


def test_mass_gaussian_1d_close_to_full_line(gaussian1):
    _, measure = build_grid(gaussian1, 256, 8.0)
    # int exp(-x^2/4) over |x|<8 = 2 sqrt(pi) erf(4)
    oracle = 2.0 * np.sqrt(np.pi) * erf(4.0)
    assert measure.total_mass == pytest.approx(oracle, abs=1e-6)
    assert abs(measure.total_mass - 2.0 * np.sqrt(np.pi)) < 1e-6


def test_mass_gaussian_2d_ball(gaussian2):
    _, measure = build_grid(gaussian2, 64, 6.0)
    oracle = 4.0 * np.pi * (1.0 - np.exp(-9.0))
    assert measure.total_mass == pytest.approx(oracle, abs=1e-3)


def test_mass_cylinder_with_cap_report(cylinder32):
    grid, measure = build_grid(cylinder32, 48, 8.0)
    T = np.sqrt(8.0**2 - 4.0)
    full = 8.0 * np.pi * np.exp(-1.0) * 2.0 * np.sqrt(np.pi) * erf(T / 2.0)
    capped = full * (1.0 - measure.cap_fraction)
    assert measure.total_mass == pytest.approx(capped, rel=5e-3)
    assert 0 < measure.cap_fraction < 0.1


def test_resolution_minimum_rejected(gaussian2):
    with pytest.raises(GridError, match="resolution below minimum"):
        build_grid(gaussian2, 8, 8.0)


def test_stencil_order_validated(gaussian2):
    with pytest.raises(GridError, match="stencil_order"):
        build_grid(gaussian2, 32, 8.0, stencil_order=3)


def test_truncation_radius_minimum(gaussian2):
    with pytest.raises(GridError):
        build_grid(gaussian2, 32, 2.0)


def test_node_cap_guard(gaussian2, monkeypatch):
    # the cap is read when the grid is built, not bound at import
    monkeypatch.setattr(grid_module, "DEFAULT_NODE_CAP", 100)
    with pytest.raises(GridError, match="above the cap 100"):
        build_grid(gaussian2, 64, 8.0)


def test_all_nodes_inside_truncation(grid2_64):
    grid, measure = grid2_64
    assert np.all(grid.b < grid.truncation_radius)
    assert np.all(measure.node_weights > 0)


@pytest.mark.parametrize("kind, n, k", [("gaussian", 2, None), ("cylinder", 3, 2)])
def test_neighbors_match_a_brute_force_lookup(kind, n, k):
    # every offset that a stencil or a closure reads, on Euclidean
    # (DIRICHLET), latitude (ONESIDED) and longitude (PERIODIC) axes
    grid, _ = build_grid(make_model(kind, n, k), 16, 4.0)
    ids = {tuple(multi): node for node, multi in enumerate(grid.node_multi.tolist())}
    offsets = sorted({off for rule in (_STENCIL_2, _STENCIL_4, *_CLOSURES) for off, _ in rule})
    assert offsets == [-2, -1, 0, 1, 2, 3]
    boundaries = {ax.boundary for ax in grid.axes}
    assert boundaries == ({DIRICHLET} if kind == "gaussian" else {DIRICHLET, ONESIDED, PERIODIC})
    for axis, ax in enumerate(grid.axes):
        for off in offsets:
            want = []
            for multi in grid.node_multi.tolist():
                multi[axis] += off
                if ax.boundary == PERIODIC:
                    multi[axis] %= ax.size
                want.append(ids.get(tuple(multi), -1))
            got = grid.neighbors(axis, off)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (axis, off)


def test_quadrature_refinement_order(gaussian2):
    # C^2 bump integrand supported inside the ball: the midpoint error has a
    # genuine algebraic order >= 2 and a closed 1-d radial oracle
    from shrinkerlab.fields import smoothstep

    def bump_sq(r):
        return smoothstep((4.0 - r) / 2.0) ** 2

    oracle, err = integrate.quad(
        lambda r: 2.0 * np.pi * r * bump_sq(r) * np.exp(-(r**2) / 4.0),
        0.0,
        4.0,
        epsabs=1e-13,
        limit=200,
    )
    errs = []
    for res in (24, 48):
        grid, measure = build_grid(gaussian2, res, 6.0)
        val = float(np.sum(measure.node_weights * bump_sq(grid.b)))
        errs.append(abs(val - oracle))
    assert errs[1] < errs[0] / 3.0


def test_inner_product_constant_mass(grid1_256):
    grid, _ = grid1_256
    one = Field(grid, "scalar", np.ones(grid.n_nodes))
    assert one.inner(one) == pytest.approx(2.0 * np.sqrt(np.pi), abs=1e-6)


def test_inner_product_vector_norm(grid2_64):
    grid, _ = grid2_64
    d1 = translation(grid, 0)
    assert d1.inner(d1) == pytest.approx(4.0 * np.pi, rel=1e-4)


def test_inner_product_gram_schmidt_exact(grid2_64, rng):
    grid, _ = grid2_64
    a = scalar_field(grid, lambda c: np.sin(c[:, 0]))
    b = scalar_field(grid, lambda c: np.cos(c[:, 1]) + 0.3 * np.sin(c[:, 0]))
    proj = a.inner(b) / a.inner(a)
    b_orth = b - a * proj
    val = a.inner(b_orth)
    assert abs(val) <= 1e-12 * a.norm() * b_orth.norm()


@pytest.mark.parametrize("grid_name", ["grid2_small", "cyl_grid"])
def test_contract_equals_summed_products_bit_for_bit(grid_name, request, rng):
    # the contraction forms no (components, N) product, yet it sums the
    # components in the same order as np.sum over the product
    grid, _ = request.getfixturevalue(grid_name)
    sym2 = sym2_contraction_weights(grid.inv_metric_diag)
    for rank, w in (("vector", grid.metric_diag.T), ("sym2tensor", sym2)):
        shape = (components_for(rank, grid.n), grid.n_nodes)
        a, b = (Field(grid, rank, rng.standard_normal(shape)) for _ in range(2))
        assert np.array_equal(a.contract(b), np.sum(w * a.values * b.values, axis=0)), rank


@pytest.mark.parametrize("rank", ["scalar", "vector", "sym2tensor"])
def test_flat_and_from_flat_share_memory_with_values(grid2_small, rng, rank):
    # values are stored component-major, the layout the operators read, so a
    # field enters and leaves an operator chain without a copy
    grid, _ = grid2_small
    flat = rng.standard_normal(grid.n_nodes * components_for(rank, grid.n))
    field = Field.from_flat(grid, rank, flat)
    assert np.shares_memory(field.values, flat)
    assert np.shares_memory(field.flat(), field.values)
    assert np.array_equal(field.flat(), flat)


def test_inner_product_rank_mismatch(grid2_64):
    grid, _ = grid2_64
    with pytest.raises(FieldError, match="rank"):
        Field(grid, "scalar", np.ones(grid.n_nodes)).inner(translation(grid, 0))


def test_inner_product_positive_definite(grid2_small, rng):
    grid, _ = grid2_small
    for _ in range(5):
        f = Field(grid, "vector", rng.standard_normal((2, grid.n_nodes)))
        assert f.inner(f) > 0
    z = Field(grid, "vector", np.zeros((grid.n, grid.n_nodes)))
    assert z.inner(z) == 0.0
