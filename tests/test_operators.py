import threading

import numpy as np
import pytest

from conftest import held_arrays, traced_peak
from shrinkerlab import build_grid, make_model
from shrinkerlab.fields import (
    Field,
    bump_vector,
    components_for,
    dilation,
    euclidean_rotation,
    radial_bump,
    scalar_field,
    translation,
)
from shrinkerlab.models import sym_pairs
from shrinkerlab.operators import OperatorKind, identity_residuals


def stencil_tol(grid, factor=10.0):
    return factor * grid.max_spacing**grid.stencil_order


def random_field(grid, rank, rng):
    size = grid.n_nodes * components_for(rank, grid.n)
    return Field.from_flat(grid, rank, rng.standard_normal(size))


# ---- adjointness and operator structure -----------------------------------


def test_divfstar_divftensor_adjoint_to_machine_precision(grid2_small, rng):
    grid, _ = grid2_small
    ops = grid.ops()
    for _ in range(20):
        v = random_field(grid, "vector", rng)
        h = random_field(grid, "sym2tensor", rng)
        left = ops.div_star(v).inner(h)
        right = v.inner(ops.div(h))
        assert abs(left - right) <= 1e-12 * max(abs(left), abs(right), 1e-30)


def test_gradient_divergence_adjoint(grid2_small, rng):
    grid, _ = grid2_small
    ops = grid.ops()
    for _ in range(10):
        u = random_field(grid, "scalar", rng)
        y = random_field(grid, "vector", rng)
        left = ops.grad(u).inner(y)
        right = u.inner(ops.div(y) * -1.0)
        assert abs(left - right) <= 1e-12 * max(abs(left), abs(right), 1e-30)


@pytest.fixture(scope="module")
def cyl_grid_order4(cylinder32):
    return build_grid(cylinder32, 32, 6.0, stencil_order=4)


@pytest.mark.parametrize("grid_name", ["grid2_small", "cyl_grid", "cyl_grid_order4"])
def test_factored_apply_matches_assembled_matrix(grid_name, request, rng):
    # the assembled matrix is the oracle for the factor-by-factor application
    grid, _ = request.getfixturevalue(grid_name)
    ops = grid.ops()
    for kind in OperatorKind:
        handle = ops.handle(kind)
        mat = handle.matrix
        for _ in range(3):
            x = rng.standard_normal(mat.shape[1])
            got = handle.apply(Field.from_flat(grid, handle.in_rank, x)).flat()
            want = mat @ x
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), kind


@pytest.mark.parametrize("grid_name", ["grid2_small", "cyl_grid"])
def test_matvec_leaves_its_input_unchanged(grid_name, request, rng):
    # the factors after a chain's first scale their input in place; the
    # caller's vector is never one of them
    grid, _ = request.getfixturevalue(grid_name)
    ops = grid.ops()
    for kind in OperatorKind:
        x = rng.standard_normal(grid.n_nodes * components_for(ops.handle(kind).in_rank, grid.n))
        before = x.copy()
        ops.matvec(kind, x)
        assert np.array_equal(x, before), kind


def test_identity_residuals_memory_bounded(cylinder32):
    # no covariant derivative's Gram (n * comps * N entries) is cached, and
    # the identities, evaluated one at a time with L applied one axis block
    # at a time, peak within four sym2 fields (3.7 measured)
    grid, _ = build_grid(cylinder32, 24, 6.0)
    ops = grid.ops()
    Y = bump_vector(grid, 0, 2.7, 4.32)
    identity_residuals(Y)  # builds every factor the identities apply
    biggest = max(a.size for a in held_arrays(vars(ops)))
    assert biggest < grid.n * grid.n * grid.n_nodes
    sym2_bytes = 8 * grid.n_nodes * components_for("sym2tensor", grid.n)
    _, peak, _ = traced_peak(identity_residuals, Y)
    assert peak <= 4 * sym2_bytes, peak / sym2_bytes


def test_weighted_adjoints_neither_copy_nor_change_their_input(cylinder32):
    # div_f weights each row of its input by G_out as it reads it: the input,
    # a sym2 or a vector field, is never copied (peaks 0.84 and 0.50 sym2
    # fields measured; a copy of the input adds 1 and 0.5)
    grid, _ = build_grid(cylinder32, 24, 6.0)
    ops = grid.ops()
    sym2_bytes = 8 * grid.n_nodes * components_for("sym2tensor", grid.n)
    rng = np.random.default_rng(2)
    for kind, bound in ((OperatorKind.DIV_F_TENSOR, 1.0), (OperatorKind.DIV_F_VEC, 0.6)):
        x = rng.standard_normal(grid.n_nodes * components_for(ops.handle(kind).in_rank, grid.n))
        drawn = x.copy()
        ops.matvec(kind, x)  # builds the factors
        _, peak, _ = traced_peak(ops.matvec, kind, x)
        assert peak <= bound * sym2_bytes, (kind, peak / sym2_bytes)
        assert np.array_equal(x, drawn)


def test_assembling_p_builds_only_its_factors(gaussian2):
    # P = div_f o div_f^* needs the div_f^* term list and its weighted adjoint;
    # the sym2 covariant derivative and the curvature action are left unbuilt
    grid, _ = build_grid(gaussian2, 24, 6.0)
    ops = grid.ops()
    ops.handle(OperatorKind.OP_P).matrix
    assert "_div_f_star_terms" in ops.__dict__
    for name in ("_cov_sym2_terms", "riemann_block", "_cov_vector_terms", "_gradient_terms",
                 "_rough_sym2", "_rough_vector"):
        assert name not in ops.__dict__, name


def test_constant_factors_are_stored_as_scalars(grid2_small, cyl_grid):
    # every metric factor of the Gaussian is 1, stored as None; on the
    # cylinder g_00 = 1, g_11 = r^2 is one value at every node, and only
    # g_22 = r^2 sin^2(theta) stays a per-node array
    factors = [f for _, _, _, left, right in grid2_small[0].ops()._div_f_star_terms.derivs
               for f in (left, right)]
    assert not any(isinstance(f, np.ndarray) for f in factors)
    assert factors.count(None) == len(factors) // 2
    grid = cyl_grid[0]
    ops = grid.ops()
    right = {o: r for o, i, _, _, r in ops._div_f_star_terms.derivs if ops.pairs[o] == (i, i)}
    assert right[ops._slot(0, 0)] is None
    assert np.ndim(right[ops._slot(1, 1)]) == 0
    assert right[ops._slot(1, 1)] == grid.metric_diag[0, 1] == grid.model.sphere_radius ** 2
    assert isinstance(right[ops._slot(2, 2)], np.ndarray)


@pytest.mark.parametrize("grid_name", ["grid2_small", "cyl_grid"])
def test_term_lists_apply_bit_for_bit_as_written(grid_name, request, rng):
    # a factor stored as a scalar or as None scales as the per-node array it
    # stands for, and the in-place scalings keep the association order of
    # left * D_a (right * x) and right * D_a^T (left * (weight * y))
    grid, _ = request.getfixturevalue(grid_name)
    ops = grid.ops()
    N = grid.n_nodes
    ones = np.ones(N)

    def full(factor):
        return ones if factor is None else factor * ones

    for op in (ops._gradient_terms, ops._div_f_star_terms, *ops._cov_sym2_terms):
        x = rng.standard_normal((op.n_in, N))
        y = rng.standard_normal((op.n_out, N))
        weight = rng.uniform(0.5, 2.0, (op.n_out, N))
        forward, back = np.zeros((op.n_out, N)), np.zeros((op.n_in, N))
        for o, i, a, left, right in op.derivs:
            forward[o] += full(left) * (op.diffs[a] @ (full(right) * x[i]))
            back[i] += full(right) * (op.diffs[a].T @ (full(left) * (weight[o] * y[o])))
        for o, i, coef in op.points:
            forward[o] += coef * x[i]
            back[i] += coef * (weight[o] * y[o])
        assert np.array_equal(op.apply(x.ravel()), forward.ravel())
        out = np.zeros(op.n_in * N)
        op.rapply(y.ravel(), out, weight.ravel())
        assert np.array_equal(out, back.ravel())


def _serial_adjoint_gap(ops, kind, adjoint, rng, probes):
    """`Operators.adjoint_gap` as a serial loop: u, then v, each drawn
    standard normal in sqrt(G) x just before it is used."""
    grid = ops.grid
    in_rank, out_rank = ops.handle(kind).in_rank, ops.handle(kind).out_rank

    def probe(rank):
        gram = grid.gram(rank).ravel()
        return rng.standard_normal(gram.size) / np.sqrt(gram)

    worst_gap, least = 0.0, float("inf")
    for _ in range(probes):
        u = probe(in_rank)
        Mu = ops.matvec(kind, u)
        least = min(least, grid.inner(out_rank, Mu, Mu) / grid.inner(in_rank, u, u))
        v = probe(out_rank)
        left = grid.inner(out_rank, Mu, v)
        right = grid.inner(in_rank, u, ops.matvec(adjoint, v))
        worst_gap = max(worst_gap, abs(left - right) / max(abs(left), abs(right), 1e-300))
    return worst_gap, least


@pytest.mark.parametrize("kind, adjoint", [
    (OperatorKind.DIV_F_STAR, OperatorKind.DIV_F_TENSOR),
    # input and output of one rank: u and v must still be arrays of their own
    (OperatorKind.OP_P, OperatorKind.OP_P),
])
def test_adjoint_gap_draws_as_a_serial_loop(cyl_grid, kind, adjoint):
    # the helper thread draws one probe ahead from the same generator, in the
    # same order, so the gap, the least Rayleigh quotient and the generator's
    # next draw are those of the serial loop, bit for bit
    ops = cyl_grid[0].ops()
    drawn, serial = np.random.default_rng(5), np.random.default_rng(5)
    assert ops.adjoint_gap(kind, adjoint, drawn, 4) == _serial_adjoint_gap(
        ops, kind, adjoint, serial, 4)
    assert drawn.standard_normal() == serial.standard_normal()


def test_adjoint_gap_raises_from_the_loop_and_joins_its_helper(cylinder32, monkeypatch):
    # matvec fails on the second probe's u while the helper draws its v: the
    # error reaches the caller, and the helper has been joined
    grid, _ = build_grid(cylinder32, 24, 6.0)
    ops = grid.ops()
    matvec, calls, running = ops.matvec, [], []

    def failing(kind, x):
        calls.append(kind)
        if len(calls) == 3:
            running.append(threading.active_count())
            raise RuntimeError("matvec failed")
        return matvec(kind, x)

    monkeypatch.setattr(ops, "matvec", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="matvec failed"):
        ops.adjoint_gap(OperatorKind.OP_P, OperatorKind.OP_P, np.random.default_rng(0), 3)
    assert running == [before + 1]
    assert threading.active_count() == before


def test_p_positive_semidefinite(grid2_small, rng):
    grid, _ = grid2_small
    ops = grid.ops()
    for _ in range(20):
        Y = Field(grid, "vector", rng.standard_normal((2, grid.n_nodes)))
        assert ops.rayleigh_p(Y) >= -1e-8


def test_drift_laplacian_weighted_symmetry_all_ranks(grid2_small, rng):
    grid, _ = grid2_small
    ops = grid.ops()
    for rank in ("scalar", "vector", "sym2tensor"):
        for _ in range(5):
            u = random_field(grid, rank, rng)
            v = random_field(grid, rank, rng)
            left = ops.lap(u).inner(v)
            right = u.inner(ops.lap(v))
            assert abs(left - right) <= 1e-12 * max(abs(left), abs(right), 1e-30)


def test_drift_laplacian_negative_semidefinite(grid2_small, rng):
    grid, _ = grid2_small
    ops = grid.ops()
    for _ in range(10):
        u = Field(grid, "scalar", rng.standard_normal(grid.n_nodes))
        lu = ops.lap(u)
        assert u.inner(lu) <= 1e-10


# ---- closed-form checks -----------------------------------------------------


def test_div_f_star_annihilates_killing_fields_to_stencil_order(grid2_64):
    grid, _ = grid2_64
    ops = grid.ops()
    for Y in (translation(grid, 0), translation(grid, 1), euclidean_rotation(grid)):
        assert ops.div_star(Y).norm() / Y.norm() <= stencil_tol(grid)


def test_div_f_star_dilation_is_minus_metric(grid1_256):
    grid, _ = grid1_256
    ops = grid.ops()
    ds = ops.div_star(dilation(grid))
    core = grid.b <= 4.0
    np.testing.assert_allclose(ds.values[0, core], -1.0, atol=5e-3)


def test_div_f_tensor_on_minus_metric(grid1_256):
    # h = -g maps to the gradient of the potential, x/2
    grid, _ = grid1_256
    ops = grid.ops()
    h = Field(grid, "sym2tensor", -np.ones((1, grid.n_nodes)))
    out = ops.div(h)
    core = grid.b <= 4.0
    x = grid.coords[core, 0]
    np.testing.assert_allclose(out.values[0, core], x / 2.0, atol=5e-3)


def test_div_f_tensor_matches_reference_formula(gaussian2, cylinder32):
    # dual route: adjoint-defined divergence vs direct discretization, on the
    # flat Gaussian and on the cylinder, whose Christoffel symbols the direct
    # route couples explicitly
    def gap(grid, vals):
        ops = grid.ops()
        h = ops.div_star(Field(grid, "vector", vals))
        adjoint_route = ops.div(h)
        direct = Field.from_flat(grid, "vector", ops.div_f_tensor_reference.apply(h.flat()))
        return (adjoint_route - direct).norm() / max(direct.norm(), 1e-30)

    errs = []
    for res in (32, 64):
        grid, _ = build_grid(gaussian2, res, 6.0)
        bump = radial_bump(grid, 2.0, 4.0)
        vals = np.stack([bump * np.sin(grid.coords[:, 1]), bump * grid.coords[:, 0]])
        errs.append(gap(grid, vals))
    assert errs[1] <= errs[0] / 2.5
    assert errs[1] <= 0.02
    # below res 40 the latitude keeps MIN_RESOLUTION nodes and the gap stalls
    errs = []
    for res in (48, 64):
        grid, _ = build_grid(cylinder32, res, 6.0)
        theta, phi = grid.coords[:, 1], grid.coords[:, 2]
        amp = radial_bump(grid, 2.0, 3.5) * np.sin(theta) ** 4
        errs.append(gap(grid, amp * np.stack([np.cos(phi), np.sin(2 * theta), np.cos(theta)])))
    assert errs[1] <= errs[0] / (64 / 48) ** 2
    assert errs[1] <= 0.05


@pytest.mark.parametrize("order", [2, 4])
def test_latitude_diff_rows_are_exact_on_quadratics(cylinder32, order):
    # f is constant along the latitude, so there D_theta = C_theta: its interior,
    # central and one-sided closure rows (order + 2, 2 and 3 entries) each
    # differentiate theta^2 to round-off
    for res in (24, 48):
        grid, _ = build_grid(cylinder32, res, 6.0, stencil_order=order)
        d_theta = grid.ops().diffs[1]
        assert set(np.diff(d_theta.indptr)) == {order + 2, 2, 3}
        theta = grid.coords[:, 1]
        np.testing.assert_allclose(d_theta @ theta**2, 2.0 * theta, rtol=1e-12, atol=0.0)


def test_div_f_vec_translation(grid2_64):
    grid, _ = grid2_64
    ops = grid.ops()
    v = ops.div(translation(grid, 0))
    target = Field(grid, "scalar", -grid.coords[:, 0] / 2.0)
    rel = (v - target).norm_where(grid.interior_mask()) / target.norm()
    assert rel <= 1e-2


def test_drift_laplacian_sign_convention(grid1_256):
    # L x = -x/2 pins the drift sign; (L + 1/2) x = 0
    grid, _ = grid1_256
    ops = grid.ops()
    u = scalar_field(grid, lambda c: c[:, 0])
    lu = ops.lap(u)
    core = grid.b <= 4.0
    err = lu.values[core] + 0.5 * u.values[core]
    assert np.max(np.abs(err)) <= 2.0 * grid.max_spacing**2


def test_drift_laplacian_constant(grid2_64):
    grid, _ = grid2_64
    ops = grid.ops()
    lu = ops.lap(Field(grid, "scalar", np.ones(grid.n_nodes)))
    assert lu.norm_where(grid.interior_mask()) <= stencil_tol(grid)


def test_op_p_dilation_eigenfield(grid1_256):
    grid, _ = grid1_256
    ops = grid.ops()
    Y = dilation(grid)
    assert ops.rayleigh_p(Y) == pytest.approx(0.5, abs=2e-3)
    py = ops.p_apply(Y)
    core = grid.b <= 4.0
    err = py.values[0, core] - 0.5 * Y.values[0, core]
    assert np.max(np.abs(err)) <= 1e-2


def test_op_p_rayleigh_converges_to_half(gaussian1):
    errs = []
    for res, R in ((128, 8.0), (256, 10.0)):
        grid, _ = build_grid(gaussian1, res, R)
        errs.append(abs(grid.ops().rayleigh_p(dilation(grid)) - 0.5))
    assert errs[1] < errs[0]


def test_op_p_kernel_on_cylinder_translation(cyl_grid):
    grid, _ = cyl_grid
    ops = grid.ops()
    Y = translation(grid, 0)
    assert ops.p_apply(Y).norm() / Y.norm() <= stencil_tol(grid)


def test_op_l_equals_drift_laplacian_on_gaussian(grid2_small, rng):
    grid, _ = grid2_small
    ops = grid.ops()
    for _ in range(3):
        h = random_field(grid, "sym2tensor", rng)
        np.testing.assert_array_equal(ops.apply(OperatorKind.OP_L, h).values, ops.lap(h).values)


def test_op_l_fixes_sphere_metric(cylinder32):
    # L(g_sph) = g_sph: the rough Laplacian kills the parallel tensor and the
    # curvature action contributes the tensor back
    errs = []
    for res in (48, 96):
        grid, _ = build_grid(cylinder32, res, 8.0)
        ops = grid.ops()
        pairs = sym_pairs(3)
        vals = np.zeros((len(pairs), grid.n_nodes))
        for slot, (i, j) in enumerate(pairs):
            if i == j and i >= 1:
                vals[slot] = grid.metric_diag[:, i]
        h = Field(grid, "sym2tensor", vals)
        # the polar caps carry the chart-degeneracy penalty; measure away
        theta = grid.coords[:, 1]
        away = (theta > 0.5) & (theta < np.pi - 0.5)
        diff = ops.apply(OperatorKind.OP_L, h) - h
        errs.append(diff.norm_where(away) / h.norm_where(away))
    assert errs[1] <= errs[0] / 2.0
    assert errs[1] <= 0.2


@pytest.mark.parametrize("shape", [(3, 2), (4, 2)], ids=["cylinder32", "cylinder42"])
def test_riemann_block_matches_pointwise_action(shape, cyl_grid, rng):
    # the pointwise model matrix is the oracle for the assembled block
    if shape == (3, 2):
        grid, _ = cyl_grid
    else:
        grid, _ = build_grid(make_model("cylinder", *shape), 16, 4.0)
    block = grid.ops().riemann_block.assemble()
    N = grid.n_nodes
    slots = np.arange(len(sym_pairs(grid.n))) * N
    for node in rng.choice(N, size=200, replace=False):
        idx = slots + node
        local = block[idx][:, idx].toarray()
        expected = grid.model.riemann_action_matrix(grid.coords[node])
        np.testing.assert_allclose(local, expected, rtol=1e-14, atol=1e-14)
    assert np.any(expected != 0.0)


def test_op_l_zero(grid2_small):
    grid, _ = grid2_small
    ops = grid.ops()
    out = ops.apply(OperatorKind.OP_L, Field(grid, "sym2tensor", np.zeros((3, grid.n_nodes))))
    assert out.norm() == 0.0


def test_lie_derivative_alias(grid2_small):
    # L_Y g = -2 div_f^* Y; the dilation x^i d_i of the flat factor scales
    # the metric, L_Y g = 2 g, packed as (g_00, g_01, g_11) = (1, 0, 1)
    grid, _ = grid2_small
    lie = grid.ops().div_star(dilation(grid)) * (-2.0)
    core = grid.b <= 3.0
    want = np.broadcast_to([[2.0], [0.0], [2.0]], lie.values[:, core].shape)
    np.testing.assert_allclose(lie.values[:, core], want, atol=0.05)


def test_hessian_of_quadratic(gaussian2):
    grid, _ = build_grid(gaussian2, 128, 8.0)
    ops = grid.ops()
    u = scalar_field(grid, lambda c: c[:, 0] * c[:, 1])
    hess = ops.hess(u)
    core = grid.b <= 4.0
    np.testing.assert_allclose(hess.values[0, core], 0.0, atol=2e-2)
    np.testing.assert_allclose(hess.values[1, core], 1.0, atol=2e-2)
    np.testing.assert_allclose(hess.values[2, core], 0.0, atol=2e-2)


# ---- rank/grid guards -------------------------------------------------------


def test_apply_rejects_wrong_rank(grid2_small):
    grid, _ = grid2_small
    ops = grid.ops()
    with pytest.raises(Exception, match="expects"):
        ops.handle(OperatorKind.DIV_F_STAR).apply(Field(grid, "scalar", np.ones(grid.n_nodes)))


def test_apply_rejects_wrong_grid(grid2_small, grid2_64):
    ga, _ = grid2_small
    gb, _ = grid2_64
    with pytest.raises(Exception):
        ga.ops().handle(OperatorKind.OP_P).apply(translation(gb, 0))


# ---- commutation identities -------------------------------------------------


def test_identity_residuals_zero_field(grid2_small):
    grid, _ = grid2_small
    rep = identity_residuals(Field(grid, "vector", np.zeros((grid.n, grid.n_nodes))))
    assert all(v == 0.0 for v in rep.residuals.values())


def test_identity_residuals_converge_at_stencil_order(gaussian2):
    reports = {}
    for res in (32, 64):
        grid, _ = build_grid(gaussian2, res, 4.0)
        reports[res] = identity_residuals(bump_vector(grid, 0, 1.8, 2.9))
        assert not reports[res].boundary_warning
    for name, coarse in reports[32].residuals.items():
        fine = reports[64].residuals[name]
        order = np.log2(coarse / fine)
        assert order >= 1.5, (name, coarse, fine)


def test_identity_residuals_killing_times_bump(gaussian2):
    grid, _ = build_grid(gaussian2, 64, 4.0)
    Y = euclidean_rotation(grid).scale_by(radial_bump(grid, 1.8, 2.9))
    rep = identity_residuals(Y)
    assert max(rep.residuals.values()) <= 0.05


def test_identity_residuals_boundary_warning(grid2_small):
    grid, _ = grid2_small
    rep = identity_residuals(translation(grid, 0))
    assert rep.boundary_warning
