import re

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import splu

from shrinkerlab import build_grid, make_model, spectral
from shrinkerlab.fields import (
    Field,
    dilation,
    euclidean_rotation,
    killing_basis,
    killing_fields,
)
from shrinkerlab.operators import OperatorKind
from shrinkerlab.spectral import (
    SolverError,
    canonicalize_degenerate,
    decompose_eigenfield,
    group_degenerate,
    lowest_eigenpairs,
    near_kernel_block,
)


@pytest.fixture(scope="module")
def pairs1(grid1_256):
    grid, _ = grid1_256
    return grid, lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), 4)


def test_spectrum_gaussian_1d(pairs1):
    _, pairs = pairs1
    mus = [p.mu for p in pairs]
    # continuum spectrum 0, 1/2, 1, 3/2
    np.testing.assert_allclose(mus, [0.0, 0.5, 1.0, 1.5], atol=5e-3)
    assert all(p.residual <= 1e-9 for p in pairs)


def test_pairs_sorted_and_orthonormal(pairs1):
    _, pairs = pairs1
    mus = [p.mu for p in pairs]
    assert mus == sorted(mus)
    for i in range(len(pairs)):
        for j in range(i, len(pairs)):
            val = pairs[i].field.inner(pairs[j].field)
            assert abs(val - (1.0 if i == j else 0.0)) <= 1e-8


def test_rayleigh_consistency(pairs1):
    grid, pairs = pairs1
    ops = grid.ops()
    for p in pairs:
        assert abs(ops.rayleigh_p(p.field) - p.mu) <= max(1e-10, 10 * p.residual)
        # <Y, P Y> equals |div_f^* Y|^2 by construction
        ds = ops.div_star(p.field)
        assert abs(p.field.inner(ops.p_apply(p.field)) - ds.inner(ds)) <= 1e-10


def test_pair_nearest_dilation_shape(pairs1):
    grid, pairs = pairs1
    dil = dilation(grid)
    dil = dil * (1.0 / dil.norm())
    cosines = [abs(p.field.inner(dil)) for p in pairs]
    best = int(np.argmax(cosines))
    assert pairs[best].mu == pytest.approx(0.5, abs=5e-3)
    assert cosines[best] >= 0.99


def test_eigenvalue_error_improves_under_refinement(gaussian1):
    errs = []
    for res in (256, 512):
        grid, _ = build_grid(gaussian1, res, 10.0)
        pairs = lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), 2)
        errs.append(abs(pairs[1].mu - 0.5))
    assert errs[1] < errs[0]


def test_dense_and_sparse_paths_agree(gaussian1):
    # the sparse path is the one above DENSE_CAP: the Killing block, then its
    # complement, both LOBPCG on P's factor
    grid, _ = build_grid(gaussian1, 200, 8.0)
    handle = grid.ops().handle(OperatorKind.OP_P)
    dense = lowest_eigenpairs(handle, 3, method="dense")
    sparse = lowest_eigenpairs(handle, 3, method="complement")
    for a, b in zip(dense, sparse):
        assert abs(a.mu - b.mu) <= 1e-8


def _grid_with_broken_p_row(gaussian1, row, column=False, scale=0.0):
    """A fresh 1D grid whose applied P has `row` of its output scaled by
    `scale` (zeroed by default), and with `column` the same column of its
    input zeroed, a weighted-symmetric break; the solvers' form is intact."""
    grid, _ = build_grid(gaussian1, 256, 10.0)
    ops = grid.ops()
    matvec = ops.matvec

    def broken(kind, x):
        if kind == OperatorKind.OP_P and column:
            x = x.copy()
            x[row] = 0.0
        y = matvec(kind, x)
        if kind == OperatorKind.OP_P:
            y[row] *= scale
        return y

    ops.matvec = broken
    return grid


@pytest.mark.parametrize("row", [3, 128], ids=["low_weight_row", "central_row"])
def test_broken_adjoint_detected(gaussian1, row):
    # the probe draws its vectors in the symmetric variables, where every row
    # weighs equally: row 3, of quadrature weight 4.2e-12, shows as plainly
    # as the central row 128
    grid = _grid_with_broken_p_row(gaussian1, row)
    with pytest.raises(SolverError, match="adjointness broken"):
        lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), 2)


def test_adjointness_probe_holds_p_to_1e_12(gaussian1):
    # scaling the central row of P's output by 1 + s opens a probe gap of
    # 0.079 s at seed 0 (the same ratio from s = 1e-10 to 1e-4): s = 1e-10
    # passed a probe at 1e-8, and fails the one tolerance of the contract,
    # ADJOINT_TOL = 1e-12
    grid = _grid_with_broken_p_row(gaussian1, 128, scale=1.0 + 1e-10)
    gap, _ = grid.ops().adjoint_gap(OperatorKind.OP_P, OperatorKind.OP_P,
                                    np.random.default_rng(0), 3)
    assert 7e-12 <= gap <= 9e-12
    with pytest.raises(SolverError, match="adjointness broken"):
        lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), 2)


def test_pair_count_rule_refuses_before_any_solve(monkeypatch):
    # 1,432 unknowns above DENSE_CAP: a complement run of width
    # max(count - 3, 1) + BUFFER needs 1,429 >= 5 * width, so 283 pairs at
    # most; at 284 scipy's lobpcg would fall back to a dense solve that
    # rejects the block constraint
    grid, _ = build_grid(make_model("gaussian", 2), 30, 6.0)
    assert grid.n_nodes * grid.n == 1432
    spectral.check_pair_count(grid, 283)
    monkeypatch.setattr(spectral, "_p_factor", lambda grid: pytest.fail("solve started"))
    with pytest.raises(ValueError, match="eigs must be at most 283 on this grid"):
        lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), 284)
    # the dense path returns all but one unknown
    spectral.check_pair_count(grid, 1431, method="dense")
    with pytest.raises(ValueError, match="below the 1432 unknowns"):
        spectral.check_pair_count(grid, 1432, method="dense")


@pytest.mark.parametrize("method", ["dense", "complement", "lobpcg"])
def test_every_path_raises_above_ten_times_tolerance(gaussian1, method):
    # zeroing row and column 3 keeps P weighted-symmetric, so the probe
    # passes; the solve reads the intact factor form, and the break leaves
    # its pairs a residual |P y - mu y| far above 10 * tolerance. The lobpcg
    # path solves the one Killing pair of the 1D model
    grid = _grid_with_broken_p_row(gaussian1, 3, column=True)
    count = 1 if method == "lobpcg" else 2
    with pytest.raises(SolverError, match="did not converge"):
        lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), count, method=method)


def test_lowest_eigenpairs_solves_p_only(grid1_256):
    grid, _ = grid1_256
    with pytest.raises(ValueError, match="P only"):
        lowest_eigenpairs(grid.ops().handle(OperatorKind.DRIFT_LAPLACIAN_VECTOR), 2)


@pytest.mark.parametrize("which", ["grid2_small", "cyl_grid", "gaussian3_16"])
def test_symmetric_form_is_exactly_symmetric(request, which):
    # A = K^T K is symmetric bit for bit, and equals S P S^-1 to round-off
    if which == "gaussian3_16":
        grid, _ = build_grid(make_model("gaussian", 3), 16, 6.0)
    else:
        grid, _ = request.getfixturevalue(which)
    A, s = spectral._symmetric_form(grid)
    assert (A - A.T).nnz == 0
    P = grid.ops().assemble(OperatorKind.OP_P)
    conjugated = spectral.sp.diags(s) @ P @ spectral.sp.diags(1.0 / s)
    assert abs(A - conjugated).max() <= 1e-13 * abs(A).max()


@pytest.mark.parametrize("which", ["grid2_small", "cylinder32_16"])
def test_factored_form_applies_symmetric_form(request, which):
    # the LOBPCG path applies A as K^T (K X); it is the assembled A's product
    if which == "cylinder32_16":
        grid, _ = build_grid(make_model("cylinder", 3, 2), 16, 6.0)
    else:
        grid, _ = request.getfixturevalue(which)
    A, _ = spectral._symmetric_form(grid)
    K, _ = spectral._p_factor(grid)
    X = np.random.default_rng(5).standard_normal((A.shape[0], 3))
    AX = A @ X
    gap = np.linalg.norm(spectral._factored_form(K) @ X - AX, axis=0)
    assert np.max(gap / np.linalg.norm(AX, axis=0)) <= 1e-12


def test_near_kernel_block_assembles_no_symmetric_form(gaussian2, monkeypatch):
    # both LOBPCG runs and the V-cycle work from P's factor K alone
    grid, _ = build_grid(gaussian2, 56, 6.0)

    def assembled(grid):
        raise AssertionError("the near-kernel path assembled A")

    monkeypatch.setattr(spectral, "_symmetric_form", assembled)
    block = near_kernel_block(grid)
    assert len(block.pairs) == 3 and block.worst_residual <= 1e-8


def test_count_validation(grid1_256):
    grid, _ = grid1_256
    handle = grid.ops().handle(OperatorKind.OP_P)
    with pytest.raises(ValueError):
        lowest_eigenpairs(handle, 0)


def test_kernel_multiplicity_gaussian_2d(gaussian2):
    grid, _ = build_grid(gaussian2, 64, 8.0)
    pairs = lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), 5, method="complement")
    thresh = 10.0 * grid.max_spacing**2
    assert sum(1 for p in pairs if p.mu <= thresh) >= 3


def test_group_degenerate_blocks(pairs1):
    _, pairs = pairs1
    blocks = group_degenerate(pairs)
    assert [len(b) for b in blocks] == [1, 1, 1, 1]


def test_decompose_divf_bound_and_equation(pairs1):
    _, pairs = pairs1
    for p in pairs:
        dec = decompose_eigenfield(p)
        assert dec.divf_bound_ok
        assert dec.divf_norm_sq <= 4.0 * p.mu + 1.0 + 1e-3
        if not dec.divf_skipped:
            assert dec.divf_eigen_residual <= 1e-2


def test_decompose_divf_translation_value(pairs1):
    # |div_f(d_x)|^2 / |d_x|^2 = 1/2 on the Gaussian
    _, pairs = pairs1
    dec = decompose_eigenfield(pairs[0])
    assert dec.divf_norm_sq == pytest.approx(0.5, abs=5e-3)


def test_decompose_norm_identity_exact(pairs1):
    _, pairs = pairs1
    for p in pairs:
        dec = decompose_eigenfield(p)
        assert dec.norm_gap <= max(1e-6, 10.0 * p.residual)
        assert all(v is None or v <= 1e-2 for v in dec.residuals.values())
        if not dec.trivial:
            # beta matches 2/(2 mu + 1) to stencil order
            assert dec.beta_mismatch <= 1e-2


def test_decompose_dilation_pair_cancels(pairs1):
    # gradient eigenfield: Z = Y + beta grad(div Y) nearly vanishes
    _, pairs = pairs1
    dec = decompose_eigenfield(pairs[1])
    assert dec.z.norm() <= 0.05 * pairs[1].field.norm()
    assert dec.residuals["z_eigen"] is None


def test_decompose_rotation_pair_trivial(gaussian2):
    grid, _ = build_grid(gaussian2, 48, 8.0)
    pairs = lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), 4, method="complement")
    pairs = canonicalize_degenerate(pairs)
    rot = euclidean_rotation(grid)
    rot = rot * (1.0 / rot.norm())
    best = max(pairs, key=lambda p: abs(p.field.inner(rot)))
    assert abs(best.field.inner(rot)) >= 0.99
    dec = decompose_eigenfield(best)
    assert dec.trivial
    assert dec.norm_gap == 0.0


def test_canonicalize_splits_kernel_block(gaussian2):
    grid, _ = build_grid(gaussian2, 48, 8.0)
    ops = grid.ops()
    pairs = canonicalize_degenerate(
        lowest_eigenpairs(ops.handle(OperatorKind.OP_P), 3, method="complement")
    )
    # divergence content is sorted ascending inside the kernel block:
    # the rotation comes first, then the two translations
    div_norms = [ops.div(p.field).norm() for p in pairs]
    assert div_norms[0] <= 0.05
    assert div_norms[1] == pytest.approx(np.sqrt(0.5), abs=0.05)
    assert div_norms[2] == pytest.approx(np.sqrt(0.5), abs=0.05)


def test_gradient_norm_bounded_under_refinement(gaussian1):
    # W^{1,2} membership proxy: |grad Y| stays bounded as the grid refines
    norms = []
    for res in (128, 256):
        grid, _ = build_grid(gaussian1, res, 8.0)
        ops = grid.ops()
        pairs = lowest_eigenpairs(ops.handle(OperatorKind.OP_P), 2)
        norms.append(float(np.sqrt(np.sum(grid.weights * ops.grad_norm_sq(pairs[1].field)))))
    assert norms[1] <= 1.2 * norms[0]


# ---- solver-path oracle and the per-grid near-kernel block -------------------


@pytest.fixture(scope="module")
def grid56(gaussian2):
    # 2,472 nodes, 4,944 unknowns, above DENSE_CAP: each path is forced on
    # it, the dense oracle among them
    grid, _ = build_grid(gaussian2, 56, 6.0)
    return grid


def _largest_angle(grid, a, b) -> float:
    """Largest principal angle between two pair spans, in the weighted inner product."""
    s = np.sqrt(grid.gram("vector")).ravel()
    span = [np.stack([p.field.flat() * s for p in pairs], axis=1) for pairs in (a, b)]
    return float(np.max(sla.subspace_angles(*span)))


@pytest.fixture(scope="module")
def dense6(grid56):
    """The dense oracle's six lowest pairs on grid56, solved once for the module."""
    return lowest_eigenpairs(grid56.ops().handle(OperatorKind.OP_P), 6, method="dense")


def test_solver_paths_agree_with_dense_oracle(grid56, dense6):
    handle = grid56.ops().handle(OperatorKind.OP_P)
    assert handle.matrix.shape[0] == 4944
    dense = dense6[:3]
    others = {
        "complement": lowest_eigenpairs(handle, 3, method="complement"),
        "lobpcg": lowest_eigenpairs(handle, 3, method="lobpcg"),
        "near_kernel_block": near_kernel_block(grid56).pairs,
    }
    for name, pairs in others.items():
        for a, b in zip(dense, pairs):
            assert abs(a.mu - b.mu) <= 1e-12, name
        assert _largest_angle(grid56, dense, pairs) < 1e-6, name


def _complement_run(capsys) -> tuple[int, int]:
    """The iterations and restarts of the one complement line on stderr since
    the last read."""
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("complement:")]
    assert len(lines) == 1, lines
    found = re.search(r" in (\d+) iterations, (\d+) restarts;", lines[0])
    return int(found.group(1)), int(found.group(2))


def test_complement_agrees_with_dense_oracle_at_cluster_cut(grid56, dense6, capsys):
    # six pairs take the three Killing pairs and reach into the cluster at 1/2,
    # where the count-3 oracle test does not go; the complement run of width
    # 3 + BUFFER converges in 37-38 iterations here, inside one chunk
    handle = grid56.ops().handle(OperatorKind.OP_P)
    capsys.readouterr()
    for seed in (0, 1, 2):
        pairs = lowest_eigenpairs(handle, 6, method="complement", seed=seed)
        iterations, restarts = _complement_run(capsys)
        assert restarts == 0 and iterations <= spectral.RESTART_CHUNK, seed
        for a, b in zip(dense6, pairs):
            assert abs(a.mu - b.mu) <= 1e-12, seed
        assert _largest_angle(grid56, dense6, pairs) < 1e-6, seed
        assert max(p.residual for p in pairs) <= 1e-9, seed


def _lead(field) -> float:
    """The entry that `SpectralPair.of` makes positive: the first, in
    component-major storage order, within 1e-6 relative of the largest
    magnitude."""
    size = np.abs(field.values)
    return field.values.flat[np.argmax(size >= (1.0 - 1e-6) * size.max())]


def test_pairs_follow_one_sign_convention(grid56, dense6):
    # every path builds its pairs with SpectralPair.of, so a pair outside a
    # degenerate block is the same field on every path, not only up to sign
    handle = grid56.ops().handle(OperatorKind.OP_P)
    solved = {
        "dense": dense6,
        "complement": lowest_eigenpairs(handle, 6, method="complement"),
        "lobpcg": lowest_eigenpairs(handle, 3, method="lobpcg"),
    }
    for name in list(solved):
        solved[f"canonical {name}"] = canonicalize_degenerate(solved[name])
    single = [block[0] for block in group_degenerate(dense6) if len(block) == 1]
    assert single == [2, 3, 4, 5]
    # the rotation pair's largest entries come in pairs of opposite sign,
    # equal up to round-off: the largest entry alone would pick either sign
    rotation = dense6[2].field.values
    top = rotation[np.abs(rotation) >= (1.0 - 1e-6) * np.abs(rotation).max()]
    assert top.min() < 0 < top.max()
    for name, pairs in solved.items():
        for i, p in enumerate(pairs):
            assert abs(p.field.norm() - 1.0) <= 1e-12, (name, i)
            assert _lead(p.field) > 0, (name, i)
            if i in single:
                gap = np.abs(p.field.values - dense6[i].field.values).max()
                assert gap <= 1e-6, (name, i)


def test_complement_finds_degenerate_pair_on_cylinder(capsys):
    # 19,152 unknowns on the curved model. The pair at 0.230124 is degenerate
    # (a cos/sin pair of one longitude mode), and the sixth pair is its second
    # copy: A - 0.2301 I has 4 negative pivots and A - 0.2302 I has 6. Banded
    # shift-invert Lanczos returned one copy and 0.23051 in its place
    grid, _ = build_grid(make_model("cylinder", 3, 2), 24, 6.0)
    handle = grid.ops().handle(OperatorKind.OP_P)
    assert handle.matrix.shape[0] == 19152
    capsys.readouterr()
    pairs = lowest_eigenpairs(handle, 6, method="complement")
    iterations, restarts = _complement_run(capsys)
    assert iterations <= 250 and restarts >= 1
    assert max(p.residual for p in pairs) <= 1e-9
    assert [p.mu for p in pairs[4:]] == pytest.approx([0.230124, 0.230124], abs=1e-6)
    gram = np.array([[a.field.inner(b.field) for b in pairs] for a in pairs])
    assert np.abs(gram - np.eye(6)).max() <= 1e-8


def _count_below(grid, sigma) -> int:
    """Eigenvalues of P below `sigma`, by Sylvester's law of inertia: the
    negative pivots of A - sigma*I, factored with pivots on the diagonal only."""
    A, _ = spectral._symmetric_form(grid)
    lu = splu((A - sigma * spectral.sp.identity(A.shape[0], format="csr")).tocsc(),
              permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
              options={"SymmetricMode": True})
    # one symmetric permutation, so U's diagonal holds the pivots of L D L^T
    assert np.array_equal(lu.perm_r, lu.perm_c)
    return int(np.sum(lu.U.diagonal() < 0))


def test_complement_set_is_complete_on_3d_gaussian():
    # 6,528 unknowns, above DENSE_CAP: six Killing pairs, then a degenerate
    # pair at 0.129048 that banded shift-invert Lanczos returned once. The
    # inertia count just below the last pair proves that no eigenvalue below
    # it is missing from the set
    grid, _ = build_grid(make_model("gaussian", 3), 16, 6.0)
    handle = grid.ops().handle(OperatorKind.OP_P)
    pairs = lowest_eigenpairs(handle, 10)
    mus = [p.mu for p in pairs]
    assert max(p.residual for p in pairs) <= 1e-9
    assert mus[6:8] == pytest.approx([0.129048, 0.129048], abs=1e-6)
    sigma = mus[-1] - 1e-6
    assert _count_below(grid, sigma) == sum(mu < sigma for mu in mus) == 9
    # fewer pairs than Killing fields: the lowest four of the six-pair block,
    # the degenerate 1.145e-4 twice, where shift-invert returned it once
    low = lowest_eigenpairs(handle, 4)
    np.testing.assert_allclose([p.mu for p in low], mus[:4], rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def cylinder_grids(cylinder32):
    # 13,440 and 19,152 unknowns
    return {res: build_grid(cylinder32, res, 6.0)[0] for res in (20, 24)}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("res", [20, 24])
def test_near_kernel_guard_converges_on_cylinder(cylinder_grids, res, seed):
    # scipy's lobpcg abandons this guard early, above GUARD_TOL: at res 20,
    # seeds 0 and 1, with residuals 1.35e-2 and 1.14e-2 after 42 and 56
    # iterations. The complement run restarts it from its last iterate
    block = near_kernel_block(cylinder_grids[res], seed=seed)
    assert len(block.pairs) == 4 and block.worst_residual <= 1e-8
    assert max(block.guard_residuals) <= spectral.GUARD_TOL
    assert min(block.guard_mus) > 0.2


def test_complement_converges_on_cylinder_to_eleven_pairs(cylinder_grids):
    # the four block pairs and seven above them. With the finest level's
    # Jacobi weight taken from the row bound max_i ((|K|^T |K| 1)_i + c) / D_ii
    # the complement stopped unconverged at 701 iterations and 13 restarts
    # (worst residual 2.3e-4); the symmetric bound of `_VCycle` takes it to
    # 7e-10 in 255 iterations and 4 restarts
    handle = cylinder_grids[20].ops().handle(OperatorKind.OP_P)
    pairs = lowest_eigenpairs(handle, 11)
    assert max(p.residual for p in pairs) <= 1e-9


def test_near_kernel_block_cached_per_grid(gaussian2, grid56, capsys):
    block = near_kernel_block(grid56)
    capsys.readouterr()
    assert near_kernel_block(grid56) is block
    assert capsys.readouterr().err == ""
    fresh_grid, _ = build_grid(gaussian2, 56, 6.0)
    fresh = near_kernel_block(fresh_grid)
    assert capsys.readouterr().err.count("near-kernel block:") == 1
    assert fresh is not block
    np.testing.assert_allclose([p.mu for p in fresh.pairs], [p.mu for p in block.pairs],
                               rtol=0, atol=1e-12)
    assert _largest_angle(grid56, block.pairs, fresh.pairs) < 1e-6
    assert fresh.summary() == block.summary()
    summary = block.summary()
    assert summary["method"] == "lobpcg" and summary["unknowns"] == 4944
    assert summary["worst_residual"] <= 1e-8
    # GUARD_SPAN 6 and three Killing fields: three guard vectors, all above BLOCK_TOL
    assert len(summary["guard_mus"]) == len(summary["guard_residuals"]) == 3
    assert min(summary["guard_mus"]) > 0.2


def test_near_kernel_block_selects_pairs_below_block_tol(grid56, monkeypatch):
    near = near_kernel_block(grid56)
    # the three Killing pairs of the 2D Gaussian all lie below BLOCK_TOL
    assert [id(p) for p in near.block] == [id(p) for p in near.pairs]
    # with none at or below it, the block is the lowest pair alone
    monkeypatch.setattr(spectral, "BLOCK_TOL", -1.0)
    assert [id(p) for p in near.block] == [id(near.pairs[0])]


def test_near_kernel_block_not_converged_raises(gaussian2, monkeypatch):
    grid, _ = build_grid(gaussian2, 56, 6.0)
    # 5 iterations leave the block residual near 1e-3: above 10 * tolerance
    monkeypatch.setattr(spectral, "LOBPCG_MAXITER", 5)
    # the residual rule raises; scipy's warning that LOBPCG stopped short of
    # its tolerance does not escape, which under filterwarnings = error it would
    with pytest.raises(SolverError, match="near-kernel block did not converge"):
        near_kernel_block(grid)


def test_lobpcg_not_converged_raises(gaussian2, monkeypatch):
    # the rule of near_kernel_block holds on the LOBPCG path of every caller:
    # a worst residual above 10 * tolerance raises
    grid, _ = build_grid(gaussian2, 56, 6.0)
    monkeypatch.setattr(spectral, "LOBPCG_MAXITER", 5)
    with pytest.raises(SolverError, match="did not converge"):
        lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), 3, method="lobpcg")


def test_near_kernel_guard_not_converged_raises(gaussian2, monkeypatch):
    # two iterations leave the guard far above GUARD_TOL; its Ritz values,
    # upper bounds near 1/4, prove nothing about the block. The guard is a
    # complement run, which checks its own residuals and passes on no scipy
    # warning
    grid, _ = build_grid(gaussian2, 56, 6.0)
    monkeypatch.setattr(spectral, "GUARD_MAXITER", 2)
    with pytest.raises(SolverError, match="guard did not converge"):
        near_kernel_block(grid)


def test_vcycle_is_symmetric_positive_definite(gaussian2, cylinder32):
    # on the cylinder the Christoffel couplings enter K, and with them the
    # bound rho of the Jacobi weight JACOBI_WEIGHT / rho, whose numerator
    # sits close to the limit of 2
    for model, res in ((gaussian2, 120), (cylinder32, 24)):
        grid, _ = build_grid(model, res, 6.0)
        cycle = spectral._vcycle(grid)
        assert len(cycle.levels) >= 2
        rng = np.random.default_rng(7)
        U = rng.standard_normal((cycle.sizes[0], 4))
        V = rng.standard_normal((cycle.sizes[0], 4))
        MU, MV = cycle.apply(U), cycle.apply(V)
        # u.(M v) = v.(M u) for every probe pair, relative to |u| |M v|
        scale = np.linalg.norm(U, axis=0)[:, None] * np.linalg.norm(MV, axis=0)[None, :]
        assert np.max(np.abs(U.T @ MV - (V.T @ MU).T) / scale) <= 1e-12, model.kind
        assert np.min(np.einsum("ij,ij->j", U, MU)) > 0, model.kind
        assert np.min(np.einsum("ij,ij->j", V, MV)) > 0, model.kind
        # a column at a time applies the same cycle as the block
        np.testing.assert_allclose(cycle.apply(U[:, 0]), MU[:, 0],
                                   rtol=0, atol=1e-14 * np.abs(MU).max())
        # random probes miss where a too-large Jacobi weight turns the cycle
        # indefinite: along the top eigenvector v of D^-1 (A + cI) on each
        # level, whose damped-Jacobi factor 1 - weight * lambda / rho falls
        # below -1 first. The cycle from that level down must keep v.(M v) > 0
        for depth, (A, smooth, _) in enumerate(cycle.levels):
            root = np.sqrt(smooth[:, 0])

            def scaled(x, A=A, root=root):
                return root * (A @ (root * x) + spectral.CYCLE_MASS * (root * x))

            op = spectral.spla.LinearOperator(A.shape, matvec=scaled, dtype=np.float64)
            _, w = spectral.spla.eigsh(op, k=1, which="LA", tol=1e-3, v0=np.ones(A.shape[0]))
            v = root * w[:, 0]
            assert v @ cycle._cycle(depth, v[:, None])[:, 0] > 0, (model.kind, depth)


def _lobpcg_chunks(grid, monkeypatch) -> list[tuple[bool, int]]:
    """Each scipy lobpcg call of the grid's near-kernel block solve, in order:
    whether it is held orthogonal to a block (Y given: the guard) and its
    preconditioner applications, one per iteration."""
    lobpcg, chunks = spectral.spla.lobpcg, []

    def counted(A, X, M, **kwargs):
        chunks.append([kwargs.get("Y") is not None, 0])

        def pre(x):
            chunks[-1][1] += 1
            return M @ x

        wrapped = spectral.spla.LinearOperator(M.shape, matvec=pre, matmat=pre, dtype=M.dtype)
        return lobpcg(A, X, M=wrapped, **kwargs)

    monkeypatch.setattr(spectral.spla, "lobpcg", counted)
    near_kernel_block(grid)
    return [tuple(chunk) for chunk in chunks]


def _lobpcg_iterations(grid, monkeypatch) -> list[int]:
    """Preconditioner applications, one per iteration, of each LOBPCG call of
    the grid's near-kernel block solve."""
    return [applications for _, applications in _lobpcg_chunks(grid, monkeypatch)]


def test_near_kernel_block_preconditioned_iterations(gaussian2, monkeypatch):
    # both LOBPCG runs apply their preconditioner once per iteration; the
    # V-cycle keeps that count flat as the grid grows (Jacobi took 101 and
    # 100, the cycle 25 and 16)
    grid, _ = build_grid(gaussian2, 80, 6.0)
    assert grid.n_nodes * 2 == 10048
    applications = _lobpcg_iterations(grid, monkeypatch)
    assert len(applications) == 2
    assert max(applications) <= 30


def test_near_kernel_block_preconditioned_iterations_cylinder(cylinder32, monkeypatch):
    # the cycle is slower on the curved model: the block took 103 iterations
    # with a Jacobi weight of 1 on the assembled A, and 80 with the factor's
    # bound, in one call. Every run restarts each RESTART_CHUNK iterations,
    # and the block outlasts one chunk here (75 iterations over two); the
    # guard's chunks (one, of 50 iterations) follow it
    grid, _ = build_grid(cylinder32, 16, 6.0)
    assert grid.n_nodes * 3 == 10752
    chunks = _lobpcg_chunks(grid, monkeypatch)
    block = [a for guard, a in chunks if not guard]
    # the block's chunks, then the guard's
    guards = [guard for guard, _ in chunks]
    assert len(guards) > len(block) and guards == sorted(guards)
    assert len(block) >= 2 and sum(block) <= 90
    assert all(a <= spectral.RESTART_CHUNK + 1 for _, a in chunks)


def test_lobpcg_runs_only_from_count_guesses(grid56):
    # the lobpcg path starts from the model's Killing fields and has no random
    # fill: a count other than theirs is an error rather than a silently
    # padded or truncated block
    handle = grid56.ops().handle(OperatorKind.OP_P)
    assert len(killing_basis(grid56)) == 3
    for count in (2, 4):
        with pytest.raises(ValueError, match="Killing pairs"):
            lowest_eigenpairs(handle, count, method="lobpcg")


def test_near_kernel_guard_catches_block_tol_above_guard(gaussian2, monkeypatch):
    # the guard's Ritz values sit near 1/4: a BLOCK_TOL of 1 claims them for the
    # block. A fresh grid, since grid56 already caches its block
    grid, _ = build_grid(gaussian2, 56, 6.0)
    monkeypatch.setattr(spectral, "BLOCK_TOL", 1.0)
    with pytest.raises(SolverError, match="incomplete"):
        near_kernel_block(grid)


def test_near_kernel_guard_catches_missing_killing_field(gaussian2, monkeypatch):
    grid, _ = build_grid(gaussian2, 56, 6.0)
    two = killing_basis(grid)[:2]
    monkeypatch.setattr(spectral, "killing_basis", lambda g: two)
    with pytest.raises(SolverError, match="incomplete"):
        near_kernel_block(grid)


def _block_holds_basis(grid, block):
    """Largest weighted norm of a unit Killing field's part outside the block."""
    worst = 0.0
    for K in killing_basis(grid):
        K = K * (1.0 / K.norm())
        rest = K.values.copy()
        for p in block.pairs:
            rest -= K.inner(p.field) * p.field.values
        worst = max(worst, Field(grid, K.rank, rest).norm())
    return worst


@pytest.mark.parametrize(
    "kind, n, k, killing",
    [("gaussian", 3, None, 6), ("cylinder", 3, 2, 4)],
    ids=["gaussian3", "cylinder32"],
)
def test_near_kernel_block_holds_every_killing_field(kind, n, k, killing):
    # all flat rotations of a 3D Gaussian, and the rotations of the cylinder's
    # sphere factor that move its poles, lie in the near kernel
    grid, _ = build_grid(make_model(kind, n, k), 16, 6.0)
    block = near_kernel_block(grid)
    assert len(block.pairs) == killing
    assert max(p.mu for p in block.pairs) <= 1e-2
    assert min(block.guard_mus) > 0.1
    assert _block_holds_basis(grid, block) < 0.1


def test_near_kernel_guard_catches_missing_rotations_3d(monkeypatch):
    # a start without the rotations of a 3D Gaussian in the (0, 2) and (1, 2)
    # planes, whose eigenvalue 6.4e-4 is below BLOCK_TOL
    grid, _ = build_grid(make_model("gaussian", 3), 16, 6.0)
    named = killing_fields(grid)
    assert len(named) == 6
    kept = [Y for name, Y in named.items() if name not in ("rotation_02", "rotation_12")]
    monkeypatch.setattr(spectral, "killing_basis", lambda g: kept)
    with pytest.raises(SolverError, match="incomplete"):
        near_kernel_block(grid)


@pytest.mark.parametrize(
    "kind, n, k",
    [("cylinder", 3, 2), ("gaussian", 3, None)],
    ids=["cylinder32", "gaussian3"],
)
def test_band_cholesky_solves_vcycle_bottom_level(kind, n, k):
    # the factor that solves the V-cycle's bottom level A + CYCLE_MASS*I,
    # here with a whole grid's A as that level. The cylinder's periodic
    # longitude couples the first and last rows of each ring, which the
    # reverse Cuthill-McKee order must fold into the band
    grid, _ = build_grid(make_model(kind, n, k), 16, 6.0)
    A, _ = spectral._symmetric_form(grid)
    M = A + spectral.CYCLE_MASS * spectral.sp.identity(A.shape[0], format="csr")
    chol = spectral._BandCholesky(M)
    assert 0 < chol.bandwidth < A.shape[0] // 4
    B = np.random.default_rng(3).standard_normal((A.shape[0], 3))
    X = chol.solve(B)
    assert np.max(np.linalg.norm(M @ X - B, axis=0) / np.linalg.norm(B, axis=0)) <= 1e-12
    np.testing.assert_allclose(chol.solve(B[:, 1]), X[:, 1], rtol=0,
                               atol=1e-14 * np.abs(X[:, 1]).max())
