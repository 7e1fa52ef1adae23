"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and asserting the stated tolerances and budget."""

import time

import numpy as np

from shrinkerlab import build_grid, check_soliton_identities, make_model, random_points
from shrinkerlab.fields import (
    Field,
    bump_vector,
    dilation,
    euclidean_rotation,
    perturbed,
    translation,
    vector_field,
)
from shrinkerlab.operators import OperatorKind, identity_residuals
from shrinkerlab.propagation import extend_symmetry
from shrinkerlab.spectral import (
    canonicalize_degenerate,
    decompose_eigenfield,
    lowest_eigenpairs,
)
from shrinkerlab.verification import cao_zhou_check, classify_killing


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.name}] {status} ({dt:.1f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert dt < self.seconds, f"{self.name} exceeded its runtime budget"
        return False


def test_criterion_01_soliton_identities():
    with Budget("criterion 1: soliton identities", 1.0):
        rng = np.random.default_rng(2024)
        for kind, n, k in (("gaussian", 1, None), ("gaussian", 2, None), ("cylinder", 3, 2)):
            model = make_model(kind, n, k)
            rep = check_soliton_identities(model, random_points(model, 100, rng))
            assert rep.soliton_residual <= 1e-10
            assert rep.trace_residual <= 1e-10
            assert rep.potential_residual <= 1e-10


def test_criterion_02_exact_discrete_structure():
    with Budget("criterion 2: adjointness and PSD", 10.0):
        grid, _ = build_grid(make_model("gaussian", 2), 64, 8.0)
        ops = grid.ops()
        rng = np.random.default_rng(7)
        min_rayleigh = np.inf
        for _ in range(50):
            v = Field.from_flat(grid, "vector", rng.standard_normal(grid.n_nodes * 2))
            h = Field.from_flat(grid, "sym2tensor", rng.standard_normal(grid.n_nodes * 3))
            dv = ops.div_star(v)
            left = dv.inner(h)
            right = v.inner(ops.div(h))
            assert abs(left - right) <= 1e-12 * max(abs(left), abs(right))
            rayleigh = dv.inner(dv) / v.inner(v)
            min_rayleigh = min(min_rayleigh, rayleigh)
        assert min_rayleigh >= -1e-8


def test_criterion_03_kernel_of_p():
    with Budget("criterion 3: kernel fields at stencil order", 60.0):
        model = make_model("gaussian", 2)
        defect = {}
        for res in (32, 64):
            grid, _ = build_grid(model, res, 9.0)
            ops = grid.ops()
            h = grid.max_spacing
            for name, Y in (
                ("rotation", euclidean_rotation(grid)),
                ("translation_0", translation(grid, 0)),
                ("translation_1", translation(grid, 1)),
            ):
                q = ops.p_apply(Y).norm() / Y.norm()
                assert q <= 10.0 * h**2, (name, res, q)
                defect.setdefault(name, {})[res] = q
        for name, vals in defect.items():
            ratio = vals[32] / vals[64]
            assert 3.0 <= ratio <= 5.0, (name, ratio)


def test_criterion_04_closed_form_eigenvalue():
    with Budget("criterion 4: dilation eigenvalue 1/2", 60.0):
        model = make_model("gaussian", 1)
        errs = {}
        for res in (256, 512):
            grid, _ = build_grid(model, res, 10.0)
            pairs = lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), 4)
            dil = dilation(grid)
            dil = dil * (1.0 / dil.norm())
            best = max(pairs, key=lambda p: abs(p.field.inner(dil)))
            errs[res] = abs(best.mu - 0.5)
            assert abs(best.field.inner(dil)) >= 0.99
        assert errs[512] <= 5e-3
        assert errs[512] < errs[256]


def test_criterion_05_identity_suite_convergence():
    with Budget("criterion 5: commutation identity suite", 300.0):
        model = make_model("gaussian", 2)
        residuals = {}
        for res in (32, 64, 128):
            grid, _ = build_grid(model, res, 4.0, stencil_order=2)
            rep = identity_residuals(bump_vector(grid, 0, 1.8, 2.9))
            assert not rep.boundary_warning
            residuals[res] = rep.residuals
        for name, val in residuals[64].items():
            assert val <= 1e-2, (name, val)
        for coarse, fine in ((32, 64), (64, 128)):
            for name in residuals[coarse]:
                order = np.log2(residuals[coarse][name] / residuals[fine][name])
                assert order >= 1.5, (name, coarse, fine, order)


def test_criterion_06_divergence_eigenvalue_bound():
    with Budget("criterion 6: induced scalar eigen-equation", 60.0):
        grid, _ = build_grid(make_model("gaussian", 1), 512, 10.0)
        pairs = canonicalize_degenerate(
            lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), 4)
        )
        for pair in pairs:
            dec = decompose_eigenfield(pair)
            assert dec.divf_norm_sq <= 4.0 * pair.mu + 1.0 + 1e-3
            if not dec.divf_skipped:
                assert dec.divf_eigen_residual <= 1e-2


def test_criterion_07_eigenfield_decomposition():
    with Budget("criterion 7: eigenfield decomposition", 120.0):
        grid, _ = build_grid(make_model("gaussian", 2), 64, 8.0, stencil_order=4)
        pairs = canonicalize_degenerate(
            lowest_eigenpairs(grid.ops().handle(OperatorKind.OP_P), 8, method="lobpcg")
        )
        for pair in pairs:
            dec = decompose_eigenfield(pair)
            assert dec.norm_gap <= max(1e-6, 10.0 * pair.residual), pair.mu
            for name, val in dec.residuals.items():
                assert val is None or val <= 1e-2, (pair.mu, name, val)


def test_criterion_08_killing_dichotomy():
    with Budget("criterion 8: Killing dichotomy", 60.0):
        gauss = make_model("gaussian", 2)
        cyl = make_model("cylinder", 3, 2)
        for res in (64, 128):
            grid, _ = build_grid(gauss, res, 6.0)
            stretch = vector_field(
                grid, lambda c: np.stack([c[:, 0], np.zeros(len(c))])
            )
            for Y, expected in (
                (euclidean_rotation(grid), "PreservesF"),
                (stretch, "NotKilling"),
            ):
                assert classify_killing(Y).verdict == expected
                assert classify_killing(Y * 3.0).verdict == expected
        for res in (48, 96):
            grid, _ = build_grid(cyl, res, 6.0)
            Y = translation(grid, 0)
            assert classify_killing(Y).verdict == "SplitsLine"
            assert classify_killing(Y * 3.0).verdict == "SplitsLine"


def test_criterion_09_propagation_pipeline():
    with Budget("criterion 9: symmetry extension pipeline", 600.0):
        model = make_model("gaussian", 2)
        grid, _ = build_grid(model, 512, 12.0)
        rot = euclidean_rotation(grid)
        rot = rot * (1.0 / rot.norm())
        results = {}
        for eps in (1e-3, 1e-2):
            Y = perturbed(euclidean_rotation(grid), eps)
            result = extend_symmetry(Y, 5.0, seed=1)
            # (a) discrete variational bound, exact up to round-off
            assert result.mu <= result.div_star_v_norm_sq + 1e-10
            assert result.hypothesis_mu_bar_lt_1
            results[eps] = result
        # (b) tail constant fitted at eps=1e-3 and reused at 1e-2 within factor 2
        c_fit = results[1e-3].c_tail_fit
        r2 = results[1e-2]
        assert r2.mu <= 3.0 * r2.defect.mu_bar + 2.0 * max(c_fit, 1e-12) * r2.tail
        # (c) the recovered eigenfield is the global rotation
        cos = abs(results[1e-3].z.field.inner(rot))
        assert cos >= 0.99, cos


def test_criterion_11_distance_volume_constants():
    with Budget("criterion 11: distance and volume growth constants", 60.0):
        gauss = make_model("gaussian", 2)
        grid, _ = build_grid(gauss, 128, 8.0)
        rep = cao_zhou_check(grid)
        assert rep.c1 <= 1e-8
        assert rep.c2 <= 1e-8
        assert abs(rep.c3 - np.pi) <= 0.05 * np.pi
        cyl = make_model("cylinder", 3, 2)
        radii = np.linspace(2.0, 6.5, 8)
        c3s = []
        for R, res in ((8.0, 64), (10.0, 80), (12.0, 96)):
            cgrid, _ = build_grid(cyl, res, R)
            crep = cao_zhou_check(cgrid, radii=radii)
            assert np.isfinite(crep.c1) and np.isfinite(crep.c2) and np.isfinite(crep.c3)
            c3s.append(crep.c3)
        assert max(c3s) <= 1.1 * min(c3s)
