"""The numerical workflows of the command line: verify's suites, spectrum and
propagate.

`cli.run` imports this module when it dispatches a run, so that parsing,
validation and `compare` load neither scipy nor the numerical layers. The
run's config picks the verify suites (`RunConfig.verify_suites`, from its
model kind, without numpy), and `run_verify` runs exactly those. Nothing
here imports `cli`: under `python -m shrinkerlab.cli` that import would load
a second copy of it, whose ConfigError `cli.main` would not catch.

The solver layers, `spectral` and `propagation`, are imported by the
workflows that solve, when they run: a verify run solves nothing, and so
loads neither of them, nor scipy.linalg, scipy.sparse.linalg and
scipy.sparse.csgraph.

The structure suite checks the adjointness of div_f^* and div_f with the
probe that every eigensolve runs on P (`Operators.adjoint_gap`), against the
same tolerance, `operators.ADJOINT_TOL`.
"""

from __future__ import annotations

import resource
import sys
import time
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from . import reports
from .fields import (
    bump_vector,
    dilation,
    euclidean_rotation,
    killing_fields,
    perturbed,
    scalar_field,
    translation,
    vector_field,
)
from .errors import PropagationError
from .grid import Grid
from .models import check_soliton_identities, random_points
from .operators import ADJOINT_TOL, OperatorKind, identity_residuals
from .verification import (
    NOT_KILLING,
    cao_zhou_check,
    classify_killing,
    drift_bochner_residual,
    harmonicity_check,
    interp_inequality_check,
)

if TYPE_CHECKING:  # annotations only; see the module docstring
    from .cli import RunConfig


def _check(name: str, passed, residuals: dict, **extra) -> dict:
    return {"check_name": name, "residuals": residuals, "passed": bool(passed), **extra}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---- verify ----------------------------------------------------------------


# Each verify suite draws from the run's generator in the order of
# VERIFY_SUITES and returns its one check. Its fields and draws are its own
# locals, released when it returns.


def _verify_soliton(grid: Grid, rng) -> dict:
    rep = check_soliton_identities(grid.model, random_points(grid.model, 100, rng))
    return _check(
        "soliton_identities",
        rep.passed,
        {
            "soliton": rep.soliton_residual,
            "trace": rep.trace_residual,
            "potential": rep.potential_residual,
            "gradb_excess": rep.gradb_excess,
        },
        failures=rep.failures(),
    )


def _verify_structure(grid: Grid, rng) -> dict:
    gap, least = grid.ops().adjoint_gap(OperatorKind.DIV_F_STAR, OperatorKind.DIV_F_TENSOR,
                                        rng, 20)
    return _check("adjoint_structure", gap <= ADJOINT_TOL and least >= -1e-8,
                  {"adjointness": gap, "min_rayleigh": least})


def _verify_identities(grid: Grid, rng) -> dict:
    inner = 0.45 * grid.truncation_radius
    outer = 0.72 * grid.truncation_radius
    rep = identity_residuals(bump_vector(grid, 0, inner, outer))
    return _check(
        "commutation_identities",
        max(rep.residuals.values()) <= max(0.05, grid.stencil_tol),
        rep.residuals,
        boundary_warning=rep.boundary_warning,
    )


def _verify_kernel(grid: Grid, rng) -> dict:
    ops = grid.ops()
    resids = {}
    for name, Y in killing_fields(grid).items():
        resids[name] = ops.p_apply(Y).norm() / Y.norm()
    return _check("kernel_of_P", max(resids.values()) <= grid.stencil_tol, resids)


def _verify_dichotomy(grid: Grid, rng) -> dict:
    verdicts = {}
    ok = True
    for name, Y in killing_fields(grid).items():
        v = classify_killing(Y)
        verdicts[name] = v.verdict
        ok &= v.consistent and v.verdict != NOT_KILLING
    # a stretched coordinate field is never Killing
    stretched = vector_field(
        grid, lambda c: np.stack([c[:, 0]] + [np.zeros(len(c))] * (grid.n - 1))
    )
    v = classify_killing(stretched)
    verdicts["coordinate_stretch"] = v.verdict
    ok &= v.verdict == NOT_KILLING
    return _check("killing_dichotomy", ok, {}, verdicts=verdicts)


def _verify_harmonicity(grid: Grid, rng) -> dict:
    reps = {name: harmonicity_check(Y) for name, Y in killing_fields(grid).items()}
    return _check("divergence_harmonicity", all(r.passed for r in reps.values()),
                  {name: r.residual for name, r in reps.items()})


def _verify_bochner(grid: Grid, rng) -> dict:
    v1 = scalar_field(grid, lambda c: c[:, 0])
    rep1 = drift_bochner_residual(v1, 0.5)
    v2 = scalar_field(grid, lambda c: c[:, 0] ** 2 - 2.0)
    rep2 = drift_bochner_residual(v2, 1.0)
    # a field that warns is no drift eigenfunction, so its identity says nothing
    return _check(
        "drift_bochner",
        max(rep1.residual, rep2.residual) <= max(0.05, grid.stencil_tol)
        and not (rep1.warned or rep2.warned),
        {"linear": rep1.residual, "quadratic": rep2.residual},
        eigen_residuals={"linear": rep1.eigen_residual, "quadratic": rep2.eigen_residual},
    )


def _interp_fields(grid: Grid):
    """The interpolation suite's fields, each built when its check is reached."""
    yield from killing_fields(grid).items()
    yield "bump", bump_vector(grid, 0, 0.45 * grid.truncation_radius, 0.7 * grid.truncation_radius)
    yield "dilation", dilation(grid)


def _verify_interp(grid: Grid, rng) -> dict:
    results = {}
    ok = True
    for name, Y in _interp_fields(grid):
        rep = interp_inequality_check(Y)
        results[name] = {"lhs": rep.lhs, "rhs": rep.rhs}
        ok &= rep.passed
    return _check("interpolation_inequality", ok, {}, values=results)


def _verify_cao_zhou(grid: Grid, rng) -> dict:
    rep = cao_zhou_check(grid)
    return _check("distance_volume_growth", rep.passed, {"c1": rep.c1, "c2": rep.c2, "c3": rep.c3})


# keyed by the names that `cli.VERIFY_SUITE_NAMES` validates, in its order
VERIFY_SUITES = {
    "soliton": _verify_soliton,
    "structure": _verify_structure,
    "identities": _verify_identities,
    "kernel": _verify_kernel,
    "dichotomy": _verify_dichotomy,
    "harmonicity": _verify_harmonicity,
    "bochner": _verify_bochner,
    "interp": _verify_interp,
    "cao_zhou": _verify_cao_zhou,
}


def run_verify(cfg: RunConfig, grid: Grid) -> list[dict]:
    """The suites of `cfg.verify_suites` on the grid, in order; each
    prints its time and the process's peak RSS so far to stderr as it finishes."""
    rng = np.random.default_rng(cfg.seed)
    checks = []
    for name in cfg.verify_suites():
        started = time.perf_counter()
        checks.append(VERIFY_SUITES[name](grid, rng))
        print(f"verify suite {name}: {time.perf_counter() - started:.2f} s, "
              f"ru_maxrss {_peak_rss_mb():.0f} MB", file=sys.stderr)
    return checks


# ---- spectrum ---------------------------------------------------------------


def run_spectrum(cfg: RunConfig, grid: Grid) -> list[dict]:
    from .spectral import canonicalize_degenerate, decompose_eigenfield, lowest_eigenpairs

    ops = grid.ops()
    pairs = lowest_eigenpairs(ops.handle(OperatorKind.OP_P), cfg.eigs, seed=cfg.seed)
    pairs = canonicalize_degenerate(pairs)
    checks = []
    eq_tol = max(1e-2, grid.stencil_tol)
    for i, pair in enumerate(pairs):
        dec = decompose_eigenfield(pair)
        interp = interp_inequality_check(pair.field)
        rayleigh = ops.rayleigh_p(pair.field)
        passed = (
            dec.divf_bound_ok
            and (dec.divf_skipped or dec.divf_eigen_residual <= eq_tol)
            and dec.norm_gap <= max(1e-6, 10.0 * pair.residual)
            and interp.passed
            and abs(rayleigh - pair.mu) <= max(1e-10, 10.0 * pair.residual)
        )
        checks.append(
            {
                "check_name": f"eigenpair_{i}",
                "mu": pair.mu,
                "residual": pair.residual,
                "passed": bool(passed),
                "norm_checks": {
                    "divf_norm_sq": dec.divf_norm_sq,
                    "divf_bound": dec.divf_bound,
                    "divf_eigen_residual": dec.divf_eigen_residual,
                    "divf_skipped": dec.divf_skipped,
                    "norm_gap": dec.norm_gap,
                    "beta": dec.beta,
                    "decomposition_residuals": dec.residuals,
                    "interp_lhs": interp.lhs,
                    "interp_rhs": interp.rhs,
                    "rayleigh_gap": abs(rayleigh - pair.mu),
                },
            }
        )
    # the CSV paths follow the report's, one per pair under --dump-fields
    for path, pair in zip(islice(cfg.output_paths(), 1, None), pairs):
        reports.write_field_csv(path, pair.field)
    # weighted orthonormality of the basis
    gram_err = 0.0
    for i in range(len(pairs)):
        for j in range(i, len(pairs)):
            val = pairs[i].field.inner(pairs[j].field)
            gram_err = max(gram_err, abs(val - (1.0 if i == j else 0.0)))
    checks.append(
        {
            "check_name": "orthonormality",
            "residuals": {"gram_error": gram_err},
            "passed": bool(gram_err <= 1e-8),
        }
    )
    return checks


# ---- propagate --------------------------------------------------------------


def _propagate_point(cfg: RunConfig, reference, r: float, eps: float, floor) -> dict:
    """One sweep point: the extension of the perturbed reference, its distances
    to the reference's line and the propagation gate against `floor`, the
    distance profile of the eps-0 extension."""
    from .propagation import (
        GATE_C,
        VARIATIONAL_SLACK,
        distance,
        distance_profile,
        extend_symmetry,
        rung_radii,
    )

    point = {"r": r, "epsilon": eps}
    Y = perturbed(reference, eps)
    try:
        result = extend_symmetry(Y, r, seed=cfg.seed)
    except PropagationError as exc:  # the point fails; the sweep goes on
        return {**point, "passed": False, "failure": str(exc)}
    Z = result.z.field
    inside = reference.grid.b < r
    input_gap = distance(Y, reference, inside)
    e = distance_profile(reference, Z, r)
    point.update(
        mu=result.mu,
        mu_bar=result.defect.mu_bar,
        c1_measured=result.defect.c1_measured,
        tail=result.tail,
        c2_fit=result.c2_fit,
        c_tail_fit=result.c_tail_fit,
        div_star_v_norm_sq=result.div_star_v_norm_sq,
        v_norm_sq=result.v_norm_sq,
        hypothesis_mu_bar_lt_1=result.hypothesis_mu_bar_lt_1,
        cosine_with_reference=abs(Z.inner(reference * (1.0 / reference.norm()))),
        eigen_residual=result.z.residual,
        cutoff_grad_bound=result.cutoff.grad_bound,
        variational_ok=result.mu <= result.div_star_v_norm_sq + VARIATIONAL_SLACK,
        block_solver=result.near_kernel.summary(),
        input_gap=input_gap,
        local_distance=distance(Y, Z, inside),
        distance_profile={"radii": rung_radii(reference.grid, r), "e": e, "floor": floor},
    )
    point["passed"] = bool(point["variational_ok"] and np.all(e <= GATE_C * (input_gap + floor)))
    return point


def run_propagate(cfg: RunConfig, grid: Grid) -> list[dict]:
    from .propagation import distance_profile, extend_symmetry

    # one grid, and so one operator suite and one near-kernel block, serves
    # every sweep point and the floor of every r
    if grid.model.n_euclidean >= 2:
        reference = euclidean_rotation(grid)
    else:
        reference = translation(grid, 0)
    checks = []
    for r in cfg.r_values:
        # the floor: the distance profile of the eps-0 extension, which finds
        # the cached block (perturbed(reference, 0) is reference bit for bit)
        floor = distance_profile(
            reference, extend_symmetry(reference, r, seed=cfg.seed).z.field, r)
        for eps in cfg.epsilons:
            point = _propagate_point(cfg, reference, r, eps, floor)
            checks.append({"check_name": f"propagation_{reports.point_tag(r, eps)}", **point})
    return checks


def print_storage(grid: Grid) -> None:
    """The matrices that the run left cached on `grid`, and the process's peak
    RSS, on stderr: not in the report, so that reruns stay byte-identical. An
    operator suite keeps no matrix but its difference matrices `diffs`."""
    ops = grid.ops()
    nnz = sum(D.nnz for D in ops.diffs) if "diffs" in vars(ops) else None
    print(f"operator storage: {'none' if nnz is None else 'diffs'}; {nnz or 0:,} nnz; "
          f"ru_maxrss {_peak_rss_mb():.0f} MB", file=sys.stderr)
    # only `spectral` caches solver matrices on a grid: if the run has not
    # loaded it, the grid holds none
    spectral = sys.modules.get(f"{__package__}.spectral")
    solver = spectral.solver_storage(grid) if spectral else {}
    named = ", ".join(f"{name} {nnz:,}" for name, nnz in solver.items()) or "none"
    print(f"solver storage: {named}; {sum(solver.values()):,} nnz", file=sys.stderr)
