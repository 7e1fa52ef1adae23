"""Command-line workflows: verify / spectrum / propagate, plus run comparison.

Configuration comes from an INI-style file (sections mirroring the run
config) with command-line flags taking precedence. Exit codes: 0 all checks
passed, 1 at least one check failed, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import configparser
import resource
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import reports
from .fields import (
    SYM2,
    VECTOR,
    Field,
    FieldError,
    bump_vector,
    components_for,
    dilation,
    euclidean_rotation,
    killing_fields,
    perturbed_rotation,
    radial_bump,
    scalar_field,
    translation,
    vector_field,
)
from .grid import MIN_RESOLUTION, MIN_TRUNCATION, Grid, GridError, RadialProfile, build_grid
from .models import CYLINDER, GAUSSIAN, ModelError, check_soliton_identities, make_model, random_points
from .operators import OperatorKind, identity_residuals
from .propagation import (
    PropagationError,
    check_growth_bound,
    doubling_bound,
    extend_symmetry,
    measured_lambda_bar,
)
from .spectral import (
    SolverError,
    canonicalize_degenerate,
    decompose_eigenfield,
    eigencheck_divf,
    lowest_eigenpairs,
    solver_storage,
)
from .verification import (
    cao_zhou_check,
    classify_killing,
    drift_bochner_residual,
    harmonicity_check,
    interp_inequality_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

VERIFY_SUITES = (
    "soliton",
    "structure",
    "identities",
    "kernel",
    "dichotomy",
    "harmonicity",
    "bochner",
    "interp",
    "cao_zhou",
)


class ConfigError(ValueError):
    pass


def _parse_float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_words(text: str) -> tuple:
    return tuple(text.replace(",", " ").split())


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _option(default, section: str, key: str, parse, flag: str | None = None, **arg_kw):
    """A run option: RunConfig default, INI [section] key (also its report key),
    value parser, and the CLI flag with extra argparse keywords (None: INI only)."""
    meta = {"section": section, "key": key, "parse": parse, "flag": flag, "arg_kw": arg_kw}
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Every run option, declared once; the parser, INI reader and to_dict follow."""

    # the CLI sets the command positionally (see build_arg_parser)
    command: str = _option("verify", "run", "command", str)
    model_kind: str = _option(GAUSSIAN, "model", "kind", str.lower, "--model",
                              choices=[GAUSSIAN, CYLINDER])
    n: int = _option(2, "model", "n", int, "--dim", help="total dimension n")
    k: int | None = _option(None, "model", "k", int, "--k", help="sphere dimension (cylinder)")
    resolution: int = _option(64, "grid", "resolution", int, "--resolution")
    truncation_radius: float = _option(8.0, "grid", "truncation_radius", float,
                                       "--truncation-radius")
    stencil_order: int = _option(2, "grid", "stencil_order", int, "--stencil-order",
                                 choices=[2, 4])
    seed: int = _option(0, "run", "seed", int, "--seed")
    output_dir: Path = _option(Path("runs"), "run", "output", Path, "--output")
    # verify
    suite: tuple = _option(("all",), "verify", "suite", _parse_words, "--suite",
                           help="comma list of verify suites, or 'all'")
    # spectrum
    eigs: int = _option(4, "spectrum", "eigs", int, "--eigs", help="eigenpair count (spectrum)")
    tolerance: float = _option(1e-9, "spectrum", "tolerance", float, "--tolerance",
                               help="eigensolver tolerance")
    dump_fields: bool = _option(False, "spectrum", "dump_fields", _parse_bool, "--dump-fields",
                                action="store_true", help="dump eigenfields as CSV")
    # propagate
    r_values: tuple = _option((5.0,), "propagate", "r", _parse_float_list, "--r",
                              help="comma list of cutoff scales (propagate)")
    epsilons: tuple = _option((1e-3,), "propagate", "epsilon", _parse_float_list, "--epsilon",
                              help="comma list of perturbation sizes (propagate)")
    profile_points: int = _option(10, "propagate", "profile_points", int)

    def validate(self) -> None:
        if self.command not in ("verify", "spectrum", "propagate"):
            raise ConfigError(f"unknown command {self.command!r}")
        try:
            make_model(self.model_kind, self.n, self.k)
        except ModelError as exc:
            raise ConfigError(str(exc)) from exc
        if self.resolution < MIN_RESOLUTION:
            raise ConfigError(f"resolution below minimum ({MIN_RESOLUTION})")
        if self.stencil_order not in (2, 4):
            raise ConfigError("stencil_order must be 2 or 4")
        if self.truncation_radius < MIN_TRUNCATION:
            raise ConfigError(f"truncation_radius must be >= {MIN_TRUNCATION:g}")
        if self.command == "verify":
            bad = [s for s in self.suite if s != "all" and s not in VERIFY_SUITES]
            if bad:
                raise ConfigError(f"unknown verify suite(s): {', '.join(bad)}")
        if self.command == "spectrum" and self.eigs < 1:
            raise ConfigError("eigs must be >= 1")
        if self.command == "propagate":
            for r in self.r_values:
                if r > self.truncation_radius:
                    raise ConfigError("r exceeds truncation_radius")
                if r < 4.0:
                    raise ConfigError("r must be >= 4")
            for eps in self.epsilons:
                if eps < 0:
                    raise ConfigError("epsilon must be nonnegative")

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Path):
                value = str(value)
            # the [model] keys nest under "model", all others are top-level
            target = out.setdefault("model", {}) if f.metadata["section"] == "model" else out
            target[f.metadata["key"]] = value
        return out


def load_config_file(path: Path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    options = {(f.metadata["section"], f.metadata["key"]): f for f in fields(RunConfig)}
    sections = {section for section, _ in options}
    cfg = RunConfig()
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            f = options.get((section, key))
            if f is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                setattr(cfg, f.name, f.metadata["parse"](text))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in section [{section}]: {exc}") from exc
    return cfg


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shrinkerlab",
        description="Weighted operator calculus on model shrinking solitons",
    )
    ap.add_argument("command", choices=["verify", "spectrum", "propagate", "compare"])
    ap.add_argument("reports", nargs="*", help="two report.json paths (compare only)")
    ap.add_argument("--config", type=Path, help="INI config file; flags override it")
    for f in fields(RunConfig):
        meta = f.metadata
        if meta["flag"] is None:
            continue
        kw = dict(meta["arg_kw"])
        if "action" not in kw:
            kw["type"] = meta["parse"]
        # None marks a flag that was not given, so the INI value stays
        ap.add_argument(meta["flag"], dest=f.name, default=None, **kw)
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_config_file(args.config) if args.config else RunConfig()
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


# ---- verify ----------------------------------------------------------------


def run_verify(cfg: RunConfig, grid: Grid) -> list[dict]:
    model = grid.model
    ops = grid.ops()
    rng = np.random.default_rng(cfg.seed)
    suites = VERIFY_SUITES if "all" in cfg.suite else cfg.suite
    checks = []

    def record(name, passed, residuals, **extra):
        checks.append(
            {
                "check_name": name,
                "model": model.describe(),
                "resolution": cfg.resolution,
                "stencil_order": cfg.stencil_order,
                "residuals": residuals,
                "passed": bool(passed),
                **extra,
            }
        )

    if "soliton" in suites:
        pts = random_points(model, 100, rng)
        rep = check_soliton_identities(model, pts)
        record(
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

    if "structure" in suites:
        # through the handles, so the adjoint checked is the one every run applies
        worst_adj = 0.0
        worst_ray = 0.0
        for _ in range(20):
            V = Field.from_flat(grid, VECTOR, rng.standard_normal(grid.n_nodes * grid.n))
            H = Field.from_flat(
                grid, SYM2, rng.standard_normal(grid.n_nodes * components_for(SYM2, grid.n))
            )
            DV = ops.div_star(V)
            left = DV.inner(H)
            right = V.inner(ops.div(H))
            scale = max(abs(left), abs(right), 1e-300)
            worst_adj = max(worst_adj, abs(left - right) / scale)
            worst_ray = min(worst_ray, DV.inner(DV) / V.inner(V))
        record(
            "adjoint_structure",
            worst_adj <= 1e-12 and worst_ray >= -1e-8,
            {"adjointness": worst_adj, "min_rayleigh": worst_ray},
        )

    if "identities" in suites:
        inner = 0.45 * cfg.truncation_radius
        outer = 0.72 * cfg.truncation_radius
        rep = identity_residuals(bump_vector(grid, 0, inner, outer))
        record(
            "commutation_identities",
            max(rep.residuals.values()) <= max(0.05, grid.stencil_tol),
            rep.residuals,
            boundary_warning=rep.boundary_warning,
        )

    if "kernel" in suites:
        resids = {}
        for name, Y in killing_fields(grid).items():
            resids[name] = ops.p_apply(Y).norm() / Y.norm()
        record("kernel_of_P", max(resids.values()) <= grid.stencil_tol, resids)

    if "dichotomy" in suites:
        verdicts = {}
        ok = True
        for name, Y in killing_fields(grid).items():
            v = classify_killing(Y)
            verdicts[name] = v.verdict
            ok &= v.consistent and v.verdict != "NotKilling"
        # a stretched coordinate field is never Killing
        stretched = vector_field(
            grid, lambda c: np.stack([c[:, 0]] + [np.zeros(len(c))] * (grid.n - 1), axis=1)
        )
        v = classify_killing(stretched)
        verdicts["coordinate_stretch"] = v.verdict
        ok &= v.verdict == "NotKilling"
        record("killing_dichotomy", ok, {}, verdicts=verdicts)

    if "harmonicity" in suites:
        resids = {}
        for name, Y in killing_fields(grid).items():
            try:
                resids[name] = harmonicity_check(Y).residual
            except FieldError:  # not shown to be Killing: its check fails
                resids[name] = float("nan")
        record("divergence_harmonicity",
               all(r <= grid.stencil_tol for r in resids.values()), resids)

    if "bochner" in suites and model.kind == GAUSSIAN:
        v1 = scalar_field(grid, lambda c: c[:, 0])
        rep1 = drift_bochner_residual(v1, 0.5)
        v2 = scalar_field(grid, lambda c: c[:, 0] ** 2 - 2.0)
        rep2 = drift_bochner_residual(v2, 1.0)
        record(
            "drift_bochner",
            max(rep1.residual, rep2.residual) <= max(0.05, grid.stencil_tol),
            {"linear": rep1.residual, "quadratic": rep2.residual},
        )

    if "interp" in suites:
        results = {}
        ok = True
        for name, Y in list(killing_fields(grid).items()) + [
            ("bump", bump_vector(grid, 0, 0.45 * cfg.truncation_radius, 0.7 * cfg.truncation_radius)),
            ("dilation", dilation(grid)),
        ]:
            rep = interp_inequality_check(Y)
            results[name] = {"lhs": rep.lhs, "rhs": rep.rhs}
            ok &= rep.passed
        record("interpolation_inequality", ok, {}, values=results)

    if "cao_zhou" in suites:
        rep = cao_zhou_check(model, grid)
        record(
            "distance_volume_growth",
            not rep.insufficient,
            {"c1": rep.c1, "c2": rep.c2, "c3": rep.c3},
            insufficient=rep.insufficient,
        )
    return checks


# ---- spectrum ---------------------------------------------------------------


def run_spectrum(cfg: RunConfig, grid: Grid, out_dir: Path) -> list[dict]:
    ops = grid.ops()
    pairs = lowest_eigenpairs(
        ops.handle(OperatorKind.OP_P), cfg.eigs, tolerance=cfg.tolerance, seed=cfg.seed
    )
    pairs = canonicalize_degenerate(pairs)
    checks = []
    eq_tol = max(1e-2, grid.stencil_tol)
    for i, pair in enumerate(pairs):
        chk = eigencheck_divf(pair)
        dec = decompose_eigenfield(pair)
        interp = interp_inequality_check(pair.field)
        rayleigh = ops.rayleigh_p(pair.field)
        passed = (
            chk.bound_ok
            and (chk.skipped or chk.eigen_residual <= eq_tol)
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
                    "divf_norm_sq": chk.divf_norm_sq,
                    "divf_bound": chk.bound,
                    "divf_eigen_residual": chk.eigen_residual,
                    "divf_skipped": chk.skipped,
                    "norm_gap": dec.norm_gap,
                    "beta": dec.beta,
                    "decomposition_residuals": dec.residuals,
                    "interp_lhs": interp.lhs,
                    "interp_rhs": interp.rhs,
                    "rayleigh_gap": abs(rayleigh - pair.mu),
                },
            }
        )
        if cfg.dump_fields:
            reports.write_field_csv(out_dir / f"eigenfield_{i}.csv", pair.field)
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


def _propagate_point(
    cfg: RunConfig, grid: Grid, r: float, eps: float
) -> tuple[dict, RadialProfile | None]:
    """One sweep point: its report entry, and the defect profile for the CSVs."""
    model = grid.model
    if model.kind == GAUSSIAN and model.n >= 2:
        Y = perturbed_rotation(grid, eps)
        reference = euclidean_rotation(grid)
    else:
        base = translation(grid, 0)
        pert = vector_field(
            grid,
            lambda c: np.stack(
                [c[:, 0] ** 2] + [np.zeros(len(c))] * (grid.n - 1), axis=1
            ),
        )
        Y = base + pert.scale_by(radial_bump(grid, 2.0, 3.5)) * eps
        reference = base
    result = extend_symmetry(
        Y, r, tolerance=cfg.tolerance, profile_points=cfg.profile_points, seed=cfg.seed
    )
    refn = reference * (1.0 / reference.norm())
    cosine = abs(result.z.field.inner(refn))
    lam = measured_lambda_bar(result.defect_tensor)
    point = {
        "r": r,
        "epsilon": eps,
        "mu": result.mu,
        "mu_bar": result.defect.mu_bar,
        "c1_measured": result.defect.c1_measured,
        "tail": result.tail,
        "c2_fit": result.c2_fit,
        "c_tail_fit": result.c_tail_fit,
        "div_star_v_norm_sq": result.div_star_v_norm_sq,
        "v_norm_sq": result.v_norm_sq,
        "hypothesis_mu_bar_lt_1": result.hypothesis_mu_bar_lt_1,
        "cosine_with_reference": cosine,
        "eigen_residual": result.z.residual,
        "cutoff_grad_bound": result.cutoff.grad_bound,
        "lambda_bar": lam,
        "variational_ok": result.mu <= result.div_star_v_norm_sq + 1e-10,
        "block_solver": result.near_kernel.summary(),
    }
    # below the squared stencil-noise scale the defect tensor is pure
    # discretization noise; its unweighted shell profile is then not a
    # meaningful growth observable and is reported without a pass/fail gate
    noise_floor = point["mu"] > grid.stencil_tol**2
    point["defect_above_noise_floor"] = bool(noise_floor)
    profile, fit = result.defect_profile, result.fit
    if profile is not None:
        point["profile"] = {
            "radii": list(profile.radii),
            "values": list(profile.values),
            "f_levels": list(profile.radii**2 / 4.0),
        }
        if fit is None:
            point["profile_note"] = result.profile_note
        else:
            point["fit"] = {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "max_residual": fit.max_residual,
            }
            point["fitted_exponent"] = result.fitted_exponent
            growth = check_growth_bound(profile, lam, profile.radii[0])
            point["growth_bound"] = {
                "worst_ratio": growth.worst_ratio,
                "passed": growth.passed,
                "lambda_bar": growth.lambda_bar,
            }
            if noise_floor:
                point["passed"] = bool(
                    point["variational_ok"] and growth.passed and (fit.max_residual <= 0.5)
                )
    point.setdefault("passed", bool(point["variational_ok"]))
    return point, profile


def run_propagate(cfg: RunConfig, grid: Grid, out_dir: Path) -> list[dict]:
    # one grid, and so one operator suite and one near-kernel block, serves
    # every sweep point
    checks = []
    for r in cfg.r_values:
        for eps in cfg.epsilons:
            point, profile = _propagate_point(cfg, grid, r, eps)
            tag = f"r{r:g}_eps{eps:g}"
            if profile is not None:
                reports.write_profile_csv(out_dir / f"profile_{tag}.csv", profile)
                radii, values = profile.radii, profile.values
                lam = point["lambda_bar"]
                rows = [
                    (rr, vv, doubling_bound(radii[0], rr, values[0], lam))
                    for rr, vv in zip(radii, values)
                ]
                reports.write_plot_data(
                    out_dir / f"plot_{tag}.csv",
                    ["radius_b", "I_div_star_Z", "polynomial_bound"],
                    rows,
                )
            checks.append({"check_name": f"propagation_{tag}", **point})
    return checks


# ---- compare ----------------------------------------------------------------


# quantities that settle at a nonzero limit under refinement, not at zero:
# mu at the near-kernel eigenvalues of the truncated domain
SETTLING = ("mu", "fitted_exponent")


def _compared_quantities(check: dict) -> dict:
    """The numbers of one check that `compare_runs` tabulates: its residuals
    and, for a propagation point, the pipeline's accuracy figures."""
    quantities = dict(check.get("residuals") or {})
    if check["check_name"].startswith("propagation_"):
        quantities.update(
            mu=check.get("mu"),
            eigen_residual=check.get("eigen_residual"),
            fitted_exponent=check.get("fitted_exponent"),
        )
        cosine = check.get("cosine_with_reference")
        if isinstance(cosine, (int, float)):
            quantities["1-cosine_with_reference"] = 1.0 - cosine
    return quantities


def compare_runs(report_a: dict, report_b: dict) -> list[dict]:
    """Per-check error ratios and empirical convergence orders of two runs.

    A quantity in SETTLING gets a row with both values and no ratio, order
    or verdict.
    """
    if report_a.get("command") != report_b.get("command"):
        raise ConfigError("cannot compare reports from different commands")
    res_a = report_a.get("config", {}).get("resolution")
    res_b = report_b.get("config", {}).get("resolution")
    if not res_a or not res_b or res_a == res_b:
        raise ConfigError("reports must differ in resolution")
    order_expected = report_a.get("config", {}).get("stencil_order", 2)
    by_name = {c["check_name"]: c for c in report_b.get("checks", [])}
    table = []
    for check in report_a.get("checks", []):
        other = by_name.get(check["check_name"])
        if other is None:
            continue
        quantities = _compared_quantities(other)
        for key, val in _compared_quantities(check).items():
            oval = quantities.get(key)
            if not isinstance(val, (int, float)) or not isinstance(oval, (int, float)):
                continue
            coarse, fine = (val, oval) if res_b > res_a else (oval, val)
            row = {
                "check_name": check["check_name"],
                "quantity": key,
                "coarse": min(res_a, res_b),
                "fine": max(res_a, res_b),
                "coarse_value": coarse,
                "fine_value": fine,
                "error_ratio": None,
                "empirical_order": None,
                "converging": None,
            }
            if key not in SETTLING:
                if val <= 0 or oval <= 0:
                    continue
                ratio = coarse / fine
                order = float(np.log(ratio) / np.log(max(res_a, res_b) / min(res_a, res_b)))
                row.update(
                    error_ratio=ratio,
                    empirical_order=order,
                    converging=bool(order >= order_expected - 0.5),
                )
            table.append(row)
    return table


# ---- entry point ------------------------------------------------------------


def run(cfg: RunConfig) -> int:
    cfg.validate()
    out_dir = cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    model = make_model(cfg.model_kind, cfg.n, cfg.k)
    grid, _ = build_grid(model, cfg.resolution, cfg.truncation_radius, cfg.stencil_order)
    if cfg.command == "verify":
        checks = run_verify(cfg, grid)
    elif cfg.command == "spectrum":
        checks = run_spectrum(cfg, grid, out_dir)
    else:
        checks = run_propagate(cfg, grid, out_dir)
    # on stderr, not in the report, so that reruns stay byte-identical
    held = grid.ops().stored_matrices()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(
        f"operator storage: {', '.join(held)}; {sum(held.values()):,} nnz; "
        f"ru_maxrss {peak_mb:.0f} MB",
        file=sys.stderr,
    )
    solver = solver_storage(grid)
    named = ", ".join(f"{name} {nnz:,}" for name, nnz in solver.items()) or "none"
    print(f"solver storage: {named}; {sum(solver.values()):,} nnz", file=sys.stderr)
    doc = reports.write_report(
        out_dir / "report.json", cfg.command, cfg.to_dict(), model.describe(), checks
    )
    failed = [c["check_name"] for c in checks if not c.get("passed", True)]
    for check in checks:
        status = "pass" if check.get("passed", True) else "FAIL"
        print(f"[{status}] {check['check_name']}")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "compare":
            if len(args.reports) != 2:
                raise ConfigError("compare needs exactly two report.json paths")
            table = compare_runs(
                reports.load_report(Path(args.reports[0])),
                reports.load_report(Path(args.reports[1])),
            )
            for row in table:
                name = f"{row['check_name']}/{row['quantity']}"
                if row["error_ratio"] is None:
                    print(f"{name}: coarse={row['coarse_value']:.6g} fine={row['fine_value']:.6g}")
                    continue
                flag = "" if row["converging"] else "  <-- below expected order"
                print(
                    f"{name}: ratio={row['error_ratio']:.3g} "
                    f"order={row['empirical_order']:.2f}{flag}"
                )
            return EXIT_OK
        if args.reports:
            raise ConfigError("positional report paths are only valid with 'compare'")
        cfg = config_from_args(args)
        return run(cfg)
    except (ConfigError, ModelError, GridError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, PropagationError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
