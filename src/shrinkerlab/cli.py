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
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import reports
from .fields import (
    SYM2,
    VECTOR,
    FieldError,
    bump_vector,
    dilation,
    euclidean_rotation,
    killing_fields,
    perturbed,
    scalar_field,
    translation,
    vector_field,
)
from .grid import Grid, GridError, build_grid
from .models import CYLINDER, GAUSSIAN, ModelError, check_soliton_identities, make_model, random_points
from .operators import OperatorKind, identity_residuals
from .propagation import (
    GATE_C,
    PropagationError,
    build_cutoff,
    distance,
    distance_profile,
    extend_symmetry,
    rung_radii,
)
from .spectral import (
    SolverError,
    canonicalize_degenerate,
    decompose_eigenfield,
    lowest_eigenpairs,
    solver_storage,
)
from .verification import (
    HarmonicityReport,
    cao_zhou_check,
    classify_killing,
    drift_bochner_residual,
    harmonicity_check,
    interp_inequality_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

class ConfigError(ValueError):
    pass


def point_tag(r: float, eps: float) -> str:
    """The name of a propagate sweep point, as its check carries it."""
    return f"r{r:g}_eps{eps:g}"


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
    dump_fields: bool = _option(False, "spectrum", "dump_fields", _parse_bool, "--dump-fields",
                                action="store_true", help="dump eigenfields as CSV")
    # propagate
    r_values: tuple = _option((5.0,), "propagate", "r", _parse_float_list, "--r",
                              help="comma list of cutoff scales (propagate)")
    epsilons: tuple = _option((1e-3,), "propagate", "epsilon", _parse_float_list, "--epsilon",
                              help="comma list of perturbation sizes (propagate)")

    def validate(self) -> None:
        # the grid's bounds (resolution, stencil order, truncation radius) are
        # checked by build_grid, whose GridError `main` reports as a config error
        if self.command not in ("verify", "spectrum", "propagate"):
            raise ConfigError(f"unknown command {self.command!r}")
        try:
            make_model(self.model_kind, self.n, self.k)
        except ModelError as exc:
            raise ConfigError(str(exc)) from exc
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.command == "verify":
            if not self.suite:
                raise ConfigError("suite names no verify suite")
            bad = [s for s in self.suite if s != "all" and s not in VERIFY_SUITES]
            if bad:
                raise ConfigError(f"unknown verify suite(s): {', '.join(bad)}")
        if self.command == "spectrum" and self.eigs < 1:
            raise ConfigError("eigs must be >= 1")
        if self.command == "propagate":
            if not self.r_values or not self.epsilons:
                raise ConfigError("r and epsilon each need at least one value")
            if not np.all(np.isfinite(self.r_values + self.epsilons)):
                raise ConfigError("r and epsilon values must be finite")
            # the bounds of r are checked by build_cutoff, on the built grid in `run`
            for eps in self.epsilons:
                if eps < 0:
                    raise ConfigError("epsilon must be nonnegative")
            # a point's tag names its check, and `compare` pairs checks by name
            tags = [point_tag(r, eps) for r in self.r_values for eps in self.epsilons]
            clashes = sorted({t for t in tags if tags.count(t) > 1})
            if clashes:
                raise ConfigError(f"r/epsilon values share the sweep point tag(s) "
                                  f"{', '.join(clashes)}; give values that differ in 6 digits")

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


def _check(name: str, passed, residuals: dict, **extra) -> dict:
    return {"check_name": name, "residuals": residuals, "passed": bool(passed), **extra}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# Each verify suite draws from the run's generator in the order of
# VERIFY_SUITES and returns its one check, or None where it does not apply.
# Its fields and draws are its own locals, released when it returns.


def _verify_soliton(cfg: RunConfig, grid: Grid, rng) -> dict:
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


def _verify_structure(cfg: RunConfig, grid: Grid, rng) -> dict:
    # through `matvec`, so the adjoint checked is the one every run applies,
    # in the weighted product that every norm reads (`Grid.inner`), on the
    # probes that weigh every row equally (`Grid.probe`)
    ops = grid.ops()
    worst_adj = 0.0
    worst_ray = float("inf")
    for _ in range(20):
        V = grid.probe(VECTOR, rng)
        DV = ops.matvec(OperatorKind.DIV_F_STAR, V)
        worst_ray = min(worst_ray, grid.inner(SYM2, DV, DV) / grid.inner(VECTOR, V, V))
        H = grid.probe(SYM2, rng)
        left = grid.inner(SYM2, DV, H)
        del DV
        right = grid.inner(VECTOR, V, ops.matvec(OperatorKind.DIV_F_TENSOR, H))
        scale = max(abs(left), abs(right), 1e-300)
        worst_adj = max(worst_adj, abs(left - right) / scale)
    return _check(
        "adjoint_structure",
        worst_adj <= 1e-12 and worst_ray >= -1e-8,
        {"adjointness": worst_adj, "min_rayleigh": worst_ray},
    )


def _verify_identities(cfg: RunConfig, grid: Grid, rng) -> dict:
    inner = 0.45 * cfg.truncation_radius
    outer = 0.72 * cfg.truncation_radius
    rep = identity_residuals(bump_vector(grid, 0, inner, outer))
    return _check(
        "commutation_identities",
        max(rep.residuals.values()) <= max(0.05, grid.stencil_tol),
        rep.residuals,
        boundary_warning=rep.boundary_warning,
    )


def _verify_kernel(cfg: RunConfig, grid: Grid, rng) -> dict:
    ops = grid.ops()
    resids = {}
    for name, Y in killing_fields(grid).items():
        resids[name] = ops.p_apply(Y).norm() / Y.norm()
    return _check("kernel_of_P", max(resids.values()) <= grid.stencil_tol, resids)


def _verify_dichotomy(cfg: RunConfig, grid: Grid, rng) -> dict:
    verdicts = {}
    ok = True
    for name, Y in killing_fields(grid).items():
        v = classify_killing(Y)
        verdicts[name] = v.verdict
        ok &= v.consistent and v.verdict != "NotKilling"
    # a stretched coordinate field is never Killing
    stretched = vector_field(
        grid, lambda c: np.stack([c[:, 0]] + [np.zeros(len(c))] * (grid.n - 1))
    )
    v = classify_killing(stretched)
    verdicts["coordinate_stretch"] = v.verdict
    ok &= v.verdict == "NotKilling"
    return _check("killing_dichotomy", ok, {}, verdicts=verdicts)


def _verify_harmonicity(cfg: RunConfig, grid: Grid, rng) -> dict:
    reps = {}
    for name, Y in killing_fields(grid).items():
        try:
            reps[name] = harmonicity_check(Y)
        except FieldError:  # not shown to be Killing: its check fails
            reps[name] = HarmonicityReport(residual=float("nan"), passed=False)
    return _check("divergence_harmonicity", all(r.passed for r in reps.values()),
                  {name: r.residual for name, r in reps.items()})


def _verify_bochner(cfg: RunConfig, grid: Grid, rng) -> dict | None:
    if grid.model.angle_axes:  # the Bochner fields are flat-space eigenfunctions
        return None
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


def _interp_fields(cfg: RunConfig, grid: Grid):
    """The interpolation suite's fields, each built when its check is reached."""
    yield from killing_fields(grid).items()
    yield "bump", bump_vector(grid, 0, 0.45 * cfg.truncation_radius, 0.7 * cfg.truncation_radius)
    yield "dilation", dilation(grid)


def _verify_interp(cfg: RunConfig, grid: Grid, rng) -> dict:
    results = {}
    ok = True
    for name, Y in _interp_fields(cfg, grid):
        rep = interp_inequality_check(Y)
        results[name] = {"lhs": rep.lhs, "rhs": rep.rhs}
        ok &= rep.passed
    return _check("interpolation_inequality", ok, {}, values=results)


def _verify_cao_zhou(cfg: RunConfig, grid: Grid, rng) -> dict:
    rep = cao_zhou_check(grid)
    return _check("distance_volume_growth", rep.passed, {"c1": rep.c1, "c2": rep.c2, "c3": rep.c3})


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
    """The selected suites in the order of VERIFY_SUITES; each prints its time
    and the process's peak RSS so far to stderr as it finishes."""
    rng = np.random.default_rng(cfg.seed)
    checks = []
    for name, suite in VERIFY_SUITES.items():
        if name not in cfg.suite and "all" not in cfg.suite:
            continue
        started = time.perf_counter()
        check = suite(cfg, grid, rng)
        if check is None:
            continue
        print(f"verify suite {name}: {time.perf_counter() - started:.2f} s, "
              f"ru_maxrss {_peak_rss_mb():.0f} MB", file=sys.stderr)
        checks.append(check)
    return checks


# ---- spectrum ---------------------------------------------------------------


def run_spectrum(cfg: RunConfig, grid: Grid, out_dir: Path) -> list[dict]:
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


def _propagate_point(cfg: RunConfig, reference, r: float, eps: float, floor) -> dict:
    """One sweep point: the extension of the perturbed reference, its distances
    to the reference's line and the propagation gate against `floor`, the
    distance profile of the eps-0 extension."""
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
        variational_ok=result.mu <= result.div_star_v_norm_sq + 1e-10,
        block_solver=result.near_kernel.summary(),
        input_gap=input_gap,
        local_distance=distance(Y, Z, inside),
        distance_profile={"radii": rung_radii(reference.grid, r), "e": e, "floor": floor},
    )
    point["passed"] = bool(point["variational_ok"] and np.all(e <= GATE_C * (input_gap + floor)))
    return point


def run_propagate(cfg: RunConfig, grid: Grid) -> list[dict]:
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
            checks.append({"check_name": f"propagation_{point_tag(r, eps)}", **point})
    return checks


# ---- compare ----------------------------------------------------------------


# quantities listed at both resolutions with no ratio, order or verdict: mu
# settles at the eigenvalues of the truncated domain, adjointness and
# gram_error sit at round-off, min_rayleigh is a Rayleigh quotient, and above
# the floor the distances of a propagation point settle at about
# 0.7 x input_gap (the rungs of e are named e(rho))
SETTLING = ("mu", "adjointness", "gram_error", "min_rayleigh", "input_gap", "local_distance",
            "e")


def _compared_quantities(check: dict) -> dict:
    """The numbers of one check that `compare_runs` tabulates: its residuals,
    an eigenpair's mu and eigen-equation residuals, and a propagation point's
    accuracy figures and distances, one entry per rung of its profile."""
    quantities = dict(check.get("residuals") or {})
    name = check["check_name"]
    if name.startswith("eigenpair_"):
        norm = check.get("norm_checks") or {}
        quantities.update(norm.get("decomposition_residuals") or {})
        quantities.update(mu=check.get("mu"), divf_eigen_residual=norm.get("divf_eigen_residual"))
    elif name.startswith("propagation_"):
        quantities.update(
            mu=check.get("mu"),
            eigen_residual=check.get("eigen_residual"),
            input_gap=check.get("input_gap"),
            local_distance=check.get("local_distance"),
        )
        cosine = check.get("cosine_with_reference")
        if isinstance(cosine, (int, float)):
            quantities["1-cosine_with_reference"] = 1.0 - cosine
        profile = check.get("distance_profile") or {}
        for key in ("e", "floor"):
            for rho, value in zip(profile.get("radii", ()), profile.get(key, ())):
                quantities[f"{key}({rho:g})"] = value
    return quantities


def compare_runs(report_a: dict, report_b: dict) -> list[dict]:
    """Per-check error ratios and empirical convergence orders of two runs.

    A quantity in SETTLING gets a row with both values and no ratio, order
    or verdict.
    """
    if report_a.get("command") != report_b.get("command"):
        raise ConfigError("cannot compare reports from different commands")
    # an error ratio measures convergence only if resolution is all that differs
    for key in ("model", "truncation_radius", "stencil_order"):
        if report_a.get("config", {}).get(key) != report_b.get("config", {}).get(key):
            raise ConfigError(f"cannot compare reports with different {key}")
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
            if key.partition("(")[0] not in SETTLING:
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
    model = make_model(cfg.model_kind, cfg.n, cfg.k)
    grid, _ = build_grid(model, cfg.resolution, cfg.truncation_radius, cfg.stencil_order)
    if cfg.command == "spectrum" and cfg.eigs >= grid.n_nodes * grid.n:
        raise ConfigError(f"eigs must be below the {grid.n_nodes * grid.n} unknowns of this grid")
    if cfg.command == "propagate":
        for r in cfg.r_values:
            try:
                build_cutoff(grid, r)
            except PropagationError as exc:
                raise ConfigError(str(exc)) from exc
    # the writers make the output directory, so a config error leaves none
    out_dir = cfg.output_dir
    if cfg.command == "verify":
        checks = run_verify(cfg, grid)
    elif cfg.command == "spectrum":
        checks = run_spectrum(cfg, grid, out_dir)
    else:
        checks = run_propagate(cfg, grid)
    # on stderr, not in the report, so that reruns stay byte-identical
    held = grid.ops().stored_matrices()
    print(
        f"operator storage: {', '.join(held) or 'none'}; {sum(held.values()):,} nnz; "
        f"ru_maxrss {_peak_rss_mb():.0f} MB",
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
