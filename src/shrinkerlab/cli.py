"""Command-line front end: verify / spectrum / propagate runs, plus run comparison.

Configuration comes from an INI-style file (sections mirroring the run
config) with command-line flags taking precedence. Exit codes: 0 all checks
passed, 1 at least one check failed, 2 configuration or usage error.

This module parses, validates and compares with `models` and `reports`
alone, so neither a config error nor `compare` waits on scipy. The numerical
workflows (`workflows`) and the layers under them load when `run`
dispatches a valid run.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import reports
from .models import CYLINDER, GAUSSIAN, ModelError, make_model

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
RUN_COMMANDS = ("verify", "spectrum", "propagate")
# the names of `workflows.VERIFY_SUITES`, in its order, for `validate`
VERIFY_SUITE_NAMES = ("soliton", "structure", "identities", "kernel", "dichotomy", "harmonicity",
                      "bochner", "interp", "cao_zhou")


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

    # the CLI sets the command as its subcommand (see build_arg_parser)
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
        if self.command not in RUN_COMMANDS:
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
            bad = [s for s in self.suite if s != "all" and s not in VERIFY_SUITE_NAMES]
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
            tags = [reports.point_tag(r, eps) for r in self.r_values for eps in self.epsilons]
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


def load_config_file(path: Path, command: str | None = None) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # no section header, a repeated key or section
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
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
    # the positional `command` would override a [run] command without notice
    if command and parser.has_option("run", "command") and cfg.command != command:
        raise ConfigError(f"config file {path} sets command {cfg.command!r}, "
                          f"but the command line runs {command!r}")
    return cfg


def build_arg_parser() -> argparse.ArgumentParser:
    """`compare` takes report paths only; a run command takes --config and the
    flags of [run], [model], [grid] and its own section, and no other."""
    ap = argparse.ArgumentParser(
        prog="shrinkerlab",
        description="Weighted operator calculus on model shrinking solitons",
    )
    commands = ap.add_subparsers(dest="command", required=True)
    commands.add_parser("compare").add_argument("reports", nargs="*",
                                                help="two report.json paths")
    for command in RUN_COMMANDS:
        sub = commands.add_parser(command)
        sub.add_argument("--config", type=Path, help="INI config file; flags override it")
        for f in fields(RunConfig):
            meta = f.metadata
            if meta["flag"] is None or meta["section"] not in ("run", "model", "grid", command):
                continue
            kw = dict(meta["arg_kw"])
            if "action" not in kw:
                kw["type"] = meta["parse"]
            # None marks a flag that was not given, so the INI value stays
            sub.add_argument(meta["flag"], dest=f.name, default=None, **kw)
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_config_file(args.config, args.command) if args.config else RunConfig()
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


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


def _load_report(path: str) -> dict:
    """A report to compare; a file that is not one, or that holds a part of
    another type than `compare_runs` reads it as, is a config error."""
    try:
        doc = reports.load_report(Path(path))
    except (OSError, ValueError) as exc:  # a missing file, malformed JSON
        raise ConfigError(f"cannot read report {path}: {exc}") from exc

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ConfigError(f"cannot read report {path}: {what}")

    require(isinstance(doc, dict), "not a JSON object")
    config = doc.get("config", {})
    require(isinstance(config, dict), "config is not a JSON object")
    require(isinstance(config.get("resolution", 0), int), "config resolution is not an integer")
    checks = doc.get("checks", [])
    require(isinstance(checks, list), "checks is not a list")
    for i, check in enumerate(checks):
        require(isinstance(check, dict), f"check {i} is not a JSON object")
        require(isinstance(check.get("check_name"), str), f"check {i} has no check_name")
        norm = check.get("norm_checks") or {}
        profile = check.get("distance_profile") or {}
        for key, part in (("residuals", check.get("residuals") or {}), ("norm_checks", norm),
                          ("distance_profile", profile)):
            require(isinstance(part, dict), f"check {i} {key} is not a JSON object")
        require(isinstance(norm.get("decomposition_residuals") or {}, dict),
                f"check {i} decomposition_residuals is not a JSON object")
        require(all(isinstance(profile.get(key, []), list) for key in ("radii", "e", "floor"))
                and all(isinstance(rho, (int, float)) for rho in profile.get("radii", [])),
                f"check {i} distance_profile is not lists of numeric radii and values")
    return doc


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
    # the numerical layers, and scipy with them, load here, not with this
    # module: parsing, validation and `compare` need none of them
    from . import workflows
    from .grid import build_grid
    from .propagation import PropagationError, build_cutoff
    from .spectral import check_pair_count

    model = make_model(cfg.model_kind, cfg.n, cfg.k)
    grid, _ = build_grid(model, cfg.resolution, cfg.truncation_radius, cfg.stencil_order)
    try:
        if cfg.command == "spectrum":
            check_pair_count(grid, cfg.eigs)
        if cfg.command == "verify":
            workflows.check_suites(cfg, grid)
        if cfg.command == "propagate":
            for r in cfg.r_values:
                build_cutoff(grid, r)
    except (ValueError, PropagationError) as exc:
        raise ConfigError(str(exc)) from exc
    # the writers make the output directory, so a config error leaves none
    out_dir = cfg.output_dir
    if cfg.command == "verify":
        checks = workflows.run_verify(cfg, grid)
    elif cfg.command == "spectrum":
        checks = workflows.run_spectrum(cfg, grid, out_dir)
    else:
        checks = workflows.run_propagate(cfg, grid)
    workflows.print_storage(grid)
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
            table = compare_runs(*map(_load_report, args.reports))
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
        cfg = config_from_args(args)
        cfg.validate()
        # only a valid run loads the numerics (`run`), so only then are
        # their errors imported, to be caught
        from .grid import GridError
        from .propagation import PropagationError
        from .spectral import SolverError

        try:
            return run(cfg)
        except GridError as exc:
            raise ConfigError(str(exc)) from exc
        except (SolverError, PropagationError) as exc:
            print(f"check failure: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
