"""Command-line front end: verify / spectrum / propagate runs, plus run comparison.

Configuration comes from an INI-style file (sections mirroring the run
config) with command-line flags taking precedence. Exit codes: 0 all checks
passed, 1 at least one check failed, 2 configuration or usage error.

This module parses, validates and compares with the standard library, `kinds`
and `reports` alone, so `--help`, `compare` and every error of
`RunConfig.validate` exit before numpy loads; `kinds` says which models
exist, and `RunConfig.output_paths` names every file a run writes. `run`
builds the model and the grid with numpy alone, so a grid bound exits before
scipy loads. It then loads the numerical workflows (`workflows`), and the
solver layers (`spectral`, `propagation`) only for spectrum and propagate;
only the errors it finds with those, `--eigs` past `check_pair_count` and a
cutoff band too fine for the grid, wait on them.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import reports
from .kinds import GAUSSIAN, SPHERE_DIM, ModelError, check_model

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
RUN_COMMANDS = ("verify", "spectrum", "propagate")
# the names of `workflows.VERIFY_SUITES`, in its order, for `verify_suites`
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
                              choices=list(SPHERE_DIM))
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
        # `run` checks the rest: the grid's bounds by build_grid before scipy
        # loads, then eigs and cutoff bands after it
        if self.command not in RUN_COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        try:
            check_model(self.model_kind, self.n, self.k)
        except ModelError as exc:
            raise ConfigError(str(exc)) from exc
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # the writers make the output directory and its parents after the run
        existing = next(p for p in (self.output_dir, *self.output_dir.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"output {self.output_dir}: {existing} is not a directory")
        # a directory can take an output path only inside an existing output directory
        taken = existing == self.output_dir and next(filter(Path.is_dir, self.output_paths()), None)
        if taken:
            raise ConfigError(f"output {self.output_dir}: {taken} is a directory")
        if self.command == "verify":
            self.verify_suites()
        if self.command == "spectrum" and self.eigs < 1:
            raise ConfigError("eigs must be >= 1")
        if self.command == "propagate":
            if not self.r_values or not self.epsilons:
                raise ConfigError("r and epsilon each need at least one value")
            if not all(map(math.isfinite, self.r_values + self.epsilons)):
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

    def output_paths(self) -> Iterator[Path]:
        """Every file the run writes, the report first, then each pair's CSV under
        spectrum --dump-fields; lazy, as eigs is bounded on the grid, after `validate`."""
        yield self.output_dir / "report.json"
        if self.command == "spectrum" and self.dump_fields:
            yield from (self.output_dir / f"eigenfield_{i}.csv" for i in range(self.eigs))

    def verify_suites(self) -> tuple:
        """The verify suites run on the model, in VERIFY_SUITE_NAMES order: the
        named ones, or under "all" every one that applies. The Bochner fields
        are flat-space eigenfunctions: named on a sphere factor, a ConfigError."""
        if not self.suite:
            raise ConfigError("suite names no verify suite")
        bad = [s for s in self.suite if s != "all" and s not in VERIFY_SUITE_NAMES]
        if bad:
            raise ConfigError(f"unknown verify suite(s): {', '.join(bad)}")
        flat = SPHERE_DIM[self.model_kind] is None
        if "bochner" in self.suite and not flat:
            raise ConfigError(f"verify suite bochner does not apply to the {self.model_kind} "
                              f"model, which has a sphere factor")
        named = VERIFY_SUITE_NAMES if "all" in self.suite else self.suite
        return tuple(s for s in VERIFY_SUITE_NAMES if s in named and (flat or s != "bochner"))

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
    # a missing resolution is compare_runs' error; a bool is an int to Python
    resolution = config.get("resolution", 1)
    require(isinstance(resolution, int) and not isinstance(resolution, bool),
            "config resolution is not an integer")
    require(resolution >= 1, "config resolution is not a positive integer")
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
                order = math.log(ratio) / math.log(max(res_a, res_b) / min(res_a, res_b))
                row.update(
                    error_ratio=ratio,
                    empirical_order=order,
                    converging=bool(order >= order_expected - 0.5),
                )
            table.append(row)
    return table


# ---- entry point ------------------------------------------------------------


def run(cfg: RunConfig) -> int:
    """One run, from its config to its exit code; a config error raises
    ConfigError before the output directory exists."""
    cfg.validate()
    # the model and the grid need numpy alone, so a grid bound is a config
    # error before scipy loads; the numerical layers load after it
    from .grid import GridError, build_grid
    from .models import make_model

    model = make_model(cfg.model_kind, cfg.n, cfg.k)
    try:
        grid, _ = build_grid(model, cfg.resolution, cfg.truncation_radius, cfg.stencil_order)
    except GridError as exc:
        raise ConfigError(str(exc)) from exc
    from . import workflows
    from .errors import PropagationError, SolverError

    # the solver layers load for the commands that solve; verify loads neither
    try:
        if cfg.command == "spectrum":
            from .spectral import check_pair_count

            check_pair_count(grid, cfg.eigs)
        if cfg.command == "propagate":
            from .propagation import build_cutoff

            for r in cfg.r_values:
                build_cutoff(grid, r)
    except (ValueError, PropagationError) as exc:
        raise ConfigError(str(exc)) from exc
    # the writers make the output directory, so a config error leaves none
    try:
        if cfg.command == "verify":
            checks = workflows.run_verify(cfg, grid)
        elif cfg.command == "spectrum":
            checks = workflows.run_spectrum(cfg, grid)
        else:
            checks = workflows.run_propagate(cfg, grid)
    except (SolverError, PropagationError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    workflows.print_storage(grid)
    reports.write_report(next(cfg.output_paths()), cfg.command, cfg.to_dict(),
                         model.describe(), checks)
    failed = [c["check_name"] for c in checks if not c.get("passed", True)]
    for check in checks:
        status = "pass" if check.get("passed", True) else "FAIL"
        print(f"[{status}] {check['check_name']}")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    """Parse the command line: print `compare`'s table, or hand the run to `run`."""
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command != "compare":
            return run(config_from_args(args))
        if len(args.reports) != 2:
            raise ConfigError("compare needs exactly two report.json paths")
        for row in compare_runs(*map(_load_report, args.reports)):
            name = f"{row['check_name']}/{row['quantity']}"
            if row["error_ratio"] is None:
                print(f"{name}: coarse={row['coarse_value']:.6g} fine={row['fine_value']:.6g}")
                continue
            flag = "" if row["converging"] else "  <-- below expected order"
            print(f"{name}: ratio={row['error_ratio']:.3g} "
                  f"order={row['empirical_order']:.2f}{flag}")
        return EXIT_OK
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
