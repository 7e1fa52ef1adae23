import argparse
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import held_arrays, traced_peak
from shrinkerlab import build_grid, cli, make_model, propagation, spectral, workflows
from shrinkerlab import grid as grid_module
from shrinkerlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    RunConfig,
    compare_runs,
    load_config_file,
    main,
)
from shrinkerlab.fields import components_for, euclidean_rotation, translation
from shrinkerlab.models import ModelShrinker
from shrinkerlab.operators import OperatorKind, Operators
from shrinkerlab.reports import _plain, load_report, write_report
from shrinkerlab.verification import HarmonicityReport

REPO = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def read_report(out_dir: Path) -> dict:
    return load_report(out_dir / "report.json")


def test_verify_gaussian_passes(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "verify", "--model", "gaussian", "--dim", "2",
        "--resolution", "64", "--truncation-radius", "6",
        "--seed", "7", "--output", str(out),
    )
    assert code == EXIT_OK
    doc = read_report(out)
    assert doc["passed"]
    assert doc["schema_version"] == 1
    names = {c["check_name"] for c in doc["checks"]}
    assert {"soliton_identities", "adjoint_structure", "killing_dichotomy"} <= names
    assert doc["model"] == {"kind": "gaussian", "n": 2, "k": None,
                            "sphere_radius": None, "f_offset": 0.0}


def test_verify_cylinder_passes(tmp_path):
    out = tmp_path / "cyl"
    code = run_cli(
        "verify", "--model", "cylinder", "--dim", "3", "--k", "2",
        "--resolution", "64", "--truncation-radius", "6",
        "--output", str(out),
    )
    assert code == EXIT_OK
    doc = read_report(out)
    verdicts = next(
        c for c in doc["checks"] if c["check_name"] == "killing_dichotomy"
    )["verdicts"]
    assert verdicts["translation_0"] == "SplitsLine"
    assert verdicts["polar_rotation"] == "PreservesF"


def test_adjoint_structure_reports_least_rayleigh_quotient(tmp_path):
    # every |div_f^* V|^2 / |V|^2 of the probe is positive, so the least one
    # is too: the reported minimum is taken over the probes, not over 0
    out = tmp_path / "structure"
    code = run_cli(
        "verify", "--model", "cylinder", "--dim", "3", "--k", "2", "--resolution", "16",
        "--truncation-radius", "4", "--suite", "structure", "--output", str(out),
    )
    assert code == EXIT_OK
    (check,) = read_report(out)["checks"]
    assert check["residuals"]["adjointness"] <= 1e-12
    assert check["residuals"]["min_rayleigh"] > 1.0


def test_verify_prints_one_line_per_suite(tmp_path, capsys):
    # each suite that runs prints its time and the peak RSS so far to stderr,
    # in suite order; under "all" a cylinder skips the Bochner suite, so it
    # prints no line for it (named on a cylinder, it is a config error)
    line = re.compile(r"^verify suite (\w+): \d+\.\d\d s, ru_maxrss \d+ MB$", flags=re.M)
    # `validate` reads the suite names without loading the suites
    assert cli.VERIFY_SUITE_NAMES == tuple(workflows.VERIFY_SUITES)
    for argv, suites in (
        (["--model", "gaussian", "--dim", "2", "--suite", "all"], list(workflows.VERIFY_SUITES)),
        (["--model", "cylinder", "--dim", "3", "--k", "2", "--suite", "all"],
         [name for name in workflows.VERIFY_SUITES if name != "bochner"]),
    ):
        run_cli("verify", *argv, "--resolution", "24", "--truncation-radius", "6",
                "--output", str(tmp_path / argv[1]))
        err = capsys.readouterr().err
        assert line.findall(err) == suites
        assert err.count("verify suite") == len(suites)
        assert len(read_report(tmp_path / argv[1])["checks"]) == len(suites)


def test_verify_suites_memory_bounded(tmp_path, monkeypatch):
    # every suite holds at most a few sym2 fields at a time (no n * comps * N
    # covariant derivative), and nothing of it stays live once it returns, the
    # structure probe's draws included. Measured on a second run, once the
    # first has built the operator suite's caches
    cfg = RunConfig(output_dir=tmp_path, model_kind="cylinder", n=3, k=2, resolution=24,
                    truncation_radius=6.0)
    grid, _ = build_grid(make_model("cylinder", 3, 2), 24, 6.0)
    workflows.run_verify(cfg, grid)
    measured = {}
    for name, suite in workflows.VERIFY_SUITES.items():
        def traced(*args, name=name, suite=suite):
            entry = tracemalloc.get_traced_memory()[0]  # what the run holds so far
            check, peak, kept = traced_peak(suite, *args)
            measured[name] = entry, peak, kept
            return check
        monkeypatch.setitem(workflows.VERIFY_SUITES, name, traced)
    traced_peak(workflows.run_verify, cfg, grid)
    # every suite that applies to the cylinder: all but the Bochner suite
    assert list(measured) == [name for name in workflows.VERIFY_SUITES if name != "bochner"]
    sym2_bytes = 8 * grid.n_nodes * components_for("sym2tensor", grid.n)
    for name, (entry, peak, kept) in measured.items():
        # 4.2 sym2 fields at most (identities), 6.2 before L was applied by axis blocks
        assert peak <= 4.5 * sym2_bytes, (name, peak / sym2_bytes)
        # under half a vector field: scipy keeps a few kB, a probe draw is 0.5 or 1
        assert entry <= 0.25 * sym2_bytes, (name, entry / sym2_bytes)
        assert kept <= 0.25 * sym2_bytes, (name, kept / sym2_bytes)


def test_verify_holds_one_sym2_weight_array(tmp_path):
    # the Gram diagonals are the grid's, one per rank: contract forms its sym2
    # weights on use, and the operator suite's factors read G off the grid
    cfg = RunConfig(output_dir=tmp_path, model_kind="cylinder", n=3, k=2, resolution=24,
                    truncation_radius=6.0)
    grid, _ = build_grid(make_model("cylinder", 3, 2), 24, 6.0)
    workflows.run_verify(cfg, grid)
    sym2_size = grid.n_nodes * components_for("sym2tensor", grid.n)
    cached = [key for key, val in grid._cache.items()
              if isinstance(val, np.ndarray) and val.size >= sym2_size]
    assert cached == [("gram", "sym2tensor")]
    assert not [a.shape for a in held_arrays(vars(grid.ops())) if a.size >= sym2_size]


def test_operator_storage_line_says_none(tmp_path, capsys):
    # the soliton suite builds no operator, so the suite holds no matrix
    code = run_cli("verify", "--model", "cylinder", "--dim", "3", "--k", "2",
                   "--resolution", "16", "--truncation-radius", "4", "--suite", "soliton",
                   "--output", str(tmp_path / "o"))
    assert code == EXIT_OK
    assert re.search(r"^operator storage: none; 0 nnz; ", capsys.readouterr().err, flags=re.M)


def test_verify_fails_checks_measured_over_no_node(tmp_path):
    # the truncation collar of interior_mask(3) covers this whole grid: a
    # residual measured over no node must fail its check, not pass at 0
    grid, _ = build_grid(make_model("cylinder", 3, 2), 16, 4.0)
    assert grid.n_nodes == 4704 and not grid.interior_mask(3).any()
    out = tmp_path / "coarse"
    code = run_cli(
        "verify", "--model", "cylinder", "--dim", "3", "--k", "2",
        "--resolution", "16", "--truncation-radius", "4", "--output", str(out),
    )
    assert code == EXIT_CHECK_FAILED
    checks = {c["check_name"]: c for c in read_report(out)["checks"]}
    assert not checks["divergence_harmonicity"]["passed"]
    # NaN evidence shows no field to be Killing, so none is line-splitting
    verdicts = checks["killing_dichotomy"]["verdicts"]
    assert set(verdicts.values()) == {"NotKilling"}
    assert not checks["killing_dichotomy"]["passed"]


def test_structure_check_sees_a_break_next_to_the_boundary(monkeypatch):
    # a break of 1e-3 in the outermost row of div_f on sym2 tensors, where the
    # quadrature weight is about e^-25: raw standard-normal probes weigh that
    # row by it (a gap of 1.8e-14, under the 1e-12 gate), probes standard
    # normal in sqrt(G) x weigh it as any other (a gap of 1.9e-4)
    grid, _ = build_grid(make_model("gaussian", 2), 80, 10.0)
    ops = grid.ops()
    matvec = ops.matvec
    row = int(np.argmax(grid.b))

    def broken(kind, x):
        out = matvec(kind, x)
        if kind == OperatorKind.DIV_F_TENSOR:
            out[row] += 1e-3 * x[row]
        return out

    monkeypatch.setattr(ops, "matvec", broken)
    check = workflows._verify_structure(grid, np.random.default_rng(0))
    assert check["residuals"]["adjointness"] > 1e-6
    assert not check["passed"]


def test_renamed_flat_model_runs_as_the_gaussian(tmp_path):
    # only `models` knows a kind: a flat model under another label builds
    # the Gaussian's grid, and every verify check and the near-kernel block
    # come out as the Gaussian's
    class Renamed(ModelShrinker):
        pass

    cfg = RunConfig(output_dir=tmp_path, resolution=48, truncation_radius=6.0)
    runs = []
    for model in (make_model("gaussian", 2), Renamed(kind="flatcopy", n=2)):
        grid, _ = build_grid(model, 48, 6.0)
        runs.append((workflows.run_verify(cfg, grid), spectral.near_kernel_block(grid).summary()))
    assert runs[0][0][0]["passed"] and len(runs[0][0]) == len(workflows.VERIFY_SUITES)
    assert runs[1] == runs[0]


def test_harmonicity_suite_gates_on_the_report_verdict(monkeypatch):
    # the suite passes exactly the fields that harmonicity_check passes
    grid, _ = build_grid(make_model("gaussian", 2), 32, 4.0)
    monkeypatch.setattr(workflows, "harmonicity_check",
                        lambda Y: HarmonicityReport(residual=0.0, passed=False))
    assert not workflows._verify_harmonicity(grid, None)["passed"]


def test_verify_checks_every_flat_rotation_3d(tmp_path):
    # the 3D Gaussian has three flat rotations, and each Killing check names
    # all three; the report holds the model and grid once, not per check
    out = tmp_path / "g3"
    code = run_cli("verify", "--dim", "3", "--resolution", "24", "--truncation-radius", "6",
                   "--suite", "kernel,harmonicity,interp", "--output", str(out))
    assert code == EXIT_OK
    checks = read_report(out)["checks"]
    assert [c["check_name"] for c in checks] == [
        "kernel_of_P", "divergence_harmonicity", "interpolation_inequality"]
    rotations = {"rotation_01", "rotation_02", "rotation_12"}
    for check in checks:
        assert rotations <= set(check["residuals"] or check["values"])
        assert not {"model", "resolution", "stencil_order"} & set(check)


def test_bochner_suite_fails_when_a_field_warns(monkeypatch):
    # a field that is no drift eigenfunction says nothing of the identity, so
    # the check fails however small the identity's residual; it reports both
    # eigen-residuals
    grid, _ = build_grid(make_model("gaussian", 1), 128, 8.0)
    check = workflows._verify_bochner(grid, None)
    assert check["passed"]
    assert max(check["eigen_residuals"].values()) <= 0.1
    real = workflows.drift_bochner_residual

    def quadratic_warns(v, mu):
        rep = real(v, mu)
        return dataclasses.replace(rep, eigen_residual=0.5, warned=True) if mu == 1.0 else rep

    monkeypatch.setattr(workflows, "drift_bochner_residual", quadratic_warns)
    check = workflows._verify_bochner(grid, None)
    assert not check["passed"]
    assert check["eigen_residuals"]["quadratic"] == 0.5


def test_spectrum_gaussian_1d(tmp_path):
    out = tmp_path / "spec"
    code = run_cli(
        "spectrum", "--model", "gaussian", "--dim", "1",
        "--resolution", "256", "--truncation-radius", "8",
        "--eigs", "3", "--dump-fields", "--output", str(out),
    )
    assert code == EXIT_OK
    doc = read_report(out)
    mus = [c["mu"] for c in doc["checks"] if c["check_name"].startswith("eigenpair")]
    assert mus == pytest.approx([0.0, 0.5, 1.0], abs=5e-3)
    assert (out / "eigenfield_0.csv").exists()
    ortho = next(c for c in doc["checks"] if c["check_name"] == "orthonormality")
    assert ortho["residuals"]["gram_error"] <= 1e-8


def test_spectrum_reports_complement_solve(tmp_path, capsys):
    # 6,456 unknowns: above DENSE_CAP, so the Killing block is solved first and
    # one complement run, width max(4 - 3, 1) + BUFFER, adds the fourth pair
    code = run_cli(
        "spectrum", "--dim", "2", "--resolution", "64", "--truncation-radius", "8",
        "--eigs", "4", "--output", str(tmp_path / "spec"),
    )
    assert code == EXIT_OK
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("complement:")]
    assert len(lines) == 1
    assert re.fullmatch(
        r"complement: lobpcg, 6456 unknowns; block of 3 in \d+ iterations; complement "
        r"width 6 \(1 wanted\) in \d+ iterations, \d+ restarts; lowest Ritz value "
        r"0\.24755\d, wanted residual <= \d\.\d\de-\d\d", lines[0]
    ), lines[0]


def test_spectrum_above_dense_cap_takes_complement_path(tmp_path, capsys):
    # 1,432 unknowns: above DENSE_CAP, where the complement path is already
    # faster than the dense oracle
    code = run_cli(
        "spectrum", "--dim", "2", "--resolution", "30", "--truncation-radius", "6",
        "--output", str(tmp_path / "spec"),
    )
    assert code == EXIT_OK
    assert "complement: lobpcg, 1432 unknowns;" in capsys.readouterr().err


def test_spectrum_above_60k_unknowns(tmp_path, capsys):
    # 62,856 unknowns: the complement path solves this grid at every seed, and
    # holds P's factor K and the V-cycle where banded shift-invert held a
    # 589 MB band
    code = run_cli(
        "spectrum", "--dim", "2", "--resolution", "200", "--truncation-radius", "6",
        "--eigs", "6", "--seed", "1", "--output", str(tmp_path / "spec"),
    )
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "complement: lobpcg, 62856 unknowns" in err
    assert re.search(r"^solver storage: K [\d,]+, V-cycle [\d,]+; [\d,]+ nnz$", err, flags=re.M)
    assert read_report(tmp_path / "spec")["passed"]


RERUN_CASES = (
    ("verify", "--model", "gaussian", "--dim", "2",
     "--resolution", "24", "--truncation-radius", "6",
     "--suite", "soliton,structure,identities,cao_zhou", "--seed", "11"),
    # 6.4k unknowns: the Killing block and its complement run
    ("spectrum", "--dim", "2", "--resolution", "64", "--truncation-radius", "8", "--eigs", "4"),
    # the tiny propagate of the tracer test: one near-kernel block and guard
    ("propagate", "--model", "gaussian", "--dim", "1", "--resolution", "136",
     "--truncation-radius", "4", "--r", "4", "--epsilon", "1e-3,1e-2"),
    # the curved path, all suites: Christoffel terms, 2R(h) and the polar caps
    # (res 16-40 fail killing_dichotomy)
    ("verify", "--model", "cylinder", "--dim", "3", "--k", "2",
     "--resolution", "48", "--truncation-radius", "6"),
)


def test_reruns_identical_except_timestamp(tmp_path):
    for i, argv in enumerate(RERUN_CASES):
        out = tmp_path / f"run{i}"
        outs = []
        for _ in range(2):
            assert run_cli(*argv, "--output", str(out)) == EXIT_OK
            outs.append((out / "report.json").read_text())
        docs = [json.loads(t) for t in outs]
        stamps = [d.pop("timestamp") for d in docs]
        assert stamps[0] != stamps[1] or stamps[0]
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def test_propagate_r_exceeding_truncation_is_config_error(tmp_path, capsys):
    code = run_cli(
        "propagate", "--model", "gaussian", "--dim", "2",
        "--resolution", "64", "--truncation-radius", "8",
        "--r", "9", "--output", str(tmp_path / "p"),
    )
    assert code == EXIT_CONFIG
    assert "r exceeds truncation_radius" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nresolution = 32\nwibble = 3\n")
    code = run_cli("verify", "--config", str(cfg), "--output", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert "wibble" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\ncommand = verify\nseed = 3\n"
        "[model]\nkind = gaussian\nn = 2\n"
        "[grid]\nresolution = 24\ntruncation_radius = 6\n"
        "[verify]\nsuite = soliton,structure\n"
    )
    out = tmp_path / "o"
    code = run_cli("verify", "--config", str(cfg), "--resolution", "32", "--output", str(out))
    assert code == EXIT_OK
    doc = read_report(out)
    assert doc["config"]["resolution"] == 32
    assert {c["check_name"] for c in doc["checks"]} == {
        "soliton_identities",
        "adjoint_structure",
    }


# every INI key, with a value that differs from its default where it may: the
# [run] command must agree with the positional one
INI_VALUES = {
    "run": {"command": "verify", "seed": "3", "output": "set per test"},
    "model": {"kind": "cylinder", "n": "3", "k": "2"},
    "grid": {"resolution": "20", "truncation_radius": "5", "stencil_order": "4"},
    "verify": {"suite": "soliton, structure"},
    "spectrum": {"eigs": "3", "dump_fields": "yes"},
    "propagate": {"r": "4.5", "epsilon": "0.01, 0.02"},
}


def write_ini(path: Path, values: dict) -> Path:
    path.write_text(
        "".join(
            f"[{section}]\n" + "".join(f"{key} = {val}\n" for key, val in keys.items())
            for section, keys in values.items()
        )
    )
    return path


def test_config_round_trip_ini_and_flags(tmp_path):
    # every INI key lands in the report
    out = tmp_path / "ini_run"
    values = {**INI_VALUES, "run": {**INI_VALUES["run"], "output": str(out)}}
    ini = write_ini(tmp_path / "all.cfg", values)
    assert run_cli("verify", "--config", str(ini)) == EXIT_OK
    assert read_report(out)["config"] == {
        "command": "verify",
        "model": {"kind": "cylinder", "n": 3, "k": 2},
        "resolution": 20,
        "truncation_radius": 5.0,
        "stencil_order": 4,
        "seed": 3,
        "output": str(out),
        "suite": ["soliton", "structure"],
        "eigs": 3,
        "dump_fields": True,
        "r": [4.5],
        "epsilon": [0.01, 0.02],
    }
    # each command's flags override the INI and land in its config: the flags
    # of [run], [model] and [grid] and of its own section, and no others; the
    # INI may carry every section, as one file serves every command
    values = {**values, "run": {"seed": "3"},
              "model": {"kind": "gaussian", "n": "1"},
              "spectrum": {**INI_VALUES["spectrum"], "dump_fields": "no"}}
    ini = write_ini(tmp_path / "flags.cfg", values)
    out = tmp_path / "flag_run"
    shared = {
        "--model": "cylinder", "--dim": "3", "--k": "2",
        "--resolution": "16", "--truncation-radius": "4.5", "--stencil-order": "2",
        "--seed": "9", "--output": str(out),
    }
    own = {"verify": {"--suite": "soliton"}, "spectrum": {"--eigs": "5", "--dump-fields": None},
           "propagate": {"--r": "4,4.25", "--epsilon": "0.005"}}
    overridden = {"verify": {"suite": ["soliton"]}, "spectrum": {"eigs": 5, "dump_fields": True},
                  "propagate": {"r": [4.0, 4.25], "epsilon": [0.005]}}
    ini_config = {
        "model": {"kind": "cylinder", "n": 3, "k": 2},
        "resolution": 16,
        "truncation_radius": 4.5,
        "stencil_order": 2,
        "seed": 9,
        "output": str(out),
        "suite": ["soliton", "structure"],
        "eigs": 3,
        "dump_fields": False,
        "r": [4.5],
        "epsilon": [0.01, 0.02],
    }
    ap = cli.build_arg_parser()
    subparsers = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == {"compare", *cli.RUN_COMMANDS}
    for command in cli.RUN_COMMANDS:
        argv = [command, "--config", str(ini)]
        for flag, val in {**shared, **own[command]}.items():
            argv += [flag] if val is None else [flag, val]
        config = {**ini_config, "command": command, **overridden[command]}
        assert cli.config_from_args(ap.parse_args(argv)).to_dict() == config
        parser_flags = {opt for action in subparsers.choices[command]._actions
                        for opt in action.option_strings}
        assert parser_flags == {"-h", "--help", "--config", *shared, *own[command]}
        if command == "verify":  # the cheap run: its report holds that config
            assert run_cli(*argv) == EXIT_OK
            assert read_report(out)["config"] == config


@pytest.mark.parametrize("argv", [
    ("compare", "a.json", "b.json", "--resolution", "32"),
    ("compare", "a.json", "b.json", "--config", "x"),
    ("verify", "--eigs", "3"),
    ("verify", "--r", "5", "--dump-fields"),
    ("spectrum", "--suite", "soliton"),
    ("spectrum", "--epsilon", "0.5"),
    ("propagate", "--eigs", "3"),
])
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, capsys, argv):
    # a flag is never dropped: a run command takes the flags of [run],
    # [model], [grid] and its own section, and compare takes report paths only
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *(() if argv[0] == "compare" else ("--output", str(tmp_path / "o"))))
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_ini_command_that_disagrees_is_config_error(tmp_path, capsys):
    # a [run] command other than the positional one would be dropped without
    # notice, so the two must agree
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ncommand = propagate\n")
    out = tmp_path / "o"
    assert run_cli("verify", "--config", str(cfg), "--output", str(out)) == EXIT_CONFIG
    assert (f"config error: config file {cfg} sets command 'propagate', "
            "but the command line runs 'verify'") in capsys.readouterr().err
    assert not out.exists()


def test_profile_points_key_rejected(tmp_path, capsys):
    # the distance profile has a fixed ladder of propagation.RUNGS radii
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[propagate]\nprofile_points = 7\n")
    assert run_cli("propagate", "--config", str(cfg), "--output", str(tmp_path / "o")) == EXIT_CONFIG
    assert "unknown key 'profile_points' in section [propagate]" in capsys.readouterr().err


def test_tolerance_flag_and_key_rejected(tmp_path, capsys):
    # the eigensolver tolerance is spectral.EIGEN_TOL: no run loosens its gate
    with pytest.raises(SystemExit) as exc:
        run_cli("spectrum", "--tolerance", "1e-5", "--output", str(tmp_path / "o"))
    assert exc.value.code == EXIT_CONFIG
    assert "--tolerance" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[spectrum]\ntolerance = 1e-5\n")
    assert run_cli("spectrum", "--config", str(cfg), "--output", str(tmp_path / "o")) == EXIT_CONFIG
    assert "unknown key 'tolerance' in section [spectrum]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_readme_ini_block_is_a_valid_config(tmp_path):
    # the documented config loads and validates, so it names no retired key
    block = re.search(r"```ini\n(.*?)```", (REPO / "README.md").read_text(), flags=re.S)
    path = tmp_path / "readme.cfg"
    path.write_text(block.group(1))
    cfg = load_config_file(path)
    cfg.validate()
    assert (cfg.command, cfg.r_values, cfg.epsilons, cfg.resolution) == (
        "propagate", (5.0,), (1e-3, 1e-2), 512)


def test_jobs_flag_and_key_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--jobs", "2", "--output", str(tmp_path / "o"))
    assert exc.value.code == 2
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("[run]\njobs = 2\n")
    assert run_cli("verify", "--config", str(cfg), "--output", str(tmp_path / "o")) == EXIT_CONFIG
    assert "'jobs'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["resolution = 64\n",
                                  "[grid]\nresolution = 64\nresolution = 96\n"])
def test_unparsable_config_file_is_config_error(tmp_path, capsys, text):
    # an INI with no section header, or one that repeats a key, names its file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run_cli("verify", "--config", str(cfg), "--output", str(tmp_path / "o")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: cannot parse config file" in err and str(cfg) in err
    assert not (tmp_path / "o").exists()


def test_bad_config_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\nresolution = many\n")
    assert run_cli("verify", "--config", str(cfg), "--output", str(tmp_path / "o")) == EXIT_CONFIG
    assert "resolution" in capsys.readouterr().err


def test_spectrum_eigs_at_unknown_count_is_config_error(tmp_path, capsys):
    # the 1D grid at resolution 16, R 4 has 16 unknowns
    code = run_cli("spectrum", "--dim", "1", "--resolution", "16", "--truncation-radius", "4",
                   "--eigs", "16", "--output", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "16 unknowns" in err
    assert not (tmp_path / "o").exists()


# `main` in a fresh interpreter prints its exit code and whether scipy loaded
FRESH_MAIN = ("import sys; from shrinkerlab.cli import main; code = main(sys.argv[1:]); "
              "print(code, 'scipy' in sys.modules)")

GRID_BOUNDS = [
    (("--resolution", "8"), None, "resolution below minimum"),
    (("--truncation-radius", "3"), None, "truncation_radius must be"),
    ((), "[grid]\nstencil_order = 3\n", "stencil_order must be 2 or 4"),
    ((), "[grid]\ntruncation_radius = inf\n", "truncation_radius must be finite"),
    (("--truncation-radius", "1e200"), None, "truncation_radius 1e+200 is too large"),
    (("--dim", "4", "--resolution", "65536"), None,
     "grid would allocate 18446744073709551616 nodes, above the cap"),
    (("--dim", "1", "--resolution", "10000000000"), None,
     "grid would allocate 10000000000 nodes, above the cap"),
]


@pytest.mark.parametrize("argv, ini, message", GRID_BOUNDS)
def test_grid_bounds_are_config_errors(tmp_path, capsys, argv, ini, message):
    # build_grid checks the grid's bounds before `run` makes the output
    # directory, and counts a box's nodes before it makes any coordinate array:
    # 65536^4 is 2^64, which a product of int64 counts as 0
    if ini is not None:
        (tmp_path / "run.cfg").write_text(ini)
        argv = ("--config", str(tmp_path / "run.cfg"))
    code = run_cli("verify", *argv, "--output", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, ini, message", [
    *GRID_BOUNDS,
    (("--model", "cylinder", "--dim", "5", "--k", "3"), None,
     "cylinder sphere factor must be S^2 (k = 2), got k = 3"),
    *[(("--model", "cylinder", "--dim", "3", "--k", "2", "--resolution", "16", "--suite", suite),
       None, "verify suite bochner does not apply to the cylinder")
      for suite in ("bochner", "all,bochner")],
])
def test_grid_bounds_exit_before_scipy_loads(tmp_path, argv, ini, message):
    # `run` builds the grid with numpy alone, and `validate` picks the verify
    # suites from the model, so a fresh interpreter refuses every grid bound,
    # and the Bochner suite named on a sphere factor, with no numerical
    # layer, and no scipy, loaded
    if ini is not None:
        (tmp_path / "run.cfg").write_text(ini)
        argv = ("--config", str(tmp_path / "run.cfg"))
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, "verify", *argv,
                           "--output", str(tmp_path / "o")],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == f"{EXIT_CONFIG} False", proc.stderr
    assert "config error: " in proc.stderr and message in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [("verify",), ("spectrum", "--dump-fields")])
@pytest.mark.parametrize("below", [(), ("sub",)])
def test_output_on_a_file_exits_before_scipy_loads(tmp_path, argv, below):
    # the writers make the output directory after the run, where a file at
    # --output, or above it, ended the run in a traceback: it is refused
    # first, and the file is left as it was
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken.joinpath(*below)
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv, "--dim", "1",
                           "--resolution", "32", "--truncation-radius", "6", "--output", str(out)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == f"{EXIT_CONFIG} False", proc.stderr
    assert f"config error: output {out}: {taken} is not a directory" in proc.stderr
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("argv", [("verify", "--suite", "soliton"), ("spectrum",)])
def test_report_path_that_is_a_directory_exits_before_scipy_loads(tmp_path, argv):
    # the report's own path, taken by a directory, ended the whole run in a
    # traceback when the report was written; it is refused first
    out = tmp_path / "o"
    (out / "report.json").mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv, "--dim", "1",
                           "--resolution", "32", "--truncation-radius", "6", "--output", str(out)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == f"{EXIT_CONFIG} False", proc.stderr
    assert f"config error: output {out}: {out / 'report.json'} is a directory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert [p.name for p in out.iterdir()] == ["report.json"]


@pytest.mark.parametrize("argv, message", [
    (("verify", "--suite", ""), "suite names no verify suite"),
    (("propagate", "--r", ""), "at least one value"),
    (("propagate", "--epsilon", ""), "at least one value"),
    (("spectrum", "--eigs", "0"), "eigs must be >= 1"),
    (("propagate", "--epsilon", "-0.001"), "epsilon must be nonnegative"),
    (("propagate", "--r", "nan"), "must be finite"),
    (("propagate", "--epsilon", "inf"), "must be finite"),
    (("verify", "--seed", "-1"), "seed must be >= 0"),
    (("verify", "--truncation-radius", "nan"), "truncation_radius must be finite"),
    (("verify", "--truncation-radius", "inf"), "truncation_radius must be finite"),
])
def test_invalid_run_options_are_config_errors(tmp_path, capsys, argv, message):
    # an empty list would run no check and pass, a NaN r or epsilon would fail
    # every comparison, and eigs and epsilon have lower bounds; each is refused
    # before the output directory exists
    code = run_cli(*argv, "--output", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, values", [("--epsilon", "1e-7,1.0000001e-7"),
                                          ("--epsilon", "1e-3,0.001"),
                                          ("--r", "4,4.0000001")])
def test_propagate_rejects_colliding_point_tags(tmp_path, capsys, flag, values):
    # each point's tag names its check, and compare pairs checks by name: two
    # points with one tag could not be told apart
    code = run_cli("propagate", "--dim", "1", "--resolution", "136", "--truncation-radius", "5",
                   flag, values, "--output", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "tag" in err
    assert not (tmp_path / "o").exists()


def _benchmark_module(monkeypatch):
    path = REPO / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_setup_probe_accepts_workloads(tmp_path, monkeypatch):
    # the benchmark times this exact expression on each workload's arguments
    bench = _benchmark_module(monkeypatch)
    for name, workload in bench.WORKLOADS.items():
        argv = [*workload.args, "--seed", "0", "--output", str(tmp_path / name)]
        monkeypatch.setattr(sys, "argv", ["-c", *argv])
        exec(bench.SETUP_CODE, {})


def test_load_config_validates_sections(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[banana]\nx = 1\n")
    with pytest.raises(ConfigError, match="banana"):
        load_config_file(cfg)


def test_propagate_sweep(tmp_path, monkeypatch):
    out = tmp_path / "prop"
    code = run_cli(
        "propagate", "--model", "gaussian", "--dim", "2",
        "--resolution", "256", "--truncation-radius", "8",
        "--r", "4", "--epsilon", "1e-3,1e-2,1e-1",
        "--seed", "5", "--output", str(out),
    )
    assert code == EXIT_OK
    doc = read_report(out)
    points = {c["epsilon"]: c for c in doc["checks"] if c["check_name"].startswith("propagation")}
    assert sorted(points) == [1e-3, 1e-2, 1e-1]
    for p in points.values():
        assert p["passed"] and p["variational_ok"]
        assert p["mu"] <= p["div_star_v_norm_sq"] + 1e-10
        # the block's eigenvalues are reported once, under block_solver
        assert "block_mus" not in p and p["block_solver"]["block_mus"]
        assert p["distance_profile"]["radii"] == [4.0, 5.0, 6.0, 7.0, 8.0]
    # slope 1: the input's distance to the rotation grows tenfold per decade
    # of eps, and so does every rung of e above the floor
    gaps = [points[eps]["input_gap"] for eps in (1e-3, 1e-2, 1e-1)]
    assert gaps[1] / gaps[0] == pytest.approx(10.0, rel=0.01)
    assert gaps[2] / gaps[1] == pytest.approx(10.0, rel=0.01)
    e_2, e_1 = (np.array(points[eps]["distance_profile"]["e"]) for eps in (1e-2, 1e-1))
    assert np.all((8.0 <= e_1 / e_2) & (e_1 / e_2 <= 12.0))
    # the benchmark reads this report: its gates pass, its figures are finite
    bench = _benchmark_module(monkeypatch)
    assert bench.gate(doc, bench.WORKLOADS["propagate-sweep"]) == []
    figures = bench.accuracy(doc)
    assert set(figures) == {"cosine_gap", "mu_max", "eigen_residual_max"}
    assert all(np.isfinite(v) for v in figures.values())
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


@pytest.mark.parametrize("mutation", ["translation", "cutoff_input"])
def test_propagation_gate_fails_a_wrong_extension(tmp_path, monkeypatch, mutation):
    # Z replaced by a field that is not the rotation's extension: the
    # translation, or the cut-off input V, which vanishes outside {b < r}.
    # Both keep the variational bound, so only the distance gate fails
    extend = propagation.extend_symmetry

    def mutated(Y, r, **kwargs):
        result = extend(Y, r, **kwargs)
        if np.array_equal(Y.values, euclidean_rotation(Y.grid).values):
            return result  # the floor's eps-0 extension
        wrong = (translation(Y.grid, 0) if mutation == "translation"
                 else Y.scale_by(result.cutoff.eta.values))
        return dataclasses.replace(result, z=spectral.SpectralPair.of(wrong))

    monkeypatch.setattr(propagation, "extend_symmetry", mutated)
    out = tmp_path / "prop"
    code = run_cli("propagate", "--dim", "2", "--resolution", "200", "--truncation-radius", "6",
                   "--r", "4", "--epsilon", "1e-3,1e-2", "--output", str(out))
    assert code == EXIT_CHECK_FAILED
    for p in read_report(out)["checks"]:
        assert p["variational_ok"] and not p["passed"]
        profile = p["distance_profile"]
        ratio = max(e / (p["input_gap"] + f) for e, f in zip(profile["e"], profile["floor"]))
        assert ratio > 5.0 * propagation.GATE_C


def test_propagate_underresolved_cutoff_is_config_error(tmp_path, capsys):
    code = run_cli("propagate", "--dim", "2", "--resolution", "64", "--truncation-radius", "8",
                   "--r", "4", "--output", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: transition band under-resolved: 1.00 cells, need >= 4" in err
    assert not (tmp_path / "o").exists()


def test_propagate_point_failing_its_hypothesis_keeps_the_sweep(tmp_path, capsys):
    # eps 0.5 puts the input's defect above 1/4: that point fails, the other
    # passes, and the report holds both
    out = tmp_path / "prop"
    code = run_cli("propagate", "--dim", "1", "--resolution", "136", "--truncation-radius", "4",
                   "--r", "4", "--epsilon", "1e-3,0.5", "--output", str(out))
    assert code == EXIT_CHECK_FAILED
    passed, failed = read_report(out)["checks"]
    assert passed["passed"] and "failure" not in passed
    assert not failed["passed"] and failed["epsilon"] == 0.5
    assert re.fullmatch(r"defect mu_bar = 0\.\d+ exceeds 1/4", failed["failure"])
    assert "failed checks: propagation_r4_eps0.5" in capsys.readouterr().err


def test_propagate_sweep_solves_block_once(tmp_path, monkeypatch, capsys):
    counted = {"lowest_eigenpairs": (spectral,), "assemble": (Operators,),
               "measure_defect": (propagation, cli), "div_star": (Operators,)}
    calls = dict.fromkeys(counted, 0)
    for name, owners in counted.items():
        def counting(*args, _name=name, _fn=getattr(owners[0], name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for owner in owners:
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, counting)
    cfg = RunConfig(command="propagate", n=1, resolution=512, truncation_radius=8.0,
                    r_values=(4.0,), epsilons=(1e-3, 1e-2))
    grid, _ = build_grid(make_model("gaussian", 1), 512, 8.0)
    checks = workflows.run_propagate(cfg, grid)
    assert len(checks) == 2
    # one solve, and one assembly of div_f^*, for P's factor, which the guard
    # reuses instead of building it again; the floor's extension and each
    # point measure the defect of their input once and apply div_f^* to it,
    # to V and to Z
    assert calls == {"lowest_eigenpairs": 1, "assemble": 1, "measure_defect": 3,
                     "div_star": 9}
    assert capsys.readouterr().err.count("near-kernel block:") == 1
    solvers = [c["block_solver"] for c in checks]
    assert solvers[0] == solvers[1]
    assert set(solvers[0]) == {"method", "unknowns", "block_mus", "worst_residual",
                               "guard_mus", "guard_residuals"}
    assert solvers[0]["method"] == "lobpcg" and solvers[0]["unknowns"] == 512
    assert len(solvers[0]["guard_mus"]) == 5  # GUARD_SPAN 6, one Killing field


# one small run of each command, and a spectrum above DENSE_CAP (6,456 unknowns)
SMALL_RUNS = {
    "verify": dict(command="verify", model_kind="cylinder", n=3, k=2, resolution=16,
                   truncation_radius=4.0),
    "spectrum": dict(command="spectrum", resolution=24, truncation_radius=6.0),
    "spectrum_complement": dict(command="spectrum", resolution=64, truncation_radius=8.0),
    "propagate": dict(command="propagate", n=1, resolution=136, truncation_radius=4.0,
                      r_values=(4.0,), epsilons=(1e-3, 1e-2)),
}


def test_composite_operators_assembled_only_for_solvers(tmp_path, monkeypatch):
    # verify applies P, L and the drift Laplacians through their first-order
    # factors; spectrum and propagate assemble div_f^* once, for P's factor K,
    # and P never. Only the dense spectrum builds the symmetric form K^T K:
    # above DENSE_CAP, as in propagate, the LOBPCG runs apply K^T (K x)
    calls, forms = [], []
    assemble, symmetric_form = Operators.assemble, spectral._symmetric_form

    def recording(self, kind):
        calls.append(kind.value)
        return assemble(self, kind)

    def recording_form(grid):
        forms.append(grid.n_nodes * grid.n)
        return symmetric_form(grid)

    monkeypatch.setattr(Operators, "assemble", recording)
    monkeypatch.setattr(spectral, "_symmetric_form", recording_form)
    assembled, formed = {}, {}
    for command, options in SMALL_RUNS.items():
        calls.clear()
        forms.clear()
        cli.run(RunConfig(output_dir=tmp_path / command, **options))
        assembled[command], formed[command] = list(calls), list(forms)
    assert assembled == {"verify": [], "spectrum": ["DivFStar"],
                         "spectrum_complement": ["DivFStar"], "propagate": ["DivFStar"]}
    assert formed == {"verify": [], "spectrum": [896], "spectrum_complement": [],
                      "propagate": []}
    points = [c for c in read_report(tmp_path / "propagate")["checks"]
              if c["check_name"].startswith("propagation")]
    assert len(points) == 2


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_run_stores_only_difference_matrices(command, tmp_path, monkeypatch, capsys):
    # every command applies its operators, the curvature action included,
    # from the per-axis difference matrices; it keeps no block operator, and
    # `run` says so on stderr
    grids = []

    def recording_build_grid(*args, **kwargs):
        built = build_grid(*args, **kwargs)
        grids.append(built[0])
        return built

    monkeypatch.setattr(grid_module, "build_grid", recording_build_grid)
    cli.run(RunConfig(output_dir=tmp_path, **SMALL_RUNS[command]))
    assert len(grids) == 1
    held = {
        name for name, val in grids[0].ops().__dict__.items()
        if sp.issparse(val) or (isinstance(val, list) and any(sp.issparse(m) for m in val))
    }
    assert held == {"diffs"}
    err = capsys.readouterr().err
    assert err.count("operator storage: diffs;") == 1
    # a spectrum above DENSE_CAP says how its complement run went, once
    assert err.count("complement: lobpcg, 6456 unknowns;") == (command == "spectrum_complement")


@pytest.mark.parametrize(
    "command, line",
    [("verify", "solver storage: none; 0 nnz"),
     ("spectrum", r"solver storage: K [\d,]+; [\d,]+ nnz"),
     ("spectrum_complement", r"solver storage: K [\d,]+, V-cycle [\d,]+; [\d,]+ nnz"),
     ("propagate", r"solver storage: K [\d,]+, V-cycle [1-9][\d,]*; [\d,]+ nnz")],
)
def test_run_reports_solver_storage(command, line, tmp_path, capsys):
    # every path keeps P's factor K and no assembled A: the dense path forms A
    # from K and drops it; above DENSE_CAP the spectrum, like the near-kernel
    # block, holds K and the V-cycle. The
    # cycle's coarse levels start above CYCLE_BOTTOM unknowns, so propagate's
    # 136 have none, but its bottom band is counted on every grid
    cli.run(RunConfig(output_dir=tmp_path, **SMALL_RUNS[command]))
    found = re.findall(r"^solver storage: .*$", capsys.readouterr().err, flags=re.M)
    assert len(found) == 1 and re.fullmatch(line, found[0])


@pytest.mark.parametrize("error", [spectral.SolverError, propagation.PropagationError])
@pytest.mark.parametrize("command", ["verify", "spectrum", "propagate"])
def test_check_failure_exits_1_without_a_report(tmp_path, capsys, monkeypatch, error, command):
    # a solver or propagation failure in the workflow is no config error:
    # one `check failure:` line, exit 1, and no report
    def fail(*args):
        raise error("stopped short")

    monkeypatch.setattr(workflows, f"run_{command}", fail)
    code = cli.run(RunConfig(output_dir=tmp_path / "o", **SMALL_RUNS[command]))
    assert code == EXIT_CHECK_FAILED
    found = re.findall(r"^check failure: .*$", capsys.readouterr().err, flags=re.M)
    assert found == ["check failure: stopped short"]
    assert not (tmp_path / "o" / "report.json").exists()


def test_spectrum_that_does_not_converge_exits_1(tmp_path, capsys, monkeypatch):
    # 4,944 unknowns take the complement path, whose Killing block stops
    # short of its tolerance in 5 iterations and raises SolverError
    monkeypatch.setattr(spectral, "LOBPCG_MAXITER", 5)
    out = tmp_path / "o"
    code = run_cli("spectrum", "--dim", "2", "--resolution", "56", "--truncation-radius", "6",
                   "--output", str(out))
    assert code == EXIT_CHECK_FAILED
    found = re.findall(r"^check failure: .*$", capsys.readouterr().err, flags=re.M)
    assert len(found) == 1 and "did not converge" in found[0]
    assert not (out / "report.json").exists()


def _trace(tmp_path, *argv) -> dict:
    """The spans and counters of `perfbench/trace.py` running one command,
    writing into `tmp_path`, in a fresh interpreter; the run must exit 0."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "trace.py"), str(spans), *argv,
         "--output", str(tmp_path / "out")],
        env=_src_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def test_benchmark_tracer_runs_propagate(tmp_path):
    # the tracer binds lowest_eigenpairs' arguments by name and wraps
    # OperatorHandle.apply, so an API change that breaks it shows here
    doc = _trace(tmp_path, "propagate", "--model", "gaussian", "--dim", "1",
                 "--resolution", "136", "--truncation-radius", "4", "--r", "4",
                 "--epsilon", "1e-3,1e-2")
    names = [span[0] for span in doc["spans"]]
    assert names.count("spectral.lowest_eigenpairs") == 1
    # the tracer sizes the solve off the operator handle; it would read P's
    # nnz off a cached P, and no run caches P
    assert doc["counters"]["spectral.unknowns"] == 136
    assert "operators.p_nnz" not in doc["counters"]


def test_benchmark_tracer_runs_verify(tmp_path):
    # the tracer wraps every cached property of Operators and
    # OperatorHandle.apply; an all-suite verify builds and applies them (on
    # the (3,2) cylinder at R 6, res 24, 32 and 40 fail the dichotomy check)
    doc = _trace(tmp_path, "verify", "--model", "cylinder", "--dim", "3", "--k", "2",
                 "--resolution", "48", "--truncation-radius", "6")
    names = [span[0] for span in doc["spans"]]
    built = {name for name in names if name.startswith("operators.Operators.")}
    for factor in ("diffs", "_div_f_star_terms", "_div_tensor", "_rough_sym2", "riemann_block"):
        assert f"operators.Operators.{factor}" in built, factor
    # each factor is built once per grid
    assert all(names.count(name) == 1 for name in built)
    assert names.count("operators.OperatorHandle.apply") > 0


@pytest.mark.parametrize("run, formed", [(("24", "6", 4), 1), (("64", "8", 4), 0),
                                         (("40", "6", 6), 0)])
def test_benchmark_tracer_runs_spectrum(tmp_path, run, formed):
    # each pair is decomposed once, its div_f checked by the same call; only
    # the dense path (896 unknowns; 2,528 and 6,456 take the complement) forms
    # K^T K. The tracer binds lowest_eigenpairs' `count` and `tolerance` by
    # name, and counts a pair converged at a residual within the tolerance
    doc = _trace(tmp_path, "spectrum", "--model", "gaussian", "--dim", "2",
                 "--resolution", run[0], "--truncation-radius", run[1], "--eigs", str(run[2]))
    names = [span[0] for span in doc["spans"]]
    assert names.count("spectral.lowest_eigenpairs") == 1
    assert names.count("spectral.decompose_eigenfield") == run[2]
    assert "spectral.eigencheck_divf" not in names
    assert names.count("spectral._symmetric_form") == formed
    assert doc["counters"]["spectral.pairs_requested"] == run[2]
    assert doc["counters"]["spectral.pairs_converged"] == run[2]


def test_cli_import_leaves_scipy_special_unloaded():
    # nothing in the package needs scipy.special, which lengthens every
    # start-up; a fresh interpreter shows whether an import brings it back
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, shrinkerlab.cli; print('scipy.special' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # the front end loads no numpy or scipy at all, and of the package only
    # the modules that parse, validate and compare; the rest load when `run`
    # dispatches
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, shrinkerlab.cli; print(sorted(m for m in sys.modules "
         "if m.startswith(('numpy', 'scipy', 'shrinkerlab'))))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(
        ["shrinkerlab", "shrinkerlab.cli", "shrinkerlab.kinds", "shrinkerlab.reports"])


def test_verify_loads_no_solver_layer(tmp_path):
    # verify solves nothing: an all-suite run on a small cylinder, in a fresh
    # interpreter, loads neither spectral nor propagation, and none of the
    # scipy modules that only they import
    solver_modules = ["scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph",
                      "shrinkerlab.spectral", "shrinkerlab.propagation"]
    code = ("import sys; from shrinkerlab.cli import main; code = main(sys.argv[1:]); "
            f"print(code, [m for m in {solver_modules!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code, "verify", "--model", "cylinder",
                           "--dim", "3", "--k", "2", "--resolution", "48",
                           "--truncation-radius", "6", "--output", str(tmp_path / "o")],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []"


def test_failure_classes_load_no_solver_layer():
    # the package takes the solver failures from `errors`, so a caller that
    # only catches them, in a fresh interpreter, loads no solver layer and
    # none of the scipy modules that only the solver layers import
    solver_modules = ["shrinkerlab.spectral", "shrinkerlab.propagation", "scipy.linalg",
                      "scipy.sparse.linalg"]
    code = ("import sys, shrinkerlab; "
            "[getattr(shrinkerlab, name) for name in ('SolverError', 'PropagationError', "
            "'ModelError', 'GridError', 'FieldError')]; "
            f"print([m for m in {solver_modules!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _src_env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}


def test_compare_leaves_scipy_unloaded(tmp_path):
    paths = []
    for res in (32, 64):
        paths.append(tmp_path / f"r{res}.json")
        check = {"check_name": "kernel_of_P", "residuals": {"translation_0": 32.0 / res}}
        paths[-1].write_text(json.dumps({"command": "verify", "config": {"resolution": res},
                                         "checks": [check]}))
    code = ("import sys; from shrinkerlab.cli import main; code = main(sys.argv[1:]); "
            "print(code, [m for m in sys.modules if m.startswith(('numpy', 'scipy'))])")
    proc = subprocess.run([sys.executable, "-c", code, "compare", *map(str, paths)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    table, last = proc.stdout.splitlines()
    assert table.startswith("kernel_of_P/translation_0: ratio=2 ")
    assert last == "0 []"


# `main` in a fresh interpreter, --help's exit included, prints its exit code
# and whether numpy loaded
FRESH_MAIN_NUMPY = ("import sys; from shrinkerlab.cli import main\n"
                    "try:\n    code = main(sys.argv[1:])\n"
                    "except SystemExit as exc:\n    code = exc.code\n"
                    "print(code, 'numpy' in sys.modules)")


@pytest.mark.parametrize("argv, ini, code, message", [
    (("verify", "--help"), None, EXIT_OK, None),
    (("verify",), "[model]\nkind = sphere\n", EXIT_CONFIG, "unknown model kind 'sphere'"),
    (("verify", "--model", "cylinder", "--dim", "5", "--k", "3"), None, EXIT_CONFIG,
     "cylinder sphere factor must be S^2 (k = 2), got k = 3"),
    (("verify", "--model", "cylinder", "--dim", "3", "--k", "2", "--suite", "bochner"), None,
     EXIT_CONFIG, "verify suite bochner does not apply to the cylinder"),
    (("verify", "--suite", "soliton,banana"), None, EXIT_CONFIG,
     "unknown verify suite(s): banana"),
    (("spectrum", "--eigs", "0"), None, EXIT_CONFIG, "eigs must be >= 1"),
    (("propagate", "--r", "inf"), None, EXIT_CONFIG, "r and epsilon values must be finite"),
    (("propagate", "--epsilon", "1e-3,0.001"), None, EXIT_CONFIG, "share the sweep point tag"),
    (("verify", "--output", "TAKEN"), None, EXIT_CONFIG, "is not a directory"),
], ids=["help", "kind", "k", "bochner", "suite", "eigs", "r", "tags", "output"])
def test_help_and_validate_errors_load_no_numpy(tmp_path, argv, ini, code, message):
    # the parse and every check of `validate` need the standard library
    # alone: --help and each refusal end before numpy loads
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    argv = tuple(str(taken) if a == "TAKEN" else a for a in argv)
    if ini is not None:
        (tmp_path / "run.cfg").write_text(ini)
        argv = (*argv, "--config", str(tmp_path / "run.cfg"))
    if "--output" not in argv:
        argv = (*argv, "--output", str(tmp_path / "o"))
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN_NUMPY, *argv],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == f"{code} False", proc.stderr
    if message is not None:
        assert "config error: " in proc.stderr and message in proc.stderr
    assert not (tmp_path / "o").exists()


# shrinkerlab.__all__: the names the package exported when it imported every
# layer eagerly, less the retired growth diagnostics, plus the modules
# `errors` and `kinds`
EXPORTS = [
    "CYLINDER", "Cutoff", "DefectReport", "DichotomyVerdict", "EigenfieldDecomposition",
    "Field", "FieldError", "GAUSSIAN", "Grid", "GridError", "IdentityReport",
    "ModelError", "ModelShrinker", "NearKernelBlock", "OperatorHandle", "OperatorKind",
    "Operators", "PropagationError", "PropagationResult", "SolverError",
    "SpectralPair", "WeightedMeasure", "angular_rotation", "build_cutoff", "build_grid",
    "cao_zhou_check", "check_soliton_identities", "classify_killing",
    "decompose_eigenfield", "dilation", "drift_bochner_residual", "errors", "euclidean_rotation",
    "extend_symmetry", "fields", "grid", "harmonicity_check",
    "identity_residuals", "interp_inequality_check", "kinds", "lowest_eigenpairs", "make_model",
    "measure_defect", "models", "near_kernel_block", "operators", "propagation",
    "radial_bump", "random_points", "scalar_field", "spectral",
    "translation", "vector_field", "verification",
]


def test_package_exports_resolve_on_access():
    # the package resolves each export on first access, to the defining
    # module's own object, and a star import takes them all
    import shrinkerlab

    assert shrinkerlab.__all__ == EXPORTS
    assert all(hasattr(shrinkerlab, name) for name in EXPORTS)
    assert shrinkerlab.build_grid is grid_module.build_grid
    assert shrinkerlab.spectral is spectral
    namespace = {}
    exec("from shrinkerlab import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    with pytest.raises(AttributeError):
        shrinkerlab.no_such_name


@pytest.mark.parametrize("argv, message", [
    (("spectrum", "--dim", "1", "--resolution", "16", "--truncation-radius", "4", "--eigs", "16"),
     "eigs must be below the 16 unknowns"),
    (("propagate", "--dim", "1", "--resolution", "16", "--truncation-radius", "8", "--r", "4"),
     "transition band under-resolved"),
    # 1,432 unknowns: scipy's lobpcg would reject the complement run's
    # constraint at once; 283 pairs solve
    (("spectrum", "--dim", "2", "--resolution", "30", "--truncation-radius", "6", "--eigs", "284"),
     "eigs must be at most 283 on this grid"),
    # the bochner suite does not apply on a sphere factor
    (("verify", "--model", "cylinder", "--dim", "3", "--k", "2", "--resolution", "16",
      "--truncation-radius", "6", "--suite", "bochner"),
     "verify suite bochner does not apply"),
    # the second pair's CSV path is taken by a directory, which ended the
    # whole solve in a traceback when the CSV was written
    (("spectrum", "--dim", "1", "--resolution", "64", "--truncation-radius", "8", "--eigs", "2",
      "--dump-fields"),
     "eigenfield_1.csv is a directory"),
])
def test_run_config_errors_exit_2_under_dash_m(tmp_path, argv, message):
    # the benchmark's way in: under -m the running module is __main__, so a
    # ConfigError of a second copy of shrinkerlab.cli, which anything the
    # workflows import could load, would escape `main` as a traceback
    out = tmp_path / "o"
    taken = out / "eigenfield_1.csv"
    if "--dump-fields" in argv:
        taken.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "shrinkerlab.cli", *argv, "--output", str(out)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "config error: " in proc.stderr and message in proc.stderr
    assert "Traceback" not in proc.stderr
    if "--dump-fields" in argv:
        assert f"config error: output {out}: {taken} is a directory" in proc.stderr
        # no report and no CSV: the directory is all the output there is
        assert list(out.iterdir()) == [taken]
    else:
        assert not out.exists()


def _propagate_report(resolution, mu, cosine, eigen_residual, gap, e, floor):
    point = {"check_name": "propagation_r4_eps0.01", "mu": mu,
             "cosine_with_reference": cosine, "eigen_residual": eigen_residual,
             "input_gap": gap, "local_distance": 0.8 * gap,
             "distance_profile": {"radii": [4.0, 6.0], "e": e, "floor": floor}, "passed": True}
    return {"command": "propagate", "config": {"resolution": resolution, "stencil_order": 2},
            "checks": [point]}


def test_compare_propagate_quantities(tmp_path, capsys):
    a = _propagate_report(128, 4e-4, 1.0 - 8e-4, 2e-4, 1e-2, [8e-3, 9e-3], [4e-3, 8e-3])
    b = _propagate_report(256, 1e-4, 1.0 - 2e-4, 1e-4, 1e-2, [7e-3, 7.5e-3], [1e-3, 2e-3])
    rows = {row["quantity"]: row for row in compare_runs(b, a)}
    assert set(rows) == {"mu", "1-cosine_with_reference", "eigen_residual", "input_gap",
                         "local_distance", "e(4)", "e(6)", "floor(4)", "floor(6)"}
    for key, ratio, converging in (("eigen_residual", 2.0, False),
                                   ("1-cosine_with_reference", 4.0, True),
                                   ("floor(4)", 4.0, True), ("floor(6)", 4.0, True)):
        assert rows[key]["coarse"] == 128 and rows[key]["fine"] == 256
        assert rows[key]["error_ratio"] == pytest.approx(ratio)
        assert rows[key]["empirical_order"] == pytest.approx(np.log2(ratio))
        assert rows[key]["converging"] is converging
    # mu and the distances above the floor settle at a limit: both values,
    # no ratio, order or verdict
    for key, values in (("mu", (4e-4, 1e-4)), ("input_gap", (1e-2, 1e-2)),
                        ("local_distance", (8e-3, 8e-3)), ("e(4)", (8e-3, 7e-3)),
                        ("e(6)", (9e-3, 7.5e-3))):
        row = rows[key]
        assert (row["coarse_value"], row["fine_value"]) == values
        assert row["error_ratio"] is None and row["empirical_order"] is None
        assert row["converging"] is None
    paths = []
    for name, doc in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    assert run_cli("compare", *map(str, paths)) == EXIT_OK
    out = capsys.readouterr().out
    assert "propagation_r4_eps0.01/mu: coarse=0.0004 fine=0.0001\n" in out
    assert "propagation_r4_eps0.01/1-cosine_with_reference: ratio=4 order=2.00" in out
    assert "propagation_r4_eps0.01/e(6): coarse=0.009 fine=0.0075\n" in out
    assert "propagation_r4_eps0.01/floor(6): ratio=4 order=2.00\n" in out


def test_compare_spectrum_lists_mu_and_tabulates_eigen_residuals(tmp_path, capsys):
    paths = []
    for res in (128, 256):
        out = tmp_path / f"res{res}"
        assert run_cli("spectrum", "--dim", "1", "--resolution", str(res),
                       "--truncation-radius", "8", "--eigs", "4", "--output", str(out)) == EXIT_OK
        paths.append(out / "report.json")
    rows = {(r["check_name"], r["quantity"]): r for r in compare_runs(*map(load_report, paths))}
    # each pair's mu settles at its eigenvalue, and the Gram error sits at
    # round-off: both values, no ratio
    for i in range(4):
        assert rows[(f"eigenpair_{i}", "mu")]["error_ratio"] is None
    assert rows[("orthonormality", "gram_error")]["error_ratio"] is None
    # the eigen-equation residuals of the pairs above the kernel converge at order 2
    for i in (1, 2, 3):
        for key in ("grad_div_eigen", "divf_eigen_residual"):
            assert rows[(f"eigenpair_{i}", key)]["converging"], (i, key)
    assert run_cli("compare", *map(str, paths)) == EXIT_OK
    out = capsys.readouterr().out
    assert re.search(r"^eigenpair_1/mu: coarse=0\.499\d+ fine=0\.499\d+$", out, flags=re.M)
    assert re.search(r"^eigenpair_1/divf_eigen_residual: ratio=\S+ order=2\.00$", out, flags=re.M)


def test_compare_verify_lists_roundoff_and_rayleigh_quotient(tmp_path, capsys):
    # adjointness sits at round-off and min_rayleigh is a Rayleigh quotient:
    # neither converges at the stencil order, so neither gets a verdict
    paths = []
    for res in (32, 48):
        out = tmp_path / f"res{res}"
        assert run_cli("verify", "--dim", "2", "--resolution", str(res), "--truncation-radius",
                       "6", "--suite", "structure,kernel", "--output", str(out)) == EXIT_OK
        paths.append(out / "report.json")
    rows = {(r["check_name"], r["quantity"]): r for r in compare_runs(*map(load_report, paths))}
    for key in ("adjointness", "min_rayleigh"):
        row = rows[("adjoint_structure", key)]
        assert row["error_ratio"] is None and row["converging"] is None
    assert rows[("kernel_of_P", "translation_0")]["error_ratio"] is not None
    assert run_cli("compare", *map(str, paths)) == EXIT_OK
    out = capsys.readouterr().out
    assert "below expected order" not in "".join(
        line for line in out.splitlines(keepends=True) if line.startswith("adjoint_structure/"))
    assert re.search(r"^adjoint_structure/adjointness: coarse=\S+ fine=\S+$", out, flags=re.M)
    assert re.search(r"^adjoint_structure/min_rayleigh: coarse=\S+ fine=\S+$", out, flags=re.M)


def test_report_writes_non_finite_numbers_as_strings(tmp_path):
    # JSON has no NaN or Infinity: a non-finite float is written as a string,
    # whether it is a Python float or a numpy scalar, as propagate's tail and
    # fits are
    values = {"py_nan": float("nan"), "np_nan": np.float64("nan"), "np_inf": np.float32("inf"),
              "np_neg_inf": np.float64("-inf"), "in_array": np.array([1.0, np.inf]),
              "finite": np.float64(0.5)}
    path = tmp_path / "report.json"
    write_report(path, "verify", {}, {}, [{"check_name": "c", "residuals": values}])

    def refuse(constant):
        raise AssertionError(f"report holds the bare constant {constant}")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    assert doc["checks"][0]["residuals"] == {
        "py_nan": "nan", "np_nan": "nan", "np_inf": "inf", "np_neg_inf": "-inf",
        "in_array": [1.0, "inf"], "finite": 0.5}


def test_report_json_of_numpy_values_is_pinned():
    # reports reads numpy values by their .tolist(), without importing numpy;
    # the text is what it wrote when it tested numpy types by isinstance,
    # except for the 0-d array, on which that raised a TypeError
    values = {
        "f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7),
        "true": np.bool_(True), "false": np.bool_(False), "d0": np.array(2.5),
        "d1": np.array([1.5, np.nan, -np.inf]), "d2": np.array([[1, 2], [3, 4]]),
        "d2_f32": np.array([[0.25, np.inf]], dtype=np.float32),
        "np_nan": np.float64("nan"), "np_inf": np.float32("inf"), "np_neg_inf": np.float64("-inf"),
        "py_nan": float("nan"), "py_inf": float("inf"), "py_neg_inf": float("-inf"),
        "tuple": (np.int64(1), 2.0), "plain": [1, "x", None, True],
    }
    assert json.dumps(_plain(values), sort_keys=True) == (
        '{"d0": 2.5, "d1": [1.5, "nan", "-inf"], "d2": [[1, 2], [3, 4]], "d2_f32": [[0.25, "inf"]], '
        '"f32": 0.10000000149011612, "f64": 0.1, "false": false, "i64": -7, "np_inf": "inf", '
        '"np_nan": "nan", "np_neg_inf": "-inf", "plain": [1, "x", null, true], "py_inf": "inf", '
        '"py_nan": "nan", "py_neg_inf": "-inf", "true": true, "tuple": [1, 2.0]}')


def test_compare_runs_ratio_table(tmp_path):
    reports = []
    for res in (32, 64):
        out = tmp_path / f"res{res}"
        assert run_cli(
            "verify", "--model", "gaussian", "--dim", "2",
            "--resolution", str(res), "--truncation-radius", "4",
            "--suite", "identities", "--output", str(out),
        ) == EXIT_OK
        reports.append(read_report(out))
    table = compare_runs(*reports)
    rows = [r for r in table if r["check_name"] == "commutation_identities"]
    assert rows
    for row in rows:
        assert row["error_ratio"] > 2.0
        assert row["converging"]


def test_compare_rejects_mismatched_commands(tmp_path):
    a = {"command": "verify", "config": {"resolution": 32}}
    b = {"command": "spectrum", "config": {"resolution": 64}}
    with pytest.raises(ConfigError, match="different commands"):
        compare_runs(a, b)


def test_compare_rejects_equal_resolutions():
    a = {"command": "verify", "config": {"resolution": 32}, "checks": []}
    b = {"command": "verify", "config": {"resolution": 32}, "checks": []}
    with pytest.raises(ConfigError, match="resolution"):
        compare_runs(a, b)


@pytest.mark.parametrize("key, value", [("model", {"kind": "cylinder", "n": 3, "k": 2}),
                                        ("truncation_radius", 8.0), ("stencil_order", 4)])
def test_compare_rejects_different_discretizations(tmp_path, capsys, key, value):
    # runs that differ in more than resolution give ratios, not convergence orders
    config = {"model": {"kind": "gaussian", "n": 2, "k": None}, "truncation_radius": 6.0,
              "stencil_order": 2}
    check = {"check_name": "kernel_of_P", "residuals": {"translation_0": 1e-3}}
    paths = []
    for res, changed in ((32, {}), (48, {key: value})):
        paths.append(tmp_path / f"r{res}.json")
        paths[-1].write_text(json.dumps({"command": "verify", "checks": [check],
                                         "config": {**config, **changed, "resolution": res}}))
    assert run_cli("compare", *map(str, paths)) == EXIT_CONFIG
    assert f"config error: cannot compare reports with different {key}" in capsys.readouterr().err


def test_compare_cli_entry(tmp_path, capsys):
    for res in (32, 64):
        run_cli(
            "verify", "--model", "gaussian", "--dim", "2",
            "--resolution", str(res), "--truncation-radius", "4",
            "--suite", "identities", "--output", str(tmp_path / f"r{res}"),
        )
    code = run_cli(
        "compare",
        str(tmp_path / "r32" / "report.json"),
        str(tmp_path / "r64" / "report.json"),
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "commutation_identities" in out


@pytest.mark.parametrize("text, message", [
    (None, "No such file"), ("{not json", "Expecting"), ("[]", "not a JSON object"),
    ('{"checks": [1]}', "check 0 is not a JSON object"),
    ('{"checks": [{"residuals": {}}]}', "check 0 has no check_name"),
    ('{"checks": {"check_name": "kernel_of_P"}}', "checks is not a list"),
    ('{"config": []}', "config is not a JSON object"),
    ('{"config": {"resolution": "32"}}', "config resolution is not an integer"),
    *[(json.dumps({"config": {"resolution": res}, "checks": [
        {"check_name": "kernel_of_P", "residuals": {"translation_0": 1e-3}}]}), message)
      for res, message in ((True, "config resolution is not an integer"),
                           (-32, "config resolution is not a positive integer"),
                           (0, "config resolution is not a positive integer"))],
    ('{"checks": [{"check_name": "kernel_of_P", "residuals": [1, 2]}]}',
     "check 0 residuals is not a JSON object"),
    ('{"checks": [{"check_name": "eigenpair_0", "norm_checks": [1]}]}',
     "check 0 norm_checks is not a JSON object"),
    ('{"checks": [{"check_name": "eigenpair_0", '
     '"norm_checks": {"decomposition_residuals": [1]}}]}',
     "check 0 decomposition_residuals is not a JSON object"),
    ('{"checks": [{"check_name": "propagation_r4_eps0.001", '
     '"distance_profile": {"radii": ["4"], "e": [0.1]}}]}',
     "check 0 distance_profile is not lists of numeric radii and values"),
])
def test_compare_unreadable_report_is_config_error(tmp_path, capsys, text, message):
    # a missing file, malformed JSON, a JSON array, checks that are not a
    # list of named objects, a part of a report that compare reads as
    # another type, and a resolution that is not a positive integer (JSON
    # true is a Python int) are each named, not a traceback
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    if text is not None:
        bad.write_text(text)
    good.write_text(json.dumps({"command": "verify", "config": {"resolution": 32}, "checks": []}))
    assert run_cli("compare", str(bad), str(good)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: cannot read report {bad}: " in err and message in err


def test_bad_command_flag_usage(capsys):
    code = run_cli("compare", "only_one.json")
    assert code == EXIT_CONFIG
