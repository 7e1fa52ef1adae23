import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from shrinkerlab import build_grid, cli, make_model, propagation, spectral
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
from shrinkerlab.operators import Operators
from shrinkerlab.reports import load_report

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


def test_spectrum_reports_shift_invert_factor(tmp_path, capsys):
    # 6,456 unknowns: above DENSE_CAP, so the shift-invert path factors once
    code = run_cli(
        "spectrum", "--dim", "2", "--resolution", "64", "--truncation-radius", "8",
        "--eigs", "4", "--output", str(tmp_path / "spec"),
    )
    assert code == EXIT_OK
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("shift-invert:")]
    assert len(lines) == 1
    assert re.fullmatch(
        r"shift-invert: banded Cholesky \(RCM\), 6456 unknowns, bandwidth \d+, "
        r"band \d+ MB, factor \d+\.\d\d s, \d+ solves", lines[0]
    ), lines[0]


def test_spectrum_above_60k_unknowns_runs_shift_invert(tmp_path, capsys):
    # 62,856 unknowns: every spectrum above DENSE_CAP takes the banded
    # shift-invert path, which solves this grid at every seed
    code = run_cli(
        "spectrum", "--dim", "2", "--resolution", "200", "--truncation-radius", "6",
        "--eigs", "6", "--seed", "1", "--output", str(tmp_path / "spec"),
    )
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "shift-invert: banded Cholesky (RCM), 62856 unknowns" in err
    assert read_report(tmp_path / "spec")["passed"]


RERUN_CASES = (
    ("verify", "--model", "gaussian", "--dim", "2",
     "--resolution", "24", "--truncation-radius", "6",
     "--suite", "soliton,structure,identities,cao_zhou", "--seed", "11"),
    # 6.4k unknowns: the shift-invert (ARPACK) path
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


# every INI key with a value that differs from its default
INI_VALUES = {
    "run": {"command": "spectrum", "seed": "3", "output": "set per test"},
    "model": {"kind": "cylinder", "n": "3", "k": "2"},
    "grid": {"resolution": "20", "truncation_radius": "5", "stencil_order": "4"},
    "verify": {"suite": "soliton, structure"},
    "spectrum": {"eigs": "3", "tolerance": "1e-7", "dump_fields": "yes"},
    "propagate": {"r": "4.5", "epsilon": "0.01, 0.02", "profile_points": "7"},
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
    # every INI key lands in the report; the positional command wins over [run]
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
        "tolerance": 1e-7,
        "dump_fields": True,
        "r": [4.5],
        "epsilon": [0.01, 0.02],
        "profile_points": 7,
    }
    # every flag lands in the report and overrides the INI value
    values = {**values, "model": {"kind": "gaussian", "n": "1"},
              "spectrum": {**INI_VALUES["spectrum"], "dump_fields": "no"}}
    ini = write_ini(tmp_path / "flags.cfg", values)
    out = tmp_path / "flag_run"
    flags = {
        "--model": "cylinder", "--dim": "3", "--k": "2",
        "--resolution": "16", "--truncation-radius": "4.5", "--stencil-order": "2",
        "--seed": "9", "--output": str(out), "--suite": "soliton",
        "--eigs": "5", "--tolerance": "1e-8", "--r": "4,4.25", "--epsilon": "0.005",
    }
    argv = ["verify", "--config", str(ini), "--dump-fields"]
    for flag, val in flags.items():
        argv += [flag, val]
    assert run_cli(*argv) == EXIT_OK
    assert read_report(out)["config"] == {
        "command": "verify",
        "model": {"kind": "cylinder", "n": 3, "k": 2},
        "resolution": 16,
        "truncation_radius": 4.5,
        "stencil_order": 2,
        "seed": 9,
        "output": str(out),
        "suite": ["soliton"],
        "eigs": 5,
        "tolerance": 1e-8,
        "dump_fields": True,
        "r": [4.0, 4.25],
        "epsilon": [0.005],
        "profile_points": 7,
    }
    parser_flags = {
        opt for action in cli.build_arg_parser()._actions for opt in action.option_strings
    }
    assert parser_flags == {"-h", "--help", "--config", "--dump-fields", *flags}


def test_jobs_flag_and_key_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--jobs", "2", "--output", str(tmp_path / "o"))
    assert exc.value.code == 2
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("[run]\njobs = 2\n")
    assert run_cli("verify", "--config", str(cfg), "--output", str(tmp_path / "o")) == EXIT_CONFIG
    assert "'jobs'" in capsys.readouterr().err


def test_bad_config_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\nresolution = many\n")
    assert run_cli("verify", "--config", str(cfg), "--output", str(tmp_path / "o")) == EXIT_CONFIG
    assert "resolution" in capsys.readouterr().err


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


def test_propagate_sweep(tmp_path):
    out = tmp_path / "prop"
    code = run_cli(
        "propagate", "--model", "gaussian", "--dim", "2",
        "--resolution", "256", "--truncation-radius", "8",
        "--r", "4", "--epsilon", "1e-3,1e-2",
        "--seed", "5", "--output", str(out),
    )
    assert code == EXIT_OK
    doc = read_report(out)
    points = [c for c in doc["checks"] if c["check_name"].startswith("propagation")]
    assert len(points) == 2
    for p in points:
        assert p["variational_ok"]
        assert p["mu"] <= p["div_star_v_norm_sq"] + 1e-10
        # the block's eigenvalues are reported once, under block_solver
        assert "block_mus" not in p and p["block_solver"]["block_mus"]
    assert (out / "profile_r4_eps0.001.csv").exists()
    assert (out / "plot_r4_eps0.001.csv").exists()


def test_propagate_sweep_solves_block_once(tmp_path, monkeypatch, capsys):
    counted = {"lowest_eigenpairs": (spectral,), "_factor": (spectral,),
               "measure_defect": (propagation, cli),
               "fit_growth_exponent": (propagation, cli), "div_star": (Operators,)}
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
    checks = cli.run_propagate(cfg, grid, tmp_path)
    assert len(checks) == 2
    # one solve, and the guard reuses P's factor instead of building it again;
    # each point measures the defect of Y once, fits the full and the inner
    # profile, and applies div_f^* to Y, V and Z
    assert calls == {"lowest_eigenpairs": 1, "_factor": 1, "measure_defect": 2,
                     "fit_growth_exponent": 4, "div_star": 6}
    assert capsys.readouterr().err.count("near-kernel block:") == 1
    solvers = [c["block_solver"] for c in checks]
    assert solvers[0] == solvers[1]
    assert set(solvers[0]) == {"method", "unknowns", "block_mus", "worst_residual",
                               "guard_mus", "guard_residuals"}
    assert solvers[0]["method"] == "lobpcg" and solvers[0]["unknowns"] == 512
    assert len(solvers[0]["guard_mus"]) == 5  # GUARD_SPAN 6, one Killing field


# one small run of each command
SMALL_RUNS = {
    "verify": dict(command="verify", model_kind="cylinder", n=3, k=2, resolution=16,
                   truncation_radius=4.0),
    "spectrum": dict(command="spectrum", resolution=24, truncation_radius=6.0),
    "propagate": dict(command="propagate", n=1, resolution=136, truncation_radius=4.0,
                      r_values=(4.0,), epsilons=(1e-3, 1e-2)),
}


def test_composite_operators_assembled_only_for_solvers(tmp_path, monkeypatch):
    # verify applies P, L and the drift Laplacians through their first-order
    # factors; spectrum and propagate assemble div_f^* once, for P's factor K
    # (spectrum's symmetric form K^T K, propagate's LOBPCG runs), and P never
    calls = []
    assemble = Operators.assemble

    def recording(self, kind):
        calls.append(kind.value)
        return assemble(self, kind)

    monkeypatch.setattr(Operators, "assemble", recording)
    assembled = {}
    for command, options in SMALL_RUNS.items():
        calls.clear()
        cli.run(RunConfig(output_dir=tmp_path / command, **options))
        assembled[command] = list(calls)
    assert assembled == {"verify": [], "spectrum": ["DivFStar"], "propagate": ["DivFStar"]}
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

    monkeypatch.setattr(cli, "build_grid", recording_build_grid)
    cli.run(RunConfig(output_dir=tmp_path, **SMALL_RUNS[command]))
    assert len(grids) == 1
    held = {
        name for name, val in grids[0].ops().__dict__.items()
        if sp.issparse(val) or (isinstance(val, list) and any(sp.issparse(m) for m in val))
    }
    assert held == {"diffs"}
    assert capsys.readouterr().err.count("operator storage: diffs;") == 1


@pytest.mark.parametrize(
    "command, line",
    [("verify", "solver storage: none; 0 nnz"),
     ("spectrum", r"solver storage: A [\d,]+; [\d,]+ nnz"),
     ("propagate", r"solver storage: K [\d,]+, V-cycle 0; [\d,]+ nnz")],
)
def test_run_reports_solver_storage(command, line, tmp_path, capsys):
    # the dense and shift-invert paths keep the assembled A, the near-kernel block only
    # P's factor K and a V-cycle whose 136 unknowns need no coarse level
    cli.run(RunConfig(output_dir=tmp_path, **SMALL_RUNS[command]))
    found = re.findall(r"^solver storage: .*$", capsys.readouterr().err, flags=re.M)
    assert len(found) == 1 and re.fullmatch(line, found[0])


def test_benchmark_tracer_runs_propagate(tmp_path):
    # the tracer binds lowest_eigenpairs' arguments by name and wraps
    # OperatorHandle.apply, so an API change that breaks it shows here
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "trace.py"), str(spans), "propagate",
         "--model", "gaussian", "--dim", "1", "--resolution", "136",
         "--truncation-radius", "4", "--r", "4", "--epsilon", "1e-3,1e-2",
         "--output", str(tmp_path / "prop")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    names = [span[0] for span in doc["spans"]]
    assert names.count("spectral.lowest_eigenpairs") == 1
    # the tracer sizes the solve off the operator handle; it would read P's
    # nnz off a cached P, and no run caches P
    assert doc["counters"]["spectral.unknowns"] == 136
    assert "operators.p_nnz" not in doc["counters"]


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


def _propagate_report(resolution, mu, cosine, eigen_residual, exponent):
    point = {"check_name": "propagation_r4_eps0", "mu": mu,
             "cosine_with_reference": cosine, "eigen_residual": eigen_residual,
             "fitted_exponent": exponent, "passed": True}
    return {"command": "propagate", "config": {"resolution": resolution, "stencil_order": 2},
            "checks": [point]}


def test_compare_propagate_quantities(tmp_path, capsys):
    a = _propagate_report(128, 4e-4, 1.0 - 8e-4, 2e-4, -1.5)
    b = _propagate_report(256, 1e-4, 1.0 - 2e-4, 1e-4, -1.25)
    rows = {row["quantity"]: row for row in compare_runs(b, a)}
    assert set(rows) == {"mu", "1-cosine_with_reference", "eigen_residual", "fitted_exponent"}
    for key, ratio, converging in (("eigen_residual", 2.0, False),
                                   ("1-cosine_with_reference", 4.0, True)):
        assert rows[key]["coarse"] == 128 and rows[key]["fine"] == 256
        assert rows[key]["error_ratio"] == pytest.approx(ratio)
        assert rows[key]["empirical_order"] == pytest.approx(np.log2(ratio))
        assert rows[key]["converging"] is converging
    # mu and the exponent settle at a limit: both values, no ratio, order or verdict
    for key, values in (("mu", (4e-4, 1e-4)), ("fitted_exponent", (-1.5, -1.25))):
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
    assert "propagation_r4_eps0/mu: coarse=0.0004 fine=0.0001\n" in out
    assert "propagation_r4_eps0/1-cosine_with_reference: ratio=4 order=2.00" in out
    assert "propagation_r4_eps0/fitted_exponent: coarse=-1.5 fine=-1.25\n" in out


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


def test_bad_command_flag_usage(capsys):
    code = run_cli("compare", "only_one.json")
    assert code == EXIT_CONFIG
