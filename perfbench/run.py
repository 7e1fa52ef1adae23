"""Benchmark of the three shrinkerlab CLI workflows, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
Each CLI run is a fresh `python3 -m shrinkerlab.cli` process with the
workload's fixed arguments plus `--seed N`. Runs form a closed loop with one
client: the next run starts when the previous one has exited.

`--trace 0` times the workload for S seconds (at least one run) and reports
the end-to-end metrics: median `wall_s`, median `setup_s` over a few
start-up probes, `peak_rss_mb` of the CLI process, and `error_max`, the
workload's headline accuracy error read from `report.json`.

`--trace 1` makes two traced runs, one with the usual BLAS threads and one
single-threaded (the serial baseline), and reports the per-layer metrics
derived from the spans that `perfbench/trace.py` records.

A run fails when the CLI exits nonzero or its report fails the workload's
correctness gates. Runs at one seed should write identical reports apart
from `timestamp`; the number of values in which two of them differ is
reported, not gated. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. perfbench/NOTES.md says why
each workload was chosen and defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
# the whole invocation must end within 180 s; a child still running this
# long after the start is killed and its run counted as failed
DEADLINE_S = 175.0
SETUP_PROBES = 5
# BLAS threads for every timed run, never above the cores present; `--jobs`
# is never passed (the CLI drops it, and workers times BLAS threads would
# oversubscribe the cores)
THREADS = min(2, os.cpu_count() or 1)
SETUP_CODE = (
    "import sys; from shrinkerlab import cli; "
    "cli.config_from_args(cli.build_arg_parser().parse_args(sys.argv[1:])).validate()"
)

COSINE_MIN = 0.99
NEAR_KERNEL = 3
GUARD_EXACT = (0.25, 0.25, 0.5)
GUARD_SLACK = 1e-8


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    # spectrum only: eigenvalues 4-6 as measured at commit fc9328d; each must
    # stay at least as close to its exact value in GUARD_EXACT
    guard_ref: tuple[float, ...] = ()
    # the accuracy figures of `accuracy()` at seed 0, as measured at commit
    # fc9328d; a run at seed 0 reports how many of them it does not repeat
    seed0: dict[str, float] = field(default_factory=dict)


WORKLOADS = {
    "propagate-sweep": Workload(
        ("propagate", "--model", "gaussian", "--dim", "2", "--resolution", "200",
         "--truncation-radius", "6", "--r", "4", "--epsilon", "1e-3,1e-2"),
        seed0={"cosine_gap": 0.00045670885452131493, "mu_max": 0.0023140937353975364,
               "eigen_residual_max": 0.0001221805796319341},
    ),
    "spectrum-shiftinvert": Workload(
        ("spectrum", "--model", "gaussian", "--dim", "2", "--resolution", "160",
         "--truncation-radius", "10", "--eigs", "6"),
        guard_ref=(0.2493880202138946, 0.24938801814135425, 0.4976309157517095),
        seed0={"mu_max": 1.2929000943094718e-09, "eigen_residual_max": 1.3285000768335941e-10},
    ),
    "verify-cylinder": Workload(
        ("verify", "--model", "cylinder", "--dim", "3", "--k", "2", "--resolution", "80",
         "--truncation-radius", "6"),
        seed0={"identity_residual_max": 0.0623029724052186},
    ),
}


@dataclass
class Run:
    wall_s: float
    peak_rss_mb: float
    report: dict | None = None
    failures: list[str] = field(default_factory=list)


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


class Session:
    """One invocation: a workload at one seed, with a deadline for every child."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.argv = [*wl.args, "--seed", str(seed)]
        self.deadline = time.perf_counter() + DEADLINE_S

    def spawn(self, cmd: list[str], threads: int, log: Path) -> Run:
        """Run `cmd` to its exit; wall time and the child's own peak RSS."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return Run(0.0, 0.0, failures=["benchmark deadline reached"])
        with open(log, "w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=child_env(threads), cwd=ROOT, stdout=out, stderr=out)
        # a blocking wait4 in a helper thread gives the child's own rusage
        # without waking this process while the child runs
        exited = {}

        def reap():
            exited["wait4"] = os.wait4(proc.pid, 0)
            exited["t"] = time.perf_counter()

        waiter = threading.Thread(target=reap)
        waiter.start()
        killed = False
        try:
            waiter.join(remaining)
        finally:
            if waiter.is_alive():
                killed = True
                proc.kill()
                waiter.join()
        _, status, usage = exited["wait4"]
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = Run(exited["t"] - t0, usage.ru_maxrss / 1024.0)
        if killed:
            run.failures.append(f"killed after {run.wall_s:.1f} s at the benchmark deadline")
        elif proc.returncode != 0:
            run.failures.append(f"exit code {proc.returncode} (see {log})")
        return run

    def run_cli(self, threads: int = THREADS, spans: Path | None = None) -> Run:
        out_dir = WORK / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        entry = ["-m", "shrinkerlab.cli"] if spans is None else [str(HERE / "trace.py"), str(spans)]
        cmd = [sys.executable, *entry, *self.argv, "--output", str(out_dir)]
        run = self.spawn(cmd, threads, WORK / "cli.log")
        report = out_dir / "report.json"
        if report.is_file():
            run.report = json.loads(report.read_text())
            run.report.pop("timestamp", None)
            run.failures += gate(run.report, self.wl)
        elif not run.failures:
            run.failures.append("no report.json written")
        return run

    def setup_probe(self) -> Run:
        cmd = [sys.executable, "-c", SETUP_CODE, *self.argv, "--output", str(WORK / "out")]
        run = self.spawn(cmd, THREADS, WORK / "setup.log")
        run.failures = [f"set-up probe: {f}" for f in run.failures]
        return run

    def seed0_diffs(self, runs: list[Run]) -> list[str]:
        """At seed 0, the accuracy figures each run does not repeat from `seed0`."""
        if self.seed != 0 or not self.wl.seed0:
            return []
        diffs = [differing_fields(accuracy(r.report), self.wl.seed0) for r in runs]
        return [f"seed0_diff_fields = {max(diffs)} count"]

    def timed(self, seconds: float) -> tuple[list[Run], dict, list[str]]:
        setup = []
        for _ in range(SETUP_PROBES):
            probe = self.setup_probe()
            if probe.failures:
                return [probe], {}, []
            setup.append(probe.wall_s)
        runs: list[Run] = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            # start no run that would cross the deadline
            if runs and time.perf_counter() + 1.5 * runs[-1].wall_s > self.deadline:
                break
            runs.append(self.run_cli())
            if runs[-1].report is None:
                break
        walls = [r.wall_s for r in runs]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }
        failed = sum(bool(r.failures) for r in runs)
        lines = [
            f"wall_s samples = {len(walls)} count (min {min(walls):.4f} s, max {max(walls):.4f} s)",
            f"setup_s samples = {len(setup)} count",
            f"fail_frac = {failed / len(runs):.4g} 1",
        ]
        reports = [r.report for r in runs if r.report is not None]
        if len(reports) > 1:
            diffs = max(differing_fields(reports[0], other) for other in reports[1:])
            lines.append(f"rerun_diff_fields = {diffs} count")
        if runs[0].report is not None:
            acc = accuracy(runs[0].report)
            metrics["error_max"] = next(iter(acc.values()))
            lines += [f"{name} = {value!r} 1" for name, value in acc.items()]
            lines += self.seed0_diffs(runs[:1])
        return runs, metrics, lines

    def traced(self) -> tuple[list[Run], dict, list[str]]:
        # no untraced run here: with two more 45-55 s propagate runs the
        # invocation would come too close to its 180 s limit
        spans, spans_1t = WORK / "spans.json", WORK / "spans_1t.json"
        trace = self.run_cli(spans=spans)
        serial = self.run_cli(threads=1, spans=spans_1t)
        runs = [trace, serial]
        if any(r.failures for r in runs):
            return runs, {}, []
        docs = [json.loads(p.read_text()) for p in (spans, spans_1t)]
        layers = [Spans(doc) for doc in docs]
        for run, sp in zip(runs, layers):
            if min(sp.self_time, default=0.0) < 0:
                run.failures.append("negative self time in the trace")
        metrics = layer_metrics(*layers)
        metrics["trace.overhead_s"] = docs[0]["overhead_s"]
        metrics["reports.rerun_diff_fields"] = differing_fields(trace.report, serial.report)
        env = docs[0]["env"]
        lines = [
            f"traced wall_s = {trace.wall_s:.4f} s; with 1 BLAS thread {serial.wall_s:.4f} s",
            f"env nproc={env['nproc']} numpy={env['numpy']} scipy={env['scipy']} "
            f"blas_threads={env['blas_threads']} (serial baseline: "
            f"{docs[1]['env']['blas_threads']})",
            *self.seed0_diffs(runs),
        ]
        return runs, metrics, lines


# ---- correctness gates and accuracy figures --------------------------------


def _checks(report: dict, prefix: str) -> list[dict]:
    return [c for c in report["checks"] if c["check_name"].startswith(prefix)]


def accuracy(report: dict) -> dict:
    """The report's accuracy figures, all lower-is-better; the first is `error_max`."""
    command = report["command"]
    if command == "propagate":
        points = _checks(report, "propagation_")
        return {
            "cosine_gap": 1.0 - min(p["cosine_with_reference"] for p in points),
            "mu_max": max(p["mu"] for p in points),
            "eigen_residual_max": max(p["eigen_residual"] for p in points),
        }
    if command == "spectrum":
        pairs = _checks(report, "eigenpair_")
        return {
            "mu_max": max(p["mu"] for p in pairs[:NEAR_KERNEL]),
            "eigen_residual_max": max(p["residual"] for p in pairs),
        }
    suites = [c for c in report["checks"]
              if c["check_name"] in ("commutation_identities", "kernel_of_P")]
    return {"identity_residual_max": max(v for c in suites for v in c["residuals"].values())}


def gate(report: dict, wl: Workload) -> list[str]:
    """Failures of the workload's correctness gates on one report."""
    bad = [c["check_name"] for c in report["checks"] if not c.get("passed", True)]
    failures = [f"failed check {name}" for name in bad]
    command = report["command"]
    if command == "propagate":
        for p in _checks(report, "propagation_"):
            if not (p["variational_ok"] and p["mu"] <= p["div_star_v_norm_sq"] + 1e-10):
                failures.append(f"{p['check_name']}: variational bound violated")
            if p["cosine_with_reference"] < COSINE_MIN:
                failures.append(f"{p['check_name']}: cosine below {COSINE_MIN}")
    elif command == "spectrum":
        cfg = report["config"]
        h = 2.0 * cfg["truncation_radius"] / cfg["resolution"]
        mus = [p["mu"] for p in _checks(report, "eigenpair_")]
        if any(mu > h ** cfg["stencil_order"] for mu in mus[:NEAR_KERNEL]):
            failures.append("near-kernel eigenvalue above stencil-order scale")
        guards = mus[NEAR_KERNEL: NEAR_KERNEL + len(GUARD_EXACT)]
        if len(guards) < len(GUARD_EXACT):
            failures.append(f"fewer than {NEAR_KERNEL + len(GUARD_EXACT)} eigenpairs")
        for mu, ref, exact in zip(guards, wl.guard_ref, GUARD_EXACT):
            if abs(mu - exact) > abs(ref - exact) + GUARD_SLACK:
                failures.append(f"eigenvalue {mu:.6g} further from {exact} than the reference")
        if not _checks(report, "orthonormality"):
            failures.append("no orthonormality check")
    return failures


# ---- per-layer metrics from spans -----------------------------------------


class Spans:
    """Self and covered time of recorded spans, by span name."""

    def __init__(self, doc: dict):
        self.spans = doc["spans"]
        self.counters = doc["counters"]
        self.dur = [end - start for _, start, end, _ in self.spans]
        self.self_time = list(self.dur)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                self.self_time[parent] -= self.dur[i]

    def self_s(self, prefix: str) -> float:
        """Summed self time of spans named `prefix` or under `prefix.`."""
        return sum(t for (name, *_), t in zip(self.spans, self.self_time)
                   if name == prefix or name.startswith(prefix + "."))

    def covered_s(self, *names: str) -> float:
        """Time inside any span of `names`, counting nested ones once."""
        total = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += self.dur[i]
        return total

    def calls(self, prefix: str) -> int:
        """Number of spans named `prefix` or under `prefix.`."""
        return sum(1 for name, *_ in self.spans
                   if name == prefix or name.startswith(prefix + "."))

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0)


def layer_metrics(traced: Spans, serial: Spans) -> dict:
    requested = traced.counter("spectral.pairs_requested")
    return {
        "spectral.solve_s": traced.self_s("spectral.lowest_eigenpairs"),
        "spectral.solves": traced.calls("spectral.lowest_eigenpairs"),
        "spectral.iterations": traced.counter("spectral.iterations"),
        "spectral.maxiter_hits": traced.counter("spectral.maxiter_hits"),
        "spectral.converged_ratio":
            traced.counter("spectral.pairs_converged") / requested if requested else 0.0,
        "spectral.unknowns": traced.counter("spectral.unknowns"),
        "spectral.postproc_s": traced.covered_s(
            "spectral.canonicalize_degenerate", "spectral.eigencheck_divf",
            "spectral.decompose_eigenfield"),
        "spectral.symform_s": traced.self_s("spectral._symmetric_form"),
        "spectral.solve_1t_s": serial.self_s("spectral.lowest_eigenpairs"),
        "operators.assembly_s": traced.self_s("operators.Operators"),
        "operators.assemblies": traced.calls("operators.Operators"),
        "operators.p_nnz": traced.counter("operators.p_nnz"),
        "operators.apply_s": traced.self_s("operators.OperatorHandle.apply"),
        "operators.applies": traced.calls("operators.OperatorHandle.apply"),
        "verification.check_s": traced.self_s("verification"),
        "models.check_s": traced.self_s("models"),
        "grid.build_s": traced.self_s("grid.build_grid"),
        "grid.builds": traced.calls("grid.build_grid"),
        "grid.nodes": traced.counter("grid.nodes"),
        "propagation.self_s": traced.self_s("propagation"),
        "propagation.defect_s": traced.covered_s("propagation.measure_defect"),
        "propagation.profile_s": traced.covered_s(
            "grid.radial_profile", "propagation.fit_growth_exponent",
            "propagation.check_growth_bound", "propagation.measured_lambda_bar"),
        "fields.build_s": traced.self_s("fields"),
        "reports.write_s": traced.self_s("reports"),
        "reports.bytes": traced.counter("reports.bytes"),
        "cli.self_s": traced.self_s("cli"),
    }


def differing_fields(a, b) -> int:
    """Number of leaf values in which two reports differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return sum(differing_fields(a.get(k), b.get(k)) for k in a.keys() | b.keys())
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return sum(differing_fields(x, y) for x, y in zip(a, b))
    return int(a != b)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "shrinkerlab" / "cli.py").is_file():
        print(f"no shrinkerlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    session = Session(WORKLOADS[args.workload], args.seed)
    print(f"workload {args.workload}: shrinkerlab {' '.join(session.argv)} "
          f"(BLAS threads {THREADS}, nproc {os.cpu_count()})")
    if args.trace:
        runs, metrics, lines = session.traced()
    else:
        runs, metrics, lines = session.timed(args.seconds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for i, run in enumerate(runs):
        for failure in run.failures:
            print(f"run {i}: {failure}")
    failed = sum(bool(r.failures) for r in runs)
    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
