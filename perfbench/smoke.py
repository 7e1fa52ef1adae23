"""Tiny-size smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload of perfbench/run.py at a tiny size, untraced and traced,
and checks that each run passes its gates, that every metric BENCHMARK.json
names prints with its unit (also as a `name = value unit` line), that the
untraced run prints `fail_frac` and the workload's accuracy figures, and
that tracing leaves the report unchanged. Takes about a minute on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent

# same commands at sizes that finish in seconds; the propagate sweep uses
# n=1 because n=2 resolves the r=4 cutoff band only on a grid as large as
# the real workload's
TINY = {
    "propagate-sweep": run.Workload(
        ("propagate", "--model", "gaussian", "--dim", "1", "--resolution", "136",
         "--truncation-radius", "4", "--r", "4", "--epsilon", "1e-3,1e-2"),
    ),
    "spectrum-shiftinvert": run.Workload(
        ("spectrum", "--model", "gaussian", "--dim", "2", "--resolution", "48",
         "--truncation-radius", "6", "--eigs", "6"),
        guard_ref=(0.25255679924321794, 0.2532240385032488, 0.49637993139996084),
    ),
    "verify-cylinder": run.Workload(
        ("verify", "--model", "cylinder", "--dim", "3", "--k", "2", "--resolution", "48",
         "--truncation-radius", "6"),
    ),
}


def check(name: str, trace: int, expected: dict, extra: dict) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if code != 0 or not result["correct"] or result["failed"]:
        problems.append(f"exit {code}, result {lines[-1]}")
    units = {key: m["unit"] for key, m in result["metrics"].items()}
    if units != expected:
        problems.append(f"metrics {units} != {expected}")
    for metric, unit in {**expected, **extra}.items():
        if not any(ln.startswith(f"{metric} = ") and ln.endswith(f" {unit}") for ln in lines):
            problems.append(f"no line '{metric} = <value> {unit}'")
    return [f"{name} --trace {trace}: {p}" for p in problems]


def tracing_changes_nothing(name: str, wl) -> list[str]:
    session = run.Session(wl, 1)
    plain = session.run_cli()
    traced = session.run_cli(spans=run.WORK / "smoke_spans.json")
    if plain.failures or traced.failures:
        return [f"{name}: {plain.failures + traced.failures}"]
    diffs = run.differing_fields(plain.report, traced.report)
    return [f"{name}: traced report differs in {diffs} values"] if diffs else []


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {w["name"] for w in bench["workloads"]}
    problems = [] if names == set(run.WORKLOADS) == set(TINY) else ["workload names differ"]
    # the untraced run also prints each accuracy figure the real workload has
    figures = {name: dict.fromkeys(wl.seed0, "1") for name, wl in run.WORKLOADS.items()}
    run.WORKLOADS.update(TINY)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[key]}
        for name in TINY:
            extra = {"fail_frac": "1", **figures[name]} if trace == 0 else {}
            problems += check(name, trace, expected, extra)
    for name, wl in TINY.items():
        problems += tracing_changes_nothing(name, wl)
    for p in problems:
        print(p)
    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
