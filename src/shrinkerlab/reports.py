"""JSON report and CSV writers shared by the command-line workflows.

They take numpy values without importing numpy, so `cli` loads this module,
for `compare` and the sweep tags, before numpy loads.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import datetime, timezone
from pathlib import Path

SCHEMA_VERSION = 1


def point_tag(r: float, eps: float) -> str:
    """The name of a propagate sweep point, as its check carries it."""
    return f"r{r:g}_eps{eps:g}"


def _plain(obj):
    """numpy scalars and arrays as plain JSON; a non-finite float as "nan", "inf" or "-inf"."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "tolist"):  # a numpy scalar or array
        return _plain(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def write_report(path: Path, command: str, config: dict, model_desc: dict, checks: list[dict]) -> dict:
    """Write the schema-versioned JSON report; returns the document."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": _plain(config),
        "model": _plain(model_desc),
        "checks": _plain(checks),
        "passed": all(c.get("passed", True) for c in checks),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def write_field_csv(path: Path, field) -> None:
    """Node table of a sampled field: coordinates then components."""
    grid = field.grid
    vals = field.values.reshape(-1, grid.n_nodes).T  # one row per node
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{i}" for i in range(grid.n)] + [f"c{i}" for i in range(vals.shape[1])]
        )
        for coord, val in zip(grid.coords, vals):
            writer.writerow([f"{c:.12g}" for c in coord] + [f"{v:.12g}" for v in val])


def load_report(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)
