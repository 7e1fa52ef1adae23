"""Which models exist: the kind names, and the checks on a model's n and k.

This module imports nothing, so `cli` refuses every model that does not
exist before numpy loads; `models.make_model` builds a model from what
`check_model` returns.
"""

from __future__ import annotations

GAUSSIAN = "gaussian"
CYLINDER = "cylinder"
# each kind by the dimension k of its sphere factor; None on the flat model
SPHERE_DIM = {GAUSSIAN: None, CYLINDER: 2}


class ModelError(ValueError):
    """Invalid model parameters or points outside the chart."""


def check_model(kind: str, n: int, k: int | None = None) -> tuple[int, int | None]:
    """The model's n as an int and its k, or a ModelError naming the first
    parameter out of range: the kind, then n, then k and n for that kind."""
    if kind not in SPHERE_DIM:
        raise ModelError(f"unknown model kind {kind!r}")
    if int(n) != n or n < 1:
        raise ModelError("total dimension n must be an integer >= 1")
    n = int(n)
    if kind == GAUSSIAN:
        if k is not None:
            raise ModelError("Gaussian model takes no sphere dimension k")
        return n, None
    if k != 2:
        raise ModelError(f"cylinder sphere factor must be S^2 (k = 2), got k = {k}")
    if n <= 2:
        raise ModelError("n must be >= 3: the cylinder needs a Euclidean factor")
    return n, 2
