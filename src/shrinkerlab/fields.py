"""Sampled fields on grids: scalars, vectors, and packed symmetric two-tensors.

Vector components are contravariant chart components; symmetric two-tensors
are covariant and packed over the upper triangle (see models.sym_pairs).
Values are stored as the operators read them: a scalar as (N,), every other
rank component-major, (components, N) and C-contiguous, so `Field.flat` is a
view and `Field.from_flat` keeps its argument. Pointwise contractions insert
the model metric explicitly, so one storage convention serves every chart.
The Killing fields read the product structure: flat rotations need
`n_euclidean >= 2`, sphere rotations a nonempty `angle_axes`.

Quantities sampled on a grid are implemented here once: the weighted norm
restricted to a node mask (`Field.norm_where`; it and every other inner
product and norm read the grid's one weighted product, `Grid.inner`), the
C^2 radial bump in b
(`radial_bump`, also the cutoff of the extension pipeline) and the perturbed
symmetry that `propagate` takes as input (`perturbed`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SCALAR, SYM2, VECTOR, Grid
from .models import sym2_contraction_weights


class FieldError(ValueError):
    """Malformed field data or mismatched field operations."""


def components_for(rank: str, n: int) -> int:
    if rank == SCALAR:
        return 1
    if rank == VECTOR:
        return n
    if rank == SYM2:
        return n * (n + 1) // 2
    raise FieldError(f"unknown rank {rank!r}")


@dataclass
class Field:
    """Values sampled at grid nodes, shaped (N,) or (components, N)."""

    grid: Grid
    rank: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        N = self.grid.n_nodes
        # components_for rejects an unknown rank
        want = (N,) if self.rank == SCALAR else (components_for(self.rank, self.grid.n), N)
        if vals.shape != want:
            raise FieldError(f"{self.rank} field needs shape {want}, got {vals.shape}")
        self.values = vals

    def flat(self) -> np.ndarray:
        """The component-major flat vector the sparse operators read: a view."""
        return self.values.reshape(-1)

    @classmethod
    def from_flat(cls, grid: Grid, rank: str, flat: np.ndarray) -> "Field":
        """The field whose values are `flat`, reshaped without a copy."""
        return cls(grid, rank, flat if rank == SCALAR else flat.reshape(-1, grid.n_nodes))

    def contract(self, other: "Field") -> np.ndarray:
        """Pointwise metric contraction <self, other>_g at every node."""
        if other.grid is not self.grid or other.rank != self.rank:
            raise FieldError("contract requires matching rank and grid")
        if self.rank == SCALAR:
            return self.values * other.values
        if self.rank == VECTOR:
            w = self.grid.metric_diag.T
        else:
            w = sym2_contraction_weights(self.grid.inv_metric_diag)
        # no (components, N) product; the same sums as np.sum(w * a * b, axis=0)
        return np.einsum("ij,ij,ij->j", w, self.values, other.values)

    def pointwise_norm_sq(self) -> np.ndarray:
        return self.contract(self)

    def inner(self, other: "Field") -> float:
        if other.grid is not self.grid or other.rank != self.rank:
            raise FieldError("inner product requires matching rank and grid")
        return self.grid.inner(self.rank, self.values, other.values)

    def norm(self) -> float:
        return float(np.sqrt(self.inner(self)))

    def norm_where(self, mask: np.ndarray) -> float:
        """Weighted norm restricted to a node mask (e.g. away from the collar).

        NaN when the mask selects no node: a residual measured over nothing
        must fail every `<=` check rather than pass at 0.
        """
        if not np.any(mask):
            return float("nan")
        return float(np.sqrt(self.grid.inner(self.rank, self.values, self.values, mask)))

    def __add__(self, other: "Field") -> "Field":
        if other.grid is not self.grid or other.rank != self.rank:
            raise FieldError("field addition requires matching rank and grid")
        return Field(self.grid, self.rank, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        if other.grid is not self.grid or other.rank != self.rank:
            raise FieldError("field subtraction requires matching rank and grid")
        return Field(self.grid, self.rank, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.rank, self.values * float(c))

    __rmul__ = __mul__

    def scale_by(self, scalar_values: np.ndarray) -> "Field":
        """Multiply by a per-node scalar (cutoffs, bumps)."""
        return Field(self.grid, self.rank, self.values * np.asarray(scalar_values, dtype=float))


def scalar_field(grid: Grid, fn) -> Field:
    """Sample fn(coords) -> (N,) as a scalar field."""
    return Field(grid, SCALAR, np.asarray(fn(grid.coords), dtype=float))


def vector_field(grid: Grid, fn) -> Field:
    """Sample fn(coords) -> (n, N) contravariant components."""
    return Field(grid, VECTOR, np.asarray(fn(grid.coords), dtype=float))


def translation(grid: Grid, axis: int = 0) -> Field:
    """Coordinate translation field along a flat axis (a Killing field)."""
    if axis >= grid.model.n_euclidean:
        raise FieldError("translation axis must be a Euclidean axis")
    vals = np.zeros((grid.n, grid.n_nodes))
    vals[axis] = 1.0
    return Field(grid, VECTOR, vals)


def euclidean_rotation(grid: Grid, a: int = 0, b: int = 1) -> Field:
    """Rotation x_a d_b - x_b d_a in a flat coordinate plane (a Killing field)."""
    m = grid.model.n_euclidean
    if a >= m or b >= m or a == b:
        raise FieldError("rotation needs two distinct Euclidean axes")
    vals = np.zeros((grid.n, grid.n_nodes))
    vals[b] = grid.coords[:, a]
    vals[a] = -grid.coords[:, b]
    return Field(grid, VECTOR, vals)


def angular_rotation(grid: Grid) -> Field:
    """Rotation about the polar axis of the model's sphere factor."""
    if not grid.model.angle_axes:
        raise FieldError("angular rotation requires a sphere factor")
    vals = np.zeros((grid.n, grid.n_nodes))
    vals[grid.n - 1] = 1.0
    return Field(grid, VECTOR, vals)


def killing_fields(grid: Grid) -> dict[str, Field]:
    """The model's closed-form Killing fields by name: the translations, the
    flat rotations x_a d_b - x_b d_a (a < b) and a sphere factor's polar rotation.

    The verify checks run on these fields. `killing_basis`, which the
    near-kernel block starts from, adds the two rotations that move the poles
    of a sphere factor; they would fail those checks. Their cot(theta)
    component is not resolved next to the excluded polar caps: on the (3,2)
    cylinder at resolution 80, R 6 they give |P Y| / |Y| = 0.078 against a
    stencil-order floor of 0.2, a harmonicity residual of 284, and a failed
    interpolation check.
    """
    m = grid.model.n_euclidean
    out = {f"translation_{axis}": translation(grid, axis) for axis in range(m)}
    out.update({f"rotation_{a}{b}": euclidean_rotation(grid, a, b)
                for a in range(m) for b in range(a + 1, m)})
    if grid.model.angle_axes:
        out["polar_rotation"] = angular_rotation(grid)
    return out


def killing_basis(grid: Grid) -> list[Field]:
    """A basis of the model's Killing fields: `killing_fields`, and on a
    cylinder the two rotations that move the poles of the (theta, phi) chart
    of its S^2 factor, the only sphere chart (`models.make_model`)."""
    out = list(killing_fields(grid).values())
    if grid.model.angle_axes:
        m = grid.model.n_euclidean
        theta, phi = grid.coords[:, m], grid.coords[:, m + 1]
        cot = np.cos(theta) / np.sin(theta)
        for d_theta, d_phi in (
            (-np.sin(phi), -cot * np.cos(phi)),
            (np.cos(phi), -cot * np.sin(phi)),
        ):
            vals = np.zeros((grid.n, grid.n_nodes))
            vals[m], vals[m + 1] = d_theta, d_phi
            out.append(Field(grid, VECTOR, vals))
    return out


def dilation(grid: Grid) -> Field:
    """Radial field x^i d_i on the flat factor (not Killing; eigenfield at 1/2)."""
    vals = np.zeros((grid.n, grid.n_nodes))
    m = grid.model.n_euclidean
    vals[:m] = grid.coords[:, :m].T
    return Field(grid, VECTOR, vals)


def smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic C^2 step: 0 at u<=0 rising to 1 at u>=1."""
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def radial_bump(grid: Grid, inner: float, outer: float) -> np.ndarray:
    """C^2 plateau in b: equals 1 on {b <= inner}, 0 on {b >= outer}."""
    if not 0 < inner < outer:
        raise FieldError("need 0 < inner < outer")
    u = (outer - grid.b) / (outer - inner)
    return smoothstep(u)


def bump_vector(grid: Grid, axis: int = 0, inner: float = 2.0, outer: float = 3.0) -> Field:
    """Interior-supported smooth test field: bump(b) times a coordinate direction."""
    return translation(grid, axis).scale_by(radial_bump(grid, inner, outer))


def perturbed(base: Field, eps: float) -> Field:
    """The deterministic approximate symmetry: the vector field `base` plus
    eps * x_0^2 d_0 * radial_bump(2, 3.5).

    The perturbation is supported on {b < 3.5}, so outside it the field is
    `base` exactly; at eps = 0 it is `base` bit for bit. `propagate` perturbs
    the rotation where n_euclidean >= 2 and translation 0 elsewhere.
    """
    grid = base.grid
    pert = np.zeros((grid.n, grid.n_nodes))
    pert[0] = grid.coords[:, 0] ** 2
    pert *= radial_bump(grid, 2.0, 3.5)
    return base + Field(grid, VECTOR, pert) * eps
