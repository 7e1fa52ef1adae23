"""Closed-form model shrinkers: the cylinders R^(n-2) x S^2(sqrt 2), with the
flat Gaussian space as the case without a sphere factor.

Every model is a gradient shrinking soliton normalized to kappa = 1/2,

    Ric + Hess_f = g / 2,      |grad f|^2 + S = f,      Lap f + S = n / 2,

with every geometric quantity available in closed form:

* Gaussian: flat R^n in Cartesian coordinates, f(x) = |x|^2 / 4, S = 0.
* Cylinder: R^(n-2) x S^2(r) with r = sqrt(2(k-1)) = sqrt 2 (k = 2, the one
  sphere dimension `make_model` accepts), in coordinates (t_1..t_{n-2},
  theta, phi), latitude theta in (0, pi), longitude phi in [0, 2*pi),
  f = |t|^2 / 4 + 1, S = 1.

Vector fields are handled in chart components (contravariant); symmetric
two-tensors are stored covariant and packed over the upper triangle, see
:func:`sym_pairs`.

This module holds the one implementation of each closed-form pointwise
quantity: the vectorized `ModelShrinker` methods (among them |grad b|^2 and
the curvature action) and :func:`sym2_contraction_weights`. Grids cache them
on their nodes. A model stores its kind, n and k only; each evaluator takes
an (m, n) array of points. A kind is a label: `kinds` says which kinds,
n and k exist, and `make_model` builds a model from them; every numerical
module reads the product structure, `n_euclidean`, `angle_axes` (empty on a
flat model) and `k` (None on a flat model), and the flat case skips the
sphere chart. So a new model kind is one row in `kinds.SPHERE_DIM` and its
checks there, and one subclass here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .kinds import ModelError, check_model

SOLITON_TOL = 1e-10


def sym_pairs(n: int) -> list[tuple[int, int]]:
    """Upper-triangle index pairs (i <= j) used for packed symmetric tensors."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def pair_multiplicity(n: int) -> np.ndarray:
    """Contraction multiplicity per packed slot: 1 on the diagonal, 2 off it."""
    return np.array([1.0 if i == j else 2.0 for i, j in sym_pairs(n)])


def sym2_contraction_weights(inv_metric: np.ndarray) -> np.ndarray:
    """Weights mult * g^{ii} g^{jj} of the packed sym2 contraction, one row
    per slot, shape (pairs, points), from the inverse metric diagonal, shape
    (points, n)."""
    n = inv_metric.shape[1]
    return np.stack([m * inv_metric[:, i] * inv_metric[:, j]
                     for m, (i, j) in zip(pair_multiplicity(n), sym_pairs(n))])


@dataclass(frozen=True)
class ModelShrinker:
    """Immutable closed-form model. Every evaluator is pure and takes an (m, n)
    point array (`riemann_action_matrix` takes one point); a 1-D one is a ModelError."""

    kind: str
    n: int
    k: Optional[int] = None
    kappa: ClassVar[float] = 0.5

    # ---- chart layout -------------------------------------------------

    @property
    def n_euclidean(self) -> int:
        return self.n if self.k is None else self.n - self.k

    @property
    def angle_axes(self) -> range:
        """The sphere factor's axes: the latitude theta, then the longitude phi."""
        return range(self.n_euclidean, self.n)

    @property
    def sphere_radius(self) -> Optional[float]:
        """r = sqrt(2(k-1)) = sqrt 2, so that S^2(r) has Ric = g/2; None on a flat model."""
        return None if self.k is None else np.sqrt(2.0 * (self.k - 1))

    @property
    def sphere_curvature(self) -> float:
        """K = 1/r^2, the sectional curvature of the sphere factor; 0 on a flat model."""
        return 0.0 if self.k is None else 1.0 / self.sphere_radius**2

    @property
    def f_offset(self) -> float:
        """The constant term of f: k/2 with a sphere factor, 0 on a flat model."""
        return 0.0 if self.k is None else self.k / 2.0

    @property
    def base_point(self) -> np.ndarray:
        """A minimum of f: flat origin, theta at pi/2, phi at pi."""
        base = np.zeros(self.n)
        if self.angle_axes:
            theta, phi = self.angle_axes
            base[theta], base[phi] = np.pi / 2.0, np.pi
        return base

    def _pts(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ModelError(f"expected points of shape (m, {self.n}), got {pts.shape}")
        return pts

    def validate_points(self, points) -> None:
        pts = self._pts(points)
        if not np.all(np.isfinite(pts)):
            raise ModelError("non-finite point coordinates")
        theta = pts[:, self.n_euclidean : self.n_euclidean + 1]  # none on a flat model
        if np.any(theta <= 0.0) or np.any(theta >= np.pi):
            raise ModelError("latitude angle outside (0, pi): point is in a polar cap")

    # ---- potential ----------------------------------------------------

    def potential(self, points) -> np.ndarray:
        t = self._pts(points)[:, : self.n_euclidean]
        return np.sum(t * t, axis=1) / 4.0 + self.f_offset

    def dpotential(self, points) -> np.ndarray:
        """Covariant differential of f (equals d f / d coordinate)."""
        pts = self._pts(points)
        out = np.zeros_like(pts)
        out[:, : self.n_euclidean] = pts[:, : self.n_euclidean] / 2.0
        return out

    def grad_potential_norm_sq(self, points) -> np.ndarray:
        df = self.dpotential(points)
        return np.sum((1.0 / self.metric_diag(points)) * df * df, axis=1)

    def hess_potential_packed(self, points) -> np.ndarray:
        """Hess f in packed covariant components; (1/2) delta on the flat block."""
        pts = self._pts(points)
        pairs = sym_pairs(self.n)
        out = np.zeros((pts.shape[0], len(pairs)))
        for slot, (i, j) in enumerate(pairs):
            if i == j and i < self.n_euclidean:
                out[:, slot] = 0.5
        return out

    # ---- metric -------------------------------------------------------

    def metric_diag(self, points) -> np.ndarray:
        """1 on flat axes, r^2 on theta and r^2 sin^2 theta on phi."""
        pts = self._pts(points)
        g = np.ones_like(pts)
        if self.angle_axes:
            theta, phi = self.angle_axes
            g[:, theta] = self.sphere_radius**2
            g[:, phi] = self.sphere_radius**2 * np.sin(pts[:, theta]) ** 2
        return g

    def volume_element(self, points) -> np.ndarray:
        return np.sqrt(np.prod(self.metric_diag(points), axis=1))

    def christoffels(self, points) -> dict[tuple[int, int, int], np.ndarray]:
        """Nonzero Christoffel symbols {(l, i, j): Gamma^l_ij} with i <= j."""
        pts = self._pts(points)
        if not self.angle_axes:
            return {}
        theta, phi = self.angle_axes
        g = self.metric_diag(pts)
        cot = np.cos(pts[:, theta]) / np.sin(pts[:, theta])
        return {(theta, phi, phi): -(g[:, phi] / g[:, theta]) * cot, (phi, theta, phi): cot}

    # ---- curvature ----------------------------------------------------

    def scalar_curvature(self, points) -> np.ndarray:
        m = self._pts(points).shape[0]
        return np.full(m, 0.0 if self.k is None else self.k * (self.k - 1) / self.sphere_radius**2)

    def ricci_packed(self, points) -> np.ndarray:
        """Ric in packed covariant components; (k-1)/r^2 times the sphere metric."""
        pts = self._pts(points)
        pairs = sym_pairs(self.n)
        out = np.zeros((pts.shape[0], len(pairs)))
        g = self.metric_diag(pts)
        for a in self.angle_axes:
            out[:, pairs.index((a, a))] = (self.k - 1) / self.sphere_radius**2 * g[:, a]
        return out

    def riemann_action_matrix(self, point) -> np.ndarray:
        """Dense packed matrix of h -> R(h) at one point of n coordinates.

        On the constant-curvature sphere factor R(h) = K (g_sph tr_sph(h) - h_sph)
        with K = 1/r^2; the action vanishes on components with a flat index.
        """
        g = self.metric_diag(np.reshape(point, (1, -1)))[0]
        pairs = sym_pairs(self.n)
        mat = np.zeros((len(pairs), len(pairs)))
        K = self.sphere_curvature
        sphere = set(self.angle_axes)
        slot_of = {p: s for s, p in enumerate(pairs)}
        for slot, (i, j) in enumerate(pairs):
            if i not in sphere or j not in sphere:
                continue
            mat[slot, slot] -= K
            if i == j:
                for a in sphere:
                    mat[slot, slot_of[(a, a)]] += K * g[i] / g[a]
        return mat

    def curvature_couplings(self, points) -> list[tuple[int, int, np.ndarray | float]]:
        """The action h -> R(h) of `riemann_action_matrix`, its one-point oracle,
        at every point as couplings (out slot, in slot, per-point array or
        constant) on packed sym2 fields; none on a flat model."""
        g, pairs = self.metric_diag(points), sym_pairs(self.n)
        K, sphere = self.sphere_curvature, self.angle_axes
        out = []
        for slot, (i, j) in enumerate(pairs):
            if i in sphere and j in sphere:
                out.append((slot, slot, -K))
                out += [(slot, pairs.index((a, a)), K if a == i else K * g[:, i] / g[:, a])
                        for a in sphere if i == j]
        return out

    # ---- distance-like quantities --------------------------------------

    def b_value(self, points) -> np.ndarray:
        f = self.potential(points)
        return 2.0 * np.sqrt(np.maximum(f, 0.0))

    def grad_b_norm_sq(self, points) -> np.ndarray:
        """|grad b|^2 = |grad f|^2 / f, and 0 where f <= 0, where b is not
        differentiable; equals 1 on the Gaussian away from 0."""
        f = self.potential(points)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.grad_potential_norm_sq(points) / f
        return np.where(f > 0, val, 0.0)

    def sphere_embedding(self, points) -> np.ndarray:
        """Unit vectors in R^3 for the sphere factor; a flat model has none."""
        pts = self._pts(points)
        theta, phi = pts[:, self.n_euclidean], pts[:, self.n_euclidean + 1]
        sin_theta = np.sin(theta)
        return np.stack([np.cos(theta), sin_theta * np.cos(phi), sin_theta * np.sin(phi)], axis=1)

    def distance(self, points, base) -> np.ndarray:
        """Geodesic distance to one base point, shape (n,), in closed form."""
        pts = self._pts(points)
        basep = np.reshape(np.asarray(base, dtype=float), (1, -1))
        m = self.n_euclidean
        dt = np.linalg.norm(pts[:, :m] - basep[:, :m], axis=1)
        if not self.angle_axes:
            return dt
        u = self.sphere_embedding(pts)
        u0 = self.sphere_embedding(basep)
        cosang = np.clip(u @ u0[0], -1.0, 1.0)
        arc = self.sphere_radius * np.arccos(cosang)
        return np.hypot(dt, arc)

    def distance_b_gaps(self) -> tuple[float, float]:
        """The suprema of dist - b and b - dist, dist from `base_point`: 0 and 0
        on a flat model; pi r - sqrt(2k) and sqrt(2k) on R^m x S^2(r), reached
        at the base point's antipode and at the base point, where b = sqrt(2k)."""
        b_base = 2.0 * np.sqrt(self.f_offset)
        diameter = 0.0 if self.k is None else np.pi * self.sphere_radius
        return max(diameter - b_base, 0.0), b_base

    def describe(self) -> dict:
        """Plain-data description used by the JSON report schema."""
        return {
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "sphere_radius": self.sphere_radius,
            "f_offset": self.f_offset,
        }


def make_model(kind: str, n: int, k: Optional[int] = None) -> ModelShrinker:
    """Construct a model shrinker; `kinds.check_model` validates the parameters."""
    n, k = check_model(kind, n, k)
    return ModelShrinker(kind=kind, n=n, k=k)


def random_points(model: ModelShrinker, count: int, rng) -> np.ndarray:
    """Seeded sample of chart points away from the polar caps, |t_i| < 5."""
    m = model.n_euclidean
    pts = np.zeros((count, model.n))
    pts[:, :m] = rng.uniform(-5.0, 5.0, size=(count, m))
    if model.angle_axes:
        theta, phi = model.angle_axes
        pts[:, theta] = rng.uniform(0.15, np.pi - 0.15, size=count)
        pts[:, phi] = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return pts


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm residuals of the defining identities over a point sample."""

    soliton_residual: float
    trace_residual: float
    potential_residual: float
    gradb_excess: float
    tolerance: float

    def failures(self) -> list[str]:
        """The identities whose residual is not shown within tolerance (NaN is not)."""
        named = {"Ric + Hess_f - g/2": self.soliton_residual,
                 "Lap f + S - n/2": self.trace_residual,
                 "|grad f|^2 + S - f": self.potential_residual,
                 "|grad b| <= 1": self.gradb_excess}
        return [name for name, residual in named.items() if not residual <= self.tolerance]

    @property
    def passed(self) -> bool:
        return not self.failures()


def check_soliton_identities(model: ModelShrinker, sample_points) -> ResidualReport:
    """Evaluate the soliton, trace and potential identities at sample points.

    Residuals above SOLITON_TOL indicate a model-construction bug (or an
    intentionally perturbed model in tests).
    """
    pts = np.asarray(sample_points, dtype=float)
    model.validate_points(pts)
    if pts.shape[0] == 0:
        raise ModelError("empty sample set")

    g = model.metric_diag(pts)
    ginv = 1.0 / g
    hess = model.hess_potential_packed(pts)
    ric = model.ricci_packed(pts)
    S = model.scalar_curvature(pts)
    f = model.potential(pts)

    pairs = sym_pairs(model.n)
    half_g = np.zeros_like(hess)
    for slot, (i, j) in enumerate(pairs):
        if i == j:
            half_g[:, slot] = 0.5 * g[:, i]
    resid = ric + hess - half_g
    # pointwise tensor norm with metric contraction
    soliton = np.sqrt(np.sum(sym2_contraction_weights(ginv).T * resid**2, axis=1))

    rows, cols = np.array(pairs).T
    lap_f = np.sum(np.take(ginv, rows, axis=1) * hess * (rows == cols), axis=1)
    trace = np.abs(lap_f + S - model.n / 2.0)

    potential = np.abs(model.grad_potential_norm_sq(pts) + S - f)

    gradb_excess = np.maximum(np.sqrt(model.grad_b_norm_sq(pts)) - 1.0, 0.0)

    return ResidualReport(
        soliton_residual=float(np.max(soliton)),
        trace_residual=float(np.max(trace)),
        potential_residual=float(np.max(potential)),
        gradb_excess=float(np.max(gradb_excess)),
        tolerance=SOLITON_TOL,
    )
