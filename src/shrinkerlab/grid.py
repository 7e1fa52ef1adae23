"""Grids over truncated model domains and their weighted quadrature.

Grids are cell-centered tensor products in chart coordinates, truncated to
{b < R_max} and equipped with midpoint quadrature weights

    w_node = (volume element) * exp(-f) * prod(cell spacings).

Fields beyond the truncation radius are treated as zero; the quadrature error
this introduces is bounded by the Gaussian tail of the weight. Every model
has Euclidean axes over [-T, T], T = sqrt(R^2 - 4 f_offset) (R on a flat
model); a cylinder's S^2 factor adds its (theta, phi) chart without polar
caps of one cell (the omitted measure is `cap_fraction`). Each axis has one
boundary policy (`Axis.boundary`): DIRICHLET on Euclidean axes, ONESIDED on
the latitude, PERIODIC on the longitude.

The weighted inner product of a field rank is sum G x y over component-major
values, with the rank's Gram diagonal G (`Grid.gram`: the weights times the
metric contraction of the rank), kept once per grid. `Grid.inner` is its one
implementation: every norm, masked norm and the one adjointness probe
(`Operators.adjoint_gap`) read it, and the operators' weighted adjoints are
taken with respect to the same G; that probe's vectors are drawn here
(`Grid.probe`), standard normal in sqrt(G) x. The probe draws them on a
helper thread, one probe ahead of the operators it applies on the calling
thread, in the same order as a serial loop (u_1, v_1, u_2, ...), so every
draw from the run's generator is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import ModelShrinker, sym2_contraction_weights

# field ranks: values of shape (N,) for scalars, (components, N) otherwise
SCALAR = "scalar"
VECTOR = "vector"
SYM2 = "sym2tensor"

MIN_RESOLUTION = 16
MIN_TRUNCATION = 4.0
DEFAULT_NODE_CAP = 4_000_000

DIRICHLET = "dirichlet"
ONESIDED = "onesided"
PERIODIC = "periodic"


class GridError(ValueError):
    """Invalid grid parameters or mismatched grid operations."""


@dataclass(frozen=True)
class Axis:
    coords: np.ndarray
    h: float
    boundary: str

    @property
    def size(self) -> int:
        return len(self.coords)


@dataclass
class Grid:
    """Masked tensor-product grid; immutable after construction by convention."""

    model: ModelShrinker
    axes: list[Axis]
    truncation_radius: float
    stencil_order: int
    coords: np.ndarray = field(repr=False)
    node_index: np.ndarray = field(repr=False)
    node_multi: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._cache: dict = {}

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def spacing(self) -> np.ndarray:
        return np.array([ax.h for ax in self.axes])

    @property
    def max_spacing(self) -> float:
        return float(np.max(self.spacing))

    @property
    def stencil_tol(self) -> float:
        """The stencil-order floor 10 h^order: a discrete residual of an identity
        that holds exactly on the continuum counts as zero at or below it."""
        return 10.0 * self.max_spacing ** self.stencil_order

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # geometry arrays over nodes
    @property
    def f(self) -> np.ndarray:
        return self._cached("f", lambda: self.model.potential(self.coords))

    @property
    def b(self) -> np.ndarray:
        return self._cached("b", lambda: self.model.b_value(self.coords))

    @property
    def metric_diag(self) -> np.ndarray:
        return self._cached("g", lambda: self.model.metric_diag(self.coords))

    @property
    def inv_metric_diag(self) -> np.ndarray:
        return self._cached("ginv", lambda: 1.0 / self.metric_diag)

    @property
    def volume_element(self) -> np.ndarray:
        return self._cached("vol", lambda: self.model.volume_element(self.coords))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def unweighted_volumes(self) -> np.ndarray:
        return self._cached("uvol", lambda: self.volume_element * self.cell_volume)

    @property
    def weights(self) -> np.ndarray:
        return self._cached("w", lambda: self.unweighted_volumes * np.exp(-self.f))

    @property
    def christoffels(self) -> dict:
        return self._cached("gamma", lambda: self.model.christoffels(self.coords))

    def gram(self, rank: str) -> np.ndarray:
        """The Gram diagonal G of `rank`, shaped as a field's values and built on
        first use: the weights w for scalars, w g_cc for vector component c and
        w mult g^{ii} g^{jj} for the packed sym2 slot (i, j)."""

        def build():
            w = self.weights
            if rank == SCALAR:
                return w
            if rank == VECTOR:
                return np.stack([w * g for g in self.metric_diag.T])
            if rank == SYM2:
                gram = sym2_contraction_weights(self.inv_metric_diag)
                gram *= w
                return gram
            raise GridError(f"unknown rank {rank!r}")

        return self._cached(("gram", rank), build)

    def inner(self, rank: str, x: np.ndarray, y: np.ndarray,
              mask: np.ndarray | None = None) -> float:
        """The weighted inner product sum G x y of two component-major arrays of
        `rank`, flat or shaped as a field's values, over the nodes of `mask`
        (all when None). It is summed one component at a time, each product
        g * a * b formed in one node array that every component reuses."""
        N = self.n_nodes
        term = np.empty(N)
        total = 0.0
        for g, a, b in zip(self.gram(rank).reshape(-1, N), np.reshape(x, (-1, N)),
                           np.reshape(y, (-1, N))):
            np.multiply(g, a, out=term)
            term *= b
            total += np.sum(term if mask is None else term[mask])
        return float(total)

    def probe(self, rank: str, rng, out: np.ndarray) -> None:
        """Fill the flat array `out` with a probe of `rank` for
        `Operators.adjoint_gap`: standard normal in sqrt(G) x, so a break in a
        row of weight 1e-12 shows as plainly as one at the centre.

        `adjoint_gap` calls it on a helper thread, one probe ahead of its own
        work, after building the Gram diagonal: the call only reads the grid
        and writes `out`."""
        gram = self.gram(rank)
        rng.standard_normal(out=out)
        for xc, gc in zip(out.reshape(-1, self.n_nodes), gram.reshape(-1, self.n_nodes)):
            xc /= np.sqrt(gc)

    def b_spacing(self) -> float:
        """Grid spacing as seen by the radial coordinate b (Euclidean axes only)."""
        return max(self.axes[a].h for a in range(self.model.n_euclidean))

    def interior_mask(self, applications: int = 4) -> np.ndarray:
        """Nodes outside the truncation collar of composed-stencil reach.

        Zero-extension makes the outermost rows of a composed operator pure
        extension artifacts; residual checks on globally supported fields are
        measured away from that collar (`applications` chained derivatives).
        """
        reach = 2 if self.stencil_order == 2 else 3
        collar = (applications * reach + 1) * self.b_spacing()
        return self.b < self.truncation_radius - collar

    def neighbors(self, axis: int, offset: int) -> np.ndarray:
        """Node id of the neighbor shifted by `offset` along `axis` (-1 if absent).

        One flat gather: each node's linear index in the box, shifted by
        `offset` times the axis's stride, read from `node_index`. Not cached:
        the difference matrices read each offset once, when they are built."""
        shape = self.node_index.shape
        stride = math.prod(shape[axis + 1:])
        linear = np.ravel_multi_index(tuple(self.node_multi.T), shape)
        pos = self.node_multi[:, axis]
        col = pos + offset
        ids = self.node_index.ravel()
        if self.axes[axis].boundary == PERIODIC:
            return ids[linear + (col % shape[axis] - pos) * stride]
        ok = (col >= 0) & (col < shape[axis])
        out = np.full(self.n_nodes, -1, dtype=np.int64)
        out[ok] = ids[linear[ok] + offset * stride]
        return out

    def ops(self):
        """Cached operator factory for this grid (see shrinkerlab.operators)."""
        from .operators import Operators

        return self._cached("ops", lambda: Operators(self))


@dataclass(frozen=True)
class WeightedMeasure:
    """Per-node quadrature weights for the e^{-f}-weighted inner product."""

    node_weights: np.ndarray
    total_mass: float
    cap_fraction: float = 0.0

    def __post_init__(self):
        if np.any(self.node_weights <= 0):
            raise GridError("quadrature weights must be positive")


def build_grid(
    model: ModelShrinker,
    resolution: int,
    truncation_radius: float = 8.0,
    stencil_order: int = 2,
) -> tuple[Grid, WeightedMeasure]:
    """Build the truncated grid and its weighted quadrature measure.

    `resolution` is the node count along each Euclidean axis; on a sphere
    factor the angular resolutions are derived so metric spacings are
    comparable. A box of more than DEFAULT_NODE_CAP nodes is refused.
    """
    if stencil_order not in (2, 4):
        raise GridError("stencil_order must be 2 or 4")
    if resolution < MIN_RESOLUTION:
        raise GridError(f"resolution below minimum ({MIN_RESOLUTION})")
    if not MIN_TRUNCATION <= truncation_radius < np.inf:  # NaN fails it too
        raise GridError(f"truncation_radius must be finite and >= {MIN_TRUNCATION}")

    R = float(truncation_radius)
    try:
        span = R**2 - 4.0 * model.f_offset
    except OverflowError:  # R**2 is above the largest float
        raise GridError(f"truncation_radius {R:g} is too large") from None
    if span <= 0:
        raise GridError("truncation_radius too small for the potential offset")
    T = np.sqrt(span)
    h_t = 2.0 * T / resolution
    # each axis's cells lo..hi-1 of spacing h from `start`, and its boundary
    cells = [(-T, 0, resolution, h_t, DIRICHLET)] * model.n_euclidean
    cap_fraction = 0.0
    if model.angle_axes:
        r_sph = model.sphere_radius
        m_theta = max(MIN_RESOLUTION, int(np.ceil(np.pi * r_sph / h_t)))
        m_phi = max(MIN_RESOLUTION, int(np.ceil(2.0 * np.pi * r_sph / h_t)))
        h_theta = np.pi / m_theta
        # polar caps of one grid cell are excluded: the first and last latitude
        cells += [(0.0, 1, m_theta - 1, h_theta, ONESIDED),
                  (0.0, 0, m_phi, 2.0 * np.pi / m_phi, PERIODIC)]
        cap_fraction = 1.0 - np.cos(h_theta)  # omitted sphere-area fraction, both caps

    # counted exactly (a product of int64 wraps around), and before any
    # coordinate array is made
    shape = tuple(hi - lo for _, lo, hi, _, _ in cells)
    total = math.prod(shape)
    if total > DEFAULT_NODE_CAP:
        raise GridError(f"grid would allocate {total} nodes, above the cap {DEFAULT_NODE_CAP}")
    axes = [Axis(coords=start + (np.arange(lo, hi) + 0.5) * h, h=h, boundary=boundary)
            for start, lo, hi, h, boundary in cells]

    mesh = np.meshgrid(*[ax.coords for ax in axes], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    b = model.b_value(pts)
    mask_flat = b < R
    mask = mask_flat.reshape(shape)

    node_index = -np.ones(shape, dtype=np.int64)
    node_index[mask] = np.arange(int(mask.sum()))
    node_multi = np.argwhere(mask)
    coords = pts[mask_flat]

    grid = Grid(
        model=model,
        axes=axes,
        truncation_radius=R,
        stencil_order=stencil_order,
        coords=coords,
        node_index=node_index,
        node_multi=node_multi,
    )
    measure = WeightedMeasure(
        node_weights=grid.weights,
        total_mass=float(np.sum(grid.weights)),
        cap_fraction=cap_fraction,
    )
    return grid, measure
