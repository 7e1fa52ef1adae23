"""Discrete weighted operators with exact adjointness by construction.

Building blocks
---------------
Every operator is assembled from one-dimensional difference matrices taken in
a half-density weighting: with E = diag(exp(-f/2)),

    D_a = E^{-1} C_a E + diag(d_a f / 2),

where C_a is a sublattice-coupling biased difference along axis a (one-sided
near the chart's polar caps, periodic on the longitude axis, zero-extension at
the truncation boundary). This is consistent of stencil order for any smooth
field, equidistributes the truncation error in the weighted norm, and keeps
zero-extension defects at the truncation boundary suppressed by the weight.
It is the derivative analogue of the ground-state transform that maps the
drift Laplacian to a Schroedinger operator. Two prices are paid knowingly: no
field, not even an affine one, is differentiated exactly (sampled Killing
fields are annihilated to stencil order rather than to round-off), and the
stencils are asymmetric (symmetry of the assembled operators comes from the
adjoint construction, never from stencil symmetry).

Adjointness
-----------
The weighted divergence on symmetric two-tensors is *defined* as the matrix
adjoint of the symmetrized-derivative operator with respect to the quadrature
inner products, so

    <div_f^* V, h> = <V, div_f h>

holds to machine precision and P = div_f o div_f^* is symmetric positive
semidefinite by construction. The continuum divergence formula is kept as a
separate reference discretization used only in convergence tests.

Drift Laplacians on all ranks are defined as -(covariant derivative)^adj o
(covariant derivative), hence exactly symmetric and negative semidefinite in
the weighted inner product. Curvature terms are not folded into the rough
Laplacian; the tensor operator L adds the pointwise action 2 R(h) explicitly.

Application
-----------
Every first-order operator is one term list over the per-axis difference
matrices D_a (`FirstOrder`): out[o] += left D_a(right x[i]), plus pointwise
couplings out[o] += c x[i]. The gradient, div_f^*, the covariant derivatives
of vectors and sym2 tensors are each defined once that way, and so is the
curvature action R, with couplings only. A term list is applied with one
sparse matvec per derivative term, and its transpose through D_a^T, a CSC
view of the stored CSR matrix. (A multi-column pass per axis is no faster:
scipy's CSR kernel costs the same per column, and the block adds strided
copies.) A weighted adjoint (`WeightedAdjoint`) is (1/G_in) M^T G_out over a
term list M, with the Gram diagonals G.

Each `OperatorKind` is defined once, in one table (`Operators._chains`), as
a sum of coef * chain terms whose factors, named there and built on the
first use of a kind that needs them, are term lists and weighted
adjoints: P = div_f o div_f^*, the drift Laplacians -nabla^adj o nabla,
L = L_drift + 2R, and the Hessian -div_f^* o grad, as
(1/2) L_{grad u} g. `Operators.matvec` folds each chain right to left
through its factors' `apply`, so a suite holds no sparse matrix but the
D_a. `Operators.assemble` multiplies the same factors' matrices, for what
needs entries (the eigensolvers' factor K of P, built from div_f^*'s
matrix, or a diagonal); the suite keeps none of them. A test pins the
factored application to the assembled matrices.

Sign conventions: the drift Laplacian satisfies L x_1 = -x_1/2 on the Gaussian
model (drift term -<grad f, grad .>), pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fields import SCALAR, SYM2, VECTOR, Field, FieldError, _sym2_contraction
from .grid import DIRICHLET, ONESIDED, Grid, GridError
from .models import sym_pairs


class OperatorKind(str, Enum):
    DIV_F_STAR = "DivFStar"
    DIV_F_VEC = "DivFVec"
    DIV_F_TENSOR = "DivFTensor"
    DRIFT_LAPLACIAN_SCALAR = "DriftLaplacian(scalar)"
    DRIFT_LAPLACIAN_VECTOR = "DriftLaplacian(vector)"
    DRIFT_LAPLACIAN_SYM2 = "DriftLaplacian(sym2tensor)"
    OP_P = "OpP"
    OP_L = "OpL"
    GRADIENT = "Gradient"
    HESSIAN = "Hessian"


_KIND_RANKS = {
    OperatorKind.DIV_F_STAR: (VECTOR, SYM2),
    OperatorKind.DIV_F_VEC: (VECTOR, SCALAR),
    OperatorKind.DIV_F_TENSOR: (SYM2, VECTOR),
    OperatorKind.DRIFT_LAPLACIAN_SCALAR: (SCALAR, SCALAR),
    OperatorKind.DRIFT_LAPLACIAN_VECTOR: (VECTOR, VECTOR),
    OperatorKind.DRIFT_LAPLACIAN_SYM2: (SYM2, SYM2),
    OperatorKind.OP_P: (VECTOR, VECTOR),
    OperatorKind.OP_L: (SYM2, SYM2),
    OperatorKind.GRADIENT: (SCALAR, VECTOR),
    OperatorKind.HESSIAN: (SCALAR, SYM2),
}


class OperatorHandle:
    """A named operator between field component spaces, on one suite's grid.

    `apply` goes through the operator's first-order factors
    (`Operators.matvec`). `matrix`, for what needs entries (a test oracle, a
    diagonal), is assembled on each read and not kept.
    """

    def __init__(self, kind: OperatorKind, ops: Operators):
        self.kind = kind
        self.grid = ops.grid
        self._ops = ops

    @property
    def matrix(self) -> sp.csr_matrix:
        return self._ops.assemble(self.kind)

    @property
    def in_rank(self) -> str:
        return _KIND_RANKS[self.kind][0]

    @property
    def out_rank(self) -> str:
        return _KIND_RANKS[self.kind][1]

    def apply(self, field: Field) -> Field:
        if field.grid is not self.grid:
            raise GridError("field lives on a different grid")
        if field.rank != self.in_rank:
            raise FieldError(f"{self.kind.value} expects a {self.in_rank} field")
        return Field.from_flat(self.grid, self.out_rank, self._ops.matvec(self.kind, field.flat()))


# Interior stencils over (offset, coefficient * h). Both couple the even and
# odd sublattices (nonzero response on the (-1)^i mode), which pushes the
# checkerboard null modes of pure central differencing to the top of the
# spectrum of any D^adj D composition instead of polluting its low end.
_STENCIL_2 = (  # O(h^2), error coefficient 1.5x plain central
    (-1, -7.0 / 12.0),
    (0, 3.0 / 12.0),
    (1, 3.0 / 12.0),
    (2, 1.0 / 12.0),
)
_SIGMA_4 = 1.0 / 20.0
_STENCIL_4 = (  # 4th-order central plus a 5th-difference coupling term, O(h^4)
    (-2, 1.0 / 12.0 + _SIGMA_4),
    (-1, -8.0 / 12.0 - 5.0 * _SIGMA_4),
    (0, 10.0 * _SIGMA_4),
    (1, 8.0 / 12.0 - 10.0 * _SIGMA_4),
    (2, -1.0 / 12.0 + 5.0 * _SIGMA_4),
    (3, -_SIGMA_4),
)


def _raw_diff_matrix(grid: Grid, axis: int) -> sp.csr_matrix:
    """Finite difference along one axis with the grid's boundary policy."""
    N = grid.n_nodes
    h = grid.axes[axis].h
    policy = grid.axes[axis].boundary
    ids = np.arange(N, dtype=np.int64)
    stencil = _STENCIL_2 if grid.stencil_order == 2 else _STENCIL_4
    nbrs = {off: (ids if off == 0 else grid.neighbors(axis, off)) for off, _ in stencil}
    for off in (-2, -1, 1, 2):
        nbrs.setdefault(off, grid.neighbors(axis, off))
    rows, cols, vals = [], [], []

    def add(mask, col_ids, coeff):
        idx = np.where(mask)[0]
        rows.append(ids[idx])
        cols.append(col_ids[idx])
        vals.append(np.full(len(idx), coeff))

    full = np.ones(N, dtype=bool)
    for off, _ in stencil:
        full &= nbrs[off] >= 0
    for off, c in stencil:
        add(full, nbrs[off], c / h)

    rest = ~full
    if policy == DIRICHLET:
        # zero-extension: keep whichever stencil terms exist
        for off, c in stencil:
            if off == 0:
                add(rest, ids, c / h)
            else:
                add(rest & (nbrs[off] >= 0), nbrs[off], c / h)
    elif policy == ONESIDED:
        p1, m1 = nbrs[1], nbrs[-1]
        p2, m2 = nbrs[2], nbrs[-2]
        central = rest & (p1 >= 0) & (m1 >= 0)
        add(central, p1, 0.5 / h)
        add(central, m1, -0.5 / h)
        rest = rest & ~central
        fwd = rest & (m1 < 0) & (p1 >= 0)
        fwd2 = fwd & (p2 >= 0)
        add(fwd2, ids, -1.5 / h)
        add(fwd2, p1, 2.0 / h)
        add(fwd2, p2, -0.5 / h)
        fwd1 = fwd & (p2 < 0)
        add(fwd1, ids, -1.0 / h)
        add(fwd1, p1, 1.0 / h)
        bwd = rest & (p1 < 0) & (m1 >= 0)
        bwd2 = bwd & (m2 >= 0)
        add(bwd2, ids, 1.5 / h)
        add(bwd2, m1, -2.0 / h)
        add(bwd2, m2, 0.5 / h)
        bwd1 = bwd & (m2 < 0)
        add(bwd1, ids, 1.0 / h)
        add(bwd1, m1, -1.0 / h)
    else:
        raise GridError(f"unknown boundary policy {policy!r}")

    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0)
    return sp.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()


def _diag(values: np.ndarray) -> sp.csr_matrix:
    return sp.diags(values).tocsr()


def _scaled(factor, x: np.ndarray) -> np.ndarray:
    return x if factor is None else factor * x


def _at(factor, idx: np.ndarray):
    """A per-node factor (or a constant) read at the nodes `idx`."""
    return factor if np.ndim(factor) == 0 else factor[idx]


class FirstOrder:
    """A first-order operator between component-major flat vectors, as a term
    list over the per-axis difference matrices `diffs`:

        out[o] += left * D_a(right * x[i])    for (o, i, a, left, right) in derivs
        out[o] += coef * x[i]                 for (o, i, coef) in points

    `left` and `right` are per-node arrays, constants, or None (one); `coef`
    is a per-node array or a constant.
    """

    def __init__(self, diffs: list[sp.csr_matrix], n_in: int, n_out: int):
        self.diffs = diffs
        self.n_in = n_in
        self.n_out = n_out
        self.derivs: list[tuple] = []
        self.points: list[tuple] = []

    def derive(self, o: int, i: int, axis: int, left=None, right=None) -> None:
        self.derivs.append((o, i, axis, left, right))

    def couple(self, o: int, i: int, coef: np.ndarray | float) -> None:
        self.points.append((o, i, coef))

    def apply(self, x: np.ndarray) -> np.ndarray:
        N = self.diffs[0].shape[0]
        x = x.reshape(self.n_in, N)
        out = np.zeros((self.n_out, N))
        for o, i, a, left, right in self.derivs:
            out[o] += _scaled(left, self.diffs[a] @ _scaled(right, x[i]))
        for o, i, coef in self.points:
            out[o] += coef * x[i]
        return out.ravel()

    def rapply(self, y: np.ndarray) -> np.ndarray:
        """The matrix transpose, through D_a^T: a CSC view, nothing stored."""
        N = self.diffs[0].shape[0]
        y = y.reshape(self.n_out, N)
        out = np.zeros((self.n_in, N))
        for o, i, a, left, right in self.derivs:
            out[i] += _scaled(right, self.diffs[a].T @ _scaled(left, y[o]))
        for o, i, coef in self.points:
            out[i] += coef * y[o]
        return out.ravel()

    def assemble(self) -> sp.csr_matrix:
        """The operator's matrix, from one COO pass over every term."""
        N = self.diffs[0].shape[0]
        shape = (self.n_out * N, self.n_in * N)
        if not self.derivs and not self.points:
            return sp.csr_matrix(shape)
        ids = np.arange(N)
        coos = [D.tocoo() for D in self.diffs]
        rows, cols, vals = [], [], []
        for o, i, a, left, right in self.derivs:
            d = coos[a]
            v = d.data if left is None else _at(left, d.row) * d.data
            rows.append(o * N + d.row)
            cols.append(i * N + d.col)
            vals.append(v if right is None else v * _at(right, d.col))
        for o, i, coef in self.points:
            rows.append(o * N + ids)
            cols.append(i * N + ids)
            vals.append(np.broadcast_to(coef, ids.shape))
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
        ).tocsr()


class WeightedAdjoint:
    """The adjoint (1/G_in) M^T G_out of a term list M with respect to the
    Gram diagonals of its input (G_in) and output (G_out) spaces."""

    def __init__(self, op: FirstOrder, gram_out: np.ndarray, gram_in: np.ndarray):
        self.op = op
        self.gram_out = gram_out
        self.gram_in = gram_in

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Through the transposed term list: neither M nor its adjoint is built."""
        return (1.0 / self.gram_in) * self.op.rapply(self.gram_out * y)

    def assemble(self) -> sp.csr_matrix:
        mat = self.op.assemble()
        return (_diag(1.0 / self.gram_in) @ mat.T.tocsr() @ _diag(self.gram_out)).tocsr()


class Operators:
    """Operator suite for one grid. Every kind is a sum of chains of term
    lists over the difference matrices `diffs` and their weighted adjoints
    (`_chains`), applied factor by factor by `matvec`; `assemble` builds a
    kind's matrix, which the suite does not keep."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.n = grid.n
        self.pairs = sym_pairs(self.n)
        self._gamma = grid.christoffels

    # ---- one-dimensional building blocks --------------------------------

    @cached_property
    def diffs(self) -> list[sp.csr_matrix]:
        """Half-density-weighted first derivatives along each axis."""
        f = self.grid.f
        df = self.grid.model.dpotential(self.grid.coords)
        out = []
        for a in range(self.n):
            raw = _raw_diff_matrix(self.grid, a).tocoo()
            vals = raw.data * np.exp((f[raw.row] - f[raw.col]) / 2.0)
            conj = sp.coo_matrix((vals, (raw.row, raw.col)), shape=raw.shape).tocsr()
            out.append(conj + _diag(df[:, a] / 2.0))
        return out

    def _christoffel(self, l: int, i: int, j: int):
        return self._gamma.get((l, min(i, j), max(i, j)))

    def _slot(self, i: int, j: int) -> int:
        """The packed sym2 slot of the index pair (i, j)."""
        return self.pairs.index((min(i, j), max(i, j)))

    # ---- Gram diagonals ---------------------------------------------------

    @cached_property
    def gram_scalar(self) -> np.ndarray:
        return self.grid.weights

    @cached_property
    def gram_vector(self) -> np.ndarray:
        w = self.grid.weights
        g = self.grid.metric_diag
        return np.concatenate([w * g[:, c] for c in range(self.n)])

    @cached_property
    def gram_sym2(self) -> np.ndarray:
        # the per-node weights of the packed contraction that `Field.contract` uses
        return (self.grid.weights[:, None] * _sym2_contraction(self.grid)).T.ravel()

    def gram(self, rank: str) -> np.ndarray:
        return {SCALAR: self.gram_scalar, VECTOR: self.gram_vector, SYM2: self.gram_sym2}[rank]

    def _gram_cov(self, gram: np.ndarray) -> np.ndarray:
        """Gram of a covariant derivative's components (a, c): g^{aa} times `gram`'s."""
        ginv = self.grid.inv_metric_diag.T
        return (ginv[:, None, :] * gram.reshape(1, -1, self.grid.n_nodes)).ravel()

    # ---- first-order operators: term lists --------------------------------

    @cached_property
    def _gradient_terms(self) -> FirstOrder:
        """Scalar -> contravariant vector, (grad u)^c = g^{cc} D_c u."""
        ginv = self.grid.inv_metric_diag
        op = FirstOrder(self.diffs, 1, self.n)
        for c in range(self.n):
            op.derive(c, 0, c, left=ginv[:, c])
        return op

    @cached_property
    def _div_f_star_terms(self) -> FirstOrder:
        """Vector -> packed sym2: minus half the symmetrized covariant derivative."""
        g = self.grid.metric_diag
        op = FirstOrder(self.diffs, self.n, len(self.pairs))
        for slot, (i, j) in enumerate(self.pairs):
            if i == j:
                op.derive(slot, i, i, left=-1.0, right=g[:, i])
            else:
                op.derive(slot, j, i, left=-0.5, right=g[:, j])
                op.derive(slot, i, j, left=-0.5, right=g[:, i])
            for l in range(self.n):
                gamma = self._christoffel(l, i, j)
                if gamma is not None:
                    op.couple(slot, l, gamma * g[:, l])
        return op

    @cached_property
    def _cov_vector_terms(self) -> FirstOrder:
        """Full covariant derivative of a vector field, components (a, j)."""
        op = FirstOrder(self.diffs, self.n, self.n * self.n)
        for a in range(self.n):
            for j in range(self.n):
                op.derive(a * self.n + j, j, a)
                for l in range(self.n):
                    gamma = self._christoffel(j, a, l)
                    if gamma is not None:
                        op.couple(a * self.n + j, l, gamma)
        return op

    @cached_property
    def _cov_sym2_terms(self) -> FirstOrder:
        """Full covariant derivative of a packed sym2 field, components (a, pair)."""
        npairs = len(self.pairs)
        op = FirstOrder(self.diffs, npairs, self.n * npairs)
        for a in range(self.n):
            for s, (i, j) in enumerate(self.pairs):
                out = a * npairs + s
                op.derive(out, s, a)
                for l in range(self.n):
                    gamma_i = self._christoffel(l, a, i)
                    if gamma_i is not None:
                        op.couple(out, self._slot(l, j), -gamma_i)
                    gamma_j = self._christoffel(l, a, j)
                    if gamma_j is not None:
                        op.couple(out, self._slot(i, l), -gamma_j)
        return op

    @cached_property
    def riemann_block(self) -> FirstOrder:
        """Pointwise curvature action h -> R(h) on packed sym2 fields: couplings only."""
        npairs = len(self.pairs)
        op = FirstOrder(self.diffs, npairs, npairs)
        model = self.grid.model
        if model.kind == "gaussian":
            return op
        K = 1.0 / model.sphere_radius**2
        g = self.grid.metric_diag
        sphere = set(model.angle_axes)
        for slot, (i, j) in enumerate(self.pairs):
            if i not in sphere or j not in sphere:
                continue
            op.couple(slot, slot, -K)
            if i == j:
                for a in sphere:
                    op.couple(slot, self._slot(a, a), K if a == i else K * g[:, i] / g[:, a])
        return op

    # ---- weighted adjoints of the term lists -------------------------------

    @cached_property
    def _div_vec(self) -> WeightedAdjoint:
        return WeightedAdjoint(self._gradient_terms, self.gram_vector, self.gram_scalar)

    @cached_property
    def _div_tensor(self) -> WeightedAdjoint:
        return WeightedAdjoint(self._div_f_star_terms, self.gram_sym2, self.gram_vector)

    @cached_property
    def _cov_vector_adj(self) -> WeightedAdjoint:
        gram = self.gram_vector
        return WeightedAdjoint(self._cov_vector_terms, self._gram_cov(gram), gram)

    @cached_property
    def _cov_sym2_adj(self) -> WeightedAdjoint:
        gram = self.gram_sym2
        return WeightedAdjoint(self._cov_sym2_terms, self._gram_cov(gram), gram)

    # ---- every kind, once: sums of coef * chain ----------------------------

    # Each kind as a list of (coef, chain) terms; a chain names its factors,
    # which act right to left. `matvec` and `assemble` both read this table
    # through `_terms`, so a factor is built on the first use of a kind that
    # needs it: P alone builds no sym2 derivative and no curvature action.
    _chains = {
        OperatorKind.GRADIENT: [(1.0, ("_gradient_terms",))],
        OperatorKind.DIV_F_STAR: [(1.0, ("_div_f_star_terms",))],
        # the weighted divergence on vectors, the negative adjoint of the gradient
        OperatorKind.DIV_F_VEC: [(-1.0, ("_div_vec",))],
        OperatorKind.DIV_F_TENSOR: [(1.0, ("_div_tensor",))],
        OperatorKind.OP_P: [(1.0, ("_div_tensor", "_div_f_star_terms"))],
        OperatorKind.DRIFT_LAPLACIAN_SCALAR: [(-1.0, ("_div_vec", "_gradient_terms"))],
        OperatorKind.DRIFT_LAPLACIAN_VECTOR: [(-1.0, ("_cov_vector_adj", "_cov_vector_terms"))],
        OperatorKind.DRIFT_LAPLACIAN_SYM2: [(-1.0, ("_cov_sym2_adj", "_cov_sym2_terms"))],
        OperatorKind.OP_L: [(-1.0, ("_cov_sym2_adj", "_cov_sym2_terms")),
                            (2.0, ("riemann_block",))],
        # Hess u = (1/2) L_{grad u} g = -div_f^* grad u, as g_jj (grad u)^j = D_j u
        OperatorKind.HESSIAN: [(-1.0, ("_div_f_star_terms", "_gradient_terms"))],
    }

    def _terms(self, kind: OperatorKind) -> list[tuple]:
        """`kind`'s (coef, chain) terms, each factor name resolved on the suite."""
        return [(coef, [getattr(self, name) for name in chain])
                for coef, chain in self._chains[kind]]

    def matvec(self, kind: OperatorKind, x: np.ndarray) -> np.ndarray:
        """`kind` applied to a flat component vector, each chain folded right
        to left through its factors; no matrix is assembled."""
        total = None
        for coef, chain in self._terms(kind):
            y = x
            for factor in reversed(chain):
                y = factor.apply(y)
            term = y if coef == 1.0 else coef * y
            total = term if total is None else total + term
        return total

    def assemble(self, kind: OperatorKind) -> sp.csr_matrix:
        """`kind`'s matrix: the product of each chain's factor matrices,
        scaled and summed."""
        total = None
        for coef, chain in self._terms(kind):
            product = None
            for factor in reversed(chain):
                mat = factor.assemble()
                product = mat if product is None else mat @ product
            term = product if coef == 1.0 else coef * product
            total = term if total is None else total + term
        return total.tocsr()

    # ---- reference (non-adjoint) divergence, used in convergence tests ----

    @cached_property
    def div_f_tensor_reference(self) -> FirstOrder:
        """Direct discretization of (div_f h)^j = g^{jj}(g^{ii} nabla_i h_ij - h(grad f)_j).

        Independent of the adjoint construction; the two must agree to stencil
        order on smooth interior-supported tensors.
        """
        ginv = self.grid.inv_metric_diag
        df = self.grid.model.dpotential(self.grid.coords)
        op = FirstOrder(self.diffs, len(self.pairs), self.n)
        for jout in range(self.n):
            for i in range(self.n):
                # g^{ii} nabla_i h_{i jout}
                gg = ginv[:, i] * ginv[:, jout]
                op.derive(jout, self._slot(i, jout), i, left=gg)
                for l in range(self.n):
                    gamma_i = self._christoffel(l, i, i)
                    if gamma_i is not None:
                        op.couple(jout, self._slot(l, jout), -gg * gamma_i)
                    gamma_j = self._christoffel(l, i, jout)
                    if gamma_j is not None:
                        op.couple(jout, self._slot(i, l), -gg * gamma_j)
            # - h(grad f)^jout = - g^{jout jout} h_{jout l} g^{ll} d_l f
            for l in range(self.n):
                op.couple(jout, self._slot(l, jout), -ginv[:, jout] * ginv[:, l] * df[:, l])
        return op

    def grad_norm_sq(self, Y: Field) -> np.ndarray:
        """Per-node |nabla Y|^2_g = sum_{a,j} g^{aa} g_jj (nabla_a Y^j)^2 of a vector field."""
        if Y.grid is not self.grid or Y.rank != VECTOR:
            raise FieldError("grad_norm_sq expects a vector field on this grid")
        n, N = self.n, self.grid.n_nodes
        cov = self._cov_vector_terms.apply(Y.flat()).reshape(n * n, N)
        ginv = self.grid.inv_metric_diag
        g = self.grid.metric_diag
        out = np.zeros(N)
        for a in range(n):
            for j in range(n):
                out += ginv[:, a] * g[:, j] * cov[a * n + j] ** 2
        return out

    def stored_matrices(self) -> dict[str, int]:
        """nnz of each sparse matrix (or list of them) the suite holds, by name."""
        held = {}
        for name, val in self.__dict__.items():
            mats = val if isinstance(val, list) else [val]
            if mats and all(sp.issparse(m) for m in mats):
                held[name] = sum(m.nnz for m in mats)
        return held

    # ---- field-level conveniences -----------------------------------------

    def handle(self, kind: OperatorKind) -> OperatorHandle:
        return OperatorHandle(kind, self)

    def apply(self, kind: OperatorKind, field: Field) -> Field:
        return self.handle(kind).apply(field)

    def div_star(self, Y: Field) -> Field:
        return self.apply(OperatorKind.DIV_F_STAR, Y)

    def div(self, field: Field) -> Field:
        if field.rank == VECTOR:
            return self.apply(OperatorKind.DIV_F_VEC, field)
        if field.rank == SYM2:
            return self.apply(OperatorKind.DIV_F_TENSOR, field)
        raise FieldError("div_f acts on vector or sym2tensor fields")

    def grad(self, u: Field) -> Field:
        return self.apply(OperatorKind.GRADIENT, u)

    def hess(self, u: Field) -> Field:
        return self.apply(OperatorKind.HESSIAN, u)

    def lap(self, field: Field) -> Field:
        kind = {
            SCALAR: OperatorKind.DRIFT_LAPLACIAN_SCALAR,
            VECTOR: OperatorKind.DRIFT_LAPLACIAN_VECTOR,
            SYM2: OperatorKind.DRIFT_LAPLACIAN_SYM2,
        }[field.rank]
        return self.apply(kind, field)

    def p_apply(self, Y: Field) -> Field:
        return self.apply(OperatorKind.OP_P, Y)

    def l_apply(self, h: Field) -> Field:
        return self.apply(OperatorKind.OP_L, h)

    def lie_derivative_metric(self, Y: Field) -> Field:
        """L_Y g = -2 div_f^* Y."""
        return self.div_star(Y) * (-2.0)

    def rayleigh_p(self, Y: Field) -> float:
        """<Y, P Y> / <Y, Y> = |div_f^* Y|^2 / |Y|^2, exact in the discrete product."""
        num = self.div_star(Y)
        den = Y.inner(Y)
        if den <= 0:
            raise FieldError("Rayleigh quotient of the zero field")
        return num.inner(num) / den


@dataclass(frozen=True)
class IdentityReport:
    """Relative weighted residuals of the first-order commutation identities."""

    residuals: dict
    resolution: int
    stencil_order: int
    boundary_warning: bool

    def to_rows(self) -> list[dict]:
        return [
            {
                "identity_name": name,
                "residual": float(val),
                "resolution": self.resolution,
                "stencil_order": self.stencil_order,
            }
            for name, val in self.residuals.items()
        ]


def _relative(diff: Field, *references: Field) -> float:
    den = max((r.norm() for r in references), default=0.0)
    if den == 0.0:
        return 0.0
    return diff.norm() / den


def identity_residuals(Y: Field) -> IdentityReport:
    """Residuals of the four commutation identities tying div_f, P, L together.

    The identities hold exactly on the continuum model; for smooth fields
    supported away from the truncation boundary the discrete residuals decay
    at stencil order under refinement.
    """
    grid = Y.grid
    ops = grid.ops()
    kappa = grid.model.kappa

    margin = 4.0 * (grid.stencil_order // 2) * grid.max_spacing
    near_boundary = grid.b >= grid.truncation_radius - margin
    scale = float(np.max(np.abs(Y.values))) if Y.values.size else 0.0
    boundary_warning = bool(
        np.any(near_boundary)
        and scale > 0
        and np.max(np.abs(Y.values[near_boundary])) > 1e-13 * scale
    )

    v = ops.div(Y)
    py = ops.p_apply(Y)
    divstar = ops.div_star(Y)

    lhs1 = ops.lap(v) + v * kappa
    rhs1 = ops.div(py) * (-1.0)
    grad_v = ops.grad(v)
    lhs2 = ops.lap(grad_v)
    rhs2 = ops.grad(ops.div(py)) * (-1.0)
    lhs3 = py * (-2.0)
    rhs3 = grad_v + ops.lap(Y) + Y * kappa
    lhs4 = ops.l_apply(divstar)
    rhs4 = ops.div_star(ops.lap(Y) + Y * kappa)

    residuals = {
        "drift_eigen_of_divergence": _relative(lhs1 - rhs1, lhs1, rhs1),
        "gradient_of_divergence": _relative(lhs2 - rhs2, lhs2, rhs2),
        "bochner_split_of_P": _relative(lhs3 - rhs3, lhs3, rhs3),
        "intertwining_of_L": _relative(lhs4 - rhs4, lhs4, rhs4),
    }
    return IdentityReport(
        residuals=residuals,
        resolution=grid.axes[0].size,
        stencil_order=grid.stencil_order,
        boundary_warning=boundary_warning,
    )
