"""Discrete weighted operators with exact adjointness by construction.

Building blocks
---------------
Every operator is assembled from one-dimensional difference matrices taken in
a half-density weighting: with E = diag(exp(-f/2)),

    D_a = E^{-1} C_a E + diag(d_a f / 2),

where C_a is a sublattice-coupling biased difference along axis a. D_a is
one list of (row, column, value) entries (`_diff_entries`), converted to CSR
once (`_diff_matrix`): the interior stencil on the rows where it fits; on
the others, by the axis's boundary policy, a closure row from one table near
the chart's polar caps (`_CLOSURES`), every stencil term across the
longitude's periodic seam, and the terms that exist at the truncation
boundary (zero-extension); and d_a f / 2 as diagonal entries of their own,
which the conversion sums into the stencil's diagonal. This is consistent of
stencil order for any smooth field, equidistributes the truncation error in
the weighted norm, and keeps zero-extension defects at the truncation
boundary suppressed by the weight.
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
semidefinite by construction. One probe checks that contract
(`Operators.adjoint_gap`) against one tolerance, ADJOINT_TOL = 1e-12: the
verify structure suite on the pair div_f^* / div_f, and every eigensolve on
P before it starts. A helper thread draws its probe vectors one ahead while
the calling thread applies the operators, in the generator's serial order.
The continuum divergence formula is kept as a separate
reference discretization used only in convergence tests.

Drift Laplacians on all ranks are defined as -(covariant derivative)^adj o
(covariant derivative), hence exactly symmetric and negative semidefinite in
the weighted inner product. Curvature terms are not folded into the rough
Laplacian; the tensor operator L adds the pointwise action 2 R(h) explicitly.

Application
-----------
Every first-order operator is one term list over the per-axis difference
matrices D_a (`FirstOrder`): out[o] += left D_a(right x[i]), plus pointwise
couplings out[o] += c x[i]. The gradient and div_f^* are each defined once
that way, the covariant derivatives of vectors and sym2 tensors as one term
list nabla_a per axis, and the curvature action R with couplings only. A
factor with one value at every node is stored as that scalar, and a factor
of 1 as None (`FirstOrder.derive`): on the Gaussian no derivative term
scales by an array, and on the cylinder g_00 = 1 and g_11 = r^2 are
constants. A term list is applied with one sparse matvec per derivative
term, and its transpose through D_a^T, a CSC view of the stored CSR matrix,
summed into an output the caller holds. Each term is scaled in place, in the
array of its matvec or of its weighted input row, in the association order
left * D_a(right * x), so the result is that of the written formula bit for
bit, and the term's temporary is freed before the next one is allocated.
(A multi-column pass per axis is no faster:
scipy's CSR kernel costs the same per column, and the block adds strided
copies.) A weighted adjoint (`WeightedAdjoint`) is (1/G_in) M^T G_out over a
term list M, with the grid's Gram diagonals G (`Grid.gram`, kept once per
grid; the suite holds none): M^T reads each row of its input weighted by
G_out, one term at a time, so the input is neither copied nor changed, and
M^T's output is divided by G_in in place. Flat vectors are component-major,
the layout of `Field.values`, so a field enters and leaves a chain without a
copy.

Both rough Laplacians nabla^adj nabla, on vectors and on sym2 tensors
(`RoughLaplacian`), are applied one axis block at a time: nabla_a x, weighted
in place by g^{aa} G, then nabla_a^T of it summed into the output, divided
by G last. A Laplacian so holds one derivative block, a field of its rank,
beside its input and output; neither the whole derivative (n blocks) nor its
Gram g^{aa} G is ever formed. `Operators.grad_norm_sq` reads the vector
derivative one block at a time too.

Each `OperatorKind` is defined once, in one table (`_KINDS`): its input and
output ranks, and a sum of coef * chain terms whose factors, named there and
built on the first use of a kind that needs them, are term lists, weighted
adjoints and rough Laplacians: P = div_f o div_f^*, the drift Laplacians
-nabla^adj nabla, L = L_drift + 2R, and the Hessian -div_f^* o grad, as
(1/2) L_{grad u} g. `Operators.matvec` folds each chain right to left
through its factors' `apply`, so a suite holds no sparse matrix but the
D_a. Every factor only reads its input; a term's coefficient and the sum
of terms are applied in place. A chain so holds no array beyond its
factors' outputs and a few rows, and the caller's vector is only read.
`Operators.assemble` multiplies the same factors' matrices, for what needs
entries (the eigensolvers' factor K of P, built from div_f^*'s matrix, or a
diagonal); the suite keeps none of them. A test pins the
factored application to the assembled matrices.

Sign conventions: the drift Laplacian satisfies L x_1 = -x_1/2 on the Gaussian
model (drift term -<grad f, grad .>), pinned by tests.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fields import SCALAR, SYM2, VECTOR, Field, FieldError
from .grid import ONESIDED, Grid, GridError
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


# Each kind, once: its input and output ranks and its (coef, chain) terms. A
# chain names its factors, attributes of `Operators`, which act right to
# left. `matvec`, `assemble`, `adjoint_gap` and `OperatorHandle` all read
# this table, so a factor is built on the first use of a kind that needs it:
# P alone builds no sym2 derivative and no curvature action.
_KINDS = {
    OperatorKind.GRADIENT: (SCALAR, VECTOR, [(1.0, ("_gradient_terms",))]),
    OperatorKind.DIV_F_STAR: (VECTOR, SYM2, [(1.0, ("_div_f_star_terms",))]),
    # the weighted divergence on vectors, the negative adjoint of the gradient
    OperatorKind.DIV_F_VEC: (VECTOR, SCALAR, [(-1.0, ("_div_vec",))]),
    OperatorKind.DIV_F_TENSOR: (SYM2, VECTOR, [(1.0, ("_div_tensor",))]),
    OperatorKind.OP_P: (VECTOR, VECTOR, [(1.0, ("_div_tensor", "_div_f_star_terms"))]),
    OperatorKind.DRIFT_LAPLACIAN_SCALAR: (SCALAR, SCALAR,
                                          [(-1.0, ("_div_vec", "_gradient_terms"))]),
    OperatorKind.DRIFT_LAPLACIAN_VECTOR: (VECTOR, VECTOR, [(-1.0, ("_rough_vector",))]),
    OperatorKind.DRIFT_LAPLACIAN_SYM2: (SYM2, SYM2, [(-1.0, ("_rough_sym2",))]),
    OperatorKind.OP_L: (SYM2, SYM2, [(-1.0, ("_rough_sym2",)), (2.0, ("riemann_block",))]),
    # Hess u = (1/2) L_{grad u} g = -div_f^* grad u, as g_jj (grad u)^j = D_j u
    OperatorKind.HESSIAN: (SCALAR, SYM2, [(-1.0, ("_div_f_star_terms", "_gradient_terms"))]),
}
# the adjointness contract: the largest gap of `Operators.adjoint_gap` that
# the verify structure suite and every eigensolve accept
ADJOINT_TOL = 1e-12


class OperatorHandle:
    """A named operator between field component spaces, on one suite's grid.

    `apply` goes through the operator's first-order factors
    (`Operators.matvec`). `matrix`, for what needs entries (a test oracle, a
    diagonal), is assembled on each read and not kept.
    """

    def __init__(self, kind: OperatorKind, ops: Operators):
        self.kind = kind
        self.in_rank, self.out_rank, _ = _KINDS[kind]
        self.grid = ops.grid
        self._ops = ops

    @property
    def matrix(self) -> sp.csr_matrix:
        return self._ops.assemble(self.kind)

    def apply(self, field: Field) -> Field:
        if field.grid is not self.grid:
            raise GridError("field lives on a different grid")
        if field.rank != self.in_rank:
            raise FieldError(f"{self.kind.value} expects a {self.in_rank} field")
        return Field.from_flat(self.grid, self.out_rank, self._ops.matvec(self.kind, field.flat()))


# Interior stencils over (offset, coefficient * h), which `_diff_entries` puts
# on every row where all their neighbors exist. Both couple the even and odd
# sublattices (nonzero response on the (-1)^i mode), which pushes the
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
# The closure rows of a ONESIDED axis, over (offset, coefficient * h), in the
# order they are tried: central, then second-order forward and backward.
_CLOSURES = (
    ((-1, -0.5), (1, 0.5)),
    ((0, -1.5), (1, 2.0), (2, -0.5)),
    ((0, 1.5), (-1, -2.0), (-2, 0.5)),
)


def _diff_entries(grid: Grid, axis: int):
    """D_a = E^{-1} C_a E + diag(d_a f / 2) along `axis`, as (rows, columns,
    values) entry arrays, one tuple per stencil or closure term.

    C_a is the interior stencil on the rows where it fits. On a ONESIDED axis
    each other row takes the first closure of `_CLOSURES` that fits it; on
    DIRICHLET and PERIODIC axes it keeps whichever stencil terms exist
    (zero-extension; on a periodic axis, every one). Entry (r, c) of C_a is
    scaled by exp((f_r - f_c) / 2), which is 1 on the diagonal, so d_a f / 2,
    the last tuple, on the rows where it is nonzero (a row on which f is
    constant may hold no diagonal), sums into the stencil's diagonal exactly.
    A row that no closure fits, on an axis line of one or two nodes, keeps
    only its drift entry.
    """
    h = grid.axes[axis].h
    stencil = _STENCIL_2 if grid.stencil_order == 2 else _STENCIL_4
    rules = (stencil, *_CLOSURES)
    # node ids in int32, scipy's index type below the node cap; nbr[0] is each node's own id
    nbr = {off: grid.neighbors(axis, off).astype(np.int32)
           for off in {off for rule in rules for off, _ in rule}}
    if grid.axes[axis].boundary == ONESIDED:
        terms, rest = [], np.ones(grid.n_nodes, dtype=bool)
        for rule in rules:
            fits = np.logical_and.reduce([rest] + [nbr[off] >= 0 for off, _ in rule])
            rest &= ~fits
            terms += [(fits, off, c) for off, c in rule]
    else:
        terms = [(nbr[off] >= 0, off, c) for off, c in stencil]
    f = grid.f
    for mask, off, c in terms:
        r, col = nbr[0][mask], nbr[off][mask]
        yield r, col, c / h * np.exp((f[r] - f[col]) / 2.0)
    half_df = grid.model.dpotential(grid.coords)[:, axis] / 2.0
    drift = nbr[0][half_df != 0.0]
    yield drift, drift, half_df[drift]


def _diff_matrix(grid: Grid, axis: int) -> sp.csr_matrix:
    """D_a, its entries (`_diff_entries`) converted to CSR once. They are
    gathered first, so that no temporary of the gathering is live while the
    conversion allocates."""
    rows, cols, vals = zip(*_diff_entries(grid, axis))
    out = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(grid.n_nodes, grid.n_nodes))
    # the conversion sums each drift entry into the stencil's diagonal in place,
    # in arrays of the unsummed length; the copy keeps nnz entries
    return out.copy()


def _diag(values: np.ndarray) -> sp.csr_matrix:
    return sp.diags(values).tocsr()


def _factor(value):
    """A derivative term's factor as `FirstOrder` stores it: None for 1, and a
    scalar for a per-node array with one value at every node."""
    if np.ndim(value) > 0 and np.all(value == value.flat[0]):
        value = float(value.flat[0])
    return None if value is None or (np.ndim(value) == 0 and value == 1.0) else value


def _at(factor, idx: np.ndarray):
    """A per-node factor (or a constant) read at the nodes `idx`."""
    return factor if np.ndim(factor) == 0 else factor[idx]


class FirstOrder:
    """A first-order operator between component-major flat vectors, as a term
    list over the per-axis difference matrices `diffs`:

        out[o] += left * D_a(right * x[i])    for (o, i, a, left, right) in derivs
        out[o] += coef * x[i]                 for (o, i, coef) in points

    `left` and `right` are per-node arrays, constants, or None (one): a factor
    with one value at every node is stored as that constant, and a factor of
    1 as None, so no term multiplies by an array of ones. `coef` is a per-node
    array or a constant.
    """

    def __init__(self, diffs: list[sp.csr_matrix], n_in: int, n_out: int):
        self.diffs = diffs
        self.n_in = n_in
        self.n_out = n_out
        self.derivs: list[tuple] = []
        self.points: list[tuple] = []

    def derive(self, o: int, i: int, axis: int, left=None, right=None) -> None:
        self.derivs.append((o, i, axis, _factor(left), _factor(right)))

    def couple(self, o: int, i: int, coef: np.ndarray | float) -> None:
        self.points.append((o, i, coef))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator on `x`, which it only reads. Each derivative term is
        scaled by `left` in place, in the product D_a x's own array."""
        N = self.diffs[0].shape[0]
        x = x.reshape(self.n_in, N)
        out = np.zeros((self.n_out, N))
        for o, i, a, left, right in self.derivs:
            term = self.diffs[a] @ (x[i] if right is None else right * x[i])
            if left is not None:
                term *= left
            out[o] += term
            del term  # before the next term is allocated
        for o, i, coef in self.points:
            out[o] += coef * x[i]
        return out.ravel()

    def rapply(self, y: np.ndarray, out: np.ndarray, weight: np.ndarray | None = None) -> None:
        """Add the matrix transpose applied to `y` into the flat `out`, through
        D_a^T: a CSC view, nothing stored. With `weight`, each row y[o] is
        read as weight[o] * y[o], one term at a time; `y` is only read. Every
        other scaling is in place, in the association order right * D_a^T
        (left * (weight * y)), and each temporary is freed before the next."""
        N = self.diffs[0].shape[0]
        y = y.reshape(self.n_out, N)
        out = out.reshape(self.n_in, N)
        w = [None] * self.n_out if weight is None else weight.reshape(self.n_out, N)

        def read(o: int, factor) -> np.ndarray:
            """factor * (w[o] * y[o]) in a new array, or y[o] itself when both are 1."""
            if w[o] is None:
                return y[o] if factor is None else factor * y[o]
            row = w[o] * y[o]
            if factor is not None:
                row *= factor
            return row

        for o, i, a, left, right in self.derivs:
            term = self.diffs[a].T @ read(o, left)
            if right is not None:
                term *= right
            out[i] += term
            del term
        for o, i, coef in self.points:
            out[i] += read(o, coef)

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
    """The adjoint (1/G_in) M^T G_out of a term list M from rank `in_rank` to
    `out_rank`, with respect to the grid's Gram diagonals of those ranks."""

    def __init__(self, op: FirstOrder, grid: Grid, in_rank: str, out_rank: str):
        self.op = op
        self.grid = grid
        self.in_rank = in_rank
        self.out_rank = out_rank

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Through the transposed term list, which weights each row of `y` by
        G_out as it reads it: neither M nor its adjoint is built, and `y` is
        neither copied nor changed."""
        out = np.zeros((self.op.n_in, self.grid.n_nodes))
        self.op.rapply(y, out, self.grid.gram(self.out_rank))
        out /= self.grid.gram(self.in_rank)
        return out.ravel()

    def assemble(self) -> sp.csr_matrix:
        mat = self.op.assemble()
        gram_in, gram_out = (self.grid.gram(r).ravel() for r in (self.in_rank, self.out_rank))
        return (_diag(1.0 / gram_in) @ mat.T.tocsr() @ _diag(gram_out)).tocsr()


class RoughLaplacian:
    """nabla^adj nabla on `rank`, whose Gram diagonal on `grid` is G, as the
    sum over axes a of (1/G) nabla_a^T (g^{aa} G) nabla_a.

    `blocks[a]` is the term list of nabla_a, the covariant derivative along
    axis a. The sum is applied one axis block at a time, so no more than one
    derivative block, a field of the rank, is held beside the output.
    """

    def __init__(self, blocks: list[FirstOrder], grid: Grid, rank: str):
        self.blocks = blocks
        self.grid = grid
        self.rank = rank

    def _weigh(self, y: np.ndarray, a: int) -> None:
        """y *= g^{aa} G, in place, for a block of axis a."""
        gram = self.grid.gram(self.rank)
        ginv = self.grid.inv_metric_diag[:, a]
        for c, row in enumerate(y.reshape(gram.shape)):
            row *= ginv * gram[c]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator on `x`, which it only reads."""
        gram = self.grid.gram(self.rank)
        out = np.zeros(gram.shape)
        for a, block in enumerate(self.blocks):
            y = block.apply(x)
            self._weigh(y, a)
            block.rapply(y, out)
            del y  # before the next block is allocated
        out /= gram
        return out.ravel()

    def assemble(self) -> sp.csr_matrix:
        total = None
        for a, block in enumerate(self.blocks):
            mat = block.assemble()
            weights = np.ones(mat.shape[0])
            self._weigh(weights, a)
            term = mat.T.tocsr() @ _diag(weights) @ mat
            total = term if total is None else total + term
        return (_diag(1.0 / self.grid.gram(self.rank).ravel()) @ total).tocsr()


class Operators:
    """Operator suite for one grid. Every kind is a sum of chains of term
    lists over the difference matrices `diffs` and their weighted adjoints
    (`_KINDS`), applied factor by factor by `matvec`; `assemble` builds a
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
        return [_diff_matrix(self.grid, a) for a in range(self.n)]

    def _christoffel(self, l: int, i: int, j: int, symbols: dict | None = None):
        """Gamma^l_ij, or None where it vanishes; read from `symbols` (the
        grid's Christoffel table by default) under the same keys."""
        return (self._gamma if symbols is None else symbols).get((l, min(i, j), max(i, j)))

    def _slot(self, i: int, j: int) -> int:
        """The packed sym2 slot of the index pair (i, j)."""
        return self.pairs.index((min(i, j), max(i, j)))

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
    def _cov_vector_terms(self) -> list[FirstOrder]:
        """Covariant derivative of a vector field, one term list per axis a:
        nabla_a Y, components j."""
        blocks = []
        for a in range(self.n):
            op = FirstOrder(self.diffs, self.n, self.n)
            for j in range(self.n):
                op.derive(j, j, a)
                for l in range(self.n):
                    gamma = self._christoffel(j, a, l)
                    if gamma is not None:
                        op.couple(j, l, gamma)
            blocks.append(op)
        return blocks

    @cached_property
    def _cov_sym2_terms(self) -> list[FirstOrder]:
        """Covariant derivative of a packed sym2 field, one term list per axis
        a: nabla_a h, components pair."""
        npairs = len(self.pairs)
        # one negated array per symbol, shared by all of its couplings
        negated = {key: -gamma for key, gamma in self._gamma.items()}
        blocks = []
        for a in range(self.n):
            op = FirstOrder(self.diffs, npairs, npairs)
            for s, (i, j) in enumerate(self.pairs):
                op.derive(s, s, a)
                for l in range(self.n):
                    gamma_i = self._christoffel(l, a, i, negated)
                    if gamma_i is not None:
                        op.couple(s, self._slot(l, j), gamma_i)
                    gamma_j = self._christoffel(l, a, j, negated)
                    if gamma_j is not None:
                        op.couple(s, self._slot(i, l), gamma_j)
            blocks.append(op)
        return blocks

    @cached_property
    def riemann_block(self) -> FirstOrder:
        """Pointwise curvature action h -> R(h) on packed sym2 fields: couplings
        only, the model's own (`ModelShrinker.curvature_couplings`) at the
        grid's nodes. The operator suite knows no model kind."""
        npairs = len(self.pairs)
        op = FirstOrder(self.diffs, npairs, npairs)
        for o, i, coef in self.grid.model.curvature_couplings(self.grid.coords):
            op.couple(o, i, coef)
        return op

    # ---- weighted adjoints of the term lists -------------------------------

    @cached_property
    def _div_vec(self) -> WeightedAdjoint:
        return WeightedAdjoint(self._gradient_terms, self.grid, SCALAR, VECTOR)

    @cached_property
    def _div_tensor(self) -> WeightedAdjoint:
        return WeightedAdjoint(self._div_f_star_terms, self.grid, VECTOR, SYM2)

    @cached_property
    def _rough_vector(self) -> RoughLaplacian:
        return RoughLaplacian(self._cov_vector_terms, self.grid, VECTOR)

    @cached_property
    def _rough_sym2(self) -> RoughLaplacian:
        return RoughLaplacian(self._cov_sym2_terms, self.grid, SYM2)

    # ---- every kind, once: sums of coef * chain (`_KINDS`) -----------------

    def _terms(self, kind: OperatorKind) -> list[tuple]:
        """`kind`'s (coef, chain) terms, each factor name resolved on the suite."""
        return [(coef, [getattr(self, name) for name in chain])
                for coef, chain in _KINDS[kind][2]]

    def matvec(self, kind: OperatorKind, x: np.ndarray) -> np.ndarray:
        """`kind` applied to a flat component vector, each chain folded right
        to left through its factors; no matrix is assembled."""
        total = None
        for coef, chain in self._terms(kind):
            y = x
            for factor in reversed(chain):
                y = factor.apply(y)
            if coef != 1.0:
                y *= coef
            if total is None:
                total = y
            else:
                total += y
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

    def adjoint_gap(self, kind: OperatorKind, adjoint: OperatorKind, rng,
                    probes: int) -> tuple[float, float]:
        """The worst relative gap of <M u, v> = <u, M^adj v>, M = `kind` and
        M^adj = `adjoint` applied by `matvec`, in `Grid.inner`, over `probes`
        draws of u, then v (`Grid.probe`); and the least |M u|^2 / |u|^2.
        M u is released before M^adj v is formed.

        One helper thread draws each probe one ahead, into an array that this
        thread allocates, while this thread applies the operators: numpy fills
        a Gaussian array without holding the GIL. The draws keep the
        generator's order (u_1, v_1, u_2, ...), so the result and every later
        draw from `rng` are those of a serial loop. Both Gram diagonals are
        built here, before the helper starts, which then only reads the grid.
        The helper is joined before this returns or raises."""
        grid = self.grid
        in_rank, out_rank, _ = _KINDS[kind]
        sizes = {rank: grid.gram(rank).size for rank in (in_rank, out_rank)}
        worst_gap, least = 0.0, float("inf")
        with ThreadPoolExecutor(max_workers=1) as helper:

            def draw(rank: str):
                x = np.empty(sizes[rank])
                return x, helper.submit(grid.probe, rank, rng, x)

            u, drawn = draw(in_rank)
            for k in range(probes):
                drawn.result()
                v, drawn = draw(out_rank)  # while M u is applied
                Mu = self.matvec(kind, u)
                least = min(least, grid.inner(out_rank, Mu, Mu) / grid.inner(in_rank, u, u))
                drawn.result()
                # the next u, while M^adj v is applied
                u_next, drawn = draw(in_rank) if k + 1 < probes else (None, None)
                left = grid.inner(out_rank, Mu, v)
                del Mu
                right = grid.inner(in_rank, u, self.matvec(adjoint, v))
                worst_gap = max(worst_gap, abs(left - right) / max(abs(left), abs(right), 1e-300))
                u, v = u_next, None  # v before the next one is allocated
        return worst_gap, least

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
        flat = Y.flat()
        ginv = self.grid.inv_metric_diag
        g = self.grid.metric_diag
        out = np.zeros(N)
        # one axis block of the derivative at a time
        for a, block in enumerate(self._cov_vector_terms):
            cov = block.apply(flat).reshape(n, N)
            for j in range(n):
                out += ginv[:, a] * g[:, j] * cov[j] ** 2
            del cov
        return out

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
    boundary_warning: bool


def _residual(lhs: Field, rhs: Field) -> float:
    """|lhs - rhs| relative to the larger side. Both fields are the caller's
    temporaries: the difference is formed in place in `lhs`."""
    den = max(lhs.norm(), rhs.norm())
    if den == 0.0:
        return 0.0
    lhs.values -= rhs.values
    return lhs.norm() / den


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
        and np.max(np.abs(Y.values[:, near_boundary])) > 1e-13 * scale
    )

    # one identity at a time: each side is dropped once its residual is read
    residuals = {}
    v = ops.div(Y)
    py = ops.p_apply(Y)
    div_py = ops.div(py)
    residuals["drift_eigen_of_divergence"] = _residual(ops.lap(v) + v * kappa, div_py * (-1.0))
    grad_v = ops.grad(v)
    residuals["gradient_of_divergence"] = _residual(ops.lap(grad_v), ops.grad(div_py) * (-1.0))
    lap_y, kappa_y = ops.lap(Y), Y * kappa
    # the sides of the last two identities are summed in place, in fields
    # that are not read again, in the association order of the identities
    py.values *= -2.0
    grad_v.values += lap_y.values
    grad_v.values += kappa_y.values
    residuals["bochner_split_of_P"] = _residual(py, grad_v)
    del v, py, div_py, grad_v
    lap_y.values += kappa_y.values  # now lap Y + kappa Y
    del kappa_y
    # L div_f^* Y on flat vectors, with no sym2 field beside its flat copy;
    # only the two sides are live when the residual is read
    lhs = Field.from_flat(grid, SYM2, ops.matvec(OperatorKind.OP_L,
                                                 ops.matvec(OperatorKind.DIV_F_STAR, Y.flat())))
    rhs = ops.div_star(lap_y)
    del lap_y
    residuals["intertwining_of_L"] = _residual(lhs, rhs)
    return IdentityReport(residuals=residuals, boundary_warning=boundary_warning)
