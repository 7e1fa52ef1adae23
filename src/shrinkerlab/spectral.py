"""Weighted symmetric eigensolver for P and the eigenfield decomposition.

P = div_f o div_f^* is weighted-symmetric because div_f is the weighted
adjoint of div_f^*. Conjugated by S = sqrt(G) (G the diagonal Gram matrix of
the vector-field inner product) it is the standard symmetric A = K^T K, with
the factor K = sqrt(G_sym2) div_f^* S^-1 built from the first-order operator
and cached on the grid (`_p_factor`), the one solver form of P that every
path keeps. A is assembled from it, and not kept, only for the dense oracle,
at or below a size cap (`_symmetric_form`). Every other solve is one run of
one block LOBPCG loop (`_lobpcg`; Knyazev, SIAM J. Sci. Comput. 23, 2001)
that applies A as K^T (K x) (`_factored_form`), with a tolerance per
column, from the model's Killing fields: beside them, random columns are
the guard that checks the near-kernel block of P, which the extension
pipeline projects onto (`near_kernel_block`), or, with the dilation field,
reach the pairs above the block (`lowest_eigenpairs`). The run is
preconditioned by an aggregation V-cycle built once per grid from K
(`_VCycle`), whose bottom level is solved by a banded Cholesky factor
(`_BandCholesky`). P itself is only applied, factor by factor, never
assembled: by the adjointness probe before every solve
(`Operators.adjoint_gap`) and by the residuals |P y - mu y|, which every
path checks against 10 * `EIGEN_TOL`.
One rule bounds the pairs a solve returns (`check_pair_count`). Every pair
is built by `SpectralPair.of`: eigenfields come back unit-norm in the
weighted inner product with a fixed sign, so pairs are deterministic up to
rotation inside numerically degenerate blocks. `decompose_eigenfield`
splits an eigenfield into its divergence-free and gradient parts and checks
the scalar eigen-equation of its div_f, from one div_f Y and one floor test.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import SolverError
from .fields import SYM2, VECTOR, Field, dilation, killing_basis
from .grid import Grid
from .operators import ADJOINT_TOL, OperatorHandle, OperatorKind

# The dense oracle's cap. Above about a thousand unknowns the LOBPCG path is
# faster and no larger, with the same eigenvalues. Measured with the same
# count of eigenvalues on both paths (LOBPCG in two runs, block and pairs
# above it), 2 BLAS threads on a 2-core machine, peak RSS of the process:
#   unknowns            dense            LOBPCG
#   896 (2D Gaussian)   0.07 s,  78 MB   0.11 s, 69 MB
#   1,232 (2D)          0.17 s,  89 MB   0.17 s, 70 MB
#   2,528 (2D)          1.07 s, 163 MB   0.29 s, 71 MB
#   4,000 (1D)          5.21 s, 310 MB   0.21 s, 72 MB
#   4,944 (2D)          8.86 s, 441 MB   0.46 s, 75 MB
DENSE_CAP = 1000
LOBPCG_MAXITER = 700
# the eigensolver tolerance: LOBPCG stops at it, and every path raises when a
# pair's residual |P y - mu y| ends above 10 * EIGEN_TOL
EIGEN_TOL = 1e-9
# the LOBPCG run of `lowest_eigenpairs` carries BUFFER columns beyond
# max(count, k + 1), k the Killing fields, which iterate at its tolerance but
# do not hold its stop. On the 40,216-unknown 2D Gaussian the six lowest pairs
# are three Killing pairs, a pair at 0.2494 and mu_6 = 0.497631, the lowest of
# a six-member cluster (0.497631-0.499431). For those six the run took, at
# seeds 0 and 1, 693 and 244 iterations at width 6, 309 and 700 (unconverged)
# at 7, 351-417 at 8, 117-198 at 9, 73-74 at 10, 57-61 at 11, 49-52 at 12, 40
# at 13 and 38-39 at 14. BUFFER columns give width 11.
BUFFER = 5
# every LOBPCG run is preconditioned by a V-cycle (`_VCycle`) for
# (A + CYCLE_MASS*I)^-1, whose mass term keeps it invertible on the kernel
# of A, coarsened down to at most CYCLE_BOTTOM unknowns
CYCLE_MASS = 0.25
CYCLE_BOTTOM = 2000
# the cycle's damped-Jacobi sweeps take JACOBI_WEIGHT / rho, rho a Gershgorin
# upper bound on lambda_max(D^-1 (A + CYCLE_MASS*I)), on the finest level
# that of the symmetric scaling D^-1/2 (A + CYCLE_MASS*I) D^-1/2; as long as
# rho bounds lambda_max and the weight is below 2 the cycle stays SPD (`_VCycle`)
JACOBI_WEIGHT = 1.9
# eigenpairs of P at or below BLOCK_TOL form the near-kernel block that an
# approximate symmetry is projected onto (`NearKernelBlock.block`); a guard
# Ritz value at or below it proves the block incomplete
BLOCK_TOL = 1e-2
# the run of `near_kernel_block` carries max(1, GUARD_SPAN - k) random guard
# columns beside its k Killing fields
GUARD_SPAN = 6
# the guard columns run to GUARD_TOL, the block's to EIGEN_TOL. The guard
# needs upper bounds on the next eigenvalues that resolve BLOCK_TOL: at
# residual 0.1 the guard's Ritz values on a 3D Gaussian grid missing two
# rotations (true eigenvalue 6.4e-4) stopped at 0.010-0.012 and passed the
# block; at 0.01 they reached 7e-4 to 8e-4. A guard that ends above GUARD_TOL
# raises.
GUARD_TOL = 0.01
# eigenvalues closer than this form one degenerate block (`group_degenerate`)
DEGENERATE_GAP = 1e-4


@dataclass
class SpectralPair:
    """Eigenvalue with unit-norm eigenfield and measured residual."""

    mu: float
    field: Field
    residual: float

    def __post_init__(self):
        if self.mu < -1e-8:
            raise SolverError(f"negative eigenvalue {self.mu}: adjointness broken")

    @classmethod
    def of(cls, field: Field, mu: Optional[float] = None) -> SpectralPair:
        """The pair of `field` scaled to unit norm, its lead entry made positive;
        `mu` is its Rayleigh quotient when None. The residual |P y - mu y| is
        measured through the factored P.

        The lead entry is the first within 1e-6 relative of the largest
        magnitude in component-major storage order (every node of component
        0, then of component 1, and so on): a field odd under a symmetry of
        the grid, such as a rotation, has its largest entries in pairs of
        opposite sign that differ by round-off, so the largest alone picks
        either sign.
        """
        ops = field.grid.ops()
        field = field * (1.0 / field.norm())
        size = np.abs(field.values)
        if field.values.flat[np.argmax(size >= (1.0 - 1e-6) * size.max())] < 0:
            field = field * -1.0
        if mu is None:
            mu = ops.rayleigh_p(field)
        return cls(mu=mu, field=field, residual=(ops.p_apply(field) - field * mu).norm())


def _p_factor(grid: Grid) -> tuple[sp.csr_matrix, np.ndarray]:
    """P's factor (K, s) on `grid`, built on first use and cached on it:
    K = sqrt(G_sym2) div_f^* S^-1, S = diag(s).

    P = (1/G_vec) M^T G_sym2 M for M = div_f^*, so with s = sqrt(G_vec)
    S P S^-1 = K^T K, symmetric by construction, and eigenfields are
    recovered as y/s.
    """

    def build():
        s = np.sqrt(grid.gram(VECTOR)).ravel()
        M = grid.ops().assemble(OperatorKind.DIV_F_STAR)
        return (sp.diags(np.sqrt(grid.gram(SYM2)).ravel()) @ M @ sp.diags(1.0 / s)).tocsr(), s

    return grid._cached("p_factor", build)


def _symmetric_form(grid: Grid) -> tuple[sp.csr_matrix, np.ndarray]:
    """P's symmetric form (A, s) on `grid`: A = K^T K from the cached factor
    (`_p_factor`). A is not kept; only the dense oracle assembles it."""
    K, s = _p_factor(grid)
    return (K.T @ K).tocsr(), s


def _factored_form(K: sp.csr_matrix) -> spla.LinearOperator:
    """A = K^T K as an operator that applies K^T (K x) and never assembles A."""
    Kt = K.T

    def apply(x):
        return Kt @ (K @ x)

    return spla.LinearOperator((K.shape[1], K.shape[1]), matvec=apply, matmat=apply,
                               dtype=K.dtype)


def solver_storage(grid: Grid) -> dict[str, int]:
    """Stored entries (nnz, explicit zeros included) of each solver matrix
    cached on `grid`, by name: P's factor `K` and the V-cycle: its coarse
    operators plus the (bandwidth + 1) * size entries of its bottom level's
    band."""
    held = {}
    if "p_factor" in grid._cache:
        held["K"] = grid._cache["p_factor"][0].nnz
    if "vcycle" in grid._cache:
        cycle = grid._cache["vcycle"]
        held["V-cycle"] = (sum(level[0].nnz for level in cycle.levels[1:])
                           + cycle.bottom.factor.size)
    return held


class _BandCholesky:
    """Banded Cholesky factor of a sparse SPD matrix in reverse Cuthill-McKee order.

    It solves the V-cycle's bottom level, at most CYCLE_BOTTOM unknowns. RCM
    narrows a grid stencil's profile to a band of half-width `bandwidth`: on
    the 1,066-unknown bottom of the 62,856-unknown 2D Gaussian the band holds
    0.63 MB, where a dense factor would hold 9.1 MB. The permuted lower
    triangle is written straight from COO into the LAPACK lower band
    `ab[i - j, j]`, Fortran-ordered so that `pbtrf` factors it in place
    without a copy. `solve` applies M^-1 to a vector or to the columns of a
    matrix.
    """

    def __init__(self, M: sp.csr_matrix):
        size = M.shape[0]
        self.perm = csgraph.reverse_cuthill_mckee(M, symmetric_mode=True)
        rank = np.empty(size, dtype=np.intp)
        rank[self.perm] = np.arange(size)
        coo = M.tocoo()
        rows, cols = rank[coo.row], rank[coo.col]
        lower = rows >= cols
        rows, cols, data = rows[lower], cols[lower], coo.data[lower]
        self.bandwidth = int(np.max(rows - cols, initial=0))
        ab = np.zeros((self.bandwidth + 1, size), order="F")
        ab[rows - cols, cols] = data
        self.factor = sla.cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[self.perm] = sla.cho_solve_banded((self.factor, True), b[self.perm],
                                            check_finite=False)
        return x


def _residual(A, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - A x - CYCLE_MASS * x, formed in the array of A x."""
    r = A @ x
    np.subtract(b, r, out=r)
    r -= CYCLE_MASS * x
    return r


class _VCycle:
    """Aggregation V-cycle for (A + CYCLE_MASS*I)^-1 on the grid's tensor structure.

    Each coarser level merges the fine cells whose `node_multi // 2` agree, so
    2^n fine cells make one coarse cell. The prolongator T has one column per
    component and coarse cell: the sqrt(Gram)-weighted constant, normalised,
    which is the constant field in A's variables; the column norms are the next
    level's weights. T's columns are orthonormal, so the Galerkin product
    T^T (A + c I) T is T^T A T + c I and no shifted copy of A is built.

    The cycle is built from P's factor K and never assembles A = K^T K on the
    finest level: there A is applied as K^T (K x), its diagonal is the squared
    column norms of K, and the first coarse operator is (K T)^T (K T). Coarser
    levels are assembled Galerkin products. Levels are coarsened until at most
    CYCLE_BOTTOM unknowns remain, which `_BandCholesky` solves exactly; only
    when the finest level is already that small is A itself assembled, there.

    One damped-Jacobi sweep smooths before and after the coarse correction,
    with the weight JACOBI_WEIGHT / rho, rho a Gershgorin bound on
    lambda_max(D^-1 (A + c I)) for the shifted diagonal D = diag(A) + c I.
    That matrix is similar to Q (A + c I) Q with Q = D^-1/2 = diag(q), so
    lambda_max is at most its largest absolute row sum. On the finest level,
    since |K^T K| <= |K|^T |K| entrywise, that is at most
    rho = max_i q_i (|K|^T |K| q)_i + c q_i^2: two sparse products, and
    sharper than the unsymmetric row bound max_i ((|K|^T |K| 1)_i + c) / D_ii
    (5.19 against 6.40 on the (3,2) cylinder at res 24, R 6, where lambda_max
    is 2.93). On the assembled levels rho = max_i ((|A| 1)_i + c) / D_ii, the
    row sums of D^-1 |A + c I|. Either way the smoother's eigenvalues lie in
    (0, JACOBI_WEIGHT) and, for a weight below 2, the cycle is symmetric
    positive definite. `applications` counts the calls of `apply`.
    """

    def __init__(self, K: sp.csr_matrix, s: np.ndarray, node_multi: np.ndarray):
        ncomp = len(s) // len(node_multi)
        self.levels = []  # (A, damped inverse diagonal as a column, T) per smoothed level
        A = _factored_form(K)
        diagonal = np.bincount(K.indices, weights=K.data**2, minlength=K.shape[1]) + CYCLE_MASS
        q = 1.0 / np.sqrt(diagonal)
        absK = abs(K)
        rho = np.max(q * (absK.T @ (absK @ q)) + CYCLE_MASS * q * q)
        while A.shape[0] > CYCLE_BOTTOM:
            cells, agg = np.unique(node_multi // 2, axis=0, return_inverse=True)
            cols = (np.arange(ncomp)[:, None] * len(cells) + agg.ravel()[None, :]).ravel()
            norms = np.sqrt(np.bincount(cols, weights=s * s))
            T = sp.csr_matrix((s / norms[cols], (np.arange(len(s)), cols)),
                              shape=(len(s), len(norms)))
            self.levels.append((A, (JACOBI_WEIGHT / (diagonal * rho))[:, None], T))
            if len(self.levels) == 1:
                factor = K @ T
                A = (factor.T @ factor).tocsr()
            else:
                A = (T.T @ A @ T).tocsr()
            diagonal = A.diagonal() + CYCLE_MASS
            rho = np.max((abs(A) @ np.ones(A.shape[0]) + CYCLE_MASS) / diagonal)
            s, node_multi = norms, cells
        if not self.levels:
            A = (K.T @ K).tocsr()
        self.bottom = _BandCholesky(A + CYCLE_MASS * sp.identity(A.shape[0], format="csr"))
        self.sizes = [level[0].shape[0] for level in self.levels] + [A.shape[0]]
        self.applications = 0

    def _cycle(self, depth: int, b: np.ndarray) -> np.ndarray:
        if depth == len(self.levels):
            return self.bottom.solve(b)
        A, smooth, T = self.levels[depth]
        x = smooth * b
        x += T @ self._cycle(depth + 1, T.T @ _residual(A, b, x))
        r = _residual(A, b, x)
        x += np.multiply(smooth, r, out=r)
        return x

    def apply(self, b: np.ndarray) -> np.ndarray:
        self.applications += 1
        return self._cycle(0, b.reshape(b.shape[0], -1)).reshape(b.shape)


def _vcycle(grid: Grid) -> _VCycle:
    """The V-cycle of P's symmetric form on `grid`, built from its factor K on
    first use and cached on it."""
    return grid._cached("vcycle", lambda: _VCycle(*_p_factor(grid), grid.node_multi))


def _orthonormalize(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V R^-1, orthonormal, and R^-1 for the Cholesky factor R of V^T V."""
    inverse = np.linalg.inv(np.linalg.cholesky(V.T @ V)).T
    return V @ inverse, inverse


def _rayleigh_ritz(blocks: list[tuple[np.ndarray, np.ndarray]],
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` lowest Ritz values of A on the span of the blocks [(X, A X),
    (W, A W), ...] and their vectors' coefficients; LinAlgError unless the
    Gram matrix is positive definite. Each Gram block is formed: taking some
    as the identity, zero or diag(theta), as scipy's lobpcg does above
    residual sqrt(eps), let a width-4 complement run on the 2D Gaussian lose
    orthogonality and end at a Ritz value of -2058. The k x k work is numpy's:
    at 2 BLAS threads scipy.linalg.solve_triangular on an 8 x 8 factor took
    7 ms a call, np.linalg.inv 50 us."""

    def gram(side: int) -> np.ndarray:
        upper = [[V.T @ U[side] for U in blocks[i:]] for i, (V, _) in enumerate(blocks)]
        return np.block([[upper[j][i - j].T for j in range(i)] + upper[i]
                         for i in range(len(blocks))])

    inverse = np.linalg.inv(np.linalg.cholesky(gram(0)))
    vals, vecs = np.linalg.eigh(inverse @ gram(1) @ inverse.T)
    return vals[:count], inverse.T @ vecs[:, :count]


def _combine(blocks: tuple[np.ndarray, ...], parts: list[np.ndarray]) -> np.ndarray:
    """The sum of blocks[i] @ parts[i], accumulated in place."""
    out = blocks[0] @ parts[0]
    for V, c in zip(blocks[1:], parts[1:]):
        out += V @ c
    return out


def _lobpcg(grid: Grid, starts: list[Field], fill: int, wanted: int, tol: np.ndarray,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The one LOBPCG loop: Ritz values (ascending) and vectors of P's
    symmetric form A = K^T K on `grid`, their residual norms |A v - mu v|,
    which the caller checks, and the iterations. It starts from the fields
    `starts` and `fill` random columns drawn from `rng`, and stops once its
    `wanted` lowest columns reach their tolerance, tol[i] for the i-th lowest.

    Each iteration preconditions the residuals above their tolerance by the
    grid's V-cycle, projects them off X and Cholesky-orthonormalizes them
    (W), and takes the Rayleigh-Ritz pairs of [X, W, P], P the last update of
    X on those columns, orthonormalized. A column at its tolerance stays in
    the basis (soft locking); one beyond `wanted` iterates until it reaches
    it, outside the stop test. P sits out an iteration when a Gram matrix
    with it is not positive definite. The run never restarts; it stops at
    LOBPCG_MAXITER V-cycle applications (one per iteration), or when W loses
    rank. Each block is dropped once nothing needs it, and X and A X are
    updated in place, which keeps a wide run's peak memory down.
    """
    (K, s), cycle = _p_factor(grid), _vcycle(grid)
    A = _factored_form(K)
    X = np.linalg.qr(np.column_stack([g.flat() * s for g in starts]
                                     + [rng.standard_normal((len(s), fill))]))[0]
    AX = A @ X
    theta, C = _rayleigh_ritz([(X, AX)], X.shape[1])
    X, AX, P, AP = X @ C, AX @ C, None, None
    started = cycle.applications
    while True:
        R = AX - X * theta
        resid = np.linalg.norm(R, axis=0)
        iterations = cycle.applications - started
        if np.all(resid[:wanted] <= tol[:wanted]) or iterations >= LOBPCG_MAXITER:
            break
        active = resid > tol
        R = R[:, active]
        blocks = []
        if P is not None:
            with contextlib.suppress(np.linalg.LinAlgError):
                Q, inverse = _orthonormalize(P[:, active])
                P = None  # before A Q exists: the process then peaks lower
                blocks.append((Q, AP[:, active] @ inverse))
            P = AP = Q = None
        W, R = cycle.apply(R), None
        W -= X @ (X.T @ W)
        try:
            W, _ = _orthonormalize(W)
        except np.linalg.LinAlgError:
            break
        blocks[:0] = [(X, AX), (W, A @ W)]
        try:
            theta, C = _rayleigh_ritz(blocks, len(theta))
        except np.linalg.LinAlgError:
            del blocks[2:]
            theta, C = _rayleigh_ritz(blocks, len(theta))
        C, *parts = np.split(C, np.cumsum([V.shape[1] for V, _ in blocks])[:-1])
        V, AV = zip(*blocks[1:])
        del blocks
        P, V, W = _combine(V, parts), None, None
        AP, AV = _combine(AV, parts), None
        X = X @ C
        X += P
        AX = AX @ C
        AX += AP
    return theta, X, resid, iterations


def check_pair_count(grid: Grid, count: int, method: str = "auto") -> None:
    """ValueError unless `lowest_eigenpairs` can return `count` pairs on `grid`
    by `method` ("auto": the path it takes there): fewer than the unknowns,
    and on the lobpcg path at most size // 5 - BUFFER, 5 unknowns per column
    of its run of width max(count, k + 1) + BUFFER (k + 1 <= 7 binds on no
    grid above DENSE_CAP). Its basis [X, W, P] takes 3 per column: on a 2D
    grid of 1,432 unknowns the run converged at 281 to 350 pairs, and at 355
    W lost rank in the second iteration."""
    size = grid.n_nodes * grid.n
    if count >= size:
        raise ValueError(f"eigs must be below the {size} unknowns of this grid")
    if method == "dense" or (method == "auto" and size <= DENSE_CAP):
        return
    if count > (limit := size // 5 - BUFFER):
        raise ValueError(f"eigs must be at most {limit} on this grid, where LOBPCG needs "
                         f"5 unknowns per column")


def _probed(grid: Grid, seed: int) -> np.random.Generator:
    """The generator of `seed` after it drew three probes of P
    (`Operators.adjoint_gap`); SolverError unless they find P
    weighted-symmetric to ADJOINT_TOL."""
    rng = np.random.default_rng(seed)
    gap, _ = grid.ops().adjoint_gap(OperatorKind.OP_P, OperatorKind.OP_P, rng, 3)
    if gap > ADJOINT_TOL:
        raise SolverError(f"adjointness broken: P is not weighted-symmetric (gap {gap:.2e})")
    return rng


def _pairs(grid: Grid, vals: np.ndarray, vecs: np.ndarray,
           tolerance: float) -> list[SpectralPair]:
    """The pairs (`SpectralPair.of`) of `vals` and the first columns of `vecs`, in
    A's variables; SolverError when a residual |P y - mu y| is above 10 * `tolerance`."""
    s = _p_factor(grid)[1]
    pairs = [SpectralPair.of(Field.from_flat(grid, VECTOR, vecs[:, i] / s), float(mu))
             for i, mu in enumerate(vals)]
    worst = max(p.residual for p in pairs)
    if worst > 10.0 * tolerance:
        raise SolverError(
            f"eigensolver did not converge (worst residual {worst:.2e}, "
            f"tolerance {tolerance:.1e})"
        )
    return pairs


def lowest_eigenpairs(
    operator: OperatorHandle,
    count: int,
    tolerance: float = EIGEN_TOL,
    method: str = "auto",
    seed: int = 0,
) -> list[SpectralPair]:
    """Lowest eigenpairs of P (`operator` is an `OP_P` handle), sorted ascending.

    Every path solves P's symmetric form A = K^T K. `auto` takes the dense
    solve up to `DENSE_CAP` unknowns (the oracle), which assembles A from the
    grid's factor K (`_symmetric_form`) and keeps only K, and the lobpcg
    path above it: one `_lobpcg` run from the model's k Killing fields
    (`killing_basis`), the dilation field and seeded random columns,
    max(count, k + 1) + BUFFER in all, to `tolerance` on its `count` lowest
    columns; it prints its width and iterations on stderr. Another operator
    kind, or a `count` that `check_pair_count` refuses, is a ValueError.
    Three probes of P, from the generator that then draws the random
    columns, precede the solve (`_probed`). A worst residual |P y - mu y|
    above 10 * `tolerance` is a SolverError. No caller in the package passes
    `tolerance`; perfbench/trace.py binds it by name.
    """
    if operator.kind != OperatorKind.OP_P:
        raise ValueError(f"lowest_eigenpairs solves P only, not {operator.kind.value}")
    if count < 1:
        raise ValueError("count must be >= 1")
    grid = operator.grid
    size = grid.n_nodes * grid.n
    if method == "auto":
        method = "dense" if size <= DENSE_CAP else "lobpcg"
    if method not in ("dense", "lobpcg"):
        raise ValueError(f"unknown method {method!r}")
    check_pair_count(grid, count, method)
    rng = _probed(grid, seed)
    if method == "dense":
        A, _ = _symmetric_form(grid)
        vals, vecs = sla.eigh(A.toarray(), subset_by_index=[0, count - 1])
        return _pairs(grid, vals, vecs, tolerance)

    starts = [*killing_basis(grid), dilation(grid)]
    width = max(count, len(starts)) + BUFFER
    vals, vecs, resid, iterations = _lobpcg(grid, starts, width - len(starts), count,
                                            np.full(width, tolerance), rng)
    print(
        f"eigensolve: lobpcg, {size} unknowns; width {width} ({count} wanted, "
        f"{len(starts) - 1} Killing starts) in {iterations} iterations; "
        f"wanted residual <= {np.max(resid[:count]):.2e}",
        file=sys.stderr,
    )
    return _pairs(grid, vals[:count], vecs, tolerance)


@dataclass(frozen=True)
class NearKernelBlock:
    """The lowest eigen-block of P on one grid, and the guard that checked it.

    `pairs` are the solved pairs, one per Killing field of the model, the
    lowest columns of one LOBPCG run; `guard_mus` are that run's next Ritz
    values, ascending, upper bounds on the next eigenvalues of P
    (Courant-Fischer), with the residual norms they reached.
    """

    pairs: list[SpectralPair]
    unknowns: int
    guard_mus: list[float]
    guard_residuals: list[float]

    @property
    def block(self) -> list[SpectralPair]:
        """The pairs at or below BLOCK_TOL, or the lowest pair when none is."""
        block = [p for p in self.pairs if p.mu <= BLOCK_TOL]
        return block or self.pairs[:1]

    @property
    def worst_residual(self) -> float:
        return max(p.residual for p in self.pairs)

    def summary(self) -> dict:
        """What the solve did, for reports; deterministic, so no timings.

        The guard's values differ with the BLAS thread count from about the
        11th digit on; six significant digits keep them equal. The block's
        values are reported in full. Between thread counts its eigenvalues
        can differ by about 2e-14 (A has norm about 3), and its worst
        residual, near EIGEN_TOL, from the 4th digit on: BLAS splits the
        inner products of the loop's Gram blocks by thread.
        """
        return {
            "method": "lobpcg",
            "unknowns": self.unknowns,
            "block_mus": [p.mu for p in self.pairs],
            "worst_residual": self.worst_residual,
            "guard_mus": [float(f"{v:.6g}") for v in self.guard_mus],
            "guard_residuals": [float(f"{r:.6g}") for r in self.guard_residuals],
        }


def near_kernel_block(grid: Grid, seed: int = 0) -> NearKernelBlock:
    """Lowest eigen-block of P on `grid`: one pair per Killing field of the model.

    P depends only on the grid, so the block is solved once per grid and
    seed and cached on the grid. At every grid size the solve is one
    `_lobpcg` run, after three probes of P (`_probed`), from the model's k
    Killing fields (`killing_basis`) and max(1, GUARD_SPAN - k) seeded
    random columns, the guard. Its k lowest columns run to `EIGEN_TOL` and
    are the pairs; the others run to `GUARD_TOL`. (The dense path cannot use
    the Killing start. A dilation start column would converge to its 1/2
    eigenvalue first and retire, soft-locked, before the random columns
    reach the bottom of the spectrum above the block.)

    Raises SolverError when a guard Ritz value is at or below `BLOCK_TOL`,
    when the block does not converge (a residual above 10 * `EIGEN_TOL`), or
    when the guard ends with a residual above `GUARD_TOL`. The guard check
    is one-sided: by Courant-Fischer the (k+1)-th Ritz value of the run is
    an upper bound on the (k+1)-th eigenvalue of P, so a value at or below
    `BLOCK_TOL` proves the block incomplete. Values above it speak for the
    block only as far as the guard has converged, hence the residual check.
    """
    key = ("near_kernel_block", seed)
    return grid._cached(key, lambda: _solve_near_kernel_block(grid, seed))


def _solve_near_kernel_block(grid, seed) -> NearKernelBlock:
    starts = killing_basis(grid)
    k = len(starts)
    guard = max(1, GUARD_SPAN - k)
    rng = _probed(grid, seed)
    vals, vecs, resid, iterations = _lobpcg(grid, starts, guard, k + guard,
                                            np.repeat([EIGEN_TOL, GUARD_TOL], [k, guard]), rng)
    size = grid.n_nodes * grid.n
    print(
        f"near-kernel block: lobpcg, {size} unknowns, {k} pairs, worst residual "
        f"{max(resid[:k]):.2e}; guard Ritz values "
        f"{', '.join(f'{v:.4g}' for v in vals[k:])} (residual <= {max(resid[k:]):.2e}); "
        f"V-cycle levels {'/'.join(map(str, _vcycle(grid).sizes))}, "
        f"width {k + guard} in {iterations} iterations",
        file=sys.stderr,
    )
    if vals[k] <= BLOCK_TOL:
        raise SolverError(
            f"near-kernel block incomplete: guard Ritz value {vals[k]:.3g} is at or "
            f"below BLOCK_TOL {BLOCK_TOL:g}"
        )
    try:
        pairs = _pairs(grid, vals[:k], vecs, EIGEN_TOL)
    except SolverError as exc:
        raise SolverError(f"near-kernel block did not converge: {exc}") from exc
    if max(resid[k:]) > GUARD_TOL:
        raise SolverError(
            f"near-kernel block guard did not converge (worst residual {max(resid[k:]):.2e}, "
            f"GUARD_TOL {GUARD_TOL:g})"
        )
    return NearKernelBlock(pairs, size, vals[k:].tolist(), resid[k:].tolist())


def group_degenerate(pairs: list[SpectralPair]) -> list[list[int]]:
    """Indices grouped into numerically degenerate blocks (gap at most DEGENERATE_GAP)."""
    blocks: list[list[int]] = []
    for i, p in enumerate(pairs):
        if blocks and p.mu - pairs[blocks[-1][-1]].mu <= DEGENERATE_GAP:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def canonicalize_degenerate(pairs: list[SpectralPair]) -> list[SpectralPair]:
    """Rotate each degenerate block to diagonalize the |div_f .|^2 form.

    Individual vectors inside a degenerate block are arbitrary up to rotation;
    this picks the basis aligned with the invariant splitting into
    divergence-free and gradient directions (divergence content ascending), so
    each member satisfies its own secondary eigen-equations. Each rotated
    vector is a new pair (`SpectralPair.of`), its eigenvalue the Rayleigh
    quotient.
    """
    if not pairs:
        return pairs
    grid = pairs[0].field.grid
    ops = grid.ops()
    out = list(pairs)
    for block in group_degenerate(pairs):
        if len(block) == 1:
            continue
        divs = [ops.div(pairs[i].field) for i in block]
        M = np.array([[divs[a].inner(divs[b]) for b in range(len(block))] for a in range(len(block))])
        M = (M + M.T) * 0.5
        _, W = sla.eigh(M)
        for col, i in enumerate(block):
            vals = np.zeros_like(pairs[block[0]].field.values)
            for row, j in enumerate(block):
                vals += W[row, col] * pairs[j].field.values
            out[i] = SpectralPair.of(Field(grid, pairs[i].field.rank, vals))
    return out


@dataclass
class EigenfieldDecomposition:
    """Split of an eigenfield into a divergence-free part and a gradient part,
    with the checks on div_f of the eigenfield.

    Z = Y + beta * grad(div_f Y) with beta = |div_f Y|^2 / |grad div_f Y|^2,
    the unique coefficient for which the discrete Pythagorean identity

        |Y|^2 = |Z|^2 + beta^2 |grad div_f Y|^2

    holds exactly; beta agrees with 2/(2 mu + 1) to stencil order, and their
    relative mismatch is kept as `beta_mismatch` (tests read it; no report
    carries it). Eigen-equation residuals whose
    subject field is below the discretization-noise floor are reported as
    None (the equation is vacuous there, e.g. Z for pure gradient fields).

    div_f Y satisfies the induced scalar eigen-equation
    L_drift(div_f Y) = -(1/2 + mu) div_f Y, whose residual is
    `divf_eigen_residual`, and |div_f Y|^2 <= (4 mu + 1) |Y|^2. Where
    div_f Y is below the floor, the equation is skipped (residual None) and
    the bound holds by default.
    """

    z: Field
    mu: float
    beta: float
    norm_gap: float
    residuals: dict
    beta_mismatch: float
    trivial: bool
    divf_norm_sq: float
    divf_eigen_residual: Optional[float]

    @property
    def divf_bound(self) -> float:
        return 4.0 * self.mu + 1.0

    @property
    def divf_skipped(self) -> bool:
        return self.divf_eigen_residual is None

    @property
    def divf_bound_ok(self) -> bool:
        return self.divf_skipped or self.divf_norm_sq <= self.divf_bound + 1e-3


def decompose_eigenfield(pair: SpectralPair) -> EigenfieldDecomposition:
    """Decompose an eigenpair of P and report the four eigen-equation residuals:
    the three of the decomposition and that of div_f Y. Both floor tests read
    one div_f Y against the stencil-order floor `Grid.stencil_tol`."""
    grid = pair.field.grid
    ops = grid.ops()
    mu = pair.mu
    Y = pair.field
    yn = Y.norm()
    v = ops.div(Y)
    vn = v.norm()
    gv = ops.grad(v)
    gv_norm = gv.norm()
    floor = grid.stencil_tol

    lam_z = 2.0 * mu + 0.5
    lam_g = mu + 0.5
    skipped = vn <= floor * yn
    res_divf = (
        None
        if skipped
        else (ops.lap(v) + v * lam_g).norm_where(grid.interior_mask(3)) / (lam_g * vn)
    )
    interior = grid.interior_mask(applications=4)
    trivial = skipped or gv_norm <= 1e-12 * yn
    if trivial:
        beta = 0.0
        Z = Field(grid, VECTOR, Y.values.copy())
        norm_gap = 0.0
    else:
        beta = vn**2 / gv_norm**2
        Z = Y + gv * beta
        norm_gap = abs(yn**2 - Z.norm() ** 2 - beta**2 * gv_norm**2)

    zn = Z.norm()
    res_div_free = None if trivial else ops.div(Z).norm_where(interior) / vn
    res_grad = (
        None
        if trivial or gv_norm <= floor * yn
        else (ops.lap(gv) + gv * mu).norm_where(interior) / (lam_g * gv_norm)
    )
    res_z = (
        None
        if zn <= floor * yn
        else (ops.lap(Z) + Z * lam_z).norm_where(interior) / (lam_z * zn)
    )
    return EigenfieldDecomposition(
        z=Z,
        mu=mu,
        beta=beta,
        norm_gap=norm_gap,
        residuals={"div_free": res_div_free, "grad_div_eigen": res_grad, "z_eigen": res_z},
        beta_mismatch=0.0 if trivial else abs(beta - 1.0 / lam_g) * lam_g,
        trivial=trivial,
        divf_norm_sq=(vn / yn) ** 2,
        divf_eigen_residual=res_divf,
    )
