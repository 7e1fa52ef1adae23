"""Weighted symmetric eigensolver for P and the eigenfield decomposition.

P = div_f o div_f^* is weighted-symmetric because div_f is the weighted
adjoint of div_f^*. Conjugated by S = sqrt(G) (G the diagonal Gram matrix of
the vector-field inner product) it is the standard symmetric A = K^T K, with
the factor K = sqrt(G_sym2) div_f^* S^-1 built from the first-order operator
(`_factor`). A is assembled only where its entries are needed: densely below
a size cap (the oracle path) and for shift-invert Lanczos above it, both from
`_p_form`. Shift-invert factors the SPD matrix A - SHIFT*I once, as a banded
Cholesky in reverse Cuthill-McKee order (`_BandCholesky`), and hands its
solve to ARPACK; SHIFT sits just below the kernel of P, which keeps ARPACK's
solve count low while the shifted matrix stays well conditioned. A third
path, LOBPCG warm-started from one guess per pair, serves the near-kernel
block of P, which the extension pipeline projects onto: it is solved once per
grid and checked by a guard run (`near_kernel_block`). That path holds only
K, cached on the grid (`_p_factor`), and applies A as K^T (K x)
(`_factored_form`) in both LOBPCG runs and their residuals. Both runs are
preconditioned by an aggregation V-cycle built from K on the grid's tensor
structure (`_VCycle`), whose bottom level is solved by the same banded
Cholesky; the cycle too is built once per grid (`_vcycle`). P itself is only
applied, factor by factor, never assembled: by the weighted-symmetry probe
and by the residuals |P y - mu y|, which every path checks against 10 times
its tolerance. Every pair is built by `SpectralPair.of`: eigenfields come
back unit-norm in the weighted inner product with a fixed sign, so pairs are
deterministic up to rotation inside numerically degenerate blocks.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .fields import Field, VECTOR, killing_basis
from .grid import Grid
from .operators import OperatorHandle, OperatorKind

DENSE_CAP = 5000
# shift-invert factors A - SHIFT*I. ARPACK's step count falls as the shift
# nears the bottom of the spectrum, where the relative gaps
# (mu_{k+1} - mu_k) / (mu_k - SHIFT) of the wanted pairs widen: at -0.1 the
# 40,216-unknown 2D Gaussian takes 52-53 solves for six pairs, against 66-76
# at -0.5. The price is conditioning: A is PSD, so A - SHIFT*I >= I/10 and its
# condition number (lambda_max + 0.1) / 0.1 is about 1e3 to 4e3 on the grids
# measured, which keeps each banded solve accurate to about 1e-12.
SHIFT = -0.1
LOBPCG_MAXITER = 700
# both LOBPCG runs are preconditioned by a V-cycle (`_VCycle`) for
# (A + CYCLE_SHIFT*I)^-1, coarsened down to at most CYCLE_BOTTOM unknowns
CYCLE_SHIFT = 0.25
CYCLE_BOTTOM = 2000
# the cycle's damped-Jacobi sweeps take JACOBI_WEIGHT / rho, rho a bound on
# lambda_max(D^-1 (A + CYCLE_SHIFT*I)); below 2 the cycle stays SPD (`_VCycle`)
JACOBI_WEIGHT = 1.9
# eigenpairs of P at or below BLOCK_TOL form the near-kernel block that an
# approximate symmetry is projected onto (`NearKernelBlock.block`); a guard
# Ritz value at or below it proves the block incomplete
BLOCK_TOL = 1e-2
# the guard of `near_kernel_block` runs max(1, GUARD_SPAN - len(pairs)) random
# vectors, where pairs are the solved pairs, one per Killing field
GUARD_SPAN = 6
# the guard needs upper bounds on the next eigenvalues that resolve BLOCK_TOL.
# At residual 0.1 the guard's Ritz values on a 3D Gaussian grid missing two
# rotations (true eigenvalue 6.4e-4) stopped at 0.010-0.012 and passed the
# block; at 0.01 they reached 7e-4 to 8e-4. A guard that ends above GUARD_TOL
# raises. The guard takes about 25 iterations on the 62,856-unknown 2D
# Gaussian grid of the propagate benchmark; GUARD_MAXITER only bounds a run
# that stagnates.
GUARD_TOL = 0.01
GUARD_MAXITER = 600
# eigenvalues closer than this form one degenerate block (`group_degenerate`)
DEGENERATE_GAP = 1e-4


class SolverError(RuntimeError):
    """Eigensolver failure or operator structure violation."""


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

        The lead entry is the first, in storage order, within 1e-6 relative of
        the largest magnitude: a field odd under a symmetry of the grid, such
        as a rotation, has its largest entries in pairs of opposite sign that
        differ by round-off, so the largest alone picks either sign.
        """
        ops = field.grid.ops()
        field = field * (1.0 / field.norm())
        size = np.abs(field.values)
        if field.values.flat[np.argmax(size >= (1.0 - 1e-6) * size.max())] < 0:
            field = field * -1.0
        if mu is None:
            mu = ops.rayleigh_p(field)
        return cls(mu=mu, field=field, residual=(ops.p_apply(field) - field * mu).norm())


def _factor(grid: Grid) -> tuple[sp.csr_matrix, np.ndarray]:
    """Return (K, s) for P on `grid`: K = sqrt(G_sym2) div_f^* S^-1, S = diag(s).

    P = (1/G_vec) M^T G_sym2 M for M = div_f^*, so with s = sqrt(G_vec)
    S P S^-1 = K^T K, symmetric by construction, and eigenfields are
    recovered as y/s.
    """
    ops = grid.ops()
    s = np.sqrt(ops.gram_vector)
    K = sp.diags(np.sqrt(ops.gram_sym2)) @ ops.assemble(OperatorKind.DIV_F_STAR) @ sp.diags(1.0 / s)
    return K.tocsr(), s


def _symmetric_form(grid: Grid) -> tuple[sp.csr_matrix, np.ndarray]:
    """Return (A, s) for P on `grid`: A = K^T K assembled from a factor (`_factor`)
    that is built for it and not kept."""
    K, s = _factor(grid)
    return (K.T @ K).tocsr(), s


def _p_form(grid: Grid) -> tuple[sp.csr_matrix, np.ndarray]:
    """P's symmetric form (A, s) on `grid`, built on first use and cached on it."""
    return grid._cached("p_form", lambda: _symmetric_form(grid))


def _p_factor(grid: Grid) -> tuple[sp.csr_matrix, np.ndarray]:
    """P's factor (K, s) on `grid`, built on first use and cached on it."""
    return grid._cached("p_factor", lambda: _factor(grid))


def _factored_form(K: sp.csr_matrix) -> spla.LinearOperator:
    """A = K^T K as an operator that applies K^T (K x) and never assembles A."""
    Kt = K.T

    def apply(x):
        return Kt @ (K @ x)

    return spla.LinearOperator((K.shape[1], K.shape[1]), matvec=apply, matmat=apply,
                               dtype=K.dtype)


def solver_storage(grid: Grid) -> dict[str, int]:
    """nnz of each solver matrix cached on `grid`, by name: P's factor `K`, its
    symmetric form `A` where the dense or shift-invert path assembled it, and
    the V-cycle's coarse operators."""
    held = {}
    if "p_factor" in grid._cache:
        held["K"] = grid._cache["p_factor"][0].nnz
    if "p_form" in grid._cache:
        held["A"] = grid._cache["p_form"][0].nnz
    if "vcycle" in grid._cache:
        held["V-cycle"] = sum(level[0].nnz for level in grid._cache["vcycle"].levels[1:])
    return held


class _BandCholesky:
    """Banded Cholesky factor of a sparse SPD matrix in reverse Cuthill-McKee order.

    RCM narrows a grid stencil's profile to a band of half-width `bandwidth`.
    The permuted lower triangle is written straight from COO into the LAPACK
    lower band `ab[i - j, j]`, Fortran-ordered so that `pbtrf` factors it in
    place without a copy. `solve` applies M^-1 to a vector or to the columns
    of a matrix and counts its calls in `solves`.
    """

    def __init__(self, M: sp.csr_matrix):
        started = time.perf_counter()
        size = M.shape[0]
        self.perm = csgraph.reverse_cuthill_mckee(M, symmetric_mode=True)
        rank = np.empty(size, dtype=np.intp)
        rank[self.perm] = np.arange(size)
        coo = M.tocoo()
        rows, cols = rank[coo.row], rank[coo.col]
        lower = rows >= cols
        rows, cols, data = rows[lower], cols[lower], coo.data[lower]
        self.bandwidth = int(np.max(rows - cols, initial=0))
        self.band_mb = (self.bandwidth + 1) * size * 8 / 1e6
        try:
            ab = np.zeros((self.bandwidth + 1, size), order="F")
        except MemoryError as exc:
            raise SolverError(
                f"shift-invert band of {self.band_mb:.0f} MB (bandwidth {self.bandwidth}, "
                f"{size} unknowns) does not fit in memory"
            ) from exc
        ab[rows - cols, cols] = data
        try:
            self.factor = sla.cholesky_banded(ab, lower=True, overwrite_ab=True,
                                              check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"shift-invert operator is not positive definite: {exc}") from exc
        self.factor_s = time.perf_counter() - started
        self.solves = 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        self.solves += 1
        x = np.empty_like(b)
        x[self.perm] = sla.cho_solve_banded((self.factor, True), b[self.perm],
                                            check_finite=False)
        return x


class _VCycle:
    """Aggregation V-cycle for (A + CYCLE_SHIFT*I)^-1 on the grid's tensor structure.

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
    with the weight JACOBI_WEIGHT / rho, where rho = max_i (b_i + c) / d_i for
    the shifted diagonal d and a bound b on the row sums of |A|: |K|^T |K| 1
    on the finest level, since |K^T K| <= |K|^T |K| entrywise, and |A| 1 on
    the assembled levels. Either way rho bounds lambda_max(D^-1 (A + c I)),
    so the smoother's eigenvalues lie in (0, JACOBI_WEIGHT) and, for a weight
    below 2, the cycle is symmetric positive definite. `applications` counts
    the calls of `apply`.
    """

    def __init__(self, K: sp.csr_matrix, s: np.ndarray, node_multi: np.ndarray):
        ncomp = len(s) // len(node_multi)
        self.levels = []  # (A, damped inverse diagonal as a column, T) per smoothed level
        A = _factored_form(K)
        diagonal = np.bincount(K.indices, weights=K.data**2, minlength=K.shape[1])
        absK = abs(K)
        row_sums = absK.T @ (absK @ np.ones(K.shape[1]))
        while A.shape[0] > CYCLE_BOTTOM:
            cells, agg = np.unique(node_multi // 2, axis=0, return_inverse=True)
            cols = (np.arange(ncomp)[:, None] * len(cells) + agg.ravel()[None, :]).ravel()
            norms = np.sqrt(np.bincount(cols, weights=s * s))
            T = sp.csr_matrix((s / norms[cols], (np.arange(len(s)), cols)),
                              shape=(len(s), len(norms)))
            diagonal = diagonal + CYCLE_SHIFT
            smooth = JACOBI_WEIGHT / (diagonal * np.max((row_sums + CYCLE_SHIFT) / diagonal))
            self.levels.append((A, smooth[:, None], T))
            if len(self.levels) == 1:
                factor = K @ T
                A = (factor.T @ factor).tocsr()
            else:
                A = (T.T @ A @ T).tocsr()
            diagonal, row_sums = A.diagonal(), abs(A) @ np.ones(A.shape[0])
            s, node_multi = norms, cells
        if not self.levels:
            A = (K.T @ K).tocsr()
        self.bottom = _BandCholesky(A + CYCLE_SHIFT * sp.identity(A.shape[0], format="csr"))
        self.sizes = [level[0].shape[0] for level in self.levels] + [A.shape[0]]
        self.applications = 0

    def _cycle(self, depth: int, b: np.ndarray) -> np.ndarray:
        if depth == len(self.levels):
            return self.bottom.solve(b)
        A, smooth, T = self.levels[depth]
        x = smooth * b
        x += T @ self._cycle(depth + 1, T.T @ (b - A @ x - CYCLE_SHIFT * x))
        return x + smooth * (b - A @ x - CYCLE_SHIFT * x)

    def apply(self, b: np.ndarray) -> np.ndarray:
        self.applications += 1
        return self._cycle(0, b.reshape(b.shape[0], -1)).reshape(b.shape)

    def operator(self) -> spla.LinearOperator:
        size = self.sizes[0]
        return spla.LinearOperator((size, size), matvec=self.apply, matmat=self.apply,
                                   dtype=np.float64)


def _vcycle(grid: Grid) -> _VCycle:
    """The V-cycle of P's symmetric form on `grid`, built from its factor K on
    first use and cached on it."""
    return grid._cached("vcycle", lambda: _VCycle(*_p_factor(grid), grid.node_multi))


def _check_weighted_symmetry(handle: OperatorHandle, rng):
    """Probe <M u, v> = <u, M v> in the weighted product, with M applied factor by factor."""
    ops = handle.grid.ops()
    gram = ops.gram(handle.in_rank)
    for _ in range(3):
        u = rng.standard_normal(len(gram))
        v = rng.standard_normal(len(gram))
        left = float(np.sum(gram * ops.matvec(handle.kind, u) * v))
        right = float(np.sum(gram * u * ops.matvec(handle.kind, v)))
        scale = max(abs(left), abs(right), 1e-300)
        if abs(left - right) > 1e-8 * scale:
            raise SolverError("adjointness broken: operator is not weighted-symmetric")


def _lobpcg(K: sp.csr_matrix, X, cycle: _VCycle, tol: float, maxiter: int, Y=None):
    """LOBPCG for the lowest eigenpairs of A = K^T K, applied as K^T (K x), from
    the block X, held orthogonal to Y.

    Returns the Ritz values ascending (a stable sort keeps tied values in
    order), their vectors and the residual norms |A v - mu v|.
    """
    A = _factored_form(K)
    vals, vecs = spla.lobpcg(A, X, Y=Y, M=cycle.operator(), largest=False,
                             tol=tol, maxiter=maxiter)
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    return vals, vecs, np.linalg.norm(A @ vecs - vecs * vals[None, :], axis=0)


def lowest_eigenpairs(
    operator: OperatorHandle,
    count: int,
    tolerance: float = 1e-9,
    method: str = "auto",
    seed: int = 0,
    guesses: Optional[list[Field]] = None,
) -> list[SpectralPair]:
    """Lowest eigenpairs of P (`operator` is an `OP_P` handle), sorted ascending.

    Every path solves P's symmetric form A = K^T K. The dense and
    shift-invert paths assemble A (`_p_form`, once per grid); the LOBPCG path
    applies it through the cached factor K (`_p_factor`). `auto` takes the
    dense solve up to `DENSE_CAP` unknowns (the oracle) and shift-invert
    Lanczos above it. Shift-invert factors A - SHIFT*I once with
    `_BandCholesky`, prints the factor's size and time and the solve count
    on stderr, and raises SolverError when the shifted operator is not
    positive definite or its band does not fit in memory. `method="lobpcg"`
    runs LOBPCG, preconditioned by the grid's V-cycle (`_vcycle`), from
    exactly `count` `guesses`; closed-form near-kernel fields make it
    converge quickly, and `near_kernel_block` calls it so. On every path the
    worst residual |P y - mu y|, measured through the factored P
    (`SpectralPair.of`), must end at or below 10 * `tolerance`, else
    SolverError. Another operator kind, `guesses` on another path, or a
    guess count other than `count`, is a ValueError.
    """
    if operator.kind != OperatorKind.OP_P:
        raise ValueError(f"lowest_eigenpairs solves P only, not {operator.kind.value}")
    if count < 1:
        raise ValueError("count must be >= 1")
    grid = operator.grid
    size = grid.n_nodes * grid.n
    if count >= size:
        raise ValueError("count must be smaller than the number of unknowns")
    if method == "auto":
        method = "dense" if size <= DENSE_CAP else "sparse"
    if method not in ("dense", "sparse", "lobpcg"):
        raise ValueError(f"unknown method {method!r}")
    if guesses is not None and method != "lobpcg":
        raise ValueError(f"guesses warm-start only the lobpcg path, not {method!r}")
    if method == "lobpcg" and len(guesses or []) != count:
        raise ValueError(f"the lobpcg path runs from exactly count={count} guesses")
    rng = np.random.default_rng(seed)
    _check_weighted_symmetry(operator, rng)

    if method == "lobpcg":
        K, s = _p_factor(grid)
        X, _ = np.linalg.qr(np.stack([g.flat() * s for g in guesses], axis=1))
        vals, vecs, _ = _lobpcg(K, X, _vcycle(grid), max(tolerance, 1e-10), LOBPCG_MAXITER)
    elif method == "dense":
        A, s = _p_form(grid)
        vals, vecs = sla.eigh(A.toarray(), subset_by_index=[0, count - 1])
    else:
        A, s = _p_form(grid)
        # A - SHIFT*I is SPD (A is PSD and SHIFT < 0), so it is factored once,
        # as a banded Cholesky, and eigsh runs on its solve
        chol = _BandCholesky(A - SHIFT * sp.identity(size, format="csr"))
        try:
            vals, vecs = spla.eigsh(
                A, k=count, sigma=SHIFT, which="LM", tol=tolerance,
                v0=rng.standard_normal(size),
                OPinv=spla.LinearOperator(A.shape, matvec=chol.solve, dtype=A.dtype),
            )
        except spla.ArpackNoConvergence as exc:
            got = len(exc.eigenvalues)
            raise SolverError(
                f"eigensolver did not converge (best: {got}/{count} pairs)"
            ) from exc
        finally:
            print(
                f"shift-invert: banded Cholesky (RCM), {size} unknowns, bandwidth "
                f"{chol.bandwidth}, band {chol.band_mb:.0f} MB, factor {chol.factor_s:.2f} s, "
                f"{chol.solves} solves",
                file=sys.stderr,
            )
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]

    pairs = [SpectralPair.of(Field.from_flat(grid, VECTOR, vecs[:, i] / s), float(vals[i]))
             for i in range(count)]
    worst = max(p.residual for p in pairs)
    if worst > 10.0 * tolerance:
        raise SolverError(
            f"eigensolver did not converge (worst residual {worst:.2e}, "
            f"tolerance {tolerance:.1e})"
        )
    return pairs


@dataclass(frozen=True)
class NearKernelBlock:
    """The lowest eigen-block of P on one grid, and the guard run that checked it.

    `pairs` are the solved pairs, one per Killing field of the model;
    `guard_mus` are Ritz values of P on the weighted-orthogonal complement of
    the pairs, ascending, with the residual norms they reached.
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

        The guard run's values differ with the BLAS thread count from
        about the 11th digit on; six significant digits keep them equal.
        The block's values are reported in full. Between thread counts its
        eigenvalues can differ by about 1e-13 relative, and its round-off
        sized worst residual from the 7th digit on, once LOBPCG's active set
        has shrunk to one vector, whose inner products BLAS splits by thread.
        """
        return {
            "method": "lobpcg",
            "unknowns": self.unknowns,
            "block_mus": [p.mu for p in self.pairs],
            "worst_residual": self.worst_residual,
            "guard_mus": [float(f"{v:.6g}") for v in self.guard_mus],
            "guard_residuals": [float(f"{r:.6g}") for r in self.guard_residuals],
        }


def near_kernel_block(grid: Grid, tolerance: float = 1e-9, seed: int = 0) -> NearKernelBlock:
    """Lowest eigen-block of P on `grid`: one pair per Killing field of the model.

    P depends only on the grid, so the block is solved once per grid and
    argument set and cached on the grid. At every grid size the solve is the
    LOBPCG path of `lowest_eigenpairs`, with one guess per pair:
    `killing_basis(grid)`. The dense and shift-invert paths, which
    `method="auto"` takes, cannot use that start. A guard follows:
    LOBPCG with `GUARD_SPAN - len(pairs)` seeded random vectors (at least
    one), held orthogonal to the pairs, run to `GUARD_TOL` for at most
    `GUARD_MAXITER` iterations. Both runs go through `_lobpcg` and share P's
    factor K and the V-cycle preconditioner built from it, cached on the
    grid; neither assembles the symmetric form K^T K. (A
    dilation start vector would converge to its 1/2 eigenvalue first;
    LOBPCG's soft locking then retires the guard before the random vectors
    reach the bottom of the complement's spectrum.)

    Raises SolverError when the block does not converge (a residual above
    10 * `tolerance`), when a guard Ritz value is at or below `BLOCK_TOL`, or
    when the guard ends with a residual above `GUARD_TOL`.
    The guard check is one-sided: Ritz values are upper bounds on the
    eigenvalues of P on the complement of the block, so a value at or below
    `BLOCK_TOL` proves the block incomplete. Values above it speak for the
    block only as far as the guard has converged, hence the residual check.
    """
    key = ("near_kernel_block", tolerance, seed)
    return grid._cached(key, lambda: _solve_near_kernel_block(grid, tolerance, seed))


def _solve_near_kernel_block(grid, tolerance, seed) -> NearKernelBlock:
    handle = grid.ops().handle(OperatorKind.OP_P)
    # the block solve below builds nothing: it finds the factor and cycle in the grid's cache
    K, s = _p_factor(grid)
    cycle = _vcycle(grid)
    size = K.shape[1]
    started = cycle.applications
    starts = killing_basis(grid)
    try:
        pairs = lowest_eigenpairs(
            handle, len(starts), tolerance=tolerance, method="lobpcg", seed=seed, guesses=starts
        )
    except SolverError as exc:
        raise SolverError(f"near-kernel block did not converge: {exc}") from exc

    block_iterations = cycle.applications - started
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((size, max(1, GUARD_SPAN - len(pairs))))
    Y = np.stack([p.field.flat() * s for p in pairs], axis=1)
    vals, _, resid = _lobpcg(K, X, cycle, GUARD_TOL, GUARD_MAXITER, Y=Y)
    block = NearKernelBlock(
        pairs=pairs,
        unknowns=size,
        guard_mus=[float(v) for v in vals],
        guard_residuals=[float(r) for r in resid],
    )
    guard_iterations = cycle.applications - started - block_iterations
    print(
        f"near-kernel block: lobpcg, {size} unknowns, {len(pairs)} pairs, "
        f"worst residual {block.worst_residual:.2e}; guard Ritz values "
        f"{', '.join(f'{v:.4g}' for v in block.guard_mus)} (residual <= {max(resid):.2e}); "
        f"V-cycle levels {'/'.join(map(str, cycle.sizes))}, "
        f"{block_iterations} block and {guard_iterations} guard iterations",
        file=sys.stderr,
    )
    if vals[0] <= BLOCK_TOL:
        raise SolverError(
            f"near-kernel block incomplete: guard Ritz value {vals[0]:.3g} is at or "
            f"below BLOCK_TOL {BLOCK_TOL:g}"
        )
    if max(resid) > GUARD_TOL:
        raise SolverError(
            f"near-kernel block guard did not converge (worst residual {max(resid):.2e}, "
            f"GUARD_TOL {GUARD_TOL:g})"
        )
    return block


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


@dataclass(frozen=True)
class DivfEigenCheck:
    """Check of the induced scalar eigen-equation for div_f of an eigenfield."""

    mu: float
    divf_norm_sq: float
    bound: float
    bound_ok: bool
    eigen_residual: Optional[float]
    skipped: bool


def eigencheck_divf(pair: SpectralPair) -> DivfEigenCheck:
    """Verify L_drift(div_f Z) = -(1/2 + mu) div_f Z and |div_f Z|^2 <= 4 mu + 1.

    Pairs whose weighted divergence is pure discretization noise (below the
    stencil-order floor `Grid.stencil_tol`) are reported as skipped.
    """
    grid = pair.field.grid
    ops = grid.ops()
    v = ops.div(pair.field)
    vn = v.norm()
    zn = pair.field.norm()
    bound = 4.0 * pair.mu + 1.0
    if vn <= grid.stencil_tol * zn:
        return DivfEigenCheck(
            mu=pair.mu,
            divf_norm_sq=(vn / zn) ** 2,
            bound=bound,
            bound_ok=True,
            eigen_residual=None,
            skipped=True,
        )
    lam = 0.5 + pair.mu
    interior = grid.interior_mask(applications=3)
    resid = (ops.lap(v) + v * lam).norm_where(interior) / (lam * vn)
    norm_sq = (vn / zn) ** 2
    return DivfEigenCheck(
        mu=pair.mu,
        divf_norm_sq=norm_sq,
        bound=bound,
        bound_ok=norm_sq <= bound + 1e-3,
        eigen_residual=resid,
        skipped=False,
    )


@dataclass
class EigenfieldDecomposition:
    """Split of an eigenfield into a divergence-free part and a gradient part.

    Z = Y + beta * grad(div_f Y) with beta = |div_f Y|^2 / |grad div_f Y|^2,
    the unique coefficient for which the discrete Pythagorean identity

        |Y|^2 = |Z|^2 + beta^2 |grad div_f Y|^2

    holds exactly; beta agrees with 2/(2 mu + 1) to stencil order and the
    mismatch is reported as a diagnostic. Eigen-equation residuals whose
    subject field is below the discretization-noise floor are reported as
    None (the equation is vacuous there, e.g. Z for pure gradient fields).
    """

    y: Field
    z: Field
    mu: float
    beta: float
    norm_gap: float
    residuals: dict = dc_field(default_factory=dict)
    beta_mismatch: float = 0.0
    trivial: bool = False

    def residuals_ok(self, tol: float) -> bool:
        return all(v is None or v <= tol for v in self.residuals.values())


def decompose_eigenfield(pair: SpectralPair) -> EigenfieldDecomposition:
    """Decompose an eigenpair of P and report the three eigen-equation residuals."""
    grid = pair.field.grid
    ops = grid.ops()
    mu = pair.mu
    if mu < -0.25:
        raise SolverError("eigenvalue below -1/4: decomposition coefficient undefined")
    Y = pair.field
    yn = Y.norm()
    v = ops.div(Y)
    vn = v.norm()
    gv = ops.grad(v)
    gv_norm = gv.norm()
    floor = grid.stencil_tol

    lam_z = 2.0 * mu + 0.5
    lam_g = mu + 0.5
    interior = grid.interior_mask(applications=4)
    trivial = vn <= floor * yn or gv_norm <= 1e-12 * yn
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
        y=Y,
        z=Z,
        mu=mu,
        beta=beta,
        norm_gap=norm_gap,
        residuals={"div_free": res_div_free, "grad_div_eigen": res_grad, "z_eigen": res_z},
        beta_mismatch=0.0 if trivial else abs(beta - 1.0 / lam_g) * lam_g,
        trivial=trivial,
    )
