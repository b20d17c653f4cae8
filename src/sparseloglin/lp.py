"""Equality-constrained nonnegative linear programs.

Solves  max c'a  subject to  A a = b, a >= 0  with a self-contained
two-phase dense simplex.  ``_simplex`` minimizes over a dense tableau
in place with Bland's anti-cycling rule (numpy scans pick the entering
column and the leaving row), so pivoting, and therefore the returned
vertex and its support, is deterministic.  Phase 1 introduces one
artificial variable per constraint row; rows whose artificial cannot be
pivoted out are redundant and dropped.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LinearProgram", "LpSolution", "SimplexError", "solve", "FEASIBILITY_TOL", "SUPPORT_TOL"]

# Constraint data here comes from 0/1 tables, so all scales are O(1).
FEASIBILITY_TOL = 1e-9
SUPPORT_TOL = 1e-8

# _simplex status codes
OPTIMAL = 0
UNBOUNDED = 3
ITERATION_LIMIT = 5


class SimplexError(RuntimeError):
    """Numerical breakdown: pivot tolerance or iteration cap exhausted."""


@dataclass(frozen=True)
class LinearProgram:
    """max objective . a  subject to  constraint_matrix @ a = rhs, a >= 0."""

    objective: np.ndarray = field(repr=False)
    constraint_matrix: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64)
        a = np.asarray(self.constraint_matrix, dtype=np.float64)
        b = np.asarray(self.rhs, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("constraint matrix must be 2-D")
        m, n = a.shape
        if c.shape != (n,):
            raise ValueError(f"objective has shape {c.shape}, expected ({n},)")
        if b.shape != (m,):
            raise ValueError(f"rhs has shape {b.shape}, expected ({m},)")
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("non-finite entries in LP data")
        for arr in (c, a, b):
            arr.flags.writeable = False
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", np.ascontiguousarray(a))
        object.__setattr__(self, "rhs", b)

    @property
    def n_vars(self):
        return self.constraint_matrix.shape[1]

    @property
    def n_constraints(self):
        return self.constraint_matrix.shape[0]


@dataclass(frozen=True)
class LpSolution:
    """Optimal vertex (or infeasible/unbounded verdict) for a LinearProgram."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective_value: float
    point: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)
    residual: float
    pivots: int


def _pivot(T, basis, row, col):
    """Pivot the tableau on (row, col): column ``col`` enters the basis at ``row``."""
    T[row, :] /= T[row, col]
    c = T[:, col].copy()
    c[row] = 0.0
    T -= np.outer(c, T[row, :])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _simplex(T, basis, tol, max_iter):
    """Minimize over a dense tableau in place using Bland's rule.

    ``T`` is (m+1, n+1): rows 0..m-1 hold [A | b] with b >= 0 and an
    identity embedded at the columns listed in ``basis``; the last row
    holds [reduced costs | -objective].  Entering variable: lowest
    column index with reduced cost below -tol.  Leaving variable:
    minimum ratio, ties broken by lowest basic-variable index.  Returns
    (status, pivot_count).
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    pivots = 0
    while True:
        entering = T[m, :n] < -tol
        col = int(np.argmax(entering))
        if not entering[col]:
            return OPTIMAL, pivots

        a = T[:m, col]
        rows = np.flatnonzero(a > tol)
        ratios = T[rows, n] / a[rows]
        best = ratios.min(initial=np.inf)
        if best == np.inf:
            return UNBOUNDED, pivots
        # Degenerate ties are resolved toward the lowest basic-variable
        # index; together with the entering rule this is Bland's
        # anti-cycling pivot.
        ties = rows[ratios <= best + 1e-9 * (1.0 + abs(best))]
        _pivot(T, basis, ties[np.argmin(basis[ties])], col)

        pivots += 1
        if pivots >= max_iter:
            return ITERATION_LIMIT, pivots


def _run(T, basis, tol, max_iter, phase):
    status, pivots = _simplex(T, basis, tol, max_iter)
    if status == ITERATION_LIMIT:
        raise SimplexError(f"phase {phase}: pivot limit {max_iter} exhausted")
    return status, pivots


def solve(lp, feasibility_tol=FEASIBILITY_TOL, support_tol=SUPPORT_TOL, pivot_tol=1e-10, max_iter=None):
    """Solve to an optimal basic feasible (vertex) solution.

    Returns an LpSolution with status "optimal", "infeasible", or
    "unbounded".  ``support`` lists the indices with point > support_tol.
    Raises SimplexError on numerical breakdown.
    """
    m, n = lp.n_constraints, lp.n_vars
    if max_iter is None:
        max_iter = 10_000 + 100 * (m + n)

    A = lp.constraint_matrix.copy()
    b = lp.rhs.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: minimize the sum of artificials, starting from the
    # all-artificial identity basis.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = np.arange(n, n + m, dtype=np.int64)

    total_pivots = 0
    status, pivots = _run(T, basis, pivot_tol, max_iter, phase=1)
    total_pivots += pivots
    # Phase-1 objective is bounded below by 0, so "unbounded" cannot occur.
    if -T[-1, -1] > feasibility_tol:
        zero = np.zeros(n)
        return LpSolution("infeasible", np.nan, zero, np.empty(0, dtype=np.int64), np.nan, total_pivots)

    # Pivot lingering artificials out of the (degenerate) basis; a row
    # whose real entries are all zero is a redundant constraint.
    keep_rows = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            nonzero = np.flatnonzero(np.abs(T[i, :n]) > 1e-9)
            if nonzero.size == 0:
                keep_rows[i] = False
                continue
            _pivot(T, basis, i, nonzero[0])
    if not keep_rows.all():
        T = np.vstack([T[:m][keep_rows], T[-1:]])
        basis = basis[keep_rows]
        m = int(keep_rows.sum())

    # Phase 2: drop artificial columns, install the real objective
    # (negated: _simplex minimizes) reduced through the current basis.
    T2 = np.zeros((m + 1, n + 1))
    T2[:m, :n] = T[:m, :n]
    T2[:m, -1] = T[:m, -1]
    T2[-1, :n] = -lp.objective
    for i in range(m):
        T2[-1, :] -= T2[-1, basis[i]] * T2[i, :]

    status, pivots = _run(T2, basis, pivot_tol, max_iter, phase=2)
    total_pivots += pivots
    if status == UNBOUNDED:
        zero = np.zeros(n)
        return LpSolution("unbounded", np.inf, zero, np.empty(0, dtype=np.int64), np.nan, total_pivots)

    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = T2[:m, -1][real]
    # vertex coordinates are >= 0 up to roundoff; clamp the dust
    x[(x < 0) & (x > -support_tol)] = 0.0
    if (x < 0).any():
        raise SimplexError("negative basic variable beyond tolerance")

    residual = float(np.max(np.abs(lp.constraint_matrix @ x - lp.rhs))) if m else 0.0
    if residual > max(feasibility_tol, 1e-9 * (1.0 + float(np.abs(lp.rhs).max(initial=0.0)))):
        raise SimplexError(f"constraint residual {residual:.3e} exceeds tolerance")

    support = np.flatnonzero(x > support_tol)
    return LpSolution("optimal", float(lp.objective @ x), x, support, residual, total_pivots)
