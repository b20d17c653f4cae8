"""Equality-constrained nonnegative linear programs.

Solves  max c'a  subject to  A a = b, a >= 0  with a self-contained
two-phase dense simplex.

Phase 1 adds one artificial variable per constraint row and minimizes
their sum, stopping as soon as that sum is within the feasibility
tolerance.  Artificials still in the basis are then pivoted out on the
largest entry of their tableau row; when every real entry of that row
is below the pivot threshold, the artificial's constraint is redundant
and dropped.  Phase 2 maximizes the objective from the basis phase 1
leaves.

``_simplex`` pivots a dense tableau in place.  It prices by Dantzig's
rule: the most negative reduced cost enters, and ratio-test ties go to
the largest pivot element (Harris, Math. Prog. 5, 1973).  After
STALL_PIVOTS pivots in a row that leave the objective unchanged it
falls back to Bland's anti-cycling rule until the objective moves.
Every REFACTOR_PIVOTS pivots, and before a phase returns its verdict,
the tableau is rebuilt as B^-1 [A | b] from the original rows; basic
values that drifted further than DRIFT_TOL from that rebuild raise
SimplexError.  Every choice is deterministic, so the returned vertex
and its support are too.

A solution carries its final ``Basis``: the indices of the kept
constraints and the basic columns.  ``solve(lp, start=basis)`` on an LP
with the same constraints and another objective skips phase 1, because
that basis is still feasible, and starts phase 2 from it.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["Basis", "LinearProgram", "LpSolution", "SimplexError", "solve", "FEASIBILITY_TOL", "SUPPORT_TOL"]

# Constraint data here comes from 0/1 tables, so all scales are O(1).
FEASIBILITY_TOL = 1e-9
SUPPORT_TOL = 1e-8
# A reduced cost below -COST_TOL prices a column into the basis.
COST_TOL = 1e-9
# Smallest pivot element accepted.  With 0/1 data genuine tableau
# entries are far above it; smaller ones are roundoff.
PIVOT_TOL = 1e-7
# Degenerate pivots in a row before Bland's rule takes over.  Dantzig's
# rule ends the degenerate stretches of the facial LPs measured so far
# (up to about 100 pivots on 93 rows) in far fewer pivots than Bland's.
STALL_PIVOTS = 200
# Pivots between rebuilds of the tableau from the original rows.
REFACTOR_PIVOTS = 100
# Largest drift of the basic values, relative to 1 + max|b|, accepted
# at a rebuild.
DRIFT_TOL = 1e-6

# _simplex status codes
OPTIMAL = 0
UNBOUNDED = 3
ITERATION_LIMIT = 5


class SimplexError(RuntimeError):
    """Numerical breakdown: pivot cap exhausted, basis drift or singularity, or a failed check."""


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


class Basis(NamedTuple):
    """An optimal basis: the kept constraints and the basic columns.

    ``rows`` holds constraint indices, in increasing order; ``columns``
    holds the basic columns in tableau position order.  The two are
    not paired: B = A[rows][:, columns].
    """

    rows: np.ndarray
    columns: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    """Optimal vertex (or infeasible/unbounded verdict) for a LinearProgram."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective_value: float
    point: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)
    residual: float
    pivots: int
    basis: Basis = field(default=None, repr=False)  # set when optimal


def _pivot(T, basis, row, col):
    """Pivot the tableau on (row, col): column ``col`` enters the basis at ``row``."""
    T[row, :] /= T[row, col]
    c = T[:, col].copy()
    c[row] = 0.0
    T -= np.outer(c, T[row, :])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _simplex(T, basis, max_iter, stall_pivots=STALL_PIVOTS, refactor=None, stop_at=None):
    """Minimize over a dense tableau in place.

    ``T`` is (m+1, n+1): rows 0..m-1 hold [A | b] with b >= 0 and an
    identity embedded at the columns listed in ``basis``; the last row
    holds [reduced costs | -objective].

    Dantzig's rule: the most negative reduced cost below -COST_TOL
    enters; the leaving row has the minimum ratio over pivot elements
    above PIVOT_TOL, ties going to the largest pivot element.  Once
    ``stall_pivots`` degenerate pivots in a row (steps inside the ratio
    tie band, which leave the objective unchanged) have been made,
    Bland's rule decides instead (lowest entering column, ties to the
    lowest basic-variable index) until a step moves the objective;
    ``stall_pivots=0`` is Bland's rule throughout.

    ``refactor(T, basis, pivots)``, if given, rebuilds T in place from
    the original data every REFACTOR_PIVOTS pivots and before a verdict
    is returned from a tableau pivoted since its last rebuild.  With
    ``stop_at``, the loop also ends as OPTIMAL once the objective is
    <= stop_at.  Returns (status, pivot_count).
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    pivots = stalled = since_refactor = 0
    while True:
        bland = stalled >= stall_pivots
        costs = T[m, :n]
        if bland:
            col = int(np.argmax(costs < -COST_TOL))
        else:
            col = int(np.argmin(costs))
        if stop_at is not None and -T[m, n] <= stop_at or not costs[col] < -COST_TOL:
            status = OPTIMAL
        else:
            a = T[:m, col]
            rows = np.flatnonzero(a > PIVOT_TOL)
            status = UNBOUNDED if rows.size == 0 else None
        if status is not None:
            if refactor is None or since_refactor == 0:
                return status, pivots
            refactor(T, basis, pivots)
            since_refactor = 0
            continue

        # basic values below 0 are roundoff; they take a zero step
        ratios = np.maximum(T[rows, n], 0.0) / a[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-9 * (1.0 + best)]
        row = ties[np.argmin(basis[ties])] if bland else ties[np.argmax(a[ties])]
        _pivot(T, basis, row, col)

        pivots += 1
        since_refactor += 1
        # a step inside the tie band is degenerate: the objective stays
        stalled = stalled + 1 if best <= 1e-9 else 0
        if pivots >= max_iter:
            return ITERATION_LIMIT, pivots
        if refactor is not None and since_refactor >= REFACTOR_PIVOTS:
            refactor(T, basis, pivots)
            since_refactor = 0


def _factor(M, b, cost, basis):
    """Tableau B^-1 [M | b] with its reduced-cost row, for B = M[:, basis].

    Raises numpy.linalg.LinAlgError if B is singular.
    """
    m, n = M.shape
    T = np.empty((m + 1, n + 1))
    T[:m] = np.linalg.solve(M[:, basis], np.column_stack((M, b)))
    T[:m, basis] = np.eye(m)
    T[m, :n] = cost - cost[basis] @ T[:m, :n]
    T[m, basis] = 0.0
    T[m, n] = -cost[basis] @ T[:m, n]
    return T


def _refactorer(M, b, cost, phase):
    """``refactor`` callback for _simplex over the tableau of (M, b, cost)."""
    limit = DRIFT_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))

    def refactor(T, basis, pivots):
        try:
            fresh = _factor(M, b, cost, basis)
        except np.linalg.LinAlgError:
            raise SimplexError(f"phase {phase}: singular basis after {pivots} pivots") from None
        drift = float(np.abs(fresh[:-1, -1] - T[:-1, -1]).max(initial=0.0))
        if not drift <= limit:
            raise SimplexError(
                f"phase {phase}: basic values drifted {drift:.3e} from B^-1 b after {pivots} pivots"
            )
        T[...] = fresh

    return refactor


def _run(T, basis, max_iter, phase, refactor, stop_at=None):
    status, pivots = _simplex(T, basis, max_iter, refactor=refactor, stop_at=stop_at)
    if status == ITERATION_LIMIT:
        raise SimplexError(f"phase {phase}: pivot limit {max_iter} exhausted")
    return status, pivots


def _phase1(A, b, max_iter):
    """Find a feasible basis of A a = b, a >= 0 from the all-artificial one.

    Returns (kept constraints, basic columns, basic values, pivots);
    the constraints and columns are None when the system is infeasible.
    """
    m, n = A.shape
    M = np.hstack((A, np.eye(m)))
    cost = np.concatenate((np.zeros(n), np.ones(m)))
    basis = np.arange(n, n + m, dtype=np.int64)
    T = _factor(M, b, cost, basis)
    _, pivots = _run(T, basis, max_iter, 1, _refactorer(M, b, cost, 1), stop_at=FEASIBILITY_TOL)
    # The sum of artificials is bounded below by 0, so "unbounded" cannot occur.
    if -T[-1, -1] > FEASIBILITY_TOL:
        return None, None, None, pivots

    # Pivot lingering artificials out of the (degenerate) basis.  A
    # tableau row whose real entries are all roundoff makes the
    # constraint of its artificial redundant: the artificial of
    # constraint k sits at some position i, not necessarily k, so
    # position i leaves the basis and constraint k leaves the rows.
    keep_pos = np.ones(m, dtype=bool)
    keep_row = np.ones(m, dtype=bool)
    for i in np.flatnonzero(basis >= n):
        col = int(np.argmax(np.abs(T[i, :n])))
        if abs(T[i, col]) <= PIVOT_TOL:
            keep_pos[i] = False
            keep_row[basis[i] - n] = False
        else:
            _pivot(T, basis, i, col)
    return np.flatnonzero(keep_row), basis[keep_pos], T[:m, -1][keep_pos], pivots


def _warm_tableau(A, b, cost, rows, basis):
    """Phase-2 tableau on ``rows`` and ``basis``, or None if that is no feasible basis."""
    try:
        T = _factor(A[rows], b[rows], cost, basis)
    except np.linalg.LinAlgError:
        return None
    return T if (T[:-1, -1] >= -SUPPORT_TOL).all() else None


def solve(lp, start=None):
    """Solve to an optimal basic feasible (vertex) solution.

    Returns an LpSolution with status "optimal", "infeasible", or
    "unbounded".  ``support`` lists the indices with point > SUPPORT_TOL.
    ``start`` is the ``basis`` of an earlier solution of an LP with the
    same constraints; phase 2 then starts from it, and phase 1 runs only
    if it is not a feasible basis here.

    The thresholds are this module's constants: phase 1 ends once the
    artificial sum is <= FEASIBILITY_TOL, and SUPPORT_TOL is both the
    negative slack a warm-start basis may have and the roundoff clamped
    from the vertex.  Each phase may take 10000 + 100 (m + n) pivots.
    Raises SimplexError on numerical breakdown.
    """
    m, n = lp.n_constraints, lp.n_vars
    max_iter = 10_000 + 100 * (m + n)

    A = lp.constraint_matrix.copy()
    b = lp.rhs.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    cost = -lp.objective  # _simplex minimizes

    total_pivots = 0
    T = None
    if start is not None:
        rows, basis = (np.array(v, dtype=np.int64) for v in start)
        T = _warm_tableau(A, b, cost, rows, basis)
    if T is None:
        rows, basis, x_basic, total_pivots = _phase1(A, b, max_iter)
        if rows is None:
            zero = np.zeros(n)
            return LpSolution("infeasible", np.nan, zero, np.empty(0, dtype=np.int64), np.nan, total_pivots)
    refactor = _refactorer(A[rows], b[rows], cost, 2)
    if T is None:
        # Phase 2 starts from a tableau rebuilt from the kept rows, with
        # the artificial columns gone and the real objective installed.
        T = np.zeros((rows.size + 1, n + 1))
        T[:-1, -1] = x_basic
        refactor(T, basis, 0)

    status, pivots = _run(T, basis, max_iter, 2, refactor)
    total_pivots += pivots
    if status == UNBOUNDED:
        zero = np.zeros(n)
        return LpSolution("unbounded", np.inf, zero, np.empty(0, dtype=np.int64), np.nan, total_pivots)

    x = np.zeros(n)
    x[basis] = T[:-1, -1]
    # vertex coordinates are >= 0 up to roundoff; clamp the dust
    x[(x < 0) & (x > -SUPPORT_TOL)] = 0.0
    if (x < 0).any():
        raise SimplexError("negative basic variable beyond tolerance")

    residual = float(np.max(np.abs(lp.constraint_matrix @ x - lp.rhs))) if m else 0.0
    if residual > max(FEASIBILITY_TOL, 1e-9 * (1.0 + float(np.abs(lp.rhs).max(initial=0.0)))):
        raise SimplexError(f"constraint residual {residual:.3e} exceeds tolerance")

    support = np.flatnonzero(x > SUPPORT_TOL)
    return LpSolution(
        "optimal", float(lp.objective @ x), x, support, residual, total_pivots, Basis(rows, basis)
    )
