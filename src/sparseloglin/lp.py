"""Equality-constrained nonnegative linear programs.

Solves  max c'a  subject to  A a = b, a >= 0  with a self-contained
two-phase dense simplex.  The contract is that of the facial LPs,
X'a = t': b >= 0 (``LinearProgram`` rejects a negative entry), the
rows of A are linearly independent, and the LP is feasible and
bounded.  ``solve`` returns an optimal vertex or raises SimplexError;
it reads A and b in place.

Phase 1 adds one artificial variable per constraint row and minimizes
their sum, stopping as soon as that sum is within the feasibility
tolerance; a larger minimum raises "infeasible".  Artificials still in
the basis are then pivoted out on the largest entry of their tableau
row; a row with no real entry above the pivot threshold makes the
artificial's constraint a combination of the others, which raises
"linearly dependent".  Phase 2 maximizes the objective from the basis
phase 1 leaves; an improving column with no positive entry raises
"unbounded".

``_simplex`` pivots a dense tableau in place.  It prices by Dantzig's
rule: the most negative reduced cost enters, and ratio-test ties go to
the largest pivot element (Harris, Math. Prog. 5, 1973).  After
STALL_PIVOTS pivots in a row that leave the objective unchanged it
falls back to Bland's anti-cycling rule until the objective moves.
Every REFACTOR_PIVOTS pivots, and before a phase returns its verdict,
the tableau is rebuilt as B^-1 [A | b] from the original rows; basic
values that drifted further than DRIFT_TOL from that rebuild raise
SimplexError.  Every choice is deterministic, so the returned vertex
is too.

A solution carries its final ``basis``: the basic columns in tableau
position order.  ``solve(lp, start=basis)`` on an LP with the same
constraints and another objective skips phase 1, because that basis is
still feasible, and starts phase 2 from it.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LinearProgram", "LpSolution", "SimplexError", "solve", "FEASIBILITY_TOL", "SUPPORT_TOL"]

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
    """No optimum: an LP outside the contract, or numerical breakdown (pivot cap, drift, a failed check)."""


@dataclass(frozen=True)
class LinearProgram:
    """max objective . a  subject to  constraint_matrix @ a = rhs, a >= 0, with rhs >= 0.

    The arrays are kept as read-only views; a C-contiguous float64
    constraint matrix is not copied.
    """

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
        if (b < 0).any():
            raise ValueError("negative rhs entry; negate its constraint row")
        c, a, b = (arr.view() for arr in (c, np.ascontiguousarray(a), b))
        for arr in (c, a, b):
            arr.flags.writeable = False
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", a)
        object.__setattr__(self, "rhs", b)

    @property
    def n_vars(self):
        return self.constraint_matrix.shape[1]

    @property
    def n_constraints(self):
        return self.constraint_matrix.shape[0]


@dataclass(frozen=True)
class LpSolution:
    """Optimal vertex of a LinearProgram, with its basic columns in tableau position order."""

    objective_value: float
    point: np.ndarray = field(repr=False)
    residual: float
    pivots: int
    basis: np.ndarray = field(repr=False)


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
    limit = DRIFT_TOL * (1.0 + float(b.max(initial=0.0)))

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
    if status == UNBOUNDED:
        raise SimplexError(f"phase {phase}: objective unbounded after {pivots} pivots")
    return pivots


def _phase1(A, b, max_iter):
    """Find a feasible basis of A a = b, a >= 0 from the all-artificial one.

    Returns (basic columns, basic values, pivots).  Raises SimplexError
    when the system is infeasible or a constraint is a linear
    combination of the others.
    """
    m, n = A.shape
    M = np.hstack((A, np.eye(m)))
    cost = np.concatenate((np.zeros(n), np.ones(m)))
    basis = np.arange(n, n + m, dtype=np.int64)
    T = _factor(M, b, cost, basis)
    pivots = _run(T, basis, max_iter, 1, _refactorer(M, b, cost, 1), stop_at=FEASIBILITY_TOL)
    if -T[-1, -1] > FEASIBILITY_TOL:
        raise SimplexError(f"phase 1: infeasible, artificial sum {-T[-1, -1]:.3e} after {pivots} pivots")

    # Pivot lingering artificials out of the (degenerate) basis.  The
    # artificial of constraint k sits at some position i, not
    # necessarily k; when the real entries of row i are all roundoff,
    # constraint k is a combination of the others.
    for i in np.flatnonzero(basis >= n):
        col = int(np.argmax(np.abs(T[i, :n])))
        if abs(T[i, col]) <= PIVOT_TOL:
            raise SimplexError(f"constraint {basis[i] - n} is linearly dependent")
        _pivot(T, basis, i, col)
    return basis, T[:m, -1].copy(), pivots  # a copy frees the phase-1 tableau


def _warm_tableau(A, b, cost, basis):
    """Phase-2 tableau on ``basis``, or None if that is no feasible basis."""
    try:
        T = _factor(A, b, cost, basis)
    except np.linalg.LinAlgError:
        return None
    return T if (T[:-1, -1] >= -SUPPORT_TOL).all() else None


def solve(lp, start=None):
    """Solve to an optimal basic feasible (vertex) solution.

    Returns an LpSolution.  ``start`` is the ``basis`` of an earlier
    solution of an LP with the same constraints; phase 2 then starts
    from it, and phase 1 runs only if it is not a feasible basis here.

    The thresholds are this module's constants: phase 1 ends once the
    artificial sum is <= FEASIBILITY_TOL, and SUPPORT_TOL is both the
    negative slack a warm-start basis may have and the roundoff clamped
    from the vertex.  Each phase may take 10000 + 100 (m + n) pivots.
    Raises SimplexError when the LP is infeasible, unbounded or has a
    linearly dependent constraint, and on numerical breakdown.
    """
    m, n = lp.n_constraints, lp.n_vars
    max_iter = 10_000 + 100 * (m + n)
    A, b = lp.constraint_matrix, lp.rhs
    cost = -lp.objective  # _simplex minimizes
    refactor = _refactorer(A, b, cost, 2)

    total_pivots = 0
    T = None
    if start is not None:
        basis = np.array(start, dtype=np.int64)
        T = _warm_tableau(A, b, cost, basis)
    if T is None:
        basis, x_basic, total_pivots = _phase1(A, b, max_iter)
        # Phase 2 starts from a tableau rebuilt from the original rows,
        # with the artificial columns gone and the real objective installed.
        T = np.zeros((m + 1, n + 1))
        T[:-1, -1] = x_basic
        refactor(T, basis, 0)

    total_pivots += _run(T, basis, max_iter, 2, refactor)

    x = np.zeros(n)
    x[basis] = T[:-1, -1]
    # vertex coordinates are >= 0 up to roundoff; clamp the dust
    x[(x < 0) & (x > -SUPPORT_TOL)] = 0.0
    if (x < 0).any():
        raise SimplexError("negative basic variable beyond tolerance")

    residual = float(np.max(np.abs(A @ x - b))) if m else 0.0
    if residual > max(FEASIBILITY_TOL, 1e-9 * (1.0 + float(b.max(initial=0.0)))):
        raise SimplexError(f"constraint residual {residual:.3e} exceeds tolerance")

    return LpSolution(float(lp.objective @ x), x, residual, total_pivots, basis)
