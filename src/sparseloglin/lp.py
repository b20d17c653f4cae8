"""Equality-constrained nonnegative linear programs.

This module is internal to ``faces``, which states its facial LPs
through it; it is not part of the package's public API.

Solves  max c'a  subject to  A a = b, a >= 0  with a self-contained
two-phase revised simplex.  The contract is that of the facial LPs,
X'a = t': b >= 0 (``LinearProgram`` rejects a negative entry), the
rows of A are linearly independent, and the LP is feasible and
bounded.  ``solve`` returns an optimal vertex, or with ``stop_above``
the first vertex whose objective exceeds it, or raises SimplexError;
it reads A and b in place.

No tableau is kept: ``_simplex`` holds the inverse of the basis matrix
B beside the basic values, as B^-1 [I | b], prices every column from
the original A, and updates B^-1 [I | b] by one eta step per pivot
(Dantzig & Orchard-Hays, Math. Tables Aids Comput. 8, 1954).  Every
REFACTOR_PIVOTS pivots, and before a phase returns its verdict, B is
inverted afresh from A's columns; basic values that drifted further
than DRIFT_TOL from the fresh B^-1 b raise SimplexError.  There are no
status codes: a phase returns its pivot count at an optimum and raises
SimplexError otherwise.  Every choice is deterministic, so the
returned vertex is too.

Phase 1 appends an identity to A, one artificial column per row, and
minimizes the artificials' sum, stopping as soon as that sum is within
the feasibility tolerance; a larger minimum raises "infeasible".
Artificials still in the basis are then pivoted out on the largest
entry of their row of B^-1 A; a row with no entry above the pivot
threshold makes the artificial's constraint a combination of the
others, which raises "linearly dependent".  Phase 2 maximizes the
objective from the basis phase 1 leaves; an improving column with no
positive entry raises "unbounded".

A ``LinearProgram`` holds the constraints (A, b) alone, checked once,
and ``solve(lp, c)`` takes the objective, so one problem serves every
objective of a facial computation.  A solution carries its final
``basis``, the basic columns in the order of B's columns, and its
``inverse`` B^-1 [I | b], which is always inverted afresh from A's
columns.  ``solve(lp, c, start=sol)``, with ``sol`` an earlier
solution of that same ``lp``, starts phase 2 from ``sol``'s basis and
a copy of its inverse, and runs no phase 1.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LinearProgram", "LpSolution", "SimplexError", "solve", "FEASIBILITY_TOL", "SUPPORT_TOL"]

# Constraint data here comes from 0/1 tables, so all scales are O(1).
FEASIBILITY_TOL = 1e-9
SUPPORT_TOL = 1e-8
# A reduced cost below -COST_TOL prices a column into the basis.
COST_TOL = 1e-9
# Smallest pivot element accepted.  With 0/1 data genuine entries of
# B^-1 A are far above it; smaller ones are roundoff.
PIVOT_TOL = 1e-7
# Degenerate pivots in a row before Bland's rule takes over.  Dantzig's
# rule ends the degenerate stretches of the facial LPs measured so far
# (up to about 100 pivots on 93 rows) in far fewer pivots than Bland's.
STALL_PIVOTS = 200
# Pivots between inversions of B afresh from the original columns.
REFACTOR_PIVOTS = 100
# Largest drift of the basic values, relative to 1 + max|b|, accepted
# at a rebuild.
DRIFT_TOL = 1e-6


class SimplexError(RuntimeError):
    """No optimum: an LP outside the contract, or numerical breakdown (pivot cap, drift, a failed check)."""


@dataclass(frozen=True, eq=False)  # one problem is one object: equal and hashed by identity
class LinearProgram:
    """The constraints constraint_matrix @ a = rhs, a >= 0, with rhs >= 0, checked once.

    ``solve`` maximizes an objective over them; every objective of one
    problem is solved against this one object.  The arrays are kept as
    read-only views: a float64 constraint matrix of any layout, such
    as a design's transpose, is not copied.
    """

    constraint_matrix: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.constraint_matrix, dtype=np.float64)
        b = np.asarray(self.rhs, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("constraint matrix must be 2-D")
        if b.shape != (a.shape[0],):
            raise ValueError(f"rhs has shape {b.shape}, expected ({a.shape[0]},)")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("non-finite entries in LP data")
        if (b < 0).any():
            raise ValueError("negative rhs entry; negate its constraint row")
        a, b = a.view(), b.view()
        for arr in (a, b):
            arr.flags.writeable = False
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
    """Vertex of ``lp`` for one objective, with its basic columns in the order of B's columns.

    ``inverse`` is B^-1 [I | b], read-only, inverted afresh from the
    columns of ``lp``'s A.
    """

    objective_value: float
    point: np.ndarray = field(repr=False)
    pivots: int
    basis: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False)
    lp: LinearProgram = field(repr=False)


def _pivot(inv, basis, row, col, a):
    """Column ``col``, with B^-1 column ``a``, enters the basis at ``row``: one eta step on B^-1 [I | b]."""
    inv[row] /= a[row]
    a = a.copy()
    a[row] = 0.0
    inv -= np.outer(a, inv[row])
    basis[row] = col


def _invert(M, b, basis):
    """B^-1 [I | b] for B = M[:, basis], or None if B is singular."""
    try:
        binv = np.linalg.inv(M[:, basis])
    except np.linalg.LinAlgError:
        return None
    return np.column_stack((binv, binv @ b))


def _rebuild(M, b, basis, inv, phase, pivots):
    """Replace ``inv`` in place by B^-1 [I | b] inverted afresh from the original columns.

    Raises SimplexError if B is singular or the basic values drifted
    further than DRIFT_TOL from the fresh B^-1 b.
    """
    fresh = _invert(M, b, basis)
    if fresh is None:
        raise SimplexError(f"phase {phase}: singular basis after {pivots} pivots")
    drift = float(np.abs(fresh[:, -1] - inv[:, -1]).max(initial=0.0))
    if not drift <= DRIFT_TOL * (1.0 + float(b.max(initial=0.0))):
        raise SimplexError(f"phase {phase}: basic values drifted {drift:.3e} from B^-1 b after {pivots} pivots")
    inv[...] = fresh


def _simplex(M, b, cost, basis, inv, max_iter, phase, stop_at=None):
    """Minimize cost . a subject to M a = b, a >= 0 from a feasible basis.

    ``basis`` lists the basic columns and ``inv`` holds B^-1 [I | b]
    for B = M[:, basis]; both are updated in place.  Dantzig's rule:
    the most negative reduced cost, cost - (cost_B B^-1) M, below
    -COST_TOL enters; the leaving row has the minimum ratio over the
    entries of B^-1 M_j above PIVOT_TOL, ties going to the largest
    entry (Harris, Math. Prog. 5, 1973).  After STALL_PIVOTS
    degenerate pivots in a row (steps inside the ratio tie band, which
    leave the objective unchanged), Bland's rule decides (lowest
    entering column, ties to the lowest basic-variable index) until a
    step moves the objective.

    ``inv`` is rebuilt every REFACTOR_PIVOTS pivots and before a
    verdict on a basis pivoted since its last rebuild.  With
    ``stop_at``, the loop also ends once the objective is <= stop_at.
    Returns the pivot count; raises SimplexError, naming ``phase``,
    when the objective is unbounded or max_iter pivots are spent.
    """
    m = M.shape[0]
    binv, x = inv[:, :m], inv[:, m]
    pivots = stalled = since_rebuild = 0
    while True:
        bland = stalled >= STALL_PIVOTS
        costs = cost - (cost[basis] @ binv) @ M
        costs[basis] = 0.0  # not roundoff: a basic column must not re-enter
        col = int(np.argmax(costs < -COST_TOL)) if bland else int(np.argmin(costs))
        optimal = stop_at is not None and cost[basis] @ x <= stop_at or not costs[col] < -COST_TOL
        if not optimal:
            a = binv @ M[:, col]
            rows = np.flatnonzero(a > PIVOT_TOL)
        if optimal or rows.size == 0:
            if since_rebuild:
                _rebuild(M, b, basis, inv, phase, pivots)
                since_rebuild = 0
                continue
            if optimal:
                return pivots
            raise SimplexError(f"phase {phase}: objective unbounded after {pivots} pivots")

        # basic values below 0 are roundoff; they take a zero step
        ratios = np.maximum(x[rows], 0.0) / a[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-9 * (1.0 + best)]
        row = ties[np.argmin(basis[ties])] if bland else ties[np.argmax(a[ties])]
        _pivot(inv, basis, row, col, a)

        pivots += 1
        since_rebuild += 1
        # a step inside the tie band is degenerate: the objective stays
        stalled = stalled + 1 if best <= 1e-9 else 0
        if pivots >= max_iter:
            raise SimplexError(f"phase {phase}: pivot limit {max_iter} exhausted")
        if since_rebuild >= REFACTOR_PIVOTS:
            _rebuild(M, b, basis, inv, phase, pivots)
            since_rebuild = 0


def _phase1(A, b, max_iter):
    """Find a feasible basis of A a = b, a >= 0 from the all-artificial one.

    Returns (basic columns, B^-1 [I | b] for them, pivots).  Raises
    SimplexError when the system is infeasible or a constraint is a
    linear combination of the others.
    """
    m, n = A.shape
    M = np.hstack((A, np.eye(m)))
    cost = np.concatenate((np.zeros(n), np.ones(m)))
    basis = np.arange(n, n + m, dtype=np.int64)
    inv = _invert(M, b, basis)
    pivots = _simplex(M, b, cost, basis, inv, max_iter, 1, stop_at=FEASIBILITY_TOL)
    infeasibility = cost[basis] @ inv[:, -1]
    if infeasibility > FEASIBILITY_TOL:
        raise SimplexError(f"phase 1: infeasible, artificial sum {infeasibility:.3e} after {pivots} pivots")

    # Pivot lingering artificials out of the (degenerate) basis.  The
    # artificial of constraint k sits at some position i, not
    # necessarily k; when the real entries of row i of B^-1 A are all
    # roundoff, constraint k is a combination of the others.
    for i in np.flatnonzero(basis >= n):
        row = inv[i, :m] @ A
        col = int(np.argmax(np.abs(row)))
        if abs(row[col]) <= PIVOT_TOL:
            raise SimplexError(f"constraint {basis[i] - n} is linearly dependent")
        _pivot(inv, basis, i, col, inv[:, :m] @ A[:, col])
    return basis, inv, pivots


def solve(lp, objective, start=None, stop_above=None):
    """Maximize objective . a over the LinearProgram ``lp``, to a vertex, optimal unless ``stop_above`` ended the solve.

    Returns an LpSolution.  ``start`` is an earlier LpSolution of this
    same ``lp``, for another objective; phase 2 then starts from its
    basis and a copy of its inverse, with no phase 1: the basis was
    checked feasible for these constraints when it was returned.  A
    ``start`` from any other LinearProgram, even one built from the
    same arrays, raises ValueError.  With ``stop_above``, phase 2 ends
    at the first basis whose objective exceeds it, read after the
    fresh inversion that precedes every verdict.

    The thresholds are this module's constants: phase 1 ends once the
    artificial sum is <= FEASIBILITY_TOL, and SUPPORT_TOL is the
    roundoff clamped from the vertex.  Each phase may take
    10000 + 100 (m + n) pivots.  An objective of the wrong shape or
    with non-finite entries raises ValueError.  Raises SimplexError
    when the LP is infeasible, unbounded or has a linearly dependent
    constraint, and on numerical breakdown.
    """
    m, n = lp.n_constraints, lp.n_vars
    c = np.asarray(objective, dtype=np.float64)
    if c.shape != (n,):
        raise ValueError(f"objective has shape {c.shape}, expected ({n},)")
    if not np.isfinite(c).all():
        raise ValueError("non-finite objective entry")
    max_iter = 10_000 + 100 * (m + n)
    A, b = lp.constraint_matrix, lp.rhs
    cost = -c  # _simplex minimizes

    if start is None:
        basis, inv, total_pivots = _phase1(A, b, max_iter)
        # with the artificials gone, B is A[:, basis]: phase 2 starts
        # from B inverted afresh from A's columns
        _rebuild(A, b, basis, inv, 2, 0)
    elif start.lp is lp:
        basis, inv, total_pivots = start.basis.copy(), start.inverse.copy(), 0
    else:
        raise ValueError("start is a solution of another LinearProgram")

    # cost . a <= -(the next float above stop_above) iff objective > stop_above
    stop_at = None if stop_above is None else -np.nextafter(stop_above, np.inf)
    total_pivots += _simplex(A, b, cost, basis, inv, max_iter, 2, stop_at)

    x = np.zeros(n)
    x[basis] = inv[:, -1]
    # vertex coordinates are >= 0 up to roundoff; clamp the dust
    x[(x < 0) & (x > -SUPPORT_TOL)] = 0.0
    if (x < 0).any():
        raise SimplexError("negative basic variable beyond tolerance")

    residual = float(np.max(np.abs(A @ x - b))) if m else 0.0
    if residual > max(FEASIBILITY_TOL, 1e-9 * (1.0 + float(b.max(initial=0.0)))):
        raise SimplexError(f"constraint residual {residual:.3e} exceeds tolerance")

    inv.flags.writeable = False
    return LpSolution(float(c @ x), x, total_pivots, basis, inv, lp)
