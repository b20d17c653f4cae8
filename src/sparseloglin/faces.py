"""Facial set detection: which cells support the sufficient statistic.

The marginal cone C of a model is generated by the design rows x_i.
The sufficient statistic t lies in the relative interior of exactly
one face F; the cells whose rows lie on F form the facial set, and the
MLE exists precisely when every cell is in it.

Only the zero pattern of the counts matters, so everything runs on the
binarized statistic t' (counts replaced by 0/1), which also keeps the
LPs well scaled.  The face is found in three steps:

* Presolve.  A zero cell whose slice of some generator margin of the
  binarized table is zero is off the face: every a >= 0 with
  X'a = t' has that margin equal to 0, so a puts no mass on the cell.
  These cells leave the candidate set before any LP runs (the outer
  approximation of Wang, Rauh & Massam, Ann. Statist. 47(3), 2019).
  The zero margins are found from the positive cells alone, in
  O(n_positive n_factors n_generators) time and O(n_cells) memory.
* Span closure.  Every face of a polyhedral cone is exposed, so
  F = C ∩ span(F) (the linear-algebra view of faces of Fienberg &
  Rinaldo, Ann. Statist. 40(2), 2012).  The known face cells K, the
  positive cells and those rescued so far, lie on F, so every
  candidate whose row lies in span(X_K) is on F too and joins the
  face with no LP; when X_K has full column rank, every candidate
  does.  This is the inner counterpart of the presolve.
* Repeated LPs.  Each LP maximizes the mass that nonnegative solutions
  of X'a = t' can place on the remaining candidates; any cell that
  receives mass is moved into the face and the closure runs again.
  The loop stops when the optimum is zero or no candidates remain.
"""

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .design import design_for
from .table import TableError

__all__ = ["FacialSet", "find_facial_set", "per_cell_oracle", "mle_exists"]

# A candidate row x is in span(X_K) when max|x[dropped] - x[J] W| is at
# most SPAN_TOL (see design.Rank).  On 1500 sweep instances, the paper's
# models and the three-way 2^8 to 2^10 tables, rows in the span are
# within 2.5e-14 and rows outside it at least 0.5 away.
SPAN_TOL = 1e-6


_STATUS = {
    "optimal_zero": "Optimal objective value 0",
    "all_cells_in_face": "All cells entered the facial set",
    "initial_A_empty": "No sampling zeros; all cells in the facial set",
    "all_zeros_presolved": "Every sampling zero lies in a zero margin; no LP needed",
    "per_cell": "Per-cell oracle",
}


@dataclass(frozen=True)
class FacialSet:
    """Per-cell face membership with the face dimension and a run trace."""

    in_face: np.ndarray = field(repr=False)  # bool per cell, canonical order
    face_dimension: int
    iterations: int  # LP solves performed
    termination: str  # a key of _STATUS
    # each batch of cells moved into the face, by the span closure or
    # by an LP, in the order they entered
    removed_per_iteration: tuple
    # (cell, generator) per presolved cell; the generator is the first
    # one, in canonical order, whose margin is zero there
    presolved: tuple
    span_closed: tuple = ()  # cells the span closure moved into the face

    @property
    def status(self):
        """Human-readable termination line for reports."""
        return _STATUS[self.termination]

    @property
    def n_face_cells(self):
        return int(self.in_face.sum())


def _facial_lp(table, design):
    """The constraints X'a = t' that every facial LP of ``table`` shares, t' the binarized statistic."""
    xt = design.matrix.T
    # 0/1 entries, so the float64 sums are exact integers
    return lp.LinearProgram(xt, xt @ (table.counts > 0))


def _check_table(table):
    if table.total == 0:
        raise TableError("all-zero table: no facial set is defined")


def _presolve(table, model):
    """Zero cells in a zero generator margin of the binarized table.

    Returns (pairs, mask): one (cell, generator) pair per such cell in
    cell order, the generator being the first in canonical order whose
    margin is zero at the cell, as a tuple of factor names in table
    order; and the cells as a boolean mask.  Positive cells always have
    positive margins, so only zero cells are ever returned.

    The positive cells' coordinates times a stride matrix mark the
    reached margin cells (in float64, exactly), in blocks of at most 2^14
    codes or one generator, small enough for malloc to reuse rather than
    fault in afresh; only a generator with an unreached one reads the zeros.
    """
    first = np.full(table.n_cells, -1)  # each cell's first generator with a zero margin there
    if table.counts.all():
        return (), first >= 0
    names, gens = table.factor_names, model.generators
    member = np.array([[name in gen for gen in gens] for name in names], dtype=bool)
    levels = np.where(member, np.array(table.shape)[:, None], 1)  # each generator's margin shape
    inner = np.cumprod(levels[::-1], axis=0)[::-1]  # row 0: the margin sizes
    # a cell's coordinates and a 1, times these, give its margin cells' codes
    strides = np.vstack((inner // levels * member, np.cumsum(inner[0]) - inner[0]))
    reached = np.zeros(inner[0].sum(), dtype=bool)

    def coords(cells):
        return np.column_stack((*np.unravel_index(cells, table.shape), np.ones_like(cells)))

    positive = coords(np.flatnonzero(table.counts)).astype(np.float64)
    step = max(2**14 // len(positive), 1)  # generators per block
    for lo in range(0, len(gens), step):
        reached[(positive @ strides[:, lo : lo + step]).astype(np.intp)] = True
    unreached = np.flatnonzero(~np.logical_and.reduceat(reached, strides[-1]))  # generators, in canonical order
    zeros = np.flatnonzero(table.counts == 0)
    zero_coords = coords(zeros) if unreached.size else None
    for j in unreached.tolist():
        hit = ~reached[zero_coords @ strides[:, j]] & (first[zeros] < 0)
        first[zeros[hit]] = j
    off_face = first >= 0
    cells = np.flatnonzero(off_face)
    labels = {j: tuple(name for name in names if name in gens[j]) for j in set(first[cells].tolist())}
    return tuple(zip(cells.tolist(), map(labels.get, first[cells].tolist()))), off_face


def _solve_facial(problem, objective, start, stop_above=None):
    """Maximize ``objective`` over the facial LP ``problem``, warm from the solution ``start``, and check its bound.

    The LP meets ``lp.solve``'s contract: t' >= 0, the binarized counts
    are feasible, the design has full column rank, so the rows of X'
    are independent, and the intercept row bounds the objective by
    t'[0], for the 0/1 objectives used here.  An objective above that
    bound is a solver fault.
    """
    sol = lp.solve(problem, objective, start=start, stop_above=stop_above)
    bound = problem.rhs[0]
    if sol.objective_value > bound + 1e-8:
        raise lp.SimplexError(f"facial LP objective {sol.objective_value} exceeds bound {bound}")
    return sol


def find_facial_set(table, model, design=None):
    """Find the facial set: presolve, then span closure and repeated LPs.

    Zero cells in a zero generator margin of the binarized table are
    presolved off the face; their LP columns stay, with objective 0,
    so every LP of the call is an objective over one
    ``lp.LinearProgram``, X'a = t', built when the first LP is needed,
    and each LP starts from the previous one's optimal basis and its
    inverse.  The known face cells K start as the positive cells.
    Each round takes the rank of X_K
    (``DesignMatrix.rows_rank``, no QR once K holds every cell) and
    moves every remaining candidate whose row lies in span(X_K) into
    the face (F = C ∩ span(F)); these cells add no rank.  If candidates
    remain, one LP maximizes the mass on them: cells whose LP value
    exceeds lp.SUPPORT_TOL join K and the next round begins, and an
    optimum of at most lp.SUPPORT_TOL ends the loop.

    The face dimension is the last round's rank: d when every cell is
    on the face, as the design has full column rank.  ``iterations`` counts
    the LPs; ``removed_per_iteration`` lists the closure and LP batches
    in the order they entered.  The face is unique, so the result does
    not depend on the order of the LP's variables or on how the design
    is coded.  A passed ``design`` with a row count other than the
    table's cell count raises ValueError.
    """
    _check_table(table)
    design = design_for(table, model, design)

    presolved, off_face = _presolve(table, model)
    known = table.counts > 0  # K
    active = ~known & ~off_face  # candidate non-face cells
    removed_trace = []
    span_closed = []
    iterations = 0
    problem = sol = None  # X'a = t', built when the first LP runs; each LP starts from the last optimum
    if known.all():
        termination = "initial_A_empty"
    elif not active.any():
        termination = "all_zeros_presolved"
    else:
        termination = "all_cells_in_face"

    while True:
        rank = design.rows_rank(known)
        cells = np.flatnonzero(active)
        if cells.size and rank.rank < design.d:  # else every candidate is in the span
            x = design.matrix[cells]
            dropped = sorted(set(range(design.d)) - set(rank.columns))
            residual = x[:, dropped] - x[:, list(rank.columns)] @ rank.aliasing
            cells = cells[np.abs(residual).max(axis=1) <= SPAN_TOL]
        if cells.size:
            active[cells] = False
            known[cells] = True
            removed_trace.append(tuple(cells.tolist()))
            span_closed.extend(cells.tolist())
        if not active.any():
            break

        if problem is None:
            problem = _facial_lp(table, design)
        sol = _solve_facial(problem, active.astype(np.float64), sol)
        iterations += 1

        removable = np.flatnonzero(active & (sol.point > lp.SUPPORT_TOL))
        if sol.objective_value <= lp.SUPPORT_TOL or removable.size == 0:
            # objective above tolerance with no removable cell means the
            # optimum is numerical dust spread below the support threshold;
            # treat it as zero rather than removing an unproven cell
            termination = "optimal_zero"
            break
        active[removable] = False
        known[removable] = True
        removed_trace.append(tuple(removable.tolist()))

    return FacialSet(
        known, rank.rank, iterations, termination, tuple(removed_trace), presolved, tuple(span_closed)
    )


def per_cell_oracle(table, model, design=None):
    """Independent check: test every zero cell with its own LP.

    A cell is on the face containing t' iff some nonnegative solution
    of X'a = t' puts positive mass on it, so maximizing a(i) alone
    decides cell i directly; it is in the face when that maximum
    exceeds lp.SUPPORT_TOL.  The LP stops at the first vertex with
    a(i) > lp.SUPPORT_TOL: the primal simplex objective never
    decreases along its path, and the optimum is the path's last
    vertex, so some visited vertex exceeds the tolerance exactly when
    the optimum does.  A cell whose optimum is at most the tolerance
    runs to optimality.  Presolved cells (see ``find_facial_set``)
    are off the face by their zero margin and get no LP.  Every cell's
    LP is an objective over one ``lp.LinearProgram``, X'a = t', built
    once per call.  Quadratic in the number of remaining zero cells,
    with no state shared across cells but the warm start: the last
    LP's basis and its inverse.  A mismatched ``design`` raises
    ValueError, as in ``find_facial_set``.
    """
    _check_table(table)
    design = design_for(table, model, design)
    n_cells = table.n_cells
    problem = _facial_lp(table, design)

    presolved, off_face = _presolve(table, model)
    in_face = table.counts > 0
    zeros = np.flatnonzero(~in_face & ~off_face)
    sol = None  # each cell's LP starts from the last one's vertex
    for i in zeros:
        c = np.zeros(n_cells)
        c[i] = 1.0
        sol = _solve_facial(problem, c, sol, lp.SUPPORT_TOL)
        if sol.objective_value > lp.SUPPORT_TOL:
            in_face[i] = True

    return FacialSet(in_face, design.rows_rank(in_face).rank, int(zeros.size), "per_cell", (), presolved)


def mle_exists(facial_set):
    """True iff every cell lies in the face, i.e. the MLE is interior."""
    return bool(facial_set.in_face.all())
