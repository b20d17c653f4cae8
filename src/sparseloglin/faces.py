"""Facial set detection: which cells support the sufficient statistic.

The marginal cone of a model is generated by the design rows f_i.  The
sufficient statistic t lies in the relative interior of exactly one
face F; the cells whose rows lie on F form the facial set, and the MLE
exists precisely when every cell is in it.  The face is found by
repeatedly maximizing the mass that nonnegative solutions of
X'a = t' can place on the candidate-excluded cells: any cell that
receives mass is moved into the face, and the loop stops when the
optimum is zero or no candidates remain.

Only the zero pattern of the counts matters, so the algorithm always
runs on the binarized statistic t' (counts replaced by 0/1), which
also keeps the LPs well scaled.
"""

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .design import build_design, matrix_rank, sufficient_statistic

__all__ = ["FacialSet", "find_facial_set", "per_cell_oracle", "mle_exists"]


_STATUS = {
    "optimal_zero": "Optimal objective value 0",
    "all_cells_in_face": "All cells entered the facial set",
    "initial_A_empty": "No sampling zeros; all cells in the facial set",
    "per_cell": "Per-cell oracle",
}


@dataclass(frozen=True)
class FacialSet:
    """Per-cell face membership with the face dimension and a run trace."""

    in_face: np.ndarray = field(repr=False)  # bool per cell, canonical order
    face_dimension: int
    iterations: int  # LP solves performed
    termination: str  # a key of _STATUS
    removed_per_iteration: tuple  # cells moved into the face each round

    @property
    def status(self):
        """Human-readable termination line for reports."""
        return _STATUS[self.termination]

    @property
    def n_face_cells(self):
        return int(self.in_face.sum())

    def excluded_cells(self):
        """Flat positions of cells outside the face."""
        return np.flatnonzero(~self.in_face)


def _binarized_statistic(table, design):
    y = (table.counts > 0).astype(np.int64)
    return sufficient_statistic(design, y).t.astype(np.float64)


def find_facial_set(table, model, design=None, column_order=None):
    """Find the facial set by the repeated-LP shrinking loop.

    A cell is rescued into the face when its LP value exceeds
    lp.SUPPORT_TOL, and the loop stops once the optimum is at most
    lp.SUPPORT_TOL; the face dimension is ``matrix_rank`` of the face
    rows.  ``column_order`` optionally permutes the LP variable
    ordering; the result is invariant to it (the face is unique), which
    makes the permutation a useful determinism audit in tests.
    """
    if table.total == 0:
        raise ValueError("all-zero table: no facial set is defined")
    if design is None:
        design = build_design(table, model)
    n_cells = table.n_cells
    t_prime = _binarized_statistic(table, design)
    xt = design.matrix.T

    perm = np.arange(n_cells) if column_order is None else np.asarray(column_order)
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(n_cells)

    active = table.counts == 0  # candidate non-face cells, the loop's A
    removed_trace = []
    iterations = 0
    basis = None  # every LP shares X'a = t', so each starts from the last optimum
    termination = "initial_A_empty" if not active.any() else "all_cells_in_face"

    while active.any():
        c = active.astype(np.float64)
        problem = lp.LinearProgram(c[perm], xt[:, perm], t_prime)
        sol = lp.solve(problem, start=basis)
        iterations += 1
        if sol.status != "optimal":
            # the binarized counts themselves are feasible, and the
            # intercept row bounds the objective by the face total
            raise lp.SimplexError(f"facial LP returned {sol.status}; solver fault")
        if sol.objective_value > t_prime[0] + 1e-8:
            raise lp.SimplexError(
                f"facial LP objective {sol.objective_value} exceeds bound {t_prime[0]}"
            )
        basis = sol.basis

        point = sol.point[inv_perm]
        removable = np.flatnonzero(active & (point > lp.SUPPORT_TOL))
        if sol.objective_value <= lp.SUPPORT_TOL or removable.size == 0:
            # objective above tolerance with no removable cell means the
            # optimum is numerical dust spread below the support threshold;
            # treat it as zero rather than removing an unproven cell
            termination = "optimal_zero"
            break
        active[removable] = False
        removed_trace.append(tuple(int(i) for i in removable))

    in_face = ~active
    return FacialSet(
        in_face,
        matrix_rank(design.matrix[in_face]),
        iterations,
        termination,
        tuple(removed_trace),
    )


def per_cell_oracle(table, model, design=None):
    """Independent check: test every zero cell with its own LP.

    A cell is on the face containing t' iff some nonnegative solution
    of X'a = t' puts positive mass on it, so maximizing a(i) alone
    decides cell i directly; it is in the face when that maximum
    exceeds lp.SUPPORT_TOL.  Quadratic in the number of zero cells but
    with no shared state across cells.
    """
    if table.total == 0:
        raise ValueError("all-zero table: no facial set is defined")
    if design is None:
        design = build_design(table, model)
    n_cells = table.n_cells
    t_prime = _binarized_statistic(table, design)
    xt = design.matrix.T

    in_face = table.counts > 0
    zeros = np.flatnonzero(~in_face)
    basis = None  # the cells' LPs share X'a = t'; each starts from the last optimum
    for i in zeros:
        c = np.zeros(n_cells)
        c[i] = 1.0
        sol = lp.solve(lp.LinearProgram(c, xt, t_prime), start=basis)
        if sol.status != "optimal":
            raise lp.SimplexError(f"per-cell LP returned {sol.status}; solver fault")
        basis = sol.basis
        if sol.objective_value > lp.SUPPORT_TOL:
            in_face[i] = True

    return FacialSet(
        in_face, matrix_rank(design.matrix[in_face]), int(zeros.size), "per_cell", ()
    )


def mle_exists(facial_set):
    """True iff every cell lies in the face, i.e. the MLE is interior."""
    return bool(facial_set.in_face.all())
