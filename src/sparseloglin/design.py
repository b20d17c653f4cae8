"""Baseline-coded 0/1 design matrices and sufficient statistics.

Each model term contributes one indicator column per combination of
non-baseline levels of its factors; the intercept column of ones comes
first.  Interaction columns are elementwise products of the constituent
main-effect indicators, so every entry is 0 or 1 and every cell's row
is a binary vector.  For a hierarchical model this coding always has
full column rank, which ``matrix_rank`` verifies at construction.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .formula import INTERCEPT
from .table import DENSE_BUDGET

__all__ = ["ColumnLabel", "DesignMatrix", "SufficientStatistic", "build_design", "sufficient_statistic", "matrix_rank", "Rank"]


Rank = namedtuple("Rank", ["rank", "columns"])


def matrix_rank(a):
    """Rank(rank, columns): numerical rank and greedy independent columns.

    Walks the columns in order and keeps one when, orthogonalized twice
    against those kept, its residual exceeds ncols * sqrt(eps) of its
    norm.  It walks R, which has a's column inner products, from QRs of
    the last R stacked on the next 1024 rows (np.linalg.qr copies its
    input twice).  R's diagonal alone misjudges a column after a
    dependent one, as in [e1, e1, e2].  On the bundled datasets' designs
    and faces, kept columns have relative residuals >= 0.35 and dropped
    ones are zero or <= 4.3e-16 (the threshold is 3.6e-7 at 24 columns).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return Rank(0, ())
    r = np.empty((0, a.shape[1]))
    for start in range(0, a.shape[0], 1024):
        r = np.linalg.qr(np.vstack((r, a[start : start + 1024])), mode="r")
    k, n = r.shape
    floor = n * np.sqrt(np.finfo(np.float64).eps) * np.linalg.norm(r, axis=0)
    q = np.empty((k, k))  # orthonormal basis of the kept columns, in its first len(kept)
    kept = []
    for j in range(n):
        if len(kept) == k:
            break  # the kept columns span every column of R
        basis = q[:, : len(kept)]
        res = r[:, j] - basis @ (basis.T @ r[:, j])
        res -= basis @ (basis.T @ res)
        norm = np.linalg.norm(res)
        if norm > floor[j]:
            q[:, len(kept)] = res / norm
            kept.append(j)
    return Rank(len(kept), tuple(kept))


@dataclass(frozen=True)
class ColumnLabel:
    """Ties one design column to its term and non-baseline level combination."""

    term: frozenset
    levels: tuple  # ((factor_name, level_label), ...), empty for the intercept

    def __str__(self):
        if self.term == INTERCEPT:
            return "(Intercept)"
        return ":".join(f"{name}{level}" for name, level in self.levels)


@dataclass(frozen=True)
class DesignMatrix:
    """Full-column-rank 0/1 design matrix with labeled columns.

    Row i is the binary vector of cell i in canonical cell order;
    column 0 is the intercept.
    """

    matrix: np.ndarray = field(repr=False)
    column_labels: tuple
    factor_names: tuple

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.float64)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def d(self):
        """Number of free log-linear parameters."""
        return self.matrix.shape[1]

    @property
    def n_cells(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SufficientStatistic:
    """t = X'n, computed in exact integer arithmetic."""

    t: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.int64)
        t.flags.writeable = False
        object.__setattr__(self, "t", t)


def build_design(table, model):
    """Build the design matrix of a hierarchical model on a table.

    Columns appear intercept first, then terms in canonical order
    (size, then name), then within a term the non-baseline level
    combinations in lexicographic order with the term's last factor
    varying fastest.  A design of more than DENSE_BUDGET entries
    raises ValueError before anything is allocated.
    """
    factor_pos = {name: k for k, name in enumerate(table.factor_names)}
    missing = model.factors - set(factor_pos)
    if missing:
        raise ValueError(f"model factor(s) {sorted(missing)} not in table")
    d = 1 + sum(
        math.prod(table.factors[factor_pos[name]].n_levels - 1 for name in term)
        for term in model.terms
        if term != INTERCEPT
    )
    if table.n_cells * d > DENSE_BUDGET:
        raise ValueError(
            f"design of {table.n_cells} cells x {d} columns exceeds the "
            f"{DENSE_BUDGET}-entry budget for dense arrays"
        )

    n_cells = table.n_cells
    cells = np.arange(n_cells)

    # Non-baseline indicator columns of the model's factors, at most d - 1
    # of them; level index 0 is baseline.  Factor k's level index steps
    # every prod(shape[k+1:]) cells, as the last factor varies fastest.
    indicator = {}
    for name in model.factors:
        k = factor_pos[name]
        level = cells // math.prod(table.shape[k + 1 :]) % table.shape[k]
        for lev in range(1, table.factors[k].n_levels):
            indicator[name, lev] = (level == lev).astype(np.float64)

    columns = [np.ones(n_cells)]
    labels = [ColumnLabel(INTERCEPT, ())]
    for term in model.canonical_terms():
        if term == INTERCEPT:
            continue
        names = sorted(term, key=factor_pos.get)
        level_ranges = [range(1, table.factors[factor_pos[n]].n_levels) for n in names]
        for combo in product(*level_ranges):
            col = np.ones(n_cells)
            for name, lev in zip(names, combo):
                col = col * indicator[name, lev]
            columns.append(col)
            labels.append(
                ColumnLabel(
                    term,
                    tuple(
                        (name, table.factors[factor_pos[name]].levels[lev])
                        for name, lev in zip(names, combo)
                    ),
                )
            )

    X = np.column_stack(columns)
    rank = matrix_rank(X).rank
    if rank != d:
        raise ValueError(
            f"design matrix is rank deficient (rank {rank} < {d} columns); "
            "baseline coding of a hierarchical model should be full rank"
        )
    return DesignMatrix(X, tuple(labels), table.factor_names)


def sufficient_statistic(design, counts):
    """t = X'counts, exact in int64."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (design.n_cells,):
        raise ValueError(
            f"counts has shape {counts.shape}, expected ({design.n_cells},)"
        )
    xt = design.matrix.astype(np.int64).T
    return SufficientStatistic(xt @ counts, counts)
