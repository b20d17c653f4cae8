"""Baseline-coded 0/1 design matrices.

Each model term contributes one indicator column per combination of
non-baseline levels of its factors; the intercept column of ones comes
first.  Interaction columns are elementwise products of the constituent
main-effect indicators, so every entry is 0 or 1 and every cell's row
is a binary vector.  For a hierarchical model this coding always has
full column rank.  A ``DesignMatrix`` checks it with ``matrix_rank`` at
construction, so no design without it exists and the rows of every
cell together need no second rank computation.

Newton's information X' diag(mu) X and gradient X'(n - mu) come from
marginal totals of the fitted means, not from products with the n x d
design (Haberman, The Analysis of Frequency Data, 1974).  Column j is
1 on the cells that match its level pattern a_j (``design_columns``),
and entry (j, l) of the information is the sum of mu over the cells
that match both a_j and a_l: the pattern max(a_j, a_l), or no cell
where the two give one factor different levels.  One zeta transform of
the mu cube, a short chain of small Kronecker-factor products (Van
Loan, J. Comput. Appl. Math. 123, 2000), gives every such total at
once.  So an iteration forms its information in O(n g) for n cells and
Kronecker factors of at most g cells, plus a gather of d^2 totals,
where the product X' diag(mu) X costs O(n d^2).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .formula import INTERCEPT
from .table import DENSE_BUDGET, cell_strides

__all__ = ["ColumnLabel", "DesignMatrix", "build_design", "matrix_rank", "Rank"]

# Most cells of one Kronecker factor of the zeta transform: consecutive
# table factors are grouped up to this many cells, so each product is a
# small GEMM over the whole cube.
GROUP_CELLS = 16


@dataclass(frozen=True)
class Rank:
    """Numerical rank, the kept columns J and the aliasing of the others.

    ``aliasing`` is W with a[:, dropped] = a[:, J] @ W, dropped being
    the columns not in J in order; it has shape (rank, ncols - rank).
    Ranks compare by rank and columns only.
    """

    rank: int
    columns: tuple
    aliasing: np.ndarray = field(default=None, compare=False, repr=False)


def matrix_rank(a):
    """Rank(rank, columns, aliasing): rank and greedy independent columns.

    Walks the columns in order and keeps one when, orthogonalized twice
    against those kept, its residual exceeds ncols * sqrt(eps) of its
    norm.  It walks R, which has a's column inner products, from QRs of
    the last R stacked on the next 1024 rows (np.linalg.qr copies its
    input twice).  R's diagonal alone misjudges a column after a
    dependent one, as in [e1, e1, e2].  On the bundled datasets' designs
    and faces, kept columns have relative residuals >= 0.35 and dropped
    ones are zero or <= 4.3e-16 (the threshold is 3.6e-7 at 24 columns).
    a = QR gives a's column relations from R's, so the aliasing W
    solves R[:, J] W = R[:, dropped] in least squares, through the
    walk's orthonormal basis of R[:, J]; it is computed only when a
    column is dropped.

    Full column rank is certified first, with no QR, from the Cholesky
    factor L of G = a'a: when every pivot ratio L_jj^2 / G_jj exceeds
    ncols * sqrt(eps), the walk's own threshold taken unsquared, every
    column is kept.  For 0/1 matrices G is exact (integer partial sums
    below 2^53), and a column past that bar has a relative residual of
    at least (ncols * sqrt(eps))^(1/2): 1.1e-3 at 79 columns, some 900
    times the walk's threshold of 1.2e-6.  On the bundled and 2^k
    designs the Cholesky pivot ratios agree with those of a QR of a to
    5e-15.  So the shortcut answers only where the walk keeps every
    column.  On the designs, positive rows and faces of rochdale and of
    seeded random two- and three-way 2^6 to 2^12 tables, full-rank
    matrices cleared the bar by at least 3.0e3 times and rank-deficient
    ones whose Cholesky succeeded stayed below 1e-9 of it.  A failed
    Cholesky or a pivot below the bar falls through to the walk.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return Rank(0, (), np.zeros((0, a.shape[1])))
    n = a.shape[1]
    rel_tol = n * np.sqrt(np.finfo(np.float64).eps)
    g = a.T @ a
    try:
        pivots = np.diag(np.linalg.cholesky(g)) ** 2
    except np.linalg.LinAlgError:
        pivots = np.zeros(n)
    if np.all(pivots > rel_tol * np.diag(g)):
        return Rank(n, tuple(range(n)), np.zeros((n, 0)))
    r = np.empty((0, n))
    for start in range(0, a.shape[0], 1024):
        r = np.linalg.qr(np.vstack((r, a[start : start + 1024])), mode="r")
    k = r.shape[0]
    floor = rel_tol * np.linalg.norm(r, axis=0)
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
    dropped = sorted(set(range(n)) - set(kept))
    aliasing = np.zeros((len(kept), len(dropped)))
    if kept and dropped:
        basis = q[:, : len(kept)]  # R[:, kept] = basis T, T triangular
        aliasing = np.linalg.solve(basis.T @ r[:, kept], basis.T @ r[:, dropped])
    return Rank(len(kept), tuple(kept), aliasing)


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
    """0/1 design matrix with labeled columns, of full column rank.

    Row i is the binary vector of cell i in canonical cell order of a
    table over ``factors``, its FactorSpec tuple; the columns are those
    of ``model``'s terms, column 0 the intercept.  The matrix is kept as
    a read-only view; a C-contiguous float64 matrix is not copied.  Full
    column rank is checked at construction: a matrix of lower rank
    raises ValueError.
    """

    matrix: np.ndarray = field(repr=False)
    column_labels: tuple
    factors: tuple
    model: object  # formula.ModelFormula

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.float64).view()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        rank = matrix_rank(m).rank
        if rank != self.d:
            raise ValueError(
                f"design matrix is rank deficient (rank {rank} < {self.d} columns); "
                "baseline coding of a hierarchical model should be full rank"
            )

    @property
    def d(self):
        """Number of free log-linear parameters."""
        return self.matrix.shape[1]

    def rows_rank(self, mask):
        """``matrix_rank`` of the rows where the boolean ``mask`` is true.

        Every row together has full column rank, so an all-true mask
        gives Rank(d, all columns) with no rank computed.
        """
        if mask.all():
            return Rank(self.d, tuple(range(self.d)), np.zeros((self.d, 0)))
        return matrix_rank(self.matrix[mask])

    def margins(self, in_face, columns):
        """Newton's ``margins(m, r)``, as ``_margins`` forms it, on the face cells ``in_face`` and the design ``columns``."""
        patterns = design_columns(self.factors, self.model)[1][list(columns)]
        return _margins(tuple(f.n_levels for f in self.factors), patterns, in_face)


def design_for(table, model, design):
    """The model's design on the table, or ``design`` checked against it.

    A design depends only on the table's factors and the model's terms,
    and records both, so a passed design is checked with two equalities
    and not rebuilt.  A design of other factors or other terms raises
    ValueError naming which.
    """
    if design is None:
        return build_design(table, model)
    if design.factors != table.factors:
        raise ValueError("design was built on other factors than the table's")
    if design.model.terms != model.terms:
        raise ValueError("design was built for other terms than the model's")
    return design


@lru_cache(maxsize=64)
def design_columns(factors, model):
    """(labels, patterns) of the design of ``model`` on a table's ``factors``.

    Columns appear intercept first, then terms in canonical order
    (size, then name), then within a term the non-baseline level
    combinations in lexicographic order with the term's last factor
    varying fastest.  ``patterns`` is a read-only (d, n_factors) array:
    row j holds the level index column j fixes for each factor of its
    term and 0 elsewhere, so column j is 1 exactly on the cells that
    match it where it is nonzero, and its first 1 is at the cell of
    those level indices.

    A term naming a factor the table lacks, or a design of more than
    DENSE_BUDGET entries, raises ValueError before any column is made.
    The result is cached, so a design and its Newton margins share it.
    """
    factor_pos = {f.name: k for k, f in enumerate(factors)}
    missing = model.factors - set(factor_pos)
    if missing:
        raise ValueError(f"model factor(s) {sorted(missing)} not in table")
    shape = tuple(f.n_levels for f in factors)
    n_cells = math.prod(shape)
    terms = model.canonical_terms()
    d = 1 + sum(math.prod(shape[factor_pos[name]] - 1 for name in term) for term in terms if term)
    if n_cells * d > DENSE_BUDGET:
        raise ValueError(
            f"design of {n_cells} cells x {d} columns exceeds the "
            f"{DENSE_BUDGET}-entry budget for dense arrays"
        )
    labels = [ColumnLabel(INTERCEPT, ())]
    rows = [[0] * len(factors)]
    for term in terms[1:]:
        positions = sorted(factor_pos[name] for name in term)
        for combo in product(*(range(1, shape[k]) for k in positions)):
            row = [0] * len(factors)
            for k, lev in zip(positions, combo):
                row[k] = lev
            rows.append(row)
            labels.append(
                ColumnLabel(term, tuple((factors[k].name, factors[k].levels[lev]) for k, lev in zip(positions, combo)))
            )
    patterns = np.array(rows, dtype=np.intp)
    patterns.flags.writeable = False
    return tuple(labels), patterns


def build_design(table, model):
    """Build the design matrix of a hierarchical model on a table.

    Columns are those of ``design_columns``, which raises ValueError
    for a factor the table lacks or a design over DENSE_BUDGET before
    anything is allocated; ``DesignMatrix`` checks the full column rank.
    """
    labels = design_columns(table.factors, model)[0]
    n_cells = table.n_cells
    cells = np.arange(n_cells)
    strides = cell_strides(table.shape)

    # Non-baseline indicator columns of the model's factors, at most d - 1
    # of them; level index 0 is baseline.
    indicator = {}
    for k, factor in enumerate(table.factors):
        if factor.name in model.factors:
            level = cells // strides[k] % factor.n_levels
            for lev in range(1, factor.n_levels):
                indicator[factor.name, factor.levels[lev]] = (level == lev).astype(np.float64)

    # each column is filled in place, so the design exists once
    matrix = np.ones((n_cells, len(labels)))
    for j, label in enumerate(labels):
        col = matrix[:, j]
        for key in label.levels:
            col *= indicator[key]

    return DesignMatrix(matrix, labels, table.factors, model)


@lru_cache(maxsize=64)
def _zeta_factors(shape):
    """Transposed Kronecker factors of the zeta transform on a table shape.

    Factor f gets the L x L matrix Z_f whose row 0 is all ones (any
    level) and whose row l is e_l.  The factors are split, in table
    order, into consecutive groups of at most GROUP_CELLS cells (a
    larger factor is a group of its own); a group's Kronecker factor
    is the Kronecker product of its Z_f.  Read-only, cached per shape.
    """
    groups, cells = [[]], 1
    for n_levels in shape:
        if groups[-1] and cells * n_levels > GROUP_CELLS:
            groups.append([])
            cells = 1
        groups[-1].append(n_levels)
        cells *= n_levels
    factors = []
    for group in groups:
        z = np.ones((1, 1))
        for n_levels in group:
            z_f = np.eye(n_levels)
            z_f[0] = 1.0
            z = (z[:, None, :, None] * z_f[None, :, None, :]).reshape(len(z) * n_levels, -1)  # np.kron(z, z_f)
        z = np.ascontiguousarray(z.T)
        z.flags.writeable = False
        factors.append(z)
    return tuple(factors)


def _zeta(w, factors):
    """T(w) of the columns of w, an (n_cells, m) array in cell order.

    At the cell of a level pattern, where level index 0 means "any
    level", column i of T(w) holds the sum of w[:, i] over the cells
    that match the pattern.  Returns T(w) transposed, (m, n_cells).
    Each product applies one group's factor to the leading axis of the
    cube and moves that axis last, so after the last group the axes are
    in table order again, behind the m columns.
    """
    m = w.shape[1]
    for z_t in factors:
        w = w.reshape(z_t.shape[0], -1).T @ z_t
    return w.reshape(m, -1)


def _margins(shape, patterns, in_face):
    """Newton's (x' diag(m) x, x' r) from marginal totals, m and r over the face.

    x is the design of a table of ``shape`` restricted to the face cells
    ``in_face`` and to the columns whose level patterns (as in
    ``design_columns``) are the rows of ``patterns``.  The
    returned function takes m and r, vectors over the face cells, and
    takes one zeta transform of both, 0 off the face: entry (j, l) of
    the information is T(m) at the cell of max(a_j, a_l), and x' r is
    T(r) at the cells of the patterns.  A pair that gives one factor two
    different levels matches no cell, and its entry is exactly 0.

    The cell index is built once from three small GEMMs, exact as they
    hold integers below 2^53.  With s the cell strides, V = a * s and
    B = [a > 0], the cell of max(a_j, a_l) is s.a_j + s.a_l - (V B')[j, l].
    The pair conflicts where sum_f B_j B_l (a_j - a_l)^2, that is
    (a^2 B')[j, l] + (a^2 B')[l, j] - 2 (a a')[j, l], is not 0, and its
    entry is masked to 0.
    """
    p = patterns.astype(np.float64)
    b = np.minimum(p, 1.0)
    v = p * cell_strides(shape)
    cells = v.sum(axis=1)
    squares = (p * p) @ b.T
    keep = (squares + squares.T == 2.0 * (p @ p.T)).astype(np.float64)
    pairs = ((cells[:, None] + cells - v @ b.T) * keep).astype(np.intp)  # a conflict reads cell 0
    cells = cells.astype(np.intp)
    factors = _zeta_factors(shape)
    rows = slice(None) if in_face.all() else np.flatnonzero(in_face)
    w = np.zeros((math.prod(shape), 2))  # m and r, 0 off the face

    def margins(m, r):
        w[rows, 0] = m
        w[rows, 1] = r
        t = _zeta(w, factors)
        info = t[0][pairs]
        info *= keep
        return info, t[1][cells]

    return margins
