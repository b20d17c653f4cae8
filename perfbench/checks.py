"""Correctness checks on the outputs of one analysis.

Every check works from the table's counts, its cell coordinates and the
model's generators, all held by the benchmark itself, and recomputes
what it compares against: margins, log-likelihoods, and, where scipy can
be imported, the facial set from an LP solved by HiGHS.  None of them
calls sparseloglin or compares against a saved copy of its output.

A check raises CheckFailed when an output is wrong.  OperationFailed
marks an analysis that produced no output to check (the CLI returned a
non-zero exit code).
"""

import math

import numpy as np

# Cell margins of a converged fit equal the observed margins up to the
# Newton gradient tolerance (1e-10 N); 1e-6 is far above that and far
# below any real error (a 1% error in the means is 1e-2).
MARGIN_REL_TOL = 1e-6
# The reported log-likelihood and the recomputed one sum the same terms
# in a different order.
LOGLIK_REL_TOL = 1e-9
# The paper prints its criteria to one decimal, so a pairwise difference
# of two printed values is known to within 0.1; 0.15 leaves room for
# rounding of both.
PAPER_WINDOW = 0.15


class CheckFailed(Exception):
    """An output of the program is wrong."""


class OperationFailed(Exception):
    """An analysis ended without an output to check."""


def cli_exit(code, err):
    """The CLI must return exit code 0."""
    if code != 0:
        raise OperationFailed(f"CLI exit code {code}: {err.strip()[-300:]}")


def positives_in_face(counts, in_face):
    """Every cell with a positive count lies in the facial set."""
    outside = np.flatnonzero((np.asarray(counts) > 0) & ~np.asarray(in_face, dtype=bool))
    if outside.size:
        raise CheckFailed(f"positive cells {outside[:5].tolist()} are outside the face")


def fitted_support(in_face, fitted):
    """Fitted means are positive on the face and exactly zero off it."""
    in_face = np.asarray(in_face, dtype=bool)
    fitted = np.asarray(fitted, dtype=np.float64)
    if not np.all(fitted[in_face] > 0.0):
        raise CheckFailed("a face cell has a fitted mean that is not positive")
    if np.any(fitted[~in_face] != 0.0):
        raise CheckFailed("a cell off the face has a non-zero fitted mean")


def _margin_index(coords, generator):
    sub = coords[:, list(generator)]
    dims = sub.max(axis=0) + 1
    return np.ravel_multi_index(sub.T, dims), int(np.prod(dims))


def margins_match(coords, counts, fitted, generators, rel_tol=MARGIN_REL_TOL):
    """For every generator, fitted margins equal observed margins.

    ``coords`` holds the level index of every cell (n_cells x k) and a
    generator is a tuple of factor positions.
    """
    coords = np.asarray(coords)
    counts = np.asarray(counts, dtype=np.float64)
    fitted = np.asarray(fitted, dtype=np.float64)
    for gen in generators:
        idx, size = _margin_index(coords, gen)
        observed = np.bincount(idx, weights=counts, minlength=size)
        expected = np.bincount(idx, weights=fitted, minlength=size)
        err = np.abs(expected - observed) / np.maximum(observed, 1.0)
        if err.max() > rel_tol:
            raise CheckFailed(
                f"margin {gen}: fitted differs from observed by {err.max():.3e} (relative)"
            )


def loglik_matches(counts, fitted, reported, rel_tol=LOGLIK_REL_TOL):
    """The reported log-likelihood equals sum n log m - sum m."""
    counts = np.asarray(counts, dtype=np.float64)
    fitted = np.asarray(fitted, dtype=np.float64)
    pos = counts > 0
    want = float(counts[pos] @ np.log(fitted[pos]) - fitted.sum())
    if reported is None or not math.isclose(reported, want, rel_tol=rel_tol):
        raise CheckFailed(f"reported log-likelihood {reported} differs from recomputed {want}")


def ranking_matches(values, printed, window=PAPER_WINDOW):
    """Values rank as the printed column does, and pairwise differences agree.

    ``printed`` is the paper's column, best model first.
    """
    for i in range(len(values) - 1):
        if not values[i] > values[i + 1]:
            raise CheckFailed(f"rows {i} and {i + 1} are out of the paper's order")
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            got = values[i] - values[j]
            want = printed[i] - printed[j]
            if abs(got - want) > window:
                raise CheckFailed(f"rows {i},{j}: difference {got:.3f}, paper {want:.1f}")


def same_face(got, want, what):
    """Two facial sets are the same cells."""
    differ = np.flatnonzero(np.asarray(got, dtype=bool) != np.asarray(want, dtype=bool))
    if differ.size:
        raise CheckFailed(f"facial set differs from {what} at cells {differ[:5].tolist()}")


def marginal_matrix(coords, generators):
    """0/1 cell-by-margin-cell incidence over all generators' margins.

    Its columns span the same model space as the program's baseline
    coded design, so the two have the same marginal cone faces.
    """
    coords = np.asarray(coords)
    blocks = []
    for gen in generators:
        idx, size = _margin_index(coords, gen)
        block = np.zeros((coords.shape[0], size))
        block[np.arange(coords.shape[0]), idx] = 1.0
        blocks.append(block[:, block.any(axis=0)])
    return np.hstack(blocks)


def highs_facial_set(coords, counts, generators):
    """Facial set from one homogenized LP solved by scipy's HiGHS.

    Maximizes sum s_i over the zero cells subject to M'a = lam t',
    a >= 0, lam >= 0 and 0 <= s_i <= min(a_i, 1), where M is the
    marginal matrix and t' the margins of the binarized counts.  The
    cone is scale invariant, so s_i is 1 on every zero cell of the face
    and 0 elsewhere.  Returns None where scipy cannot be imported.
    """
    try:
        from scipy import sparse
        from scipy.optimize import linprog
    except ImportError:
        return None
    counts = np.asarray(counts)
    zeros = np.flatnonzero(counts == 0)
    n, k = counts.size, zeros.size
    if k == 0:
        return np.ones(n, dtype=bool)
    mat = marginal_matrix(coords, generators)
    t_prime = mat.T @ (counts > 0).astype(np.float64)
    # variables: a (n), s (k), lam (1)
    a_eq = sparse.hstack(
        [sparse.csr_matrix(mat.T), sparse.csr_matrix((mat.shape[1], k)), sparse.csr_matrix(-t_prime[:, None])]
    )
    pick = sparse.csr_matrix((np.ones(k), (np.arange(k), zeros)), shape=(k, n))
    a_ub = sparse.hstack([-pick, sparse.identity(k), sparse.csr_matrix((k, 1))])
    c = np.concatenate([np.zeros(n), -np.ones(k), [0.0]])
    bounds = [(0, None)] * n + [(0, 1)] * k + [(0, None)]
    res = linprog(
        c, A_ub=a_ub, b_ub=np.zeros(k), A_eq=a_eq, b_eq=np.zeros(mat.shape[1]),
        bounds=bounds, method="highs",
    )
    if res.status != 0:
        raise CheckFailed(f"reference LP did not solve: {res.message}")
    in_face = counts > 0
    in_face[zeros] = res.x[n : n + k] > 0.5
    return in_face
