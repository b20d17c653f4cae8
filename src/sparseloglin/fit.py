"""Extended maximum likelihood fitting on the facial set.

Cells outside the face are treated as structural zeros: the Poisson
model is fit on the remaining cells only, over the span of a maximal
linearly independent subset of the restricted design columns.  Columns
not selected are reported as aliased (no finite estimate exists for
them).  Degrees of freedom, BIC, and the corrected BIC all use the
face dimension rather than the nominal model dimension.

The log-likelihood convention is l(m) = sum n log m - sum m with
0 log 0 = 0, i.e. no factorial constant.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .design import build_design, matrix_rank

__all__ = [
    "Coefficient",
    "FitResult",
    "FitError",
    "fit",
    "loglik",
    "deviance",
    "bic",
    "cbic",
    "standard_errors",
]


# _newton status codes
CONVERGED = 0
MAX_ITER = 1
STALLED = 2


class FitError(RuntimeError):
    """Fit could not be completed: inconsistent inputs or no convergence."""


@dataclass(frozen=True)
class Coefficient:
    """One design column: its estimate, or an aliased marker."""

    label: object  # design.ColumnLabel
    estimate: float  # nan when aliased
    std_error: float  # nan when aliased or information is singular
    aliased: bool

    @property
    def term(self):
        return self.label.term


@dataclass(frozen=True)
class FitResult:
    """Extended-MLE fit summary."""

    fitted_means: np.ndarray = field(repr=False)  # per cell, 0 off the face
    coefficients: tuple = ()
    estimable_columns: tuple = ()  # design column indices kept in the fit
    loglik: float = np.nan
    deviance: float = np.nan
    model_dimension: int = 0  # d
    face_dimension: int = 0  # rank of the restricted design
    n_face_cells: int = 0
    residual_df: int = 0
    total: int = 0  # N
    bic: float = np.nan
    cbic: float = np.nan
    converged: bool = False
    n_iter: int = 0
    moment_residual: float = np.nan
    in_face: np.ndarray = field(default=None, repr=False)
    design: object = field(default=None, repr=False)

    def aliased_columns(self):
        return tuple(c for c in self.coefficients if c.aliased)

    def aliased_terms(self):
        return tuple(c.term for c in self.coefficients if c.aliased)


def _newton(X, y, theta0, grad_bound, step_tol, max_iter):
    """Maximize the Poisson log-likelihood y'(X theta) - sum(exp(X theta)).

    Damped Newton: full step first, halved until the objective stops
    getting worse (a 1e-12 relative band lets the final steps polish
    the gradient once the objective is flat to machine precision).

    Convergence requires BOTH a small gradient (max|grad| <= grad_bound)
    and a small Newton step (max|delta| <= step_tol * (1 + max|theta|)).
    When the maximizer lies on the boundary (extended-MLE case with all
    cells included) the gradient still vanishes along the divergent
    path while the step stays O(1), so a gradient-only test would
    silently accept a diverging parameter vector.

    Returns (theta, status, n_iter, grad_norm).
    """
    n_rows, d = X.shape
    theta = theta0.copy()
    eta = X @ theta
    if np.max(eta) > 700.0:
        # start must be evaluable; caller guarantees a sane theta0
        return theta, STALLED, 0, np.inf
    mu = np.exp(eta)
    f = y @ eta - mu.sum()

    status = MAX_ITER
    it = 0
    gnorm = np.inf
    while it < max_iter:
        grad = X.T @ (y - mu)
        gnorm = np.max(np.abs(grad))

        H = X.T @ (X * mu.reshape(-1, 1))
        # tiny ridge keeps the solve well-posed when means collapse
        lam = 1e-12 * max(np.trace(H) / d, 1.0)
        H[np.diag_indices(d)] += lam
        delta = np.linalg.solve(H, grad)

        if gnorm <= grad_bound and np.max(np.abs(delta)) <= step_tol * (1.0 + np.max(np.abs(theta))):
            status = CONVERGED
            break

        step = 1.0
        accepted = False
        f_floor = f - 1e-12 * (1.0 + abs(f))
        for _ in range(60):
            eta_try = X @ (theta + step * delta)
            if np.max(eta_try) <= 700.0:
                mu_try = np.exp(eta_try)
                f_try = y @ eta_try - mu_try.sum()
                if f_try > f_floor:
                    theta = theta + step * delta
                    eta = eta_try
                    mu = mu_try
                    f = max(f, f_try)
                    accepted = True
                    break
            step *= 0.5
        it += 1
        if not accepted:
            status = STALLED
            break

    return theta, status, it, gnorm


def loglik(fitted_means, counts):
    """sum n log m - sum m with 0 log 0 = 0; -inf if n > 0 where m = 0."""
    m = np.asarray(fitted_means, dtype=np.float64)
    n = np.asarray(counts, dtype=np.float64)
    pos = m > 0.0
    if np.any(n[~pos] > 0):
        return -np.inf
    return float(n[pos] @ np.log(m[pos]) - m.sum())


def deviance(fitted_means, counts):
    """Poisson deviance 2 sum [n log(n/m) - (n - m)] over fitted cells."""
    m = np.asarray(fitted_means, dtype=np.float64)
    n = np.asarray(counts, dtype=np.float64)
    pos = m > 0.0
    if np.any(n[~pos] > 0):
        return np.inf
    npos = n[pos]
    mpos = m[pos]
    terms = -(npos - mpos)
    nz = npos > 0
    terms[nz] += npos[nz] * np.log(npos[nz] / mpos[nz])
    return float(2.0 * terms.sum())


def bic(result, total=None):
    """l - (d/2) log N with the nominal model dimension d."""
    n = result.total if total is None else total
    return result.loglik - 0.5 * result.model_dimension * math.log(n)


def cbic(result, total=None):
    """l - (d_F/2) log N: the dimension-corrected criterion."""
    n = result.total if total is None else total
    return result.loglik - 0.5 * result.face_dimension * math.log(n)


def standard_errors(result):
    """Per-column standard errors; nan marks aliased or unavailable."""
    return np.array([c.std_error for c in result.coefficients])


def fit(
    table,
    model,
    facial_set=None,
    design=None,
    columns=None,
    max_iter=100,
    require_convergence=True,
):
    """Fit the Poisson log-linear model restricted to the facial set.

    With ``facial_set=None`` the model is fit on all cells (the
    ordinary MLE attempt; it diverges when the MLE does not exist
    unless ``require_convergence=False``).  ``columns`` may name an
    explicit independent subset of design columns to estimate, as
    distinct integers in [0, d); the fitted means do not depend on that
    choice, only the parametrization does.  Newton converges once
    max|gradient| <= 1e-10 max(1, N) and max|step| <= 1e-8 (1 + max|theta|).
    """
    if table.total == 0:
        raise FitError("all-zero table")
    if design is None:
        design = build_design(table, model)
    n_cells = table.n_cells

    if facial_set is None:
        in_face = np.ones(n_cells, dtype=bool)
    else:
        in_face = facial_set.in_face.copy()
        if np.any((table.counts > 0) & ~in_face):
            raise FitError("facial set excludes a cell with a positive count")

    # a dense table's fit, all cells and columns kept, uses the design uncopied
    xf = design.matrix if in_face.all() else design.matrix[in_face]
    nf = table.counts[in_face].astype(np.float64)
    n_face = int(in_face.sum())
    total = table.total
    d = design.d
    if columns is None:
        d_face, kept = matrix_rank(xf)
    else:
        kept = np.asarray(columns)
        if (kept.ndim != 1 or kept.dtype.kind not in "iu"
                or not np.isin(kept, range(d)).all() or np.unique(kept).size < kept.size):
            raise FitError(f"columns must be distinct integers in [0, {d}), got {columns!r}")
        kept = kept.tolist()
        # listed first, the walk keeps exactly them iff they are maximal independent
        rest = sorted(set(range(d)) - set(kept))
        d_face, order = matrix_rank(xf[:, kept + rest])
        if order != tuple(range(len(kept))):
            raise FitError("explicit column set is not a maximal independent subset")

    x_star = xf if list(kept) == list(range(d)) else np.ascontiguousarray(xf[:, kept])
    theta0 = np.zeros(len(kept))
    if kept and kept[0] == 0:
        theta0[0] = math.log(total / n_face)

    theta, status, n_iter, gnorm = _newton(
        x_star, nf, theta0, 1e-10 * max(1.0, float(total)), 1e-8, int(max_iter)
    )
    converged = status == CONVERGED
    if require_convergence and not converged:
        how = "stalled" if status == STALLED else f"hit the {max_iter}-iteration cap"
        raise FitError(
            f"fit {how} after {n_iter} iterations (grad norm {gnorm:.3e}); "
            "if the MLE may not exist, fit on the facial set"
        )

    mu = np.exp(x_star @ theta)
    fitted = np.zeros(n_cells)
    fitted[in_face] = mu
    fitted.flags.writeable = False
    moment_residual = float(np.max(np.abs(x_star.T @ (mu - nf)))) if len(kept) else 0.0

    # observed information on the kept columns
    info = x_star.T @ (x_star * mu.reshape(-1, 1))
    se = np.full(len(kept), np.nan)
    try:
        cov = np.linalg.inv(info)
        diag = np.diag(cov)
        ok = diag > 0
        se[ok] = np.sqrt(diag[ok])
    except np.linalg.LinAlgError:
        pass

    kept_pos = {j: k for k, j in enumerate(kept)}
    coefficients = []
    for j in range(d):
        if j in kept_pos:
            k = kept_pos[j]
            coefficients.append(
                Coefficient(design.column_labels[j], float(theta[k]), float(se[k]), False)
            )
        else:
            coefficients.append(
                Coefficient(design.column_labels[j], np.nan, np.nan, True)
            )

    ll = loglik(fitted, table.counts)
    result = FitResult(
        fitted_means=fitted,
        coefficients=tuple(coefficients),
        estimable_columns=tuple(kept),
        loglik=ll,
        deviance=deviance(fitted, table.counts),
        model_dimension=d,
        face_dimension=d_face,
        n_face_cells=n_face,
        residual_df=n_face - d_face,
        total=total,
        converged=converged,
        n_iter=int(n_iter),
        moment_residual=moment_residual,
        in_face=in_face,
        design=design,
    )
    return replace(result, bic=bic(result), cbic=cbic(result))
