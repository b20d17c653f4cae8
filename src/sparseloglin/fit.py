"""Extended maximum likelihood fitting on the facial set.

Cells outside the face are treated as structural zeros: the Poisson
model is fit on the remaining cells only, over the span of a maximal
linearly independent subset of the restricted design columns.  Columns
not selected are reported as aliased (no finite estimate exists for
them).  Degrees of freedom, BIC, and the corrected BIC all use the
face dimension rather than the nominal model dimension.

Newton's information X' diag(mu) X and gradient X'(n - mu) come from
marginal totals of the fitted means (``DesignMatrix.margins``); only
eta = X theta is a product with the design, O(n d) per trial step.

The log-likelihood convention is l(m) = sum n log m - sum m with
0 log 0 = 0, i.e. no factorial constant.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .design import design_for

__all__ = [
    "Coefficient",
    "FitResult",
    "FitError",
    "fit",
    "loglik",
    "deviance",
    "bic",
    "cbic",
]


# Newton iterations ``fit`` allows before it reports no convergence.
NEWTON_ITER_CAP = 100


class FitError(RuntimeError):
    """Fit could not be completed: inconsistent inputs or no convergence."""


@dataclass(frozen=True)
class Coefficient:
    """One design column: its estimate, or an aliased marker."""

    label: object  # design.ColumnLabel
    estimate: float  # nan when aliased
    std_error: float  # nan when aliased or information is singular
    aliased: bool


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
    n_iter: int = 0


def _newton(X, y, theta0, grad_bound, margins):
    """Maximize the Poisson log-likelihood y'(X theta) - sum(exp(X theta)).

    Damped Newton: full step first, halved until the objective stops
    getting worse (a 1e-12 relative band lets the final steps polish
    the gradient once the objective is flat to machine precision).
    ``margins(mu, r)`` returns (X' diag(mu) X, X' r), as
    ``DesignMatrix.margins`` forms them; X itself gives only eta = X theta.

    Convergence requires BOTH a small gradient (max|grad| <= grad_bound)
    and a small Newton step (max|delta| <= 1e-8 (1 + max|theta|)).
    When the maximizer lies on the boundary (extended-MLE case with all
    cells included) the gradient still vanishes along the divergent
    path while the step stays O(1), so a gradient-only test would
    silently accept a diverging parameter vector.

    Returns (theta, mu, info, n_iter): mu = exp(X theta) at the returned
    theta, and info = X' diag(mu) X, the observed information without
    the ridge.  Raises FitError when no damped step improves the objective
    or NEWTON_ITER_CAP steps pass without convergence.
    """
    d = X.shape[1]
    theta = theta0.copy()
    eta = X @ theta
    mu = np.exp(eta)
    f = y @ eta - mu.sum()

    how = f"hit the {NEWTON_ITER_CAP}-iteration cap"
    for it in range(NEWTON_ITER_CAP):
        info, grad = margins(mu, y - mu)
        gnorm = np.max(np.abs(grad))

        # tiny ridge keeps the solve well-posed when means collapse
        lam = 1e-12 * max(np.trace(info) / d, 1.0)
        H = info.copy()
        H[np.diag_indices(d)] += lam
        delta = np.linalg.solve(H, grad)

        if gnorm <= grad_bound and np.max(np.abs(delta)) <= 1e-8 * (1.0 + np.max(np.abs(theta))):
            return theta, mu, info, it

        step = 1.0
        f_floor = f - 1e-12 * (1.0 + abs(f))
        for _ in range(60):
            eta_try = X @ (theta + step * delta)
            if np.max(eta_try) <= 700.0:
                mu_try = np.exp(eta_try)
                f_try = y @ eta_try - mu_try.sum()
                if f_try > f_floor:
                    theta = theta + step * delta
                    mu = mu_try
                    f = max(f, f_try)
                    break
            step *= 0.5
        else:  # no damped step improved the objective
            how = "stalled"
            break
    raise FitError(f"fit {how} after {it + 1} iterations (grad norm {gnorm:.3e})")


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


def bic(result):
    """l - (d/2) log N with the nominal model dimension d."""
    return result.loglik - 0.5 * result.model_dimension * math.log(result.total)


def cbic(result):
    """l - (d_F/2) log N: the dimension-corrected criterion."""
    return result.loglik - 0.5 * result.face_dimension * math.log(result.total)


def fit(table, model, facial_set=None, design=None):
    """Fit the Poisson log-linear model restricted to the facial set.

    With ``facial_set=None`` the model is fit on all cells (the
    ordinary MLE attempt).  The estimated columns are the greedy,
    in-order independent columns of the face rows (see
    ``DesignMatrix.rows_rank``): every column, with no rank computed,
    when the face holds every cell.  The fitted means do not depend on
    that choice, only the parametrization does.  Newton converges once
    max|gradient| <= 1e-10 max(1, N) and max|step| <= 1e-8 (1 + max|theta|);
    when it stalls or spends NEWTON_ITER_CAP iterations first, as a fit
    on all cells does when the MLE does not exist, ``fit`` raises
    FitError and returns no partial fit; only a fit on all cells adds
    the hint to fit on the facial set.  A passed ``design`` must be
    the model's design on the table (see ``design.design_for``), and a
    passed ``facial_set`` must have one entry per cell, else ValueError.
    """
    if table.total == 0:
        raise FitError("all-zero table")
    design = design_for(table, model, design)
    n_cells = table.n_cells

    if facial_set is None:
        in_face = np.ones(n_cells, dtype=bool)
    else:
        in_face = facial_set.in_face
        if in_face.shape[0] != n_cells:
            raise ValueError(f"facial set has {in_face.shape[0]} cells but the table has {n_cells} cells")
        if np.any((table.counts > 0) & ~in_face):
            raise FitError("facial set excludes a cell with a positive count")

    # a dense table's fit, all cells and columns kept, uses the design uncopied
    xf = design.matrix if in_face.all() else design.matrix[in_face]
    nf = table.counts[in_face].astype(np.float64)
    n_face = int(in_face.sum())
    total = table.total
    d = design.d
    rank = design.rows_rank(in_face)
    d_face, kept = rank.rank, rank.columns

    x_star = xf if kept == tuple(range(d)) else np.ascontiguousarray(xf[:, kept])
    # matrix_rank keeps column 0, the intercept, so eta starts at log(N/|F|)
    theta0 = np.zeros(len(kept))
    theta0[0] = math.log(total / n_face)

    try:
        theta, mu, info, n_iter = _newton(
            x_star, nf, theta0, 1e-10 * max(1.0, float(total)), design.margins(in_face, kept)
        )
    except FitError as exc:
        if facial_set is not None:
            raise
        raise FitError(f"{exc}; if the MLE may not exist, fit on the facial set") from None
    fitted = np.zeros(n_cells)
    fitted[in_face] = mu
    fitted.flags.writeable = False

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
        estimable_columns=kept,
        loglik=ll,
        deviance=deviance(fitted, table.counts),
        model_dimension=d,
        face_dimension=d_face,
        n_face_cells=n_face,
        residual_df=n_face - d_face,
        total=total,
        n_iter=n_iter,
    )
    return replace(result, bic=bic(result), cbic=cbic(result))
