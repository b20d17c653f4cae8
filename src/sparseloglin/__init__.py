"""Log-linear models for sparse contingency tables.

Detects when the MLE of a hierarchical log-linear model fails to exist
(the sufficient statistic falls on a proper face of the marginal cone),
computes the facial set via repeated linear programming, and fits the
extended MLE on it with the correct effective dimension, degrees of
freedom, and information criteria.
"""

from .design import DesignMatrix, build_design, matrix_rank
from .faces import FacialSet, find_facial_set, mle_exists, per_cell_oracle
from .fit import FitError, FitResult, bic, cbic, deviance, fit, loglik
from .formula import FormulaError, ModelFormula, parse_formula, parse_generators
from .lp import SimplexError
from .table import ContingencyTable, FactorSpec, TableError, parse_table

__version__ = "0.1.0"

__all__ = [
    "ContingencyTable",
    "FactorSpec",
    "TableError",
    "parse_table",
    "ModelFormula",
    "FormulaError",
    "parse_formula",
    "parse_generators",
    "DesignMatrix",
    "build_design",
    "matrix_rank",
    "SimplexError",
    "FacialSet",
    "find_facial_set",
    "per_cell_oracle",
    "mle_exists",
    "FitResult",
    "FitError",
    "fit",
    "loglik",
    "deviance",
    "bic",
    "cbic",
    "__version__",
]
