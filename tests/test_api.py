"""The public API: the package's exports, and the names the benchmark's tracer times."""

import importlib

import sparseloglin

PUBLIC = [
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

# perfbench/tracing.py wraps only the functions a module lists in its
# __all__; a function missing there would read 0 in its per-layer metric.
TRACED = [
    "lp.solve",
    "design.build_design",
    "design.matrix_rank",
    "faces.find_facial_set",
    "faces.per_cell_oracle",
    "fit.fit",
    "report.build_report",
    "report.render_json",
    "report.render_text",
    "datasets.load",
    "table.parse_table",
    "formula.parse_formula",
    "formula.parse_generators",
]


def test_top_level_exports_are_pinned():
    # an export added or dropped here is a deliberate edit of this list
    assert sparseloglin.__all__ == PUBLIC
    assert all(hasattr(sparseloglin, name) for name in PUBLIC)


def test_traced_functions_stay_in_module_all():
    missing = []
    for name in TRACED:
        module, attr = name.split(".")
        mod = importlib.import_module(f"sparseloglin.{module}")
        if attr not in mod.__all__ or not callable(getattr(mod, attr, None)):
            missing.append(name)
    assert missing == []
