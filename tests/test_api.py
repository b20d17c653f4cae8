"""The public API: the package's exports, its optional parameters, the names the benchmark's tracer times, and its imports."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

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

# Every optional parameter of a public function or public method, by
# module and name: the package's knobs.  A knob added or brought back is
# a deliberate edit of this table.
OPTIONAL = {
    "cli.make_parser": ("err",),
    "cli.main": ("argv", "out", "err"),
    "faces.find_facial_set": ("design",),
    "faces.per_cell_oracle": ("design",),
    "fit.fit": ("facial_set", "design"),
    "lp.solve": ("start", "stop_above"),
    "report.build_report": ("fit_result", "oracle"),
    "table.parse_table": ("freq_column",),
}

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


def test_optional_parameters_are_pinned():
    found = {}
    for info in pkgutil.iter_modules(sparseloglin.__path__):
        mod = importlib.import_module(f"sparseloglin.{info.name}")
        names = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
        for name in names:
            obj = getattr(mod, name)
            if inspect.isclass(obj):
                methods = vars(obj).items()
                funcs = [(f"{name}.{k}", v) for k, v in methods if not k.startswith("_") and inspect.isfunction(v)]
            elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                funcs = [(name, obj)]
            else:
                continue
            for qual, func in funcs:
                params = inspect.signature(func).parameters.values()
                optional = tuple(p.name for p in params if p.default is not p.empty)
                if optional:
                    found[f"{info.name}.{qual}"] = optional
    assert found == OPTIONAL


def test_lp_names_the_tracer_reads_are_pinned():
    # perfbench/tracing.py reads the LP from solve's first argument or
    # its "lp" keyword, the LP's n_constraints and n_vars, and the
    # solution's pivots
    from sparseloglin import lp

    assert next(iter(inspect.signature(lp.solve).parameters)) == "lp"
    problem = lp.LinearProgram([[1.0, 1.0]], [1.0])
    assert (problem.n_constraints, problem.n_vars) == (1, 2)
    assert lp.solve(lp=problem, objective=[0.0, 1.0]).pivots == 2  # one pivot per phase


def unused_imports(source):
    """Names a module imports but neither uses nor lists in its ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used | exported)


def test_no_unused_imports():
    # stands in for a linter's unused-import rule
    found = {}
    for path in sorted(pathlib.Path(sparseloglin.__file__).parent.glob("*.py")):
        unused = unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    assert found == {}


def test_unused_import_detected():
    source = "from .design import build_design, matrix_rank\n__all__ = ['f']\ndef f(t, m):\n    return build_design(t, m)\n"
    assert unused_imports(source) == ["line 1: matrix_rank"]
