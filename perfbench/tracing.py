"""Spans around the calls into each module's public functions.

The tracer works from outside the program: it replaces every public
function of the traced modules, wherever a module of the package has
bound it by name, with a wrapper that records a span (name, start, end,
parent span, analysis, pass) and a few counts read from what the call
returned.  Spans stay in memory and are written out when the run ends.
``_kernels`` has no public entry that the package calls, so its time
shows inside ``lp.solve`` and ``fit``.
"""

import functools
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "datasets", "table", "formula", "design", "lp", "faces", "fit", "report")
CLI_FUNCTIONS = ("main", "parse_model", "load_table")  # cli has no __all__


@dataclass
class Span:
    id: int
    parent: int  # -1 for a span no traced call encloses
    name: str
    analysis: str
    pass_index: int
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _lp_info(args, kwargs, sol):
    lp = args[0] if args else kwargs["lp"]
    m, n = lp.n_constraints, lp.n_vars
    # computed: the dense phase-1 tableau is (m + 1) x (n + m + 1) doubles
    return {"pivots": int(sol.pivots), "tableau_bytes": 8 * (m + 1) * (n + m + 1)}


def _find_info(args, kwargs, fs):
    return {"lp_solves": int(fs.iterations), "rescued": sum(len(r) for r in fs.removed_per_iteration)}


def _oracle_info(args, kwargs, fs):
    table = args[0] if args else kwargs["table"]
    return {"lp_solves": int(fs.iterations), "rescued": int((fs.in_face & (table.counts == 0)).sum())}


def _fit_info(args, kwargs, res):
    return {"newton_iters": int(res.n_iter)}


def _design_info(args, kwargs, design):
    rows, cols = design.matrix.shape
    return {"matrix_bytes": 8 * rows * cols}  # computed from the shape


PROBES = {
    "lp.solve": _lp_info,
    "faces.find_facial_set": _find_info,
    "faces.per_cell_oracle": _oracle_info,
    "fit.fit": _fit_info,
    "design.build_design": _design_info,
}


class Tracer:
    """Install with ``install(package_name)``; remove with ``uninstall()``."""

    def __init__(self):
        self.spans = []
        self.analysis = ""
        self.pass_index = -1
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else -1, name, self.analysis, self.pass_index)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        modules = {n: m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            names = CLI_FUNCTIONS if layer == "cli" else mod.__all__
            for attr in names:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def dump(self):
        return [asdict(s) for s in self.spans]


def _self_times(spans):
    child = {}
    for s in spans:
        if s.parent >= 0:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child.get(s.id, 0.0) for s in spans}


def pass_metrics(spans):
    """Per-layer metrics of one pass, from its spans."""
    self_time = _self_times(spans)
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(*names):
        return sum(s.duration for n in names for s in by.get(n, ()))

    def self_total(*names):
        return sum(self_time[s.id] for n in names for s in by.get(n, ()))

    def info(name, key, op=sum):
        return op([s.info[key] for s in by.get(name, ()) if key in s.info] or [0])

    lp_s = total("lp.solve")
    pivots = info("lp.solve", "pivots")
    find_lps = info("faces.find_facial_set", "lp_solves")
    oracle_lps = info("faces.per_cell_oracle", "lp_solves")
    rescued = info("faces.find_facial_set", "rescued") + info("faces.per_cell_oracle", "rescued")
    return {
        "lp.solves": len(by.get("lp.solve", ())),
        "lp.solve_s": lp_s,
        "lp.pivots": pivots,
        "lp.pivots_per_s": pivots / lp_s if lp_s > 0 else 0.0,
        "lp.tableau_bytes_peak": info("lp.solve", "tableau_bytes", max),
        "lp.errors": sum(s.error for s in by.get("lp.solve", ())),
        "faces.find_s": total("faces.find_facial_set"),
        "faces.find_self_s": self_total("faces.find_facial_set"),
        "faces.lp_solves": find_lps,
        "faces.cells_rescued": rescued,
        "faces.rescued_per_lp": rescued / (find_lps + oracle_lps) if find_lps + oracle_lps else 0.0,
        "faces.oracle_s": total("faces.per_cell_oracle"),
        "faces.oracle_lp_solves": oracle_lps,
        "design.build_s": total("design.build_design"),
        "design.rank_calls": len(by.get("design.matrix_rank", ())),
        "design.rank_s": total("design.matrix_rank"),
        "design.matrix_bytes": info("design.build_design", "matrix_bytes", max),
        "fit.fits": len(by.get("fit.fit", ())),
        "fit.fit_s": total("fit.fit"),
        "fit.self_s": self_total("fit.fit"),
        "fit.newton_iters": info("fit.fit", "newton_iters"),
        "report.build_s": total("report.build_report"),
        "report.render_s": total("report.render_json", "report.render_text"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_total("cli.main"),
        "datasets.load_s": total("datasets.load"),
        "table.parse_s": total("table.parse_table"),
        "formula.parse_s": total("formula.parse_formula", "formula.parse_generators"),
    }


def layer_metrics(spans, n_passes):
    """Median over passes of each per-pass metric."""
    per_pass = [[] for _ in range(n_passes)]
    for s in spans:
        per_pass[s.pass_index].append(s)
    rows = [pass_metrics(p) for p in per_pass]
    return {name: statistics.median(r[name] for r in rows) for name in rows[0]}, rows
