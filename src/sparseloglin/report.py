"""Report assembly and rendering.

The JSON-ready dict is the machine contract (``schema_version`` 1);
the text rendering is formatted from the same dict, so the two always
carry identical numbers.

``render_json`` returns exactly the bytes of ``json.dumps(report,
indent=2) + "\n"``, whose pure-Python encoder (json's only one with
``indent``) visits every value of every row.  So the row lists that
``build_report`` shapes (``face``, ``presolved``, ``span_closed``,
``coefficients``) are written by one formatter, column by column: each
key's values are read at once, each distinct label is encoded once
(joined raw when none needs escaping), floats go through
``float.__repr__`` (None as ``null``), and one template of json's
indentation and separators takes the whole list.  Every other value
is encoded by ``json.dumps``.
"""

import json
import math
from collections import Counter
from itertools import chain, product, repeat
from operator import itemgetter

import numpy as np

from .faces import mle_exists

__all__ = ["SCHEMA_VERSION", "build_report", "render_text", "render_json"]

SCHEMA_VERSION = 1


def _jsonable(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _jsonable_list(values):
    """A float array as a list, with None for each non-finite entry."""
    out = values.tolist()
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        out[i] = None
    return out


def build_report(formula_text, table, design, facial_set, fit_result=None, oracle=None):
    """Assemble the run report as a plain dict."""
    levels = list(map(list, product(*([str(v) for v in f.levels] for f in table.factors))))
    rows = zip(levels, table.counts.tolist(), facial_set.in_face.astype(np.int64).tolist())
    if fit_result is None:
        face_rows = [{"levels": lv, "count": n, "in_face": f} for lv, n, f in rows]
    else:
        face_rows = [
            {"levels": lv, "count": n, "in_face": f, "fitted": m}
            for (lv, n, f), m in zip(rows, _jsonable_list(fit_result.fitted_means))
        ]
    report = {
        "schema_version": SCHEMA_VERSION,
        "formula": formula_text,
        "model_dimension": design.d,
        "status": facial_set.status,
        "iterations": facial_set.iterations,
        "presolved": [
            {"cell": cell, "levels": list(levels[cell]), "generator": list(gen)}
            for cell, gen in facial_set.presolved
        ],
        "span_closed": [{"cell": cell, "levels": list(levels[cell])} for cell in facial_set.span_closed],
        "factors": list(table.factor_names),
        "total": table.total,
        "face": face_rows,
        "face_dimension": facial_set.face_dimension,
        "n_face_cells": facial_set.n_face_cells,
        "mle_exists": mle_exists(facial_set),
    }
    if oracle is not None:
        disagree = np.flatnonzero(oracle.in_face != facial_set.in_face).tolist()
        report["oracle_check"] = {"agrees": not disagree, "differing_cells": disagree, "lp_solves": oracle.iterations}
    if fit_result is not None:
        report["max_loglik"] = _jsonable(fit_result.loglik)
        report["coefficients"] = [
            {
                "label": str(c.label),
                "estimate": _jsonable(c.estimate),
                "std_error": _jsonable(c.std_error),
                "aliased": c.aliased,
            }
            for c in fit_result.coefficients
        ]
        report["residual_df"] = fit_result.residual_df
        report["deviance"] = _jsonable(fit_result.deviance)
        report["bic"] = _jsonable(fit_result.bic)
        report["cbic"] = _jsonable(fit_result.cbic)
        report["converged"] = True  # a fit that returns has converged
    return report


def _fmt(value, spec=".6f"):
    return "NA" if value is None else format(value, spec)


def render_text(report):
    """Format a report dict for the terminal."""
    out = [f"formula: {report['formula']}", f"model dimension: {report['model_dimension']}"]
    out += [f"status: {report['status']}", f"iterations: {report['iterations']}"]
    margins = Counter(tuple(p["generator"]) for p in report["presolved"])
    line = f"presolved: {len(report['presolved'])} zero cells"
    if margins:
        ordered = sorted(margins.items(), key=lambda item: (len(item[0]), item[0]))
        line += " in zero margins of " + ", ".join(f"{':'.join(g)} ({k})" for g, k in ordered)
    out.append(line)
    out.append(f"span closure: {len(report['span_closed'])} zero cells")

    face, factors = report["face"], report["factors"]
    levels = list(zip(*map(itemgetter("levels"), face)))  # one column per factor
    heads = [*factors, "freq", "in_face"]
    widths = [*(max(len(f), *map(len, set(col))) for f, col in zip(factors, levels)), 6, 7]
    columns = [*levels, map(itemgetter("count"), face), map(itemgetter("in_face"), face)]
    if "fitted" in face[0]:
        heads.append("fitted")
        widths.append(10)
        columns.append(map(_fmt, map(itemgetter("fitted"), face), repeat(".4f")))
    row = "".join(f"  %{w}s" for w in widths)
    out += ["face:", row % tuple(heads), *map(row.__mod__, zip(*columns))]
    out.append(f"face dimension: {report['face_dimension']}")
    out.append(f"cells in face: {report['n_face_cells']} of {len(report['face'])}")
    out.append(f"MLE exists: {'yes' if report['mle_exists'] else 'no'}")

    if "oracle_check" in report:
        oc = report["oracle_check"]
        if oc["agrees"]:
            out.append(f"oracle check: PASS ({oc['lp_solves']} per-cell LP solves)")
        else:
            out.append(f"oracle check: FAIL, differing cells {oc['differing_cells']}")

    if "max_loglik" in report:
        out.append(f"max log-likelihood: {_fmt(report['max_loglik'])}")
        out.append("coefficients:")
        lab_w = max(len(c["label"]) for c in report["coefficients"])
        # an estimate within Newton's step tolerance of 0 is 0, not rounding noise
        zero = 1e-8 * (1.0 + max((abs(c["estimate"]) for c in report["coefficients"] if not c["aliased"]), default=0))
        out.append(f"  {'column'.ljust(lab_w)}  {'estimate'.rjust(12)}  {'std.error'.rjust(12)}")
        for c in report["coefficients"]:
            if c["aliased"]:
                out.append(f"  {c['label'].ljust(lab_w)}  {'aliased'.rjust(12)}  {''.rjust(12)}")
            else:
                est = _fmt(0.0 if abs(c["estimate"]) <= zero else c["estimate"], ".6g").rjust(12)
                se = _fmt(c["std_error"], ".6g").rjust(12)
                out.append(f"  {c['label'].ljust(lab_w)}  {est}  {se}")
        out.append(f"residual df: {report['residual_df']}")
        # the deviance's term 2 sum(m - n) is -2 times the intercept's gradient entry, which Newton
        # leaves up to 1e-10 max(1, N): a deviance within 2e-10 max(1, N) of 0 is 0, not noise
        deviance = report["deviance"]
        zero = deviance is not None and abs(deviance) <= 2e-10 * max(1, report["total"])
        out.append(f"deviance: {_fmt(0.0 if zero else deviance, '.6g')}")
        out.append(f"bic: {_fmt(report['bic'])}")
        out.append(f"cbic: {_fmt(report['cbic'])}")
    return "\n".join(out) + "\n"


# build_report's row lists, and how _rows_json writes each key of their rows
_ROW_LISTS = ("face", "presolved", "span_closed", "coefficients")
_KINDS = {"levels": list, "generator": list, "label": str, "cell": int, "count": int, "in_face": int}
_KINDS.update(dict.fromkeys(("fitted", "estimate", "std_error"), float), aliased=bool)


def _labels(column, kind):
    """A column of labels (or of label lists, each joined by json's separator) as json text, and its quote."""
    distinct = set().union(*column) if kind is list else set(column)
    encoded = dict(zip(distinct, map(json.encoder.encode_basestring_ascii, distinct)))
    if all(len(text) == len(label) + 2 for label, text in encoded.items()):  # nothing escaped: join raw
        return (map('",\n        "'.join, column) if kind is list else column), '"'
    get = encoded.__getitem__
    return (map(",\n        ".join, map(map, repeat(get), column)) if kind is list else map(get, column)), ""


def _rows_json(rows):
    """json.dumps(rows, indent=2) of one of build_report's row lists, nested one level, column by column."""
    slots, columns = [], []
    for key in rows[0]:
        column, kind = list(map(itemgetter(key), rows)), _KINDS[key]
        slot = "%s"
        if kind is float and None in column:
            column = ["null" if x is None else float.__repr__(x) for x in column]
        elif kind is float:
            column = map(float.__repr__, column)
        elif kind is bool:
            column = map({True: "true", False: "false"}.__getitem__, column)
        elif kind is list and not all(column):  # an empty list is written "[]"
            return json.dumps(rows, indent=2).replace("\n", "\n  ")
        elif kind is not int:
            column, quote = _labels(column, kind)
            slot = quote + "%s" + quote if kind is str else "[\n        " + quote + "%s" + quote + "\n      ]"
        slots.append(f'\n      "{key}": {slot}')
        columns.append(column)
    template = "[\n" + ",\n".join(repeat("    {" + ",".join(slots) + "\n    }", len(rows))) + "\n  ]"
    return template % tuple(chain.from_iterable(zip(*columns)))


def render_json(report):
    """A report of build_report as ``json.dumps(report, indent=2) + "\\n"``, byte for byte."""
    parts = ["{\n  "]
    for key, value in report.items():
        text = _rows_json(value) if key in _ROW_LISTS and value else json.dumps(value, indent=2).replace("\n", "\n  ")
        parts += (json.dumps(key), ": ", text, ",\n  ")
    parts[-1] = "\n}\n"
    return "".join(parts)
