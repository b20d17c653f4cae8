"""Report assembly and rendering.

The JSON-ready dict is the machine contract (``schema_version`` 1);
the text rendering is formatted from the same dict, so the two always
carry identical numbers.

``render_json`` returns exactly the bytes of ``json.dumps(report,
indent=2) + "\n"``.  With ``indent`` set, json always runs its
pure-Python encoder (the C encoder only serves compact output), which
visits about 20 nested objects per ``face`` row.  So the ``face``,
``presolved`` and ``span_closed`` rows, whose shapes ``build_report``
fixes, are written by two formatters with json's own string escaping,
``float.__repr__`` and the same indentation and separators; every
other top-level value is still encoded by ``json.dumps``.
"""

import json
import math
from collections import Counter

import numpy as np

from .faces import mle_exists

__all__ = ["SCHEMA_VERSION", "build_report", "render_text", "render_json"]

SCHEMA_VERSION = 1


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _jsonable_list(values):
    """A float array as a list, with None for each non-finite entry."""
    values = np.asarray(values, dtype=np.float64)
    out = values.tolist()
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        out[i] = None
    return out


def build_report(formula_text, table, design, facial_set, fit_result=None, oracle=None):
    """Assemble the run report as a plain dict."""
    levels = list(map(list, zip(*table.label_columns(str))))
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
        disagree = np.flatnonzero(oracle.in_face != facial_set.in_face)
        report["oracle_check"] = {
            "agrees": bool(disagree.size == 0),
            "differing_cells": [int(i) for i in disagree],
            "lp_solves": oracle.iterations,
        }
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
    if value is None:
        return "NA"
    return format(value, spec)


def render_text(report):
    """Format a report dict for the terminal."""
    out = []
    out.append(f"formula: {report['formula']}")
    out.append(f"model dimension: {report['model_dimension']}")
    out.append(f"status: {report['status']}")
    out.append(f"iterations: {report['iterations']}")
    margins = Counter(tuple(p["generator"]) for p in report["presolved"])
    line = f"presolved: {len(report['presolved'])} zero cells"
    if margins:
        ordered = sorted(margins.items(), key=lambda item: (len(item[0]), item[0]))
        line += " in zero margins of " + ", ".join(f"{':'.join(g)} ({k})" for g, k in ordered)
    out.append(line)
    out.append(f"span closure: {len(report['span_closed'])} zero cells")

    factors = report["factors"]
    width = [max(len(f), max(len(r["levels"][k]) for r in report["face"])) for k, f in enumerate(factors)]
    with_fitted = any("fitted" in r for r in report["face"])
    out.append("face:")
    header = "  " + "  ".join(f.rjust(w) for f, w in zip(factors, width))
    header += "  " + "freq".rjust(6) + "  " + "in_face".rjust(7)
    if with_fitted:
        header += "  " + "fitted".rjust(10)
    out.append(header)
    for row in report["face"]:
        cells = "  ".join(lv.rjust(w) for lv, w in zip(row["levels"], width))
        line = "  " + cells + "  " + str(row["count"]).rjust(6) + "  " + str(row["in_face"]).rjust(7)
        if with_fitted:
            line += "  " + _fmt(row["fitted"], ".4f").rjust(10)
        out.append(line)
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
        out.append(f"deviance: {_fmt(report['deviance'], '.6g')}")
        out.append(f"bic: {_fmt(report['bic'])}")
        out.append(f"cbic: {_fmt(report['cbic'])}")
    return "\n".join(out) + "\n"


def _face_json(rows):
    """json.dumps(rows, indent=2) of build_report's face rows, nested one level."""
    enc = json.encoder.encode_basestring_ascii
    out = []
    for row in rows:
        text = '    {\n      "levels": [\n        ' + ",\n        ".join(map(enc, row["levels"]))
        text += '\n      ],\n      "count": %d,\n      "in_face": %d' % (row["count"], row["in_face"])
        if "fitted" in row:
            fitted = row["fitted"]
            text += ',\n      "fitted": ' + ("null" if fitted is None else float.__repr__(fitted))
        out.append(text + "\n    }")
    return "[\n" + ",\n".join(out) + "\n  ]"


def _cells_json(rows):
    """json.dumps(rows, indent=2) of build_report's presolved or span_closed rows, nested one level."""
    if not rows:
        return "[]"
    enc = json.encoder.encode_basestring_ascii
    out = []
    for row in rows:
        text = '    {\n      "cell": %d,\n      "levels": [\n        ' % row["cell"] + ",\n        ".join(map(enc, row["levels"]))
        if "generator" in row:
            text += '\n      ],\n      "generator": [\n        ' + ",\n        ".join(map(enc, row["generator"]))
        out.append(text + "\n      ]\n    }")
    return "[\n" + ",\n".join(out) + "\n  ]"


_FORMATTERS = {"face": _face_json, "presolved": _cells_json, "span_closed": _cells_json}


def render_json(report):
    """A report of build_report as ``json.dumps(report, indent=2) + "\\n"``, byte for byte."""
    items = []
    for key, value in report.items():
        fmt = _FORMATTERS.get(key)
        text = fmt(value) if fmt else json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}\n"
