"""Report assembly and rendering.

The JSON-ready dict is the machine contract (``schema_version`` 1);
the text rendering is formatted from the same dict, so the two always
carry identical numbers.
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


def build_report(formula_text, table, design, facial_set, fit_result=None, oracle=None):
    """Assemble the run report as a plain dict."""
    labels = table.cell_labels()
    counts = table.counts
    face_rows = [
        {
            "levels": [str(x) for x in labels[i]],
            "count": int(counts[i]),
            "in_face": int(facial_set.in_face[i]),
        }
        for i in range(table.n_cells)
    ]
    report = {
        "schema_version": SCHEMA_VERSION,
        "formula": formula_text,
        "model_dimension": design.d,
        "status": facial_set.status,
        "iterations": facial_set.iterations,
        "presolved": [
            {"cell": cell, "levels": [str(x) for x in labels[cell]], "generator": list(gen)}
            for cell, gen in facial_set.presolved
        ],
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
        for i, row in enumerate(face_rows):
            row["fitted"] = _jsonable(float(fit_result.fitted_means[i]))
        report["max_loglik"] = _jsonable(fit_result.loglik)
        report["coefficients"] = [
            {
                "label": str(c.label),
                "estimate": None if c.aliased else _jsonable(c.estimate),
                "std_error": None if c.aliased else _jsonable(c.std_error),
                "aliased": c.aliased,
            }
            for c in fit_result.coefficients
        ]
        report["residual_df"] = fit_result.residual_df
        report["deviance"] = _jsonable(fit_result.deviance)
        report["bic"] = _jsonable(fit_result.bic)
        report["cbic"] = _jsonable(fit_result.cbic)
        report["converged"] = fit_result.converged
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
        out.append(f"  {'column'.ljust(lab_w)}  {'estimate'.rjust(12)}  {'std.error'.rjust(12)}")
        for c in report["coefficients"]:
            if c["aliased"]:
                out.append(f"  {c['label'].ljust(lab_w)}  {'aliased'.rjust(12)}  {''.rjust(12)}")
            else:
                est = _fmt(c["estimate"], ".6g").rjust(12)
                se = _fmt(c["std_error"], ".6g").rjust(12)
                out.append(f"  {c['label'].ljust(lab_w)}  {est}  {se}")
        out.append(f"residual df: {report['residual_df']}")
        out.append(f"deviance: {_fmt(report['deviance'], '.6g')}")
        out.append(f"bic: {_fmt(report['bic'])}")
        out.append(f"cbic: {_fmt(report['cbic'])}")
    return "\n".join(out) + "\n"


def render_json(report):
    return json.dumps(report, indent=2) + "\n"
