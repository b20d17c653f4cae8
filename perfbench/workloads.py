"""Inputs and analyses of the benchmark's workloads.

One analysis is one (table, model) pair taken to its result.  Its
``run`` is the timed work and calls the program only through the module
attributes of ``prog`` at call time, so a tracer that replaces those
attributes sees every call.  Its ``read`` turns the result into an
Output, untimed, and raises checks.CheckFailed on a wrong result.

The benchmark holds each table's counts and cell coordinates itself
(it reads rochdale.csv with its own parser and draws the random tables),
so the checks do not take the program's word for the input.  The one
exception is example3x3x3, whose counts exist only in the program's
datasets module.
"""

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

NAMES = "abcdefghijkl"

# The model the paper selects for the rochdale data.
PAPER_MODEL = "|ad|ae|be|ce|ef|acg|dg|fg|bdh|"

# The paper's tables of the five best rochdale models by the corrected
# criterion (cBIC) and by BIC, best first, with the printed values.
CBIC_ROWS = [
    ("|ad|ae|be|ce|ef|acg|dg|fg|bdh|", 985.3),
    ("|ad|ae|be|ce|cf|ef|acg|dg|fg|bdh|", 985.2),
    ("|ad|ae|be|ce|cf|df|ef|acg|dg|fg|bdh|", 984.4),
    ("|ad|ae|be|ce|df|ef|acg|dg|fg|bdh|", 984.3),
    ("|ac|ad|ae|be|ce|ef|ag|cg|dg|fg|bdh|", 984.0),
]
BIC_ROWS = [
    ("|ac|ad|bd|ae|be|ce|ef|ag|cg|dg|fg|bh|dh|", 981.3),
    ("|ac|ad|bd|ae|be|ce|cf|ef|ag|cg|dg|fg|bh|dh|", 981.1),
    ("|ac|ad|ae|be|ce|ef|ag|cg|dg|fg|bdh|", 980.7),
    ("|ac|ad|ae|be|ce|cf|ef|ag|cg|dg|fg|bdh|", 980.5),
    ("|ac|ad|bd|ae|be|ce|ef|ag|cg|dg|fg|bh|", 980.4),
]

LADDER_SIZES = (6, 7, 8)  # random 2^k tables, about 60% zeros
DENSE_SIZES = (10, 12)  # random 2^k tables, no zeros


@dataclass
class Output:
    """One analysis' result in the benchmark's own terms."""

    in_face: np.ndarray
    fitted: np.ndarray = None
    info: dict = field(default_factory=dict)


@dataclass
class Analysis:
    key: str
    run: Callable[[], object]
    read: Callable[[object], Output]
    coords: np.ndarray  # level index per cell, canonical order
    counts: np.ndarray
    generators: tuple  # factor-position tuples


@dataclass
class Workload:
    analyses: list
    # Checks over one pass' outputs (dict key -> Output), and once per
    # run over the first pass' outputs with the program at hand.
    check_pass: Callable = lambda outputs: None
    check_final: Callable = lambda prog, outputs: None


def parse_generators(text):
    """'|ad|bdh|' or '[ad][bdh]' -> ((0, 3), (1, 3, 7)) over NAMES."""
    groups = text.replace("[", "|").replace("]", "|").split("|")
    return tuple(tuple(sorted(NAMES.index(ch) for ch in g)) for g in groups if g)


def all_two_way(k):
    return "".join(f"[{NAMES[i]}{NAMES[j]}]" for i in range(k) for j in range(i + 1, k))


def cell_coords(shape):
    """Canonical cell order of the program: last factor varies fastest."""
    return np.indices(shape).reshape(len(shape), -1).T


def read_rochdale(root):
    """Counts of the bundled survey table, parsed here with the csv module."""
    path = Path(root) / "src" / "sparseloglin" / "data" / "rochdale.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    coords = cell_coords((2,) * 8)
    by_cell = {tuple(int(r[n]) for n in NAMES[:8]): int(r["freq"]) for r in rows}
    counts = np.array([by_cell.get(tuple(c), 0) for c in coords], dtype=np.int64)
    return coords, counts


def random_counts(seed, k, dense):
    rng = np.random.default_rng([seed, k, int(dense)])
    n = 2**k
    if dense:
        return rng.poisson(3.0, n) + 1
    return np.where(rng.random(n) < 0.6, 0, rng.poisson(2.0, n) + 1)


def binary_table(prog, counts, k):
    factors = tuple(prog.sl.FactorSpec(NAMES[i], ("0", "1")) for i in range(k))
    return prog.sl.ContingencyTable(factors, counts)


def common_checks(analysis, out):
    checks.positives_in_face(analysis.counts, out.in_face)
    if out.fitted is not None:
        checks.fitted_support(out.in_face, out.fitted)
        checks.margins_match(analysis.coords, analysis.counts, out.fitted, analysis.generators)


# --- paper_models: the paper's model search through the CLI ------------


def _report_output(report, coords, counts):
    """Face, fitted means and summary numbers of a JSON report."""
    pos = {tuple(str(v) for v in c): i for i, c in enumerate(coords)}
    n = len(coords)
    in_face = np.zeros(n, dtype=bool)
    fitted = np.zeros(n)
    got = np.zeros(n, dtype=np.int64)
    for row in report["face"]:
        i = pos[tuple(row["levels"])]
        in_face[i] = bool(row["in_face"])
        fitted[i] = np.nan if row.get("fitted") is None else row["fitted"]
        got[i] = row["count"]
    if len(report["face"]) != n or not np.array_equal(got, counts):
        raise checks.CheckFailed("report's cell counts differ from the input table")
    aliased = sorted(
        "".join(sorted(part[0] for part in c["label"].split(":")))
        for c in report.get("coefficients", ())
        if c["aliased"]
    )
    info = {k: report.get(k) for k in ("cbic", "bic", "face_dimension", "residual_df", "n_face_cells", "max_loglik")}
    info["aliased"] = aliased
    return Output(in_face, fitted if "max_loglik" in report else None, info)


def check_paper_pass(outputs):
    for rows, crit in ((CBIC_ROWS, "cbic"), (BIC_ROWS, "bic")):
        checks.ranking_matches([outputs[g].info[crit] for g, _ in rows], [v for _, v in rows])
    info = outputs[PAPER_MODEL].info
    want = {"n_face_cells": 196, "face_dimension": 22, "residual_df": 174, "aliased": ["acg", "bdh"]}
    for key, value in want.items():
        if info[key] != value:
            raise checks.CheckFailed(f"paper model: {key} is {info[key]}, paper has {value}")


def paper_models(prog, seed, root):
    coords, counts = read_rochdale(root)
    models = list(dict.fromkeys(g for g, _ in CBIC_ROWS + BIC_ROWS))
    order = np.random.default_rng(seed).permutation(len(models))

    def make(g):
        argv = ["--dataset", "rochdale", "--formula", g, "--format", "json"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            code = prog.cli.main(argv, out=out, err=err)
            return code, out.getvalue(), err.getvalue()

        def read(result):
            code, out, err = result
            checks.cli_exit(code, err)
            return _report_output(json.loads(out), coords, counts)

        return Analysis(g, run, read, coords, counts, parse_generators(g))

    return Workload([make(models[i]) for i in order], check_pass=check_paper_pass)


# --- two_way_ladder: facial LPs from 64 to 256 cells -------------------


def _api_fit(prog, table, model):
    design = prog.sl.build_design(table, model)
    fs = prog.sl.find_facial_set(table, model, design=design)
    return fs, prog.sl.fit(table, model, fs, design=design)


def _fit_output(result):
    fs, res = result
    return Output(np.asarray(fs.in_face), np.asarray(res.fitted_means))


def two_way_ladder(prog, seed, root):
    items = [(f"random 2^{k}", k, random_counts(seed, k, dense=False)) for k in LADDER_SIZES]
    items.append(("rochdale", 8, read_rochdale(root)[1]))
    analyses = []
    for key, k, counts in items:
        text = all_two_way(k)
        table = prog.datasets.rochdale() if key == "rochdale" else binary_table(prog, counts, k)
        model = prog.sl.parse_generators(text)
        analyses.append(
            Analysis(
                key,
                lambda table=table, model=model: _api_fit(prog, table, model),
                _fit_output,
                cell_coords((2,) * k),
                counts,
                parse_generators(text),
            )
        )
    return Workload(analyses)


# --- oracle_rochdale: one LP per zero cell ----------------------------


def oracle_rochdale(prog, seed, root):
    x3 = prog.datasets.example3x3x3()
    items = [
        ("rochdale paper model", prog.datasets.rochdale(), PAPER_MODEL, (2,) * 8, read_rochdale(root)[1]),
        ("example3x3x3", x3, "[ab][ac][bc]", (3, 3, 3), np.asarray(x3.counts)),
    ]
    analyses, problems = [], []
    for key, table, text, shape, counts in items:
        model = prog.sl.parse_generators(text)
        problems.append((key, table, model))

        def run(table=table, model=model):
            design = prog.sl.build_design(table, model)
            return prog.sl.per_cell_oracle(table, model, design=design)

        def read(oracle, key=key, counts=counts):
            out = Output(np.asarray(oracle.in_face))
            rescued = int((out.in_face & (counts == 0)).sum())
            if key == "example3x3x3" and rescued != 1:
                raise checks.CheckFailed(f"example3x3x3: {rescued} zero cells rescued, expected 1")
            return out

        analyses.append(Analysis(key, run, read, cell_coords(shape), counts, parse_generators(text)))

    def check_final(prog, outputs):
        for key, table, model in problems:
            found = prog.sl.find_facial_set(table, model)
            checks.same_face(outputs[key].in_face, found.in_face, "find_facial_set")

    order = np.random.default_rng(seed).permutation(len(analyses))
    return Workload([analyses[i] for i in order], check_final=check_final)


# --- dense_fit: no zero cells, so no LP; design, fit and report work ---


def _dense_output(k, coords, counts):
    def read(text):
        report = json.loads(text)
        out = _report_output(report, coords, counts)
        if not out.in_face.all():
            raise checks.CheckFailed("a cell of a table without zeros is outside the face")
        want = 1 + k + k * (k - 1) // 2
        if report["face_dimension"] != want:
            raise checks.CheckFailed(f"face dimension {report['face_dimension']}, expected {want}")
        checks.loglik_matches(counts, out.fitted, report["max_loglik"])
        return out

    return read


def dense_fit(prog, seed, root):
    analyses = []
    for k in DENSE_SIZES:
        counts = random_counts(seed, k, dense=True)
        text = all_two_way(k)
        table = binary_table(prog, counts, k)
        model = prog.sl.parse_generators(text)

        def run(table=table, model=model, text=text):
            design = prog.sl.build_design(table, model)
            fs = prog.sl.find_facial_set(table, model, design=design)
            res = prog.sl.fit(table, model, fs, design=design)
            return prog.report.render_json(prog.report.build_report(text, table, design, fs, fit_result=res))

        coords = cell_coords((2,) * k)
        analyses.append(Analysis(f"dense 2^{k}", run, _dense_output(k, coords, counts), coords, counts, parse_generators(text)))
    return Workload(analyses)


WORKLOADS = {
    "paper_models": paper_models,
    "two_way_ladder": two_way_ladder,
    "oracle_rochdale": oracle_rochdale,
    "dense_fit": dense_fit,
}
