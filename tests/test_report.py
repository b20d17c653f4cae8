"""The report's dict, its JSON bytes and its text against per-cell references."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparseloglin import (
    ContingencyTable,
    FactorSpec,
    build_design,
    find_facial_set,
    fit,
    parse_formula,
    parse_generators,
    parse_table,
    per_cell_oracle,
)
from sparseloglin import cli
from sparseloglin.datasets import example3x3x3, haberman, rochdale
from sparseloglin.report import build_report, render_json, render_text

from conftest import cell_labels, table_csv
from test_faces import PAPER_MODELS


def json_reference(report):
    """What render_json must return: json's own indented encoding."""
    return json.dumps(report, indent=2) + "\n"


def _jsonable(value):
    return None if not math.isfinite(value) else value


def report_reference(report, table, facial_set, fit_result):
    """``report`` with its per-cell parts rebuilt one cell at a time."""
    labels = cell_labels(table)
    face = [
        {
            "levels": [str(x) for x in labels[i]],
            "count": int(table.counts[i]),
            "in_face": int(facial_set.in_face[i]),
        }
        for i in range(table.n_cells)
    ]
    if fit_result is not None:
        for i, row in enumerate(face):
            row["fitted"] = _jsonable(float(fit_result.fitted_means[i]))
    presolved = [
        {"cell": cell, "levels": [str(x) for x in labels[cell]], "generator": list(gen)}
        for cell, gen in facial_set.presolved
    ]
    span_closed = [{"cell": cell, "levels": [str(x) for x in labels[cell]]} for cell in facial_set.span_closed]
    return {**report, "face": face, "presolved": presolved, "span_closed": span_closed}


def analyse(table, formula, with_fit=True, oracle=False):
    model = parse_generators(formula)
    design = build_design(table, model)
    fs = find_facial_set(table, model, design=design)
    res = fit(table, model, fs, design=design) if with_fit else None
    orc = per_cell_oracle(table, model, design=design) if oracle else None
    return build_report(formula, table, design, fs, fit_result=res, oracle=orc), fs, res


def special_labels_table():
    """Level labels json must escape, non-ASCII ones, ints, and zero margins."""
    factors = (
        FactorSpec("a", ('say "hi"', "back\\slash", "tab\there")),
        FactorSpec("b", ("é", "日本", "new\nline", ", ")),
        FactorSpec("c", (1, 2)),
    )
    counts = np.arange(24) % 5
    counts[8:16] = 0  # b = "new\nline" in neither row: zero [ab] and [bc] margins
    return ContingencyTable(factors, counts)


def two_way(k):
    names = "abcdefghij"
    return "".join(f"[{names[i]}{names[j]}]" for i in range(k) for j in range(i + 1, k))


def dense_table(k):
    counts = np.random.default_rng([k, 1]).poisson(3.0, 2**k) + 1
    return ContingencyTable(tuple(FactorSpec("abcdefghij"[i], ("0", "1")) for i in range(k)), counts)


# Labels json writes as they are, and pieces of labels it must escape:
# quotes, backslashes, control characters, non-ASCII text, and the
# separators and indentation of the report's own rows.
PLAIN_LABELS = st.one_of(
    st.text("ab01 ,:[]{}%-", max_size=3), st.integers(-3, 12), st.booleans(), st.sampled_from(["null", "%s", "%d"])
)
ESCAPED_PIECES = ['"', "\\", "\x00", "\t", "\x1f", "\x7f", "\u00e9", "\u65e5\u672c", "\U0001d11e", ", ", ',\n        "', "\n      ],"]
ESCAPED_LABELS = st.one_of(st.lists(st.sampled_from(ESCAPED_PIECES), min_size=1, max_size=3).map("".join), PLAIN_LABELS)


def needs_escape(label):
    return json.dumps(label) != f'"{label}"'


@st.composite
def drawn_reports(draw, labels):
    """A report of a random small table: 1-3 factors, a random model, with or without a fit and an oracle.

    With ``labels`` ESCAPED_LABELS the first factor's last level, which
    names design columns, is one json must escape; drawn fitted means
    include NaN and +-inf.
    """
    names = "abc"[: draw(st.integers(1, 3))]
    factors = []
    for name in names:
        levels = draw(st.lists(labels, min_size=2, max_size=3, unique_by=(str, lambda v: v)))
        if labels is ESCAPED_LABELS and not factors and not needs_escape(str(levels[-1])):
            levels[-1] = draw(st.sampled_from([p for p in ESCAPED_PIECES if needs_escape(p) and p not in map(str, levels)]))
        factors.append(FactorSpec(name, tuple(levels)))
    n_cells = math.prod(len(f.levels) for f in factors)
    counts = draw(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=n_cells, max_size=n_cells))
    counts[draw(st.integers(0, n_cells - 1))] = 3
    table = ContingencyTable(tuple(factors), np.array(counts))
    gens = draw(st.lists(st.sets(st.sampled_from(names), min_size=1), min_size=1, max_size=3))
    formula = "".join("[" + "".join(sorted(g)) + "]" for g in [*gens, *map(set, names)])
    model = parse_generators(formula)
    design = build_design(table, model)
    fs = find_facial_set(table, model, design=design)
    res = fit(table, model, fs, design=design) if draw(st.booleans()) else None
    if res is not None:
        means = res.fitted_means.copy()
        for i, value in draw(st.dictionaries(st.integers(0, n_cells - 1), st.sampled_from([np.nan, np.inf, -np.inf]))).items():
            means[i] = value
        res = dataclasses.replace(res, fitted_means=means)
    oracle = per_cell_oracle(table, model, design=design) if draw(st.booleans()) else None
    return build_report(formula, table, design, fs, fit_result=res, oracle=oracle)


# (table maker, model, fit?, oracle?) per report
CASES = [
    *[
        pytest.param((rochdale, gens, with_fit, False), id=f"paper {i} {'fit' if with_fit else 'facial'}")
        for i, gens in enumerate(PAPER_MODELS)
        for with_fit in (True, False)
    ],
    pytest.param((haberman, "[ab][ac][bc]", True, True), id="haberman oracle"),
    pytest.param((example3x3x3, "[ab][ac][bc]", True, True), id="example3x3x3"),
    pytest.param((lambda: dense_table(10), two_way(10), True, False), id="dense 2^10"),
    pytest.param((special_labels_table, "[ab][bc]", True, True), id="special labels"),
    pytest.param((special_labels_table, "[ab][bc]", False, False), id="special labels facial"),
]


@pytest.fixture(scope="module", params=CASES)
def case(request):
    make, formula, with_fit, oracle = request.param
    table = make()
    report, fs, res = analyse(table, formula, with_fit, oracle)
    return table, report, fs, res


class TestRenderJson:
    def test_bytes_equal_json_dumps(self, case):
        _, report, _, _ = case
        assert render_json(report) == json_reference(report)

    @given(drawn_reports(PLAIN_LABELS))
    def test_bytes_equal_json_dumps_when_no_label_is_escaped(self, report):
        assert not any(needs_escape(lv) for row in report["face"] for lv in row["levels"])
        assert render_json(report) == json_reference(report)

    @given(drawn_reports(ESCAPED_LABELS))
    def test_bytes_equal_json_dumps_when_a_label_is_escaped(self, report):
        assert needs_escape(report["face"][-1]["levels"][0])
        assert render_json(report) == json_reference(report)

    def test_table_without_factors(self):
        # one cell with an empty levels list, which json writes as []
        table = ContingencyTable((), np.array([5]))
        model = parse_formula("freq ~ 1")
        design = build_design(table, model)
        fs = find_facial_set(table, model, design=design)
        report = build_report("freq ~ 1", table, design, fs, fit_result=fit(table, model, fs, design=design))
        assert [row["levels"] for row in report["face"]] == [[]]
        assert render_json(report) == json_reference(report)
        assert '"levels": []' in render_json(report)

    def test_non_finite_fitted_become_null(self):
        table = haberman()
        model = parse_generators("[ab][ac][bc]")
        design = build_design(table, model)
        fs = find_facial_set(table, model, design=design)
        res = fit(table, model, fs, design=design)
        means = res.fitted_means.copy()
        means[[1, 2, 5]] = [np.nan, np.inf, -np.inf]
        report = build_report("[ab][ac][bc]", table, design, fs, fit_result=dataclasses.replace(res, fitted_means=means))
        assert [row["fitted"] for row in report["face"]][1:6] == [None, None, means[3], means[4], None]
        text = render_json(report)
        assert text == json_reference(report)
        assert '"fitted": null' in text

    def test_escaped_and_non_ascii_labels(self):
        report, _, _ = analyse(special_labels_table(), "[ab][bc]")
        text = render_json(report)
        assert text == json_reference(report)
        for escaped in (r'"say \"hi\""', r'"back\\slash"', r'"tab\there"', r'"\u00e9"', r'"\u65e5\u672c"', r'"new\nline"'):
            assert escaped in text
        assert text.isascii()
        assert report["presolved"]
        assert json.loads(text) == report

    def test_cell_lists_with_escaped_and_non_ascii_labels(self):
        # rochdale's counts under labels json must escape or that are not ASCII
        specials = [('say "hi"', "\u00e9"), ("back\\slash", "\u65e5\u672c"), ("new\nline", "tab\there")]
        table = rochdale()
        factors = tuple(FactorSpec(f.name, specials[k % 3]) for k, f in enumerate(table.factors))
        report, _, _ = analyse(ContingencyTable(factors, table.counts), PAPER_MODELS[0])
        assert len(report["presolved"]) == 60 and len(report["span_closed"]) == 105
        text = render_json(report)
        assert text == json_reference(report)
        span_closed = text[text.index('"span_closed"') : text.index('"factors"')]
        assert r'"say \"hi\""' in span_closed and r'"\u65e5\u672c"' in span_closed and r'"new\nline"' in span_closed

    def test_empty_cell_lists(self):
        report, fs, _ = analyse(dense_table(4), two_way(4))
        assert fs.presolved == () and fs.span_closed == ()
        text = render_json(report)
        assert text == json_reference(report)
        assert '\n  "presolved": [],\n  "span_closed": [],\n' in text

    def test_facial_only_cli_output(self):
        out, err = io.StringIO(), io.StringIO()
        args = ["--dataset", "rochdale", "--formula", PAPER_MODELS[0], "--facial-only", "--format", "json"]
        assert cli.main(args, out=out, err=err) == 0, err.getvalue()
        report = json.loads(out.getvalue())
        assert "max_loglik" not in report and report["presolved"] and report["span_closed"]
        assert out.getvalue() == json_reference(report)


class TestBuildReport:
    def test_rows_equal_per_cell_reference(self, case):
        table, report, fs, res = case
        want = report_reference(report, table, fs, res)
        assert json_reference(report) == json_reference(want)  # also tells 1 from True
        assert render_text(report) == render_text(want)

    def test_presolved_levels_are_their_own_lists(self):
        report, _, _ = analyse(rochdale(), PAPER_MODELS[0], with_fit=False)
        first = report["presolved"][0]
        assert first["levels"] == report["face"][first["cell"]]["levels"]
        assert first["levels"] is not report["face"][first["cell"]]["levels"]


class TestCellLabels:
    def test_serialize_parse_roundtrip(self):
        # parse_table sorts numeric labels ascending, so these are ascending
        ints = ContingencyTable(
            (FactorSpec("x", (1, 2, 10)), FactorSpec("y", ("lo", "mid", "hi"))), np.arange(9) % 4
        )
        for table in (example3x3x3(), rochdale(), ints):
            back = parse_table(table_csv(table))
            assert back.factor_names == table.factor_names
            assert cell_labels(back) == [tuple(map(str, labels)) for labels in cell_labels(table)]
            assert np.array_equal(back.counts, table.counts)


class TestEstimateText:
    """An estimate within Newton's step tolerance, 1e-8 (1 + max|estimate|), of 0 prints as 0."""

    def test_exact_zero_prints_as_zero_and_json_keeps_the_float(self):
        report, _, _ = analyse(example3x3x3(), "[ab][ac][bc]")
        coef = next(c for c in report["coefficients"] if c["label"] == "b3:c2")
        assert abs(coef["estimate"]) < 1e-12
        assert "\n  b3:c2                   0       1.41621\n" in render_text(report)
        assert json.loads(render_json(report))["coefficients"] == report["coefficients"]

    def test_bound_scales_with_the_largest_estimate(self):
        report, _, _ = analyse(haberman(), "[ab][ac][bc]")
        coefs = [c for c in report["coefficients"] if not c["aliased"]]
        bound = 1e-8 * (1 + max(abs(c["estimate"]) for c in coefs))
        coefs[1]["estimate"], coefs[3]["estimate"] = -0.99 * bound, 1.01 * bound
        rows = render_text(report).split("coefficients:\n")[1].split("residual df:")[0].splitlines()[1:]
        estimates = dict(row.split()[:2] for row in rows)
        assert estimates[coefs[1]["label"]] == "0"
        assert estimates[coefs[3]["label"]] == f"{1.01 * bound:.6g}"

    def test_text_is_the_same_under_two_openblas_core_types(self):
        run = "import sys; from sparseloglin import cli; sys.exit(cli.main(sys.argv[1:]))"
        for dataset, line in [("example3x3x3", "\n  b3:c2                   0       1.41621\n"), ("haberman", "\ndeviance: 0\n")]:
            texts = []
            for core in ("Haswell", "Sandybridge"):
                env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
                args = ["--dataset", dataset, "--formula", "[ab][ac][bc]"]
                done = subprocess.run([sys.executable, "-c", run, *args], env=env, capture_output=True, text=True)
                assert done.returncode == 0, done.stderr
                texts.append(done.stdout)
            assert texts[0] == texts[1]
            assert line in texts[0]


class TestDevianceText:
    """A deviance within 2e-10 max(1, N) of 0, twice Newton's gradient bound, prints as 0."""

    def test_saturated_face_prints_zero_and_json_keeps_the_float(self):
        report, _, res = analyse(haberman(), "[ab][ac][bc]")
        assert report["residual_df"] == 0 and abs(report["deviance"]) < 1e-12
        assert "\ndeviance: 0\n" in render_text(report)
        assert json.loads(render_json(report))["deviance"] == res.deviance

    def test_bound_scales_with_the_total(self):
        report, _, _ = analyse(haberman(), "[ab][ac][bc]")
        bound = 2e-10 * report["total"]
        for deviance, line in [(-0.99 * bound, "0"), (0.99 * bound, "0"), (1.01 * bound, f"{1.01 * bound:.6g}")]:
            report["deviance"] = deviance
            assert f"\ndeviance: {line}\n" in render_text(report)
        report["deviance"] = None
        assert "\ndeviance: NA\n" in render_text(report)
