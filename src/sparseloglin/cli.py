"""Command-line front end.

Loads a table, parses the model, runs facial-set detection and (unless
--facial-only) the extended-MLE fit, and prints a text or JSON report.

Exit codes: 0 success, 2 usage, 3 data error, 4 model parse error,
5 numerical failure, 6 oracle-check disagreement.
"""

import argparse
import sys

from . import datasets
from .design import build_design
from .faces import find_facial_set, per_cell_oracle
from .fit import FitError, fit
from .formula import FormulaError, parse_formula, parse_generators
from .lp import SimplexError
from .report import build_report, render_json, render_text
from .table import TableError, parse_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FORMULA = 4
EXIT_NUMERICAL = 5
EXIT_ORACLE = 6


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that writes its usage errors to ``err``."""

    def __init__(self, err, **kwargs):
        super().__init__(**kwargs)
        self.err = err

    def error(self, message):
        self.print_usage(self.err)
        self.err.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def make_parser(err=sys.stderr):
    parser = _Parser(
        err,
        prog="sparseloglin",
        description=(
            "Fit hierarchical log-linear models to sparse contingency tables: "
            "detect MLE non-existence, compute the facial set, and fit the "
            "extended MLE with corrected dimension and information criteria."
        ),
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", metavar="PATH", help="delimited text file with a header row")
    src.add_argument(
        "--dataset",
        choices=sorted(datasets.DATASETS),
        help="built-in dataset",
    )
    parser.add_argument(
        "--formula",
        required=True,
        help="model: 'freq ~ a*b + c' formula or '[ab][c]' / '|ab|c|' generators",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--facial-only", action="store_true", help="stop after facial-set detection")
    parser.add_argument(
        "--oracle-check",
        action="store_true",
        help="also run the independent per-cell LP oracle and report agreement",
    )
    parser.add_argument("--dump-design", action="store_true", help="print the design matrix and exit")
    return parser


def parse_model(text):
    stripped = text.strip()
    if "~" in stripped:
        return parse_formula(stripped)
    return parse_generators(stripped)


def load_table(args, freq_column):
    if args.dataset:
        return datasets.load(args.dataset)
    try:
        with open(args.data, encoding="utf-8") as fh:
            return parse_table(fh, freq_column=freq_column)
    except OSError as exc:
        raise TableError(f"cannot read {args.data}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise TableError(f"cannot read {args.data}: not UTF-8 text (byte {exc.start})") from exc


def dump_design(design, out):
    out.write("\t".join(["cell", *(str(lab) for lab in design.column_labels)]) + "\n")
    for i, row in enumerate(design.matrix.astype(int)):
        out.write("\t".join([str(i), *(str(v) for v in row)]) + "\n")


def main(argv=None, out=sys.stdout, err=sys.stderr):
    parser = make_parser(err)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        model = parse_model(args.formula)
    except FormulaError as exc:
        print(f"error: bad model: {exc}", file=err)
        return EXIT_FORMULA

    try:
        table = load_table(args, model.response)
    except (TableError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_DATA

    try:
        design = build_design(table, model)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_DATA

    if args.dump_design:
        dump_design(design, out)
        return EXIT_OK

    try:
        fs = find_facial_set(table, model, design=design)
        oracle = None
        if args.oracle_check:
            oracle = per_cell_oracle(table, model, design=design)
        result = None
        if not args.facial_only:
            result = fit(table, model, fs, design=design)
    except TableError as exc:  # an all-zero table, rejected before any LP
        print(f"error: {exc}", file=err)
        return EXIT_DATA
    except (SimplexError, FitError, ValueError) as exc:
        print(f"error: numerical failure: {exc}", file=err)
        return EXIT_NUMERICAL

    report = build_report(args.formula, table, design, fs, fit_result=result, oracle=oracle)
    out.write(render_json(report) if args.format == "json" else render_text(report))

    if oracle is not None and not report["oracle_check"]["agrees"]:
        print("error: facial-set algorithm and per-cell oracle disagree", file=err)
        return EXIT_ORACLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
