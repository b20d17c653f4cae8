"""Contingency tables over named factors with finite level sets.

A table stores one nonnegative integer count per cell of the full
cross-classification.  Cells are ordered lexicographically in factor
order with the *last* factor varying fastest; that ordering is the
contract for all row indexing downstream (design matrices, facial
sets, reports).
"""

import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = ["DENSE_BUDGET", "FactorSpec", "ContingencyTable", "TableError", "parse_table"]

# Most entries a dense per-cell array may hold: the counts of a parsed
# table, or a design's n_cells x d matrix (128 MiB of float64).
DENSE_BUDGET = 2**24

# Largest cell count, and largest total, that int64 counts can hold.
COUNT_MAX = 2**63 - 1

# A frequency token: an ASCII decimal integer.  int() alone would also
# take "1_000" and non-ASCII digits such as "３".
_FREQUENCY = re.compile(r"[+-]?[0-9]+")


def cell_strides(shape):
    """Cells between steps of each factor's level index, as the last factor varies fastest."""
    return np.array([math.prod(shape[k + 1 :]) for k in range(len(shape))], dtype=np.intp)


class TableError(ValueError):
    """Malformed table input: duplicate cells, bad counts, ragged rows."""


@dataclass(frozen=True)
class FactorSpec:
    """A named factor with an ordered set of at least two levels.

    Level order is fixed at construction; the first level is the
    baseline for design-matrix coding.
    """

    name: str
    levels: tuple

    def __post_init__(self):
        if len(self.levels) < 2:
            raise TableError(f"factor {self.name!r} needs >= 2 levels, got {len(self.levels)}")
        if len(set(self.levels)) != len(self.levels):
            raise TableError(f"factor {self.name!r} has duplicate levels")

    @property
    def n_levels(self):
        return len(self.levels)


@dataclass(frozen=True)
class ContingencyTable:
    """Counts over the full product of factor level sets.

    ``counts`` is a flat int64 vector of length prod(n_levels) in
    canonical cell order; counts given as floats must be integral.
    Instances are immutable and safe to share across threads.
    """

    factors: tuple
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise TableError("duplicate factor names")
        values = np.asarray(self.counts)
        try:
            with np.errstate(invalid="ignore"):
                counts = np.array(values, dtype=np.int64)  # a private copy, frozen below
        except OverflowError:
            raise TableError(f"a cell count is outside the int64 range (max {COUNT_MAX})") from None
        # the cast truncates floats, so 0.2 would become a sampling
        # zero, and wraps unsigned counts past COUNT_MAX
        if values.dtype.kind not in "bi" and not np.array_equal(counts, values):
            raise TableError(f"cell counts must be finite integers of at most {COUNT_MAX}")
        if counts.shape != (self.n_cells,):
            raise TableError(
                f"counts has shape {counts.shape}, expected ({self.n_cells},)"
            )
        if (counts < 0).any():
            raise TableError("negative cell count")
        # the int64 sum wraps silently, so a total that might pass
        # COUNT_MAX is summed again in exact integers
        if counts.size and int(counts.max()) > COUNT_MAX // counts.size:
            total = int(counts.sum(dtype=object))
            if total > COUNT_MAX:
                raise TableError(f"total count {total} exceeds the int64 range (max {COUNT_MAX})")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def shape(self):
        return tuple(f.n_levels for f in self.factors)

    @property
    def n_cells(self):
        return math.prod(self.shape)

    @property
    def factor_names(self):
        return tuple(f.name for f in self.factors)

    @property
    def total(self):
        """Grand total N."""
        return int(self.counts.sum())

    def cell_coords(self):
        """Level-index coordinates of every cell, shape (n_cells, n_factors).

        Row order is the canonical cell order (last factor fastest).
        """
        grids = np.indices(self.shape).reshape(len(self.factors), -1)
        return grids.T


def _levels_from_column(name, values):
    # First-appearance order, unless every label parses as a number,
    # in which case ascending numeric order.  Two labels of one number,
    # such as 0 and 0.0, or nan and NaN, would make two levels of one
    # value.
    seen = list(dict.fromkeys(values))
    try:
        numeric = [float(v) for v in seen]
    except ValueError:
        return tuple(seen)
    order = np.argsort(numeric, kind="stable")
    for i, j in zip(order, order[1:]):
        if numeric[i] == numeric[j] or math.isnan(numeric[i]) and math.isnan(numeric[j]):
            raise TableError(f"factor {name!r}: levels {seen[i]!r} and {seen[j]!r} are the same number")
    return tuple(seen[i] for i in order)


def _split_row(line):
    if "," in line:
        return [tok.strip() for tok in line.split(",")]
    return line.split()


def parse_table(source, freq_column="freq"):
    """Parse a contingency table from delimited text.

    ``source`` is a string or an iterable of lines.  The header names
    the factor columns plus the frequency column; each data row names
    one cell.  Blank lines and lines starting with ``#`` are skipped.
    Cells absent from the input get count 0.  Duplicate cells, ragged
    rows, frequencies that are negative or not ASCII decimal integers,
    a frequency or total above COUNT_MAX, two numeric labels of one
    factor with the same value, and more than DENSE_BUDGET cells are
    errors.  A ``line N:`` in an error message is the physical line of
    the input, counting skipped lines, from 1; a string is split into
    lines as a text-mode file is, at LF, CR LF or CR only.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    lines = [ln.rstrip("\n") for ln in source]
    lines = [(no, ln) for no, ln in enumerate(map(str.strip, lines), start=1) if ln and not ln.startswith("#")]
    if not lines:
        raise TableError("empty input")

    header = _split_row(lines[0][1])
    if header.count(freq_column) != 1:
        raise TableError(f"frequency column {freq_column!r} must appear once in header {header}")
    freq_pos = header.index(freq_column)
    factor_names = [h for h in header if h != freq_column]
    if not factor_names:
        raise TableError("no factor columns")

    rows, freqs = [], []
    for lineno, ln in lines[1:]:
        toks = _split_row(ln)
        if len(toks) != len(header):
            raise TableError(f"line {lineno}: expected {len(header)} fields, got {len(toks)}")
        freq_tok = toks.pop(freq_pos)
        if not _FREQUENCY.fullmatch(freq_tok):
            raise TableError(f"line {lineno}: non-integer frequency {freq_tok!r}")
        freq = int(freq_tok)
        if freq < 0:
            raise TableError(f"line {lineno}: negative frequency {freq}")
        if freq > COUNT_MAX:
            raise TableError(f"line {lineno}: frequency {freq} exceeds the int64 range (max {COUNT_MAX})")
        rows.append(toks)
        freqs.append(freq)

    columns = list(zip(*rows)) or [()] * len(factor_names)
    factors = tuple(FactorSpec(name, _levels_from_column(name, col)) for name, col in zip(factor_names, columns))

    shape = tuple(f.n_levels for f in factors)
    n_cells = math.prod(shape)
    if n_cells > DENSE_BUDGET:
        raise TableError(f"table has {n_cells} cells, more than the budget of {DENSE_BUDGET}")
    level_pos = [{lab: i for i, lab in enumerate(f.levels)} for f in factors]
    flat = np.ravel_multi_index([list(map(pos.__getitem__, col)) for pos, col in zip(level_pos, columns)], shape)
    cells, first = np.unique(flat, return_index=True)
    if cells.size < flat.size:
        repeat = np.ones(flat.size, dtype=bool)
        repeat[first] = False
        i = int(np.argmax(repeat))  # the first row whose cell came before
        raise TableError(f"line {lines[i + 1][0]}: duplicate cell {tuple(rows[i])}")
    counts = np.zeros(n_cells, dtype=np.int64)
    counts[flat] = freqs
    return ContingencyTable(factors, counts)
