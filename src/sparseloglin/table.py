"""Contingency tables over named factors with finite level sets.

A table stores one nonnegative integer count per cell of the full
cross-classification.  Cells are ordered lexicographically in factor
order with the *last* factor varying fastest; that ordering is the
contract for all row indexing downstream (design matrices, facial
sets, reports).
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DENSE_BUDGET",
    "FactorSpec",
    "ContingencyTable",
    "TableError",
    "parse_table",
    "serialize_table",
    "marginal",
    "binarize",
]

# Most entries a dense per-cell array may hold: the counts of a parsed
# table, or a design's n_cells x d matrix (128 MiB of float64).
DENSE_BUDGET = 2**24

# Largest cell count, and largest total, that int64 counts can hold.
COUNT_MAX = 2**63 - 1


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

    def flat_index(self, coords):
        """Map level-index coordinates to the flat cell position."""
        coords = tuple(coords)
        if len(coords) != len(self.factors):
            raise TableError(f"cell {coords} has wrong arity")
        for c, f in zip(coords, self.factors):
            if not 0 <= c < f.n_levels:
                raise TableError(f"coordinate {c} out of range for factor {f.name!r}")
        return int(np.ravel_multi_index(coords, self.shape))

    def label_columns(self, convert=None):
        """Level labels of every cell, one list per factor, in canonical order.

        Each factor's levels are indexed by its column of ``cell_coords``
        at once; ``convert`` (e.g. ``str``) is applied once per level,
        not once per cell.
        """
        coords = self.cell_coords()
        columns = []
        for k, f in enumerate(self.factors):
            levels = f.levels if convert is None else [convert(v) for v in f.levels]
            columns.append(np.fromiter(levels, dtype=object, count=f.n_levels)[coords[:, k]].tolist())
        return columns

    def cell_labels(self):
        """Level labels of every cell in canonical order, one tuple per cell."""
        return list(zip(*self.label_columns()))

    def zero_cells(self):
        """Flat positions of the sampling zeros."""
        return np.flatnonzero(self.counts == 0)


def _levels_from_column(values):
    # First-appearance order, unless every label parses as a number,
    # in which case ascending numeric order.
    seen = list(dict.fromkeys(values))
    try:
        numeric = [float(v) for v in seen]
    except ValueError:
        return tuple(seen)
    order = np.argsort(numeric, kind="stable")
    return tuple(seen[i] for i in order)


def _split_row(line):
    if "," in line:
        return [tok.strip() for tok in line.split(",")]
    return line.split()


def parse_table(source, freq_column="freq"):
    """Parse a contingency table from delimited text.

    ``source`` is a string or an iterable of lines.  The header names
    the factor columns plus the frequency column; each data row names
    one cell.  Cells absent from the input get count 0.  Duplicate
    cells, ragged rows, negative or non-integer frequencies, a frequency
    or total above COUNT_MAX, and more than DENSE_BUDGET cells are
    errors.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]
    lines = [ln for ln in (ln.strip() for ln in lines) if ln and not ln.startswith("#")]
    if not lines:
        raise TableError("empty input")

    header = _split_row(lines[0])
    if header.count(freq_column) != 1:
        raise TableError(f"frequency column {freq_column!r} must appear once in header {header}")
    freq_pos = header.index(freq_column)
    factor_names = [h for h in header if h != freq_column]
    if not factor_names:
        raise TableError("no factor columns")

    rows = []
    total = 0
    for lineno, ln in enumerate(lines[1:], start=2):
        toks = _split_row(ln)
        if len(toks) != len(header):
            raise TableError(f"line {lineno}: expected {len(header)} fields, got {len(toks)}")
        freq_tok = toks[freq_pos]
        try:
            freq = int(freq_tok)
        except ValueError:
            raise TableError(f"line {lineno}: non-integer frequency {freq_tok!r}") from None
        if freq < 0:
            raise TableError(f"line {lineno}: negative frequency {freq}")
        if freq > COUNT_MAX:
            raise TableError(f"line {lineno}: frequency {freq} exceeds the int64 range (max {COUNT_MAX})")
        total += freq
        levels = tuple(t for i, t in enumerate(toks) if i != freq_pos)
        rows.append((levels, freq, lineno))
    if total > COUNT_MAX:
        raise TableError(f"total count {total} exceeds the int64 range (max {COUNT_MAX})")

    factors = tuple(
        FactorSpec(name, _levels_from_column([r[0][k] for r in rows]))
        for k, name in enumerate(factor_names)
    )
    level_pos = [{lab: i for i, lab in enumerate(f.levels)} for f in factors]

    shape = tuple(f.n_levels for f in factors)
    n_cells = math.prod(shape)
    if n_cells > DENSE_BUDGET:
        raise TableError(f"table has {n_cells} cells, more than the budget of {DENSE_BUDGET}")
    counts = np.zeros(n_cells, dtype=np.int64)
    seen = np.zeros(counts.shape, dtype=bool)
    for levels, freq, lineno in rows:
        coords = tuple(level_pos[k][lab] for k, lab in enumerate(levels))
        flat = int(np.ravel_multi_index(coords, shape))
        if seen[flat]:
            raise TableError(f"line {lineno}: duplicate cell {levels}")
        seen[flat] = True
        counts[flat] = freq

    return ContingencyTable(factors, counts)


def serialize_table(table):
    """Render a table as comma-separated text that parse_table round-trips.

    The counts go in a last column named ``freq``.
    """
    lines = [",".join([*table.factor_names, "freq"])]
    for labels, count in zip(table.cell_labels(), table.counts):
        lines.append(",".join([*(str(x) for x in labels), str(int(count))]))
    return "\n".join(lines) + "\n"


def marginal(table, subset):
    """Sum counts over the factors not in ``subset``.

    Returns the marginal count vector over the subset's product space
    in canonical order (subset factors kept in table factor order).
    The empty subset yields the length-1 vector (N,).
    """
    subset = set(subset)
    unknown = subset - set(table.factor_names)
    if unknown:
        raise TableError(f"unknown factor(s) {sorted(unknown)}")
    keep = [k for k, name in enumerate(table.factor_names) if name in subset]
    drop = tuple(k for k in range(len(table.factors)) if k not in keep)
    cube = table.counts.reshape(table.shape)
    return cube.sum(axis=drop).reshape(-1) if drop else cube.reshape(-1)


def binarize(table):
    """Replace every positive count by 1, preserving the zero pattern."""
    return ContingencyTable(table.factors, (table.counts > 0).astype(np.int64))
