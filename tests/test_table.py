import io
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloglin import ContingencyTable, FactorSpec, TableError, parse_table
from sparseloglin.table import COUNT_MAX, DENSE_BUDGET, _FREQUENCY, _levels_from_column, _split_row

from conftest import make_table, table_csv


def parse_table_reference(text, freq_column="freq"):
    """parse_table one row at a time: one ravel_multi_index and one seen-check per row.

    Line numbers are physical, counting blank and comment lines.
    """
    numbered = enumerate((ln.strip() for ln in io.StringIO(text, newline=None)), start=1)
    lines = [(no, ln) for no, ln in numbered if ln and not ln.startswith("#")]
    if not lines:
        raise TableError("empty input")
    header = _split_row(lines[0][1])
    if header.count(freq_column) != 1:
        raise TableError(f"frequency column {freq_column!r} must appear once in header {header}")
    freq_pos = header.index(freq_column)
    factor_names = [h for h in header if h != freq_column]
    if not factor_names:
        raise TableError("no factor columns")

    rows = []
    for lineno, ln in lines[1:]:
        toks = _split_row(ln)
        if len(toks) != len(header):
            raise TableError(f"line {lineno}: expected {len(header)} fields, got {len(toks)}")
        freq_tok = toks[freq_pos]
        if not _FREQUENCY.fullmatch(freq_tok):
            raise TableError(f"line {lineno}: non-integer frequency {freq_tok!r}")
        freq = int(freq_tok)
        if freq < 0:
            raise TableError(f"line {lineno}: negative frequency {freq}")
        if freq > COUNT_MAX:
            raise TableError(f"line {lineno}: frequency {freq} exceeds the int64 range (max {COUNT_MAX})")
        levels = tuple(t for i, t in enumerate(toks) if i != freq_pos)
        rows.append((levels, freq, lineno))

    factors = tuple(
        FactorSpec(name, _levels_from_column(name, [r[0][k] for r in rows]))
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


def scrambled_csv(table, rng):
    """The table's rows shuffled, some zero rows dropped, blank and comment lines between them."""
    lines = table_csv(table).splitlines()
    body = [ln for ln in lines[1:] if not ln.endswith(",0") or rng.random() < 0.5]
    rng.shuffle(body)
    out = ["# scrambled", "", lines[0]]
    for ln in body:
        out.extend(rng.choice(["", "  ", "# note", "\t# indented note"], size=rng.integers(0, 2)).tolist())
        out.append(ln)
    return "\n".join(out) + "\n"


def outcome(parse, text):
    """("table", factors, counts) or ("error", message) of one parse."""
    try:
        table = parse(text)
    except TableError as exc:
        return "error", str(exc)
    return "table", table.factors, table.counts.tolist()


# Inputs parse_table rejects, each with blank and comment lines before
# the faulty row, and the physical line the message names (None: the
# message names no line).
BAD_INPUTS = [
    pytest.param("# c\n\na,b,freq\n\n0,0,1\n# x\n1,1\n", "line 7: expected 3 fields, got 2", id="ragged"),
    pytest.param("# c\n\na,b,freq\n\n0,0,1\n# x\n1,1,1.5\n", "line 7: non-integer frequency '1.5'", id="non-integer"),
    pytest.param("# c\n\na,b,freq\n\n0,0,1\n# x\n1,1,\uff13\n", "line 7: non-integer frequency '\uff13'", id="non-ascii"),
    pytest.param("# c\n\na,b,freq\n\n0,0,1\n# x\n1,1,-1\n", "line 7: negative frequency -1", id="negative"),
    pytest.param(
        "# c\n\na,b,freq\n\n0,0,1\n# x\n1,1,99999999999999999999\n",
        "line 7: frequency 99999999999999999999 exceeds the int64 range",
        id="beyond-int64",
    ),
    pytest.param("# c\n\na,b,freq\n\n0,0,1\n# x\n1,1,1\n\n0,0,2\n", "line 9: duplicate cell ('0', '0')", id="duplicate"),
    # the first row whose cell came before, not the repeat of the first cell in cell order
    pytest.param(
        "a b freq\n1 1 1\n# x\n0 0 1\n0 1 1\n\n1 1 2\n0 0 2\n0 0 3\n",
        "line 7: duplicate cell ('1', '1')",
        id="first-repeat",
    ),
    # only newlines end a line; str.splitlines would also split at these
    *(
        pytest.param(f"# c\n\na,b,freq\n\n0,0,1{sep}\n# x\n1,1,-1\n", "line 7: negative frequency -1", id=name)
        for sep, name in [("\x0c", "form-feed"), ("\x85", "next-line"), ("\u2028", "line-separator")]
    ),
    pytest.param("# c\n\n  \n# d\n", "empty input", id="empty"),
    pytest.param("# c\na,freq,freq\n0,1,2\n1,3,4\n", "frequency column 'freq' must appear once", id="freq-twice"),
    pytest.param("\nfreq\n1\n2\n", "no factor columns", id="no-factors"),
    pytest.param("# c\na,b,freq\n\n0,0,1\n0,1,1\n", "factor 'a' needs >= 2 levels, got 1", id="one-level"),
    pytest.param("a,b,freq\n", "factor 'a' needs >= 2 levels, got 0", id="no-rows"),
    pytest.param("a,freq\n0,1\n\n0.0,2\n1,3\n", "factor 'a': levels '0' and '0.0' are the same number", id="same-number"),
    pytest.param(
        "a,b,freq\n# c\n0,0,9223372036854775807\n1,1,2\n",
        "total count 9223372036854775809 exceeds the int64 range",
        id="total",
    ),
    pytest.param(
        ",".join([f"f{i}" for i in range(25)] + ["freq"]) + "\n" + ",".join(["0"] * 25 + ["1"]) + "\n"
        + ",".join(["1"] * 25 + ["2"]) + "\n",
        f"table has {2**25} cells, more than the budget of {DENSE_BUDGET}",
        id="over-budget",
    ),
]


class TestParse:
    def test_haberman_counts(self, haberman_table):
        assert haberman_table.total == 12
        assert haberman_table.counts.tolist() == [0, 1, 2, 1, 4, 1, 3, 0]
        # zero cells are (a,b,c) = (0,0,0) and (1,1,1)
        assert np.flatnonzero(haberman_table.counts == 0).tolist() == [0, 7]
        assert haberman_table.factor_names == ("a", "b", "c")
        assert haberman_table.shape == (2, 2, 2)

    def test_sparse_input_fills_missing_cells(self):
        text = "a b freq\n0 0 3\n0 1 2\n1 0 1\n"
        table = parse_table(text)
        assert table.counts.tolist() == [3, 2, 1, 0]

    def test_3x3x3_transcription(self, table3x3x3):
        assert table3x3x3.n_cells == 27
        assert table3x3x3.total == 20
        assert len(np.flatnonzero(table3x3x3.counts == 0)) == 7

    def test_duplicate_cell_rejected(self):
        text = "a b freq\n0 0 3\n0 1 1\n1 0 2\n0 0 2\n"
        with pytest.raises(TableError, match="duplicate"):
            parse_table(text)

    def test_frequency_column_named_twice_rejected(self):
        with pytest.raises(TableError, match="must appear once"):
            parse_table("a,freq,freq\n0,1,2\n1,3,4\n")

    def test_single_level_factor_rejected(self):
        with pytest.raises(TableError, match="levels"):
            parse_table("a b freq\n0 0 3\n0 1 2\n")

    def test_negative_frequency_rejected(self):
        with pytest.raises(TableError, match="negative"):
            parse_table("a b freq\n0 0 -1\n0 1 1\n1 0 1\n1 1 1\n")

    def test_non_integer_frequency_rejected(self):
        with pytest.raises(TableError, match="non-integer"):
            parse_table("a b freq\n0 0 1.5\n")

    @pytest.mark.parametrize("token", ["1_000", "\uff13", "\u0663"], ids=["underscore", "fullwidth", "arabic-indic"])
    def test_frequency_must_be_ascii_decimal(self, token):
        assert parse_table("a,freq\n0,+7\n1,0012\n").counts.tolist() == [7, 12]
        # int() reads these as 1000 and 3
        with pytest.raises(TableError, match=f"line 3: non-integer frequency '{token}'"):
            parse_table(f"a,freq\n0,1\n1,{token}\n")

    @pytest.mark.parametrize("labels", [("0", "0.0"), ("1", "01"), ("nan", "NaN")])
    def test_levels_of_one_number_rejected(self, labels):
        # they would be two levels, and two design columns, of one value
        text = f"a,freq\n{labels[0]},1\n{labels[1]},2\n2,3\n"
        with pytest.raises(TableError, match=f"factor 'a': levels '{labels[0]}' and '{labels[1]}' are the same number"):
            parse_table(text)

    def test_ragged_row_rejected(self):
        with pytest.raises(TableError, match="fields"):
            parse_table("a b freq\n0 0\n")

    @pytest.mark.parametrize("text, message", BAD_INPUTS)
    def test_errors_name_the_physical_line(self, text, message):
        with pytest.raises(TableError) as exc:
            parse_table(text)
        assert str(exc.value).startswith(message)
        # lines read from a file number the same way
        with pytest.raises(TableError) as from_lines:
            parse_table(io.StringIO(text))
        assert str(from_lines.value) == str(exc.value)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_line_endings(self, eol):
        table = parse_table(eol.join(["a,freq", "0,1", "1,2", ""]))
        assert table.counts.tolist() == [1, 2]
        with pytest.raises(TableError, match="^line 3: negative frequency -1$"):
            parse_table(eol.join(["a,freq", "0,1", "1,-1", ""]))

    def test_levels_first_appearance_order_for_text_labels(self):
        text = "x y freq\nhigh u 1\nlow u 2\nhigh v 3\nlow v 4\n"
        table = parse_table(text)
        assert table.factors[0].levels == ("high", "low")

    def test_numeric_levels_sorted_ascending(self):
        text = "x freq\n10 1\n2 2\n"
        table = parse_table(text)
        assert table.factors[0].levels == ("2", "10")
        assert table.counts.tolist() == [2, 1]

    def test_frequency_beyond_int64_rejected(self):
        with pytest.raises(TableError, match="line 2: frequency 99999999999999999999 exceeds the int64"):
            parse_table("a,b,freq\n0,0,99999999999999999999\n1,1,2\n")

    def test_total_beyond_int64_rejected(self):
        parse_table("a,b,freq\n0,0,9223372036854775806\n1,1,1\n")  # the total is 2^63 - 1
        with pytest.raises(TableError, match="total count 9223372036854775809 exceeds the int64"):
            parse_table("a,b,freq\n0,0,9223372036854775807\n1,1,2\n")

    def test_custom_freq_column(self):
        table = parse_table("count a\n3 0\n1 1\n", freq_column="count")
        assert table.counts.tolist() == [3, 1]


class TestRoundTrip:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_serialize_parse_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(2, 4, size=rng.integers(1, 4)))
        table = make_table(shape, rng.integers(0, 9, size=int(np.prod(shape))))
        back = parse_table(table_csv(table))
        assert back.factor_names == table.factor_names
        assert np.array_equal(back.counts, table.counts)

    def test_haberman_roundtrip(self, haberman_table):
        back = parse_table(table_csv(haberman_table))
        assert np.array_equal(back.counts, haberman_table.counts)


class TestRowLoopReference:
    """The column-wise parse_table against the row loop it replaced."""

    def test_seeded_tables_equal_reference(self):
        rng = np.random.default_rng(20261019)
        parsed = 0
        for _ in range(60):
            shape = tuple(rng.integers(2, 5, size=rng.integers(1, 5)))
            counts = np.where(rng.random(math.prod(shape)) < 0.4, 0, rng.poisson(3.0, math.prod(shape)) + 1)
            labels = [rng.permutation([f"{name}{v}" for v in range(n)]).tolist() for name, n in zip("pqrs", shape)]
            # numeric levels for even factors, text levels in a shuffled order for odd ones
            factors = tuple(
                FactorSpec("abcd"[k], tuple(str(v) for v in range(n)) if k % 2 == 0 else tuple(labels[k]))
                for k, n in enumerate(shape)
            )
            text = scrambled_csv(ContingencyTable(factors, counts), rng)
            want = outcome(parse_table_reference, text)
            assert outcome(parse_table, text) == want
            parsed += want[0] == "table"
        assert parsed >= 50  # a dropped zero row rarely takes a factor's last row of a level

    def test_rochdale_equals_reference(self):
        text = resources.files("sparseloglin.data").joinpath("rochdale.csv").read_text()
        got, want = parse_table(text), parse_table_reference(text)
        assert got.factors == want.factors
        assert np.array_equal(got.counts, want.counts)
        assert got.total == 665

    @pytest.mark.parametrize("text, message", BAD_INPUTS)
    def test_same_error_as_reference(self, text, message):
        with pytest.raises(TableError) as want:
            parse_table_reference(text)
        with pytest.raises(TableError) as got:
            parse_table(text)
        assert str(got.value) == str(want.value)


class TestCountRange:
    """Library callers get the int64 checks of parse_table too."""

    def test_count_beyond_int64_rejected(self):
        factors = make_table((2,), [0, 0]).factors
        with pytest.raises(TableError, match="int64 range"):
            ContingencyTable(factors, [10**20, 2])

    def test_total_beyond_int64_rejected(self):
        factors = make_table((2, 2), [0] * 4).factors
        with pytest.raises(TableError, match="total count 9223372036854775809"):
            ContingencyTable(factors, np.array([2**63 - 1, 2, 0, 0], dtype=np.int64))
        with pytest.raises(TableError, match="total count"):
            ContingencyTable(factors, np.full(4, 2**62, dtype=np.int64))
        assert ContingencyTable(factors, [2**62, 2**62 - 1, 0, 0]).total == 2**63 - 1


    @pytest.mark.parametrize(
        "counts",
        [[1.9, 0.2], [np.nan, 1.0], [np.inf, 1.0], np.array([3.0, 0.5]), np.array([2**64 - 1, 1], dtype=np.uint64)],
        ids=["list", "nan", "inf", "array", "uint64"],
    )
    def test_non_integer_counts_rejected(self, counts):
        # truncating would turn the positive cell 0.2 into a sampling
        # zero; the largest uint64 would wrap to -1
        factors = make_table((2,), [0, 0]).factors
        with pytest.raises(TableError, match="finite integers"):
            ContingencyTable(factors, counts)

    def test_integral_float_counts_accepted(self):
        factors = make_table((2,), [0, 0]).factors
        for counts in ([2.0, 0.0], np.array([2, 0], dtype=np.uint8)):
            table = ContingencyTable(factors, counts)
            assert table.counts.dtype == np.int64
            assert table.counts.tolist() == [2, 0]

class TestImmutability:
    def test_counts_not_writable(self, haberman_table):
        with pytest.raises(ValueError):
            haberman_table.counts[0] = 5

    def test_callers_counts_stay_writable(self):
        # the table freezes its own copy, not the caller's int64 array
        factors = make_table((2,), [0, 0]).factors
        counts = np.array([3, 0], dtype=np.int64)
        table = ContingencyTable(factors, counts)
        counts[0] = 5
        assert table.counts.tolist() == [3, 0]
        with pytest.raises(ValueError, match="read-only"):
            table.counts[0] = 5
