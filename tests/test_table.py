import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloglin import ContingencyTable, TableError, binarize, marginal, parse_table, serialize_table

from conftest import make_table


class TestParse:
    def test_haberman_counts(self, haberman_table):
        assert haberman_table.total == 12
        assert haberman_table.counts.tolist() == [0, 1, 2, 1, 4, 1, 3, 0]
        # zero cells are (a,b,c) = (0,0,0) and (1,1,1)
        assert haberman_table.zero_cells().tolist() == [0, 7]
        assert haberman_table.factor_names == ("a", "b", "c")
        assert haberman_table.shape == (2, 2, 2)

    def test_sparse_input_fills_missing_cells(self):
        text = "a b freq\n0 0 3\n0 1 2\n1 0 1\n"
        table = parse_table(text)
        assert table.counts.tolist() == [3, 2, 1, 0]

    def test_3x3x3_transcription(self, table3x3x3):
        assert table3x3x3.n_cells == 27
        assert table3x3x3.total == 20
        assert len(table3x3x3.zero_cells()) == 7

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

    def test_ragged_row_rejected(self):
        with pytest.raises(TableError, match="fields"):
            parse_table("a b freq\n0 0\n")

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


class TestMarginal:
    def test_haberman_a_margin(self, haberman_table):
        assert marginal(haberman_table, {"a"}).tolist() == [4, 8]

    def test_full_subset_is_identity(self, haberman_table):
        got = marginal(haberman_table, {"a", "b", "c"})
        assert got.tolist() == haberman_table.counts.tolist()

    def test_empty_subset_is_grand_total(self, haberman_table):
        assert marginal(haberman_table, set()).tolist() == [12]

    def test_unknown_factor(self, haberman_table):
        with pytest.raises(TableError, match="unknown"):
            marginal(haberman_table, {"z"})

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_any_marginal_sums_to_total(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(2, 4, size=rng.integers(1, 4)))
        table = make_table(shape, rng.integers(0, 6, size=int(np.prod(shape))))
        names = table.factor_names
        subset = {n for n in names if rng.random() < 0.5}
        assert marginal(table, subset).sum() == table.total


class TestBinarize:
    def test_haberman(self, haberman_table):
        assert binarize(haberman_table).counts.tolist() == [0, 1, 1, 1, 1, 1, 1, 0]

    def test_all_zero(self):
        table = make_table((2, 2), [0, 0, 0, 0])
        assert binarize(table).counts.tolist() == [0, 0, 0, 0]

    @given(st.lists(st.integers(0, 50), min_size=4, max_size=4))
    @settings(deadline=None)
    def test_idempotent_and_zero_preserving(self, counts):
        table = make_table((2, 2), counts)
        once = binarize(table)
        assert np.array_equal(binarize(once).counts, once.counts)
        assert np.array_equal(once.counts == 0, table.counts == 0)


class TestRoundTrip:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_serialize_parse_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(2, 4, size=rng.integers(1, 4)))
        table = make_table(shape, rng.integers(0, 9, size=int(np.prod(shape))))
        back = parse_table(serialize_table(table))
        assert back.factor_names == table.factor_names
        assert np.array_equal(back.counts, table.counts)

    def test_haberman_roundtrip(self, haberman_table):
        back = parse_table(serialize_table(haberman_table))
        assert np.array_equal(back.counts, haberman_table.counts)


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
