import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloglin import TableError, binarize, marginal, parse_table, serialize_table

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


class TestImmutability:
    def test_counts_not_writable(self, haberman_table):
        with pytest.raises(ValueError):
            haberman_table.counts[0] = 5
