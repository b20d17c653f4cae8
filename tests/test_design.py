import tracemalloc

import numpy as np
import pytest

from sparseloglin import (
    ContingencyTable,
    FactorSpec,
    build_design,
    find_facial_set,
    marginal,
    parse_formula,
    parse_generators,
    sufficient_statistic,
)
from sparseloglin.datasets import rochdale
from sparseloglin.design import Rank, matrix_rank

from conftest import iter_instances, make_table, three_way_instance
from test_acceptance import BIC_ROWS, CBIC_ROWS


@pytest.fixture(scope="module")
def haberman_design(haberman_table):
    return build_design(haberman_table, parse_formula("freq ~ a*b + a*c + b*c"))


class TestBuildDesign:
    def test_no_three_way_dimension(self, haberman_design):
        assert haberman_design.d == 7

    def test_intercept_column_first(self, haberman_design):
        assert np.array_equal(haberman_design.matrix[:, 0], np.ones(8))
        assert str(haberman_design.column_labels[0]) == "(Intercept)"

    def test_entries_binary_and_full_rank(self, haberman_design):
        m = haberman_design.matrix
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert matrix_rank(m).rank == haberman_design.d

    def test_rochdale_model_dimension_24(self):
        table = make_table((2,) * 8, np.ones(256, dtype=int))
        model = parse_generators("|ad|ae|be|cd|ef|acg|dg|fg|bdh|")
        assert build_design(table, model).d == 24

    def test_intercept_only(self, haberman_table):
        design = build_design(haberman_table, parse_formula("freq ~ 1"))
        assert design.d == 1
        assert np.array_equal(design.matrix, np.ones((8, 1)))

    def test_unknown_factor_rejected(self, haberman_table):
        with pytest.raises(ValueError, match="not in table"):
            build_design(haberman_table, parse_formula("freq ~ a*z"))

    def test_multilevel_column_count(self):
        # 3x3 saturated: 1 + 2 + 2 + 4 = 9 columns
        table = make_table((3, 3), np.arange(9))
        design = build_design(table, parse_formula("freq ~ a*b"))
        assert design.d == 9

    def test_saturated_rows_distinct(self):
        table = make_table((2, 3), np.arange(6))
        design = build_design(table, parse_formula("freq ~ a*b"))
        rows = {tuple(r) for r in design.matrix}
        assert len(rows) == design.n_cells

    def test_binary_d_is_one_plus_term_count(self):
        # every non-baseline combination is unique when all factors are binary
        table = make_table((2, 2, 2), np.ones(8, dtype=int))
        for text in ["[a][b][c]", "[ab][c]", "[ab][bc][ac]", "[abc]"]:
            model = parse_generators(text)
            design = build_design(table, model)
            assert design.d == len(model.terms)


def all_two_way_binary(k):
    names = "abcdefghijklmnopqrst"[:k]
    table = ContingencyTable(
        tuple(FactorSpec(n, ("0", "1")) for n in names), np.ones(2**k, dtype=np.int64)
    )
    model = parse_generators("".join(f"[{x}{y}]" for i, x in enumerate(names) for y in names[i + 1 :]))
    return table, model


class TestBudget:
    def test_large_design_rejected_before_allocation(self):
        # the largest ladder rung fits; 2^20 cells x 211 columns, 1.8 GB
        # of doubles, is refused before anything is allocated
        assert build_design(*all_two_way_binary(12)).d == 79
        with pytest.raises(ValueError, match="1048576 cells x 211 columns exceeds"):
            build_design(*all_two_way_binary(20))

    def test_memory_follows_the_model_not_the_table(self):
        # an intercept-only design of 2^20 cells is 8 MiB; level coordinates
        # and indicators of all 20 table factors would take 160 MiB each
        table, _ = all_two_way_binary(20)
        tracemalloc.start()
        try:
            design = build_design(table, parse_formula("freq ~ 1"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert design.d == 1
        assert peak < 64 * 2**20


def gram_schmidt_reference(a):
    """Greedy independent columns by twice-orthogonalized Gram-Schmidt on a.

    The reference for ``matrix_rank``: the same rule, a column is kept
    when its residual exceeds ncols * sqrt(eps) of its norm, applied to
    the columns of a itself one projection at a time, without the QR.
    """
    rel_tol = a.shape[1] * np.finfo(np.float64).eps ** 0.5
    basis = []
    kept = []
    for j in range(a.shape[1]):
        v = a[:, j]
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        r = v.copy()
        for q in basis:
            r -= (q @ r) * q
        for q in basis:
            r -= (q @ r) * q
        rnorm = np.linalg.norm(r)
        if rnorm > rel_tol * norm0:
            basis.append(r / rnorm)
            kept.append(j)
    return tuple(kept)


def designs_and_faces(cases):
    """The design matrix and its face rows for each (table, model)."""
    for table, model in cases:
        design = build_design(table, model)
        fs = find_facial_set(table, model, design=design)
        yield design.matrix
        yield design.matrix[fs.in_face]


class TestMatrixRank:
    def assert_matches_reference(self, matrices):
        n = 0
        for a in matrices:
            got = matrix_rank(a)
            assert got.columns == gram_schmidt_reference(a)
            assert got.rank == len(got.columns)
            n += 1
        return n

    def test_sweep_designs_and_faces(self):
        assert self.assert_matches_reference(designs_and_faces(iter_instances(120, seed=99))) == 240

    def test_paper_model_faces(self):
        table = rochdale()
        models = dict.fromkeys(gens for gens, _ in CBIC_ROWS + BIC_ROWS)
        cases = [(table, parse_generators(gens)) for gens in models]
        assert self.assert_matches_reference(designs_and_faces(cases)) == 18

    @pytest.mark.parametrize("seed", range(4))
    def test_three_way_2x8(self, seed):
        assert self.assert_matches_reference(designs_and_faces([three_way_instance(seed)])) == 2

    def test_later_column_after_dependent_one(self):
        # unpivoted QR gives R's diagonal (1, 0, 0) here, but e2 is independent
        e1, e2 = np.eye(3)[:, 0], np.eye(3)[:, 1]
        a = np.column_stack([e1, e1, e2])
        assert np.count_nonzero(np.abs(np.diag(np.linalg.qr(a, mode="r"))) > 0.5) == 1
        assert matrix_rank(a) == Rank(2, (0, 2))

    def test_fewer_rows_than_columns(self):
        a = np.array([[1.0, 1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0, 0.0]])
        assert matrix_rank(a) == Rank(2, (0, 1))
        assert matrix_rank(a[:, [3, 0, 1]]) == Rank(2, (0, 1))
        assert matrix_rank(a[:, [4, 0, 1, 2]]) == Rank(2, (1, 2))

    def test_zero_column_is_dropped(self):
        a = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert matrix_rank(a) == Rank(2, (1, 2))
        assert matrix_rank(np.zeros((4, 3))) == Rank(0, ())

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrix(self, shape):
        assert matrix_rank(np.zeros(shape)) == Rank(0, ())


class TestSufficientStatistic:
    def test_intercept_entry_is_total(self, haberman_table, haberman_design):
        t = sufficient_statistic(haberman_design, haberman_table.counts).t
        assert t[0] == 12

    def test_zero_counts(self, haberman_design):
        t = sufficient_statistic(haberman_design, np.zeros(8, dtype=int)).t
        assert np.array_equal(t, np.zeros(7))

    def test_binarized_total_is_positive_cell_count(self, haberman_table, haberman_design):
        y = (haberman_table.counts > 0).astype(int)
        assert sufficient_statistic(haberman_design, y).t[0] == 6

    def test_length_mismatch(self, haberman_design):
        with pytest.raises(ValueError, match="shape"):
            sufficient_statistic(haberman_design, np.zeros(5, dtype=int))

    def test_entries_match_marginals(self):
        # the t-entry of a term's column equals the marginal count at
        # that column's non-baseline level combination
        for table, model in iter_instances(25, seed=7):
            design = build_design(table, model)
            t = sufficient_statistic(design, table.counts).t
            for j, lab in enumerate(design.column_labels):
                if not lab.term:
                    continue
                marg = marginal(table, lab.term)
                pos = {f.name: f for f in table.factors}
                names = [n for n in table.factor_names if n in lab.term]
                shape = tuple(pos[n].n_levels for n in names)
                coords = tuple(
                    pos[n].levels.index(level)
                    for n, level in sorted(lab.levels, key=lambda kv: table.factor_names.index(kv[0]))
                )
                flat = int(np.ravel_multi_index(coords, shape))
                assert t[j] == marg[flat]
