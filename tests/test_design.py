import sys
import tracemalloc

import numpy as np
import pytest

from sparseloglin import (
    ContingencyTable,
    DesignMatrix,
    FactorSpec,
    build_design,
    find_facial_set,
    fit,
    parse_formula,
    parse_generators,
    per_cell_oracle,
)
from sparseloglin.datasets import example3x3x3, haberman, rochdale
from sparseloglin.design import Rank, design_columns, matrix_rank
from sparseloglin.formula import ModelFormula

from conftest import iter_instances, make_table, margin, three_way_instance
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
        assert len(rows) == design.matrix.shape[0]

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

    def test_design_is_built_in_place(self):
        # the columns are written into the one (n_cells, d) matrix; a list of
        # columns stacked at the end peaked at 2.9 times the design
        table, model = all_two_way_binary(12)
        tracemalloc.start()
        try:
            design = build_design(table, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * design.matrix.nbytes


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


def three_way_2x10_face():
    """Face rows of three-way 2^10 at p0 0.92, seed 0: 896 x 176 of rank 175."""
    table, model = three_way_instance(0, k=10, p0=0.92)
    design = build_design(table, model)
    return design.matrix[find_facial_set(table, model, design=design).in_face]


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

    def test_aliasing_rebuilds_dropped_columns(self):
        cases = [(rochdale(), parse_generators(gens)) for gens in dict.fromkeys(g for g, _ in CBIC_ROWS + BIC_ROWS)]
        n_dropped = 0
        for a in designs_and_faces(cases + list(iter_instances(60, seed=4242))):
            got = matrix_rank(a)
            dropped = [j for j in range(a.shape[1]) if j not in got.columns]
            assert got.aliasing.shape == (got.rank, len(dropped))
            assert np.abs(a[:, dropped] - a[:, list(got.columns)] @ got.aliasing).max(initial=0.0) < 1e-12
            n_dropped += len(dropped)
        assert n_dropped > 0

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

    def test_full_rank_takes_no_qr(self, monkeypatch):
        # the Cholesky factor of a'a certifies every column of these
        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        cases = [(rochdale(), parse_generators(gens)) for gens in dict.fromkeys(g for g, _ in CBIC_ROWS + BIC_ROWS)]
        cases += [(example3x3x3(), parse_generators("[ab][ac][bc]")), all_two_way_binary(10)]
        for table, model in cases:
            a = build_design(table, model).matrix
            got = matrix_rank(a)
            assert got == Rank(a.shape[1], tuple(range(a.shape[1])))
            assert got.aliasing.shape == (a.shape[1], 0)

    @pytest.mark.parametrize(
        "make_a, rank, cholesky_succeeds",
        [
            # relative residual 1e-5 of its last column: above the walk's
            # floor 3 sqrt(eps) = 4.5e-8, below the shortcut's bar 2.1e-4
            (lambda: np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-5]]), 3, True),
            # 0/1 and rank 3: column 3 = column 0 + column 2 - column 1
            (lambda: np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0], [0.0] * 4, [1.0] * 4]), 3, True),
            # rank 175 of 176: whether the Cholesky of a'a ends or raises
            # LinAlgError depends on LAPACK's rounding (it raises with one
            # OpenBLAS thread, not with two); either way the walk decides
            (three_way_2x10_face, 175, None),
        ],
        ids=["small_residual_kept", "dependent_0_1", "three_way_2x10_face"],
    )
    def test_walk_answers_below_the_bar(self, monkeypatch, make_a, rank, cholesky_succeeds):
        a = make_a()
        if cholesky_succeeds:
            np.linalg.cholesky(a.T @ a)  # succeeds: only the pivots' size sends these to the walk
        qr_calls = []
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            qr_calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        got = matrix_rank(a)
        assert qr_calls
        assert got.rank == rank
        assert got.columns == gram_schmidt_reference(a)
        dropped = [j for j in range(a.shape[1]) if j not in got.columns]
        assert np.abs(a[:, dropped] - a[:, list(got.columns)] @ got.aliasing).max(initial=0.0) < 1e-12


class TestSufficientStatistic:
    """t = X'n and t' = X'1{n>0}, computed from the design."""

    def test_intercept_entry_is_total(self, haberman_table, haberman_design):
        t = haberman_design.matrix.T @ haberman_table.counts
        assert t[0] == 12

    def test_zero_counts(self, haberman_design):
        t = haberman_design.matrix.T @ np.zeros(8, dtype=int)
        assert np.array_equal(t, np.zeros(7))

    def test_binarized_total_is_positive_cell_count(self, haberman_table, haberman_design):
        assert (haberman_design.matrix.T @ (haberman_table.counts > 0))[0] == 6

    def test_entries_match_marginals(self):
        # the t-entry of a term's column equals the marginal count at
        # that column's non-baseline level combination
        for table, model in iter_instances(25, seed=7):
            design = build_design(table, model)
            t = design.matrix.T @ table.counts
            for j, lab in enumerate(design.column_labels):
                if not lab.term:
                    continue
                marg = margin(table, lab.term)
                pos = {f.name: f for f in table.factors}
                names = [n for n in table.factor_names if n in lab.term]
                shape = tuple(pos[n].n_levels for n in names)
                coords = tuple(
                    pos[n].levels.index(level)
                    for n, level in sorted(lab.levels, key=lambda kv: table.factor_names.index(kv[0]))
                )
                flat = int(np.ravel_multi_index(coords, shape))
                assert t[j] == marg[flat]


class TestImmutability:
    def test_callers_matrix_stays_writable(self, haberman_design):
        # the design freezes a view of a C-contiguous float64 matrix, not the matrix
        m = np.ones((2, 1))
        design = DesignMatrix(m, ("(Intercept)",), (FactorSpec("a", ("0", "1")),), ModelFormula("freq", ()))
        assert np.shares_memory(design.matrix, m)
        m[0, 0] = 5
        assert design.matrix[0, 0] == 5
        for matrix in (design.matrix, haberman_design.matrix):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1


OTHER_FACTORS = r"^design was built on other factors than the table's$"
OTHER_TERMS = r"^design was built for other terms than the model's$"


class TestFullColumnRank:
    """A DesignMatrix has full column rank, so all its rows need no second rank."""

    def test_rank_deficient_matrix_rejected(self):
        m = np.column_stack([np.ones(4), np.arange(4.0), np.arange(4.0)])
        with pytest.raises(ValueError, match=r"rank deficient \(rank 2 < 3 columns\)"):
            DesignMatrix(m, ("(Intercept)", "x", "x again"), (FactorSpec("x", tuple("0123")),), parse_generators("[x]"))

    def test_all_rows_rank_is_matrix_rank(self):
        rng = np.random.default_rng(20)
        dense, model = all_two_way_binary(10)
        dense = ContingencyTable(dense.factors, rng.poisson(3.0, dense.n_cells) + 1)
        cases = [
            (haberman(), parse_formula("freq ~ a*b + a*c + b*c")),
            (example3x3x3(), parse_generators("[ab][ac][bc]")),
            *((rochdale(), parse_generators(g)) for g in dict.fromkeys(g for g, _ in CBIC_ROWS + BIC_ROWS)),
            (dense, model),
        ]
        for table, model in cases:
            design = build_design(table, model)
            got = design.rows_rank(np.ones(table.n_cells, dtype=bool))
            assert got == matrix_rank(design.matrix) == Rank(design.d, tuple(range(design.d)))
            assert got.aliasing.shape == (design.d, 0)

    def test_dense_analysis_computes_one_rank(self, monkeypatch):
        # the design's own check; the face and the fit hold every cell.
        # Every binding of matrix_rank in the package is counted.
        calls = []

        def counted(a):
            calls.append(np.shape(a))
            return matrix_rank(a)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "sparseloglin" and getattr(module, "matrix_rank", None) is matrix_rank:
                monkeypatch.setattr(module, "matrix_rank", counted)
        table, model = all_two_way_binary(10)
        table = ContingencyTable(table.factors, np.random.default_rng(21).poisson(3.0, table.n_cells) + 1)
        design = build_design(table, model)
        fs = find_facial_set(table, model, design=design)
        result = fit(table, model, fs, design=design)
        assert (fs.face_dimension, result.face_dimension, result.estimable_columns) == (56, 56, tuple(range(56)))
        assert calls == [(1024, 56)]

    @pytest.mark.parametrize("counts", [np.arange(1, 9), np.array([0, 1, 2, 3, 4, 5, 6, 0])], ids=["dense", "zeros"])
    def test_design_of_another_table_rejected(self, counts):
        table = make_table((2, 2, 2), counts)
        model = parse_generators("[ab][ac][bc]")
        other = build_design(rochdale(), parse_generators("[ab][ac][bc]"))
        for call in (find_facial_set, per_cell_oracle, fit):
            with pytest.raises(ValueError, match=OTHER_FACTORS):
                call(table, model, design=other)

    @pytest.mark.parametrize(
        "case",
        [
            "renamed factors",
            "model factor missing",
            "another model",
            "factors reordered",
            "other strides",
            "other unused factor",
        ],
    )
    def test_design_of_another_model_or_factors_rejected(self, case):
        # each table but the last has the cell count of the design's own table
        roch, x3 = rochdale(), example3x3x3()
        paper = "|ad|ae|be|ce|ef|acg|dg|fg|bdh|"
        renamed = ContingencyTable(tuple(FactorSpec(n, f.levels) for n, f in zip("pqrstuvw", roch.factors)), roch.counts)
        three_by_nine = make_table((3, 9), x3.counts)
        a, b, c = x3.factors
        reordered = ContingencyTable((b, a, c), x3.counts)
        table, model, design, message = {
            "renamed factors": (
                renamed,
                parse_generators(paper.translate(str.maketrans("abcdefgh", "pqrstuvw"))),
                build_design(roch, parse_generators(paper)),
                OTHER_FACTORS,
            ),
            "model factor missing": (
                three_by_nine,
                parse_generators("[ab][ac][bc]"),
                build_design(x3, parse_generators("[ab][ac][bc]")),
                OTHER_FACTORS,
            ),
            "another model": (
                x3,
                parse_generators("[a]"),
                build_design(x3, parse_generators("[ab][ac][bc]")),
                OTHER_TERMS,
            ),
            "factors reordered": (
                reordered,
                parse_generators("[a][b][c]"),
                build_design(x3, parse_generators("[a][b][c]")),
                OTHER_FACTORS,
            ),
            "other strides": (
                # factor b steps every 3 cells here and every 2 in the design's table
                make_table((2, 2, 3), np.arange(1, 13)),
                parse_generators("[b]"),
                build_design(make_table((3, 2, 2), np.arange(1, 13)), parse_generators("[b]")),
                OTHER_FACTORS,
            ),
            "other unused factor": (
                # the design's columns and rows would fit this table: only
                # the factor the model leaves out is another
                ContingencyTable((FactorSpec("a", ("0", "1")), FactorSpec("c", ("0", "1"))), [1, 2, 3, 4]),
                parse_generators("[a]"),
                build_design(make_table((2, 2), [1, 2, 3, 4]), parse_generators("[a]")),
                OTHER_FACTORS,
            ),
        }[case]
        for call in (find_facial_set, per_cell_oracle, fit):
            with pytest.raises(ValueError, match=message):
                call(table, model, design=design)

    def test_design_of_equal_terms_accepted(self):
        # the response name is not part of the design
        table = haberman()
        design = build_design(table, parse_formula("n ~ a*b + a*c + b*c"))
        model = parse_formula("freq ~ a*b + a*c + b*c")
        fs = find_facial_set(table, model, design=design)
        assert np.array_equal(per_cell_oracle(table, model, design=design).in_face, fs.in_face)
        got = fit(table, model, fs, design=design)
        assert np.array_equal(got.fitted_means, fit(table, model, fs).fitted_means)

    def test_design_checked_by_value(self):
        # a table and model built anew match the design's factors and
        # terms, and the fit's columns are made anew after the cache
        # that build_design shares
        generators = "|ad|ae|be|ce|ef|acg|dg|fg|bdh|"
        design = build_design(rochdale(), parse_generators(generators))
        design_columns.cache_clear()
        table, model = rochdale(), parse_generators(generators)
        assert table.factors is not design.factors and model is not design.model
        fs = find_facial_set(table, model, design=design)
        assert fit(table, model, fs, design=design).face_dimension == 22

    def test_facial_set_of_another_table_rejected(self):
        model = parse_generators("[ab][ac][bc]")
        with pytest.raises(ValueError, match="^facial set has 256 cells but the table has 8 cells$"):
            fit(haberman(), model, find_facial_set(rochdale(), model))
