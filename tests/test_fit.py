import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloglin import (
    FitError,
    bic,
    build_design,
    cbic,
    deviance,
    find_facial_set,
    fit,
    loglik,
    mle_exists,
    parse_formula,
    parse_generators,
)

from sparseloglin import datasets
from sparseloglin.design import _margins, design_columns
from sparseloglin.fit import _newton

from conftest import iter_instances, make_table, moment_residual, relabel
from test_faces import PAPER_MODELS
from test_report import dense_table, two_way


@pytest.fixture(scope="module")
def haberman_fit(haberman_table):
    model = parse_generators("[ab][ac][bc]")
    fs = find_facial_set(haberman_table, model)
    return fit(haberman_table, model, fs)


class TestHabermanFit:
    def test_fitted_equal_observed_on_face(self, haberman_fit, haberman_table):
        # the face has as many cells as estimable parameters, so the
        # restricted model is effectively saturated
        np.testing.assert_allclose(
            haberman_fit.fitted_means, haberman_table.counts.astype(float), atol=1e-8
        )

    def test_one_aliased_coefficient(self, haberman_fit):
        assert sum(c.aliased for c in haberman_fit.coefficients) == 1
        assert haberman_fit.face_dimension == 6
        assert haberman_fit.model_dimension == 7

    def test_residual_df_zero(self, haberman_fit):
        assert haberman_fit.n_face_cells == 6
        assert haberman_fit.residual_df == 0

    def test_loglik_value(self, haberman_fit):
        assert haberman_fit.loglik == pytest.approx(-1.772691, abs=1e-5)

    def test_deviance_essentially_zero(self, haberman_fit):
        assert haberman_fit.deviance <= 1e-12

    def test_estimable_coefficients_have_finite_se(self, haberman_fit):
        se = np.array([c.std_error for c in haberman_fit.coefficients])
        assert np.isfinite(se[~np.isnan(se)]).all()
        assert np.sum(~np.isnan(se)) == 6

    def test_moment_equations(self, haberman_fit, haberman_table):
        model = parse_generators("[ab][ac][bc]")
        fs = find_facial_set(haberman_table, model)
        design = build_design(haberman_table, model)
        assert moment_residual(haberman_table, design, fs.in_face, haberman_fit) <= 1e-8 * haberman_table.total


class TestClosedForms:
    def test_single_cell_intercept(self):
        # one Poisson cell with count k: m-hat = k, l = k log k - k
        # smallest legal table is 2 cells; use intercept-only on (k, k)
        k = 7
        tab = make_table((2,), [k, k])
        res = fit(tab, parse_formula("freq ~ 1"))
        assert res.fitted_means == pytest.approx([k, k])
        assert res.loglik == pytest.approx(2 * (k * math.log(k) - k))

    def test_2x2_independence_all_ones(self):
        tab = make_table((2, 2), [1, 1, 1, 1])
        res = fit(tab, parse_generators("[a][b]"))
        np.testing.assert_allclose(res.fitted_means, np.ones(4), atol=1e-10)
        assert res.loglik == pytest.approx(-4.0, abs=1e-10)

    def test_saturated_fit_interpolates(self):
        counts = [3, 1, 4, 1, 5, 9, 2, 6]
        tab = make_table((2, 2, 2), counts)
        res = fit(tab, parse_generators("[abc]"))
        np.testing.assert_allclose(res.fitted_means, counts, rtol=1e-9)
        assert res.residual_df == 0
        assert res.deviance == pytest.approx(0.0, abs=1e-9)

    def test_saturated_intercept_se_is_inverse_sqrt_count(self):
        # with all counts c the intercept estimates the baseline-cell
        # log mean, whose Fisher variance is 1/c
        c = 9
        tab = make_table((2, 2), [c, c, c, c])
        res = fit(tab, parse_generators("[ab]"))
        assert res.coefficients[0].std_error == pytest.approx(1 / math.sqrt(c), rel=1e-8)

    def test_aliased_columns_carry_no_estimates(self, haberman_table):
        model = parse_generators("[ab][ac][bc]")
        fs = find_facial_set(haberman_table, model)
        res = fit(haberman_table, model, fs)
        for coef in (c for c in res.coefficients if c.aliased):
            assert math.isnan(coef.estimate)
            assert math.isnan(coef.std_error)


class TestNewton:
    def test_simple_intercept_model(self):
        # the intercept of a one-factor table of four cells
        X = np.ones((4, 1))
        y = np.array([1.0, 2.0, 3.0, 2.0])
        margins = _margins((4,), np.zeros((1, 1), dtype=np.intp), np.ones(4, dtype=bool))
        theta, mu, info, _it = _newton(X, y, np.zeros(1), 1e-12, margins)
        assert theta[0] == pytest.approx(np.log(2.0), abs=1e-12)
        np.testing.assert_array_equal(mu, np.exp(X @ theta))
        np.testing.assert_array_equal(info, margins(mu, y - mu)[0])  # no ridge
        np.testing.assert_allclose(info, X.T @ (X * mu.reshape(-1, 1)), rtol=1e-12, atol=0)

    def test_no_improving_step_raises_stalled(self):
        # a NaN objective admits no improving step
        margins = _margins((), np.zeros((1, 0), dtype=np.intp), np.ones(1, dtype=bool))
        with pytest.raises(FitError, match=r"stalled after 1 iterations \(grad norm nan\)"):
            _newton(np.ones((1, 1)), np.array([np.nan]), np.zeros(1), 1.0, margins)


class TestStandardErrors:
    @pytest.mark.parametrize("case", [*(("rochdale", g) for g in PAPER_MODELS), ("dense 2^10", two_way(10))])
    def test_bits_equal_information_formed_after_the_fit(self, case):
        # fit takes the information from Newton's last iteration; it
        # must keep every bit of the margin information formed anew from
        # the returned means, which is x*' diag(mu) x* up to rounding
        name, gens = case
        table = datasets.rochdale() if name == "rochdale" else dense_table(10)
        model = parse_generators(gens)
        design = build_design(table, model)
        fs = find_facial_set(table, model, design=design)
        res = fit(table, model, fs, design=design)
        kept = res.estimable_columns
        mu = res.fitted_means[fs.in_face]
        patterns = design_columns(table.factors, model)[1][list(kept)]
        info = _margins(table.shape, patterns, fs.in_face)(mu, np.zeros_like(mu))[0]
        want = np.sqrt(np.diag(np.linalg.inv(info)))
        got = np.array([res.coefficients[j].std_error for j in kept])
        assert got.tobytes() == want.tobytes()
        x_star = design.matrix[np.ix_(fs.in_face, kept)]
        np.testing.assert_allclose(info, x_star.T @ (x_star * mu.reshape(-1, 1)), rtol=1e-12, atol=0)


@st.composite
def margin_cases(draw):
    """A table of 1-6 factors with 2-5 levels, a hierarchical model on it, a face and kept columns."""
    shape = draw(st.lists(st.integers(2, 5), min_size=1, max_size=6))
    while math.prod(shape) > 3000:  # bounds the design at 3000 x 4^3 entries per term
        shape[shape.index(max(shape))] -= 1
    names = "abcdef"[: len(shape)]
    generators = draw(st.lists(st.sets(st.sampled_from(names), min_size=1, max_size=3), max_size=4))
    if generators:
        model = parse_generators("".join(f"[{''.join(sorted(g))}]" for g in generators))
    else:
        model = parse_formula("freq ~ 1")
    seed = draw(st.integers(0, 2**32 - 1))
    return tuple(shape), model, seed


class TestMarginInformation:
    @settings(max_examples=60, deadline=None)
    @given(margin_cases())
    def test_equals_the_design_product(self, case):
        shape, model, seed = case
        rng = np.random.default_rng(seed)
        table = make_table(shape, np.zeros(math.prod(shape), dtype=np.int64))
        design = build_design(table, model)
        in_face = rng.random(table.n_cells) < rng.uniform(0.2, 1.0)
        in_face[rng.integers(table.n_cells)] = True
        if rng.random() < 0.3:
            in_face[:] = True
        kept = [j for j in range(design.d) if j == 0 or rng.random() < 0.7]
        m = rng.uniform(1e-3, 50.0, int(in_face.sum()))
        r = rng.normal(0.0, 5.0, m.size)
        patterns = design_columns(table.factors, model)[1][kept]
        info, xr = _margins(table.shape, patterns, in_face)(m, r)

        x = design.matrix[np.ix_(in_face, kept)]
        np.testing.assert_allclose(info, x.T @ (x * m.reshape(-1, 1)), rtol=1e-13, atol=0)
        np.testing.assert_array_less(np.abs(xr - x.T @ r), 1e-13 * (x.T @ np.abs(r)) + 1e-300)
        # columns that give one factor two levels share no cell
        levels = [dict(design.column_labels[j].levels) for j in kept]
        conflict = np.array([[any(a[f] != b[f] for f in a.keys() & b.keys()) for b in levels] for a in levels])
        assert (info[conflict] == 0.0).all()


class TestLoglikConventions:
    def test_zero_log_zero_is_zero(self):
        assert loglik([0.0, 2.0], [0, 2]) == pytest.approx(2 * math.log(2) - 2)

    def test_positive_count_on_zero_mean_is_minus_inf(self):
        assert loglik([0.0, 1.0], [1, 0]) == -math.inf
        assert deviance([0.0, 1.0], [1, 0]) == math.inf

    def test_restricted_equals_full_table_loglik(self, haberman_table):
        # fitted means are zero off the face, so summing over all cells
        # with 0 log 0 = 0 gives the same value as the restricted sum
        model = parse_generators("[ab][ac][bc]")
        fs = find_facial_set(haberman_table, model)
        res = fit(haberman_table, model, fs)
        assert loglik(res.fitted_means, haberman_table.counts) == pytest.approx(res.loglik)


class TestInformationCriteria:
    def test_bic_equals_cbic_when_mle_exists(self):
        tab = make_table((2, 2, 2), [3, 1, 2, 1, 1, 4, 1, 2])
        res = fit(tab, parse_generators("[ab][bc]"))
        assert res.bic == pytest.approx(res.cbic)
        assert bic(res) == pytest.approx(cbic(res))

    def test_correction_is_half_rank_deficit_times_log_n(self, haberman_fit):
        gap = cbic(haberman_fit) - bic(haberman_fit)
        expected = 0.5 * (7 - 6) * math.log(12)
        assert gap == pytest.approx(expected, abs=1e-12)

    def test_bic_formula(self, haberman_fit):
        assert bic(haberman_fit) == pytest.approx(
            haberman_fit.loglik - 0.5 * 7 * math.log(12)
        )


class TestColumnSelectionInvariance:
    def test_fitted_means_do_not_depend_on_selection(self):
        # reversed levels move the baselines: the relabelled design is
        # X M with its rows permuted, so the fit estimates other
        # coefficients over the same restricted space
        cases = [
            ("haberman", "[ab][ac][bc]", (2, 0, 1), (0,)),
            ("haberman", "[ab][ac][bc]", (0, 1, 2), (0, 1, 2)),
            ("rochdale", "|ad|ae|be|ce|ef|acg|dg|fg|bdh|", (7, 6, 5, 4, 3, 2, 1, 0), (0, 2, 6)),
            ("rochdale", "|ad|ae|be|ce|ef|acg|dg|fg|bdh|", tuple(range(8)), tuple(range(8))),
        ]
        for dataset, gens, order, flip in cases:
            table = datasets.load(dataset)
            model = parse_generators(gens)
            base = fit(table, model, find_facial_set(table, model))
            relabelled, cells = relabel(table, order, flip)
            alt = fit(relabelled, model, find_facial_set(relabelled, model))
            base_coef = [c.estimate for c in base.coefficients]
            alt_coef = [c.estimate for c in alt.coefficients]
            assert not np.allclose(alt_coef, base_coef, equal_nan=True)
            np.testing.assert_allclose(alt.fitted_means, base.fitted_means[cells], atol=1e-8)
            assert alt.loglik == pytest.approx(base.loglik, abs=1e-9)
            assert alt.face_dimension == base.face_dimension
            assert alt.residual_df == base.residual_df


class TestExistenceSplit:
    def test_unrestricted_divergence_raises_by_default(self, haberman_table):
        model = parse_generators("[ab][ac][bc]")
        with pytest.raises(FitError, match=r"hit the 100-iteration cap after 100 iterations \(grad norm .*fit on the facial set"):
            fit(haberman_table, model)

    def test_unrestricted_fit_converges_when_mle_exists(self):
        for table, model in iter_instances(40, seed=1234):
            fs = find_facial_set(table, model)
            if not mle_exists(fs):
                continue
            res = fit(table, model)
            assert res.fitted_means.min() > 1e-10

    def test_facial_set_hint_only_for_a_fit_on_all_cells(self, haberman_table, monkeypatch):
        # a caller who passed the face is not told to pass it
        monkeypatch.setattr(importlib.import_module("sparseloglin.fit"), "NEWTON_ITER_CAP", 1)
        model = parse_generators("[ab][ac][bc]")
        failure = r"^fit hit the 1-iteration cap after 1 iterations \(grad norm [^)]*\)"
        with pytest.raises(FitError, match=failure + "$"):
            fit(haberman_table, model, find_facial_set(haberman_table, model))
        with pytest.raises(FitError, match=failure + "; if the MLE may not exist, fit on the facial set$"):
            fit(haberman_table, model)


class TestConsistencyErrors:
    def test_positive_cell_outside_face_rejected(self, haberman_table):
        model = parse_generators("[ab][ac][bc]")
        fs = find_facial_set(haberman_table, model)
        bad_in_face = fs.in_face.copy()
        bad_in_face[2] = False  # cell with count 2
        from dataclasses import replace

        bad = replace(fs, in_face=bad_in_face)
        with pytest.raises(FitError, match="positive count"):
            fit(haberman_table, model, bad)

    def test_all_zero_table_rejected(self):
        tab = make_table((2, 2), [0, 0, 0, 0])
        with pytest.raises(FitError, match="all-zero"):
            fit(tab, parse_generators("[a][b]"))


class TestMomentEquationsSweep:
    def test_moment_equations_hold_on_random_fits(self):
        for table, model in iter_instances(60, seed=777):
            fs = find_facial_set(table, model)
            res = fit(table, model, fs)
            assert moment_residual(table, build_design(table, model), fs.in_face, res) <= 1e-8 * table.total
            # fitted means strictly positive exactly on the face
            assert (res.fitted_means[fs.in_face] > 0).all()
            assert (res.fitted_means[~fs.in_face] == 0).all()
