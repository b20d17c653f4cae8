import math

import numpy as np
import pytest

from sparseloglin import (
    FitError,
    bic,
    cbic,
    deviance,
    find_facial_set,
    fit,
    loglik,
    mle_exists,
    parse_formula,
    parse_generators,
    standard_errors,
)

from sparseloglin.fit import CONVERGED, _newton

from conftest import iter_instances, make_table


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
        assert len(haberman_fit.aliased_columns()) == 1
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
        se = standard_errors(haberman_fit)
        assert np.isfinite(se[~np.isnan(se)]).all()
        assert np.sum(~np.isnan(se)) == 6

    def test_moment_equations(self, haberman_fit, haberman_table):
        assert haberman_fit.moment_residual <= 1e-8 * haberman_table.total


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
        for coef in res.aliased_columns():
            assert math.isnan(coef.estimate)
            assert math.isnan(coef.std_error)


class TestNewton:
    def test_simple_intercept_model(self):
        X = np.ones((4, 1))
        y = np.array([1.0, 2.0, 3.0, 2.0])
        theta, status, _it, _gnorm = _newton(X, y, np.zeros(1), 1e-12, 1e-10, 100)
        assert status == CONVERGED
        assert theta[0] == pytest.approx(np.log(2.0), abs=1e-12)


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
    def test_fitted_means_do_not_depend_on_selection(self, haberman_table):
        model = parse_generators("[ab][ac][bc]")
        fs = find_facial_set(haberman_table, model)
        base = fit(haberman_table, model, fs)
        # swap in the aliased column for a kept dependent one: any
        # maximal independent subset spans the same restricted space
        kept = list(base.estimable_columns)
        aliased = [j for j in range(7) if j not in kept]
        assert aliased == [6]
        alt_cols = kept[:-1] + aliased
        alt = fit(haberman_table, model, fs, columns=alt_cols)
        assert alt.estimable_columns != base.estimable_columns
        np.testing.assert_allclose(alt.fitted_means, base.fitted_means, atol=1e-8)
        assert alt.loglik == pytest.approx(base.loglik, abs=1e-9)
        same = fit(haberman_table, model, fs, columns=np.array(kept))
        assert same.estimable_columns == base.estimable_columns
        assert same.face_dimension == alt.face_dimension == 6

    def test_bad_explicit_columns_rejected(self, haberman_table):
        model = parse_generators("[ab][ac][bc]")
        fs = find_facial_set(haberman_table, model)
        with pytest.raises(FitError, match="independent"):
            fit(haberman_table, model, fs, columns=[0, 1, 2])

    @pytest.mark.parametrize(
        "columns",
        [[0, 1, 2, 3, 4, -1], [0, 1, 2, 3, 4, 7], [0, 1, 2, 3, 4, 4], [0, 1, 2, 3, 4, 5.0], [[0, 1, 2], [3, 4, 5]]],
        ids=["negative", "past_d", "duplicate", "float", "nested"],
    )
    def test_explicit_columns_must_be_distinct_indices(self, haberman_table, columns):
        model = parse_generators("[ab][ac][bc]")
        fs = find_facial_set(haberman_table, model)
        with pytest.raises(FitError, match="columns must be"):
            fit(haberman_table, model, fs, columns=columns)


class TestExistenceSplit:
    def test_unrestricted_fit_diverges_when_mle_missing(self, haberman_table):
        model = parse_generators("[ab][ac][bc]")
        res = fit(haberman_table, model, max_iter=200, require_convergence=False)
        assert not res.converged
        coef = np.array([c.estimate for c in res.coefficients if not c.aliased])
        assert np.max(np.abs(coef)) > 10
        # some fitted means are driven toward zero
        assert res.fitted_means.min() < 1e-3

    def test_unrestricted_divergence_raises_by_default(self, haberman_table):
        model = parse_generators("[ab][ac][bc]")
        with pytest.raises(FitError, match="iteration cap|stalled"):
            fit(haberman_table, model, max_iter=50)

    def test_unrestricted_fit_converges_when_mle_exists(self):
        for table, model in iter_instances(40, seed=1234):
            fs = find_facial_set(table, model)
            if not mle_exists(fs):
                continue
            res = fit(table, model)
            assert res.converged
            assert res.fitted_means.min() > 1e-10


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
            assert res.converged
            assert res.moment_residual <= 1e-8 * table.total
            # fitted means strictly positive exactly on the face
            assert (res.fitted_means[fs.in_face] > 0).all()
            assert (res.fitted_means[~fs.in_face] == 0).all()
