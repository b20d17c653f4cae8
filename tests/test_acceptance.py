"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS
lines inline).  The two dataset-dependent criteria skip, not fail, when
the bundled 8-factor survey table is unavailable.
"""

import itertools
import math

import numpy as np
import pytest

from sparseloglin import (
    LinearProgram,
    binarize,
    build_design,
    find_facial_set,
    fit,
    mle_exists,
    parse_formula,
    parse_generators,
    per_cell_oracle,
    solve,
    sufficient_statistic,
)

from conftest import iter_instances, make_table
from test_lp import brute_force_max, nonnegative_rhs

N_SWEEP = 500


def ok(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


@pytest.fixture(scope="module")
def sweep():
    """Shared randomized instances with facial sets from both methods."""
    out = []
    for table, model in iter_instances(N_SWEEP, seed=20240814):
        design = build_design(table, model)
        fs = find_facial_set(table, model, design=design)
        oracle = per_cell_oracle(table, model, design=design)
        out.append((table, model, design, fs, oracle))
    return out


@pytest.fixture(scope="module")
def rochdale_table():
    try:
        from sparseloglin.datasets import rochdale

        return rochdale()
    except FileNotFoundError:
        pytest.skip("bundled rochdale dataset unavailable")


def test_criterion_1_haberman(haberman_table):
    model = parse_formula("freq ~ a*b + a*c + b*c")
    design = build_design(haberman_table, model)
    assert design.d == 7
    fs = find_facial_set(haberman_table, model, design=design)
    assert fs.excluded_cells().tolist() == [0, 7]  # cells 000 and 111
    assert fs.face_dimension == 6
    assert fs.iterations == 1
    result = fit(haberman_table, model, fs, design=design)
    assert result.loglik == pytest.approx(-1.772691, abs=1e-4)
    on_face = fs.in_face
    np.testing.assert_allclose(
        result.fitted_means[on_face], haberman_table.counts[on_face].astype(float), atol=1e-6
    )
    assert len(result.aliased_columns()) == 1
    assert result.residual_df == 0
    assert result.deviance <= 1e-12
    ok(1, "2x2x2 no-three-way example")


def test_criterion_2_3x3x3(table3x3x3):
    model = parse_generators("[ab][bc][ac]")
    fs = find_facial_set(table3x3x3, model)
    rescued = table3x3x3.flat_index((0, 2, 0))  # a=1, b=3, c=1
    expected = table3x3x3.counts > 0
    expected[rescued] = True
    assert np.array_equal(fs.in_face, expected)
    assert fs.face_dimension == 18
    assert fs.in_face[rescued] and table3x3x3.counts[rescued] == 0
    labels = table3x3x3.cell_labels()
    excluded = {"".join(labels[i]) for i in fs.excluded_cells()}
    assert excluded == {"111", "211", "322", "332", "323", "333"}
    ok(2, "3x3x3 rescued-cell example")


def test_criterion_3_rochdale_facial(rochdale_table):
    assert rochdale_table.total == 665
    assert len(rochdale_table.zero_cells()) == 165
    model = parse_formula("freq ~ a*d + a*e + b*e + c*e + e*f + a*c*g + d*g + f*g + b*d*h")
    design = build_design(rochdale_table, model)
    assert design.d == 24
    fs = find_facial_set(rochdale_table, model, design=design)
    assert fs.face_dimension == 22
    assert fs.n_face_cells == 196
    result = fit(rochdale_table, model, fs, design=design)
    assert result.residual_df == 196 - 22 == 174
    aliased_terms = sorted("".join(sorted(t)) for t in result.aliased_terms())
    assert aliased_terms == ["acg", "bdh"]
    ok(3, "8-factor survey facial set")


# Reference model rankings for the bundled survey data: five models per
# criterion with their reference values.  Only rankings and pairwise
# differences are asserted; the reference values are printed to one
# decimal, so differences carry a +-0.15 window.
CBIC_ROWS = [
    ("|ad|ae|be|ce|ef|acg|dg|fg|bdh|", 985.3),
    ("|ad|ae|be|ce|cf|ef|acg|dg|fg|bdh|", 985.2),
    ("|ad|ae|be|ce|cf|df|ef|acg|dg|fg|bdh|", 984.4),
    ("|ad|ae|be|ce|df|ef|acg|dg|fg|bdh|", 984.3),
    ("|ac|ad|ae|be|ce|ef|ag|cg|dg|fg|bdh|", 984.0),
]
BIC_ROWS = [
    ("|ac|ad|bd|ae|be|ce|ef|ag|cg|dg|fg|bh|dh|", 981.3),
    ("|ac|ad|bd|ae|be|ce|cf|ef|ag|cg|dg|fg|bh|dh|", 981.1),
    ("|ac|ad|ae|be|ce|ef|ag|cg|dg|fg|bdh|", 980.7),
    ("|ac|ad|ae|be|ce|cf|ef|ag|cg|dg|fg|bdh|", 980.5),
    ("|ac|ad|bd|ae|be|ce|ef|ag|cg|dg|fg|bh|", 980.4),
]


def _table_check(table, rows, pick):
    computed = []
    for gens, printed in rows:
        model = parse_generators(gens)
        fs = find_facial_set(table, model)
        result = fit(table, model, fs)
        computed.append((pick(result), printed))
    for i in range(len(computed) - 1):
        assert computed[i][0] > computed[i + 1][0], "ranking differs from the published table"
    for i, j in itertools.combinations(range(len(computed)), 2):
        got = computed[i][0] - computed[j][0]
        want = computed[i][1] - computed[j][1]
        assert got == pytest.approx(want, abs=0.15), f"rows {i},{j}: diff {got:.3f} vs {want:.1f}"


def test_criterion_4_rochdale_bic_tables(rochdale_table):
    _table_check(rochdale_table, CBIC_ROWS, lambda r: r.cbic)
    _table_check(rochdale_table, BIC_ROWS, lambda r: r.bic)
    ok(4, "model-comparison tables, corrected and plain criterion")


def test_criterion_5_oracle_equivalence(sweep):
    assert len(sweep) >= 500
    for _table, _model, _design, fs, oracle in sweep:
        assert np.array_equal(fs.in_face, oracle.in_face)
    ok(5, f"oracle equivalence on {len(sweep)} random instances")


def test_criterion_6_existence_theorem(sweep):
    n_exists = 0
    for table, model, design, fs, _oracle in sweep:
        assert fs.in_face[table.counts > 0].all()
        if (table.counts > 0).all():
            assert fs.in_face.all()
        if mle_exists(fs):
            n_exists += 1
            result = fit(table, model, design=design)
            assert result.converged
            assert result.fitted_means.min() > 1e-10
    assert n_exists > 0
    ok(6, f"existence split ({n_exists} interior instances refit unrestricted)")


def test_criterion_7_zero_pattern_invariance(sweep):
    rng = np.random.default_rng(417)
    for table, model, design, fs, _oracle in sweep:
        counts = table.counts.copy()
        pos = counts > 0
        counts[pos] *= rng.integers(1, 10, size=int(pos.sum()))
        scaled = make_table(table.shape, counts)
        fs2 = find_facial_set(scaled, model, design=design)
        assert np.array_equal(fs2.in_face, fs.in_face)
        assert fs2.face_dimension == fs.face_dimension
    ok(7, "zero-pattern invariance under positive rescaling")


def test_criterion_8_moment_equations(sweep):
    for table, model, design, fs, _oracle in sweep:
        result = fit(table, model, fs, design=design)
        assert result.converged
        assert result.moment_residual <= 1e-8 * table.total
    ok(8, "moment equations at every converged fit")


def test_criterion_9_lp_sanity(sweep):
    # every facial-set LP is optimal with objective bounded by the
    # binarized total (the solver itself enforces this; re-check here)
    for table, _model, design, fs, _oracle in sweep[:200]:
        t_prime = sufficient_statistic(design, binarize(table).counts).t.astype(float)
        c = (table.counts == 0).astype(float)
        sol = solve(LinearProgram(c, design.matrix.T, t_prime))
        assert sol.objective_value <= t_prime[0] + 1e-8

    rng = np.random.default_rng(90)
    checked = 0
    while checked < 100:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 7))
        a_mat = np.vstack([np.ones(n), rng.normal(size=(m - 1, n))]) if m > 1 else np.ones((1, n))
        x_feas = np.where(rng.random(n) < 0.5, 0.0, rng.random(n) * 2)
        if x_feas.sum() == 0:
            x_feas[int(rng.integers(n))] = 1.0
        b = a_mat @ x_feas
        a_mat, b = nonnegative_rhs(a_mat, b)
        c = rng.normal(size=n)
        expect = brute_force_max(c, a_mat, b)
        sol = solve(LinearProgram(c, a_mat, b))
        assert sol.objective_value == pytest.approx(expect, abs=1e-8)
        checked += 1
    ok(9, "LP optimality, boundedness, and brute-force agreement")
