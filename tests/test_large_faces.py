"""Facial sets of 256- and 1024-cell tables against an LP solved by HiGHS.

These tables are well past the toy sizes of the other tests: the
three-way models have 93 LP rows and off-face cells that no zero
margin explains.  scipy is used only here, as an independent reference.
"""

import itertools

import numpy as np
import pytest

from sparseloglin import build_design, find_facial_set, parse_generators

from conftest import make_table, three_way_instance

linprog = pytest.importorskip("scipy.optimize").linprog

NAMES = "abcdefghij"


def highs_facial_set(design, counts):
    """Facial set from one homogenized LP solved by HiGHS.

    Maximizes sum s_i over the zero cells subject to X'a = lam t',
    a >= 0, lam >= 0 and 0 <= s_i <= min(a_i, 1).  The cone is scale
    invariant, so s_i is 1 on every zero cell of the face and 0 elsewhere.
    """
    x = design.matrix
    n, d = x.shape
    zeros = np.flatnonzero(counts == 0)
    k = zeros.size
    t_prime = x.T @ (counts > 0).astype(np.float64)
    a_eq = np.hstack([x.T, np.zeros((d, k)), -t_prime[:, None]])
    pick = np.zeros((k, n))
    pick[np.arange(k), zeros] = 1.0
    a_ub = np.hstack([-pick, np.eye(k), np.zeros((k, 1))])
    c = np.concatenate([np.zeros(n), -np.ones(k), [0.0]])
    bounds = [(0, None)] * n + [(0, 1)] * k + [(0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(k), A_eq=a_eq, b_eq=np.zeros(d), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    in_face = counts > 0
    in_face[zeros] = res.x[n : n + k] > 0.5
    return in_face


def two_way_instance(k):
    """2^k table with 60% zeros under all two-way generators."""
    rng = np.random.default_rng(0)
    counts = np.where(rng.random(2**k) < 0.6, 0, rng.poisson(2.0, 2**k) + 1)
    gens = "".join(f"[{NAMES[i]}{NAMES[j]}]" for i, j in itertools.combinations(range(k), 2))
    return make_table((2,) * k, counts), parse_generators(gens)


@pytest.mark.parametrize("seed, face_cells", [(0, 33), (1, 57)])
def test_three_way_2x8_matches_highs(seed, face_cells):
    table, model = three_way_instance(seed)
    design = build_design(table, model)
    fs = find_facial_set(table, model, design=design)
    assert np.array_equal(fs.in_face, highs_facial_set(design, table.counts))
    assert fs.n_face_cells == face_cells


@pytest.fixture(scope="module")
def two_way_2x10():
    table, model = two_way_instance(10)
    design = build_design(table, model)
    return table, design, find_facial_set(table, model, design=design)


def test_two_way_2x10_matches_highs(two_way_2x10):
    table, design, fs = two_way_2x10
    assert np.array_equal(fs.in_face, highs_facial_set(design, table.counts))


def test_two_way_2x10_settles_in_two_lps(two_way_2x10):
    # one loop LP, then the certificate LP rescues every remaining candidate
    table, design, fs = two_way_2x10
    assert fs.iterations <= 2
    assert fs.termination == "all_cells_in_face"
    assert np.array_equal(fs.in_face, highs_facial_set(design, table.counts))


def test_three_way_face_invariant_to_column_order():
    table, model = three_way_instance(1)
    design = build_design(table, model)
    order = np.random.default_rng(7).permutation(table.n_cells)
    fs = find_facial_set(table, model, design=design, column_order=order)
    assert np.array_equal(fs.in_face, highs_facial_set(design, table.counts))
