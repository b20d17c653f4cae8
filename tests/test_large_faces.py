"""Facial sets of 256- to 2048-cell tables against an LP solved by HiGHS.

These tables are well past the toy sizes of the other tests: the
three-way models have 93 to 232 LP rows and off-face cells that no
zero margin explains.  scipy's HiGHS (``conftest.highs_facial_set``)
is the independent reference.
"""

import itertools

import numpy as np
import pytest

from sparseloglin import build_design, find_facial_set, parse_generators

from conftest import highs_facial_set, make_table, relabel, three_way_instance

pytest.importorskip("scipy.optimize")

NAMES = "abcdefghij"


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


def test_two_way_2x10_settles_with_no_lp(two_way_2x10):
    # the positive rows have full rank, so the span closure takes every zero
    table, design, fs = two_way_2x10
    assert fs.iterations == 0
    assert fs.termination == "all_cells_in_face"
    assert fs.span_closed == tuple(np.flatnonzero(table.counts == 0).tolist())
    assert np.array_equal(fs.in_face, highs_facial_set(design, table.counts))


@pytest.mark.parametrize(
    "seed, k, p0, face_cells",
    [
        (1, 9, 0.85, 448),
        (2, 9, 0.92, 41),
        (7, 9, 0.92, 42),
        (0, 10, 0.92, 896),
        (1, 10, 0.97, 30),
        (0, 11, 0.95, 2048),
    ],
)
def test_larger_three_way_matches_highs(seed, k, p0, face_cells):
    table, model = three_way_instance(seed, k, p0)
    design = build_design(table, model)
    fs = find_facial_set(table, model, design=design)
    assert np.array_equal(fs.in_face, highs_facial_set(design, table.counts))
    assert fs.n_face_cells == face_cells


def test_three_way_face_invariant_to_column_order():
    # relabelling shuffles the LP's variables and recodes the design
    table, model = three_way_instance(1)
    fs = find_facial_set(table, model)
    order = np.random.default_rng(7).permutation(8)
    relabelled, cells = relabel(table, order, (1, 4, 6))
    design = build_design(relabelled, model)
    fs2 = find_facial_set(relabelled, model, design=design)
    assert fs2.iterations > 0
    assert np.array_equal(fs2.in_face, highs_facial_set(design, relabelled.counts))
    assert np.array_equal(fs2.in_face, fs.in_face[cells])
