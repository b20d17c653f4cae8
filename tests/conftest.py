"""Shared fixtures: canonical tables and randomized instances."""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from sparseloglin import ContingencyTable, FactorSpec, parse_generators
from sparseloglin.datasets import example3x3x3, haberman

# Every session draws the same examples, and no example fails for time.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def haberman_table():
    return haberman()


@pytest.fixture(scope="session")
def table3x3x3():
    return example3x3x3()


def margin(table, factors):
    """Counts summed over the factors not in ``factors``, flat, in table factor order."""
    drop = tuple(k for k, name in enumerate(table.factor_names) if name not in factors)
    return table.counts.reshape(table.shape).sum(axis=drop).reshape(-1)


def presolve_reference(table, model):
    """``faces._presolve``'s (pairs, mask), by one ``any`` reduction per generator over the binarized cube.

    An independent reference: it reads every cell once per generator,
    where ``_presolve`` reads only the positive cells' margin codes.
    """
    names = table.factor_names
    positive = (table.counts > 0).reshape(table.shape)
    first = np.full(table.n_cells, -1)
    gens = model.generators
    for j, gen in enumerate(gens):
        others = tuple(k for k, name in enumerate(names) if name not in gen)
        nonzero = positive.any(axis=others, keepdims=True)
        hit = ~np.broadcast_to(nonzero, table.shape).reshape(-1) & (first < 0)
        first[hit] = j
    off_face = first >= 0
    pairs = tuple(
        (int(i), tuple(name for name in names if name in gens[first[i]])) for i in np.flatnonzero(off_face)
    )
    return pairs, off_face


def cell_labels(table):
    """One tuple of level labels per cell, in canonical cell order."""
    return [tuple(f.levels[c] for f, c in zip(table.factors, coords)) for coords in table.cell_coords()]


def table_csv(table):
    """Comma-separated text of every cell, with the counts in a last column named freq."""
    lines = [",".join((*table.factor_names, "freq"))]
    for coords, n in zip(table.cell_coords(), table.counts.tolist()):
        lines.append(",".join([*(str(f.levels[c]) for f, c in zip(table.factors, coords)), str(n)]))
    return "\n".join(lines) + "\n"


def moment_residual(table, design, in_face, result):
    """max|X_F'(m_F - n_F)| over the face rows F and the fit's estimable columns."""
    x = design.matrix[np.ix_(in_face, result.estimable_columns)]
    return float(np.abs(x.T @ (result.fitted_means[in_face] - table.counts[in_face])).max(initial=0.0))


def make_table(shape, counts):
    names = "abcdefghijkl"
    factors = tuple(
        FactorSpec(names[k], tuple(str(v) for v in range(n))) for k, n in enumerate(shape)
    )
    return ContingencyTable(factors, np.asarray(counts, dtype=np.int64))


# Randomized sweep configuration: small shapes with ~40% sampling zeros
# and the standard small hierarchical models adapted to the shape.
SHAPES = [(2, 2, 2), (2, 2, 3), (3, 3)]
MODELS_3 = ["[a][b][c]", "[ab][c]", "[ab][bc]", "[ab][bc][ac]"]
MODELS_2 = ["[a][b]", "[ab]"]


def random_instance(rng):
    """One random (table, model) pair; the table has at least one count."""
    shape = SHAPES[rng.integers(len(SHAPES))]
    n_cells = int(np.prod(shape))
    while True:
        counts = np.where(
            rng.random(n_cells) < 0.4, 0, rng.poisson(3.0, n_cells) + 1
        ).astype(np.int64)
        if counts.sum() > 0:
            break
    gens = MODELS_3 if len(shape) == 3 else MODELS_2
    model = parse_generators(gens[rng.integers(len(gens))])
    return make_table(shape, counts), model


def iter_instances(n, seed=20240814):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield random_instance(rng)


def three_way_instance(seed, k=8, p0=0.85):
    """2^k table, each cell zero with probability p0, under all three-way generators."""
    rng = np.random.default_rng([seed, k, 3])
    counts = np.where(rng.random(2**k) < p0, 0, rng.poisson(2.0, 2**k) + 1)
    gens = "".join(f"[{''.join(g)}]" for g in itertools.combinations("abcdefghijkl"[:k], 3))
    return make_table((2,) * k, counts), parse_generators(gens)


def highs_facial_set(design, counts):
    """Facial set from one homogenized LP solved by HiGHS.

    Maximizes sum s_i over the zero cells subject to X'a = lam t',
    a >= 0, lam >= 0 and 0 <= s_i <= min(a_i, 1).  The cone is scale
    invariant, so s_i is 1 on every zero cell of the face and 0 elsewhere.
    Needs scipy, imported here so that tests which run without it can
    share this module.
    """
    from scipy.optimize import linprog

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


def relabel(table, order, flip):
    """The table with its factors in ``order`` and the levels of the factors in ``flip`` reversed.

    ``order`` permutes factor positions and ``flip`` names factor
    positions of ``table``.  Returns (relabelled, cells): cell j of the
    relabelled table is cell cells[j] of ``table``.  Reversing a
    factor's levels moves its baseline, so the design becomes X M for
    an invertible M, with its rows permuted by ``cells``.
    """
    cube = np.arange(table.n_cells).reshape(table.shape)
    cells = np.flip(cube, axis=tuple(flip)).transpose(order).reshape(-1)
    factors = tuple(
        FactorSpec(table.factors[k].name, table.factors[k].levels[:: -1 if k in flip else 1]) for k in order
    )
    return ContingencyTable(factors, table.counts[cells]), cells
