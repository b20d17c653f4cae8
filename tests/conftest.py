"""Shared fixtures: canonical tables and randomized instances."""

import itertools

import numpy as np
import pytest

from sparseloglin import ContingencyTable, FactorSpec, parse_generators
from sparseloglin.datasets import example3x3x3, haberman


@pytest.fixture(scope="session")
def haberman_table():
    return haberman()


@pytest.fixture(scope="session")
def table3x3x3():
    return example3x3x3()


def make_table(shape, counts):
    names = "abcdefghij"
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


def three_way_instance(seed):
    """2^8 table with 85% zeros under all 56 three-way generators."""
    rng = np.random.default_rng([seed, 8, 3])
    counts = np.where(rng.random(256) < 0.85, 0, rng.poisson(2.0, 256) + 1)
    gens = "".join(f"[{''.join(g)}]" for g in itertools.combinations("abcdefgh", 3))
    return make_table((2,) * 8, counts), parse_generators(gens)
