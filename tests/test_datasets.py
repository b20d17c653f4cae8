import numpy as np

from sparseloglin.datasets import DATASETS, example3x3x3, haberman, load, rochdale

from conftest import margin


def test_load_by_name():
    for name in DATASETS:
        table = load(name)
        assert table.total > 0


def test_haberman_shape():
    table = haberman()
    assert table.shape == (2, 2, 2)
    assert table.total == 12


def test_example3x3x3_shape():
    table = example3x3x3()
    assert table.shape == (3, 3, 3)
    assert table.total == 20


def test_rochdale_stats():
    table = rochdale()
    assert table.factor_names == tuple("abcdefgh")
    assert table.shape == (2,) * 8
    assert table.total == 665
    assert len(np.flatnonzero(table.counts == 0)) == 165
    assert int((table.counts <= 3).sum()) == 217
    assert int((table.counts >= 30).sum()) >= 3
    # the two margins behind the non-estimable three-way interactions
    acg = margin(table, {"a", "c", "g"})
    assert acg[-1] == 0
    bdh = margin(table, {"b", "d", "h"})
    assert bdh[-1] == 0


def test_unknown_name():
    import pytest

    with pytest.raises(KeyError):
        load("nope")
