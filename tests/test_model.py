import numpy as np
import pytest

from starsis import (ModelParams, expand_state, make_topology, reduce_state)


def test_node_counts():
    assert make_topology((6, 10)).node_count == 67
    assert make_topology((6,)).node_count == 7
    assert make_topology((6, 10, 4)).node_count == 307


def test_level_counts():
    topo = make_topology((6, 10))
    assert topo.k == 3
    assert topo.level_sizes == (1, 6, 60)


@pytest.mark.parametrize("branching", [(), (0,), (3, -1), (6.7, 10.2), (6, np.float64(10.5)),
                                       (6, float("nan")), (6, float("inf"))])
def test_invalid_branching_rejected(branching):
    # A non-integral entry raises rather than being truncated to an integer.
    with pytest.raises(ValueError):
        make_topology(branching)


@pytest.mark.parametrize("bad_a,bad_b", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-1, 0.5), (0.5, 2)])
def test_invalid_params_rejected(bad_a, bad_b):
    with pytest.raises(ValueError):
        ModelParams(a=bad_a, b=bad_b)


def test_node_count_formula_random_branchings():
    rng = np.random.default_rng(0)
    for _ in range(20):
        branching = tuple(int(n) for n in rng.integers(1, 6, size=rng.integers(1, 5)))
        topo = make_topology(branching)
        expected = 1
        prod = 1
        for n in branching:
            prod *= n
            expected += prod
        assert topo.node_count == expected


def test_expand_reduce_round_trip():
    rng = np.random.default_rng(1)
    for branching in [(6, 10), (3, 3, 3), (4,)]:
        topo = make_topology(branching)
        for _ in range(20):
            d = rng.random(topo.k)
            # averaging identical values can round in the last ulp
            back = reduce_state(expand_state(d, topo), topo)
            assert np.max(np.abs(back - d)) <= 1e-15


def test_state_validation():
    topo = make_topology((6, 10))
    with pytest.raises(ValueError):
        expand_state([0.5, 0.5], topo)
    with pytest.raises(ValueError):
        expand_state([1.5, 0.5, 0.5], topo)
    with pytest.raises(ValueError):
        expand_state(0.5, topo)
    with pytest.raises(ValueError):
        reduce_state(np.zeros(66), topo)


def test_state_validation_rejects_nan():
    topo = make_topology((6, 10))
    with pytest.raises(ValueError):
        expand_state([0.5, np.nan, 0.5], topo)
    with pytest.raises(ValueError):
        reduce_state(np.full(topo.node_count, np.nan), topo)
