import numpy as np
import pytest

from oracles import step_level3
from starsis import (ModelParams, coalescence_gap, expand_state, iterate,
                     make_topology, reduce_state, step_full, step_level)


def step_full_oracle_topo22(p, a, b):
    """Straight-line per-node evaluation over the 7-node (2,2) tree."""
    adjacency = {0: [1, 2], 1: [0, 3, 4], 2: [0, 5, 6], 3: [1], 4: [1], 5: [2], 6: [2]}
    out = np.empty(7)
    for i in range(7):
        prod = 1.0
        for j in adjacency[i]:
            prod *= 1.0 - b * p[j]
        out[i] = 1.0 - (1.0 - a * p[i]) * prod
    return out


def test_trivial_fixed_point_exact():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.15)
    out = step_level(np.zeros(3), params, topo)
    assert np.array_equal(out, np.zeros(3))


def test_one_step_collapse_from_hub_only():
    topo = make_topology((6, 10))
    params = ModelParams(0.3, 0.2)
    out = step_level(np.array([1.0, 0.0, 0.0]), params, topo)
    assert np.allclose(out, [0.3, 0.2, 0.0], atol=1e-16)


def test_step_level_matches_scalar_formula():
    # independent scalar evaluation of each printed coordinate formula
    a, b = 0.5, 0.15
    n1, n2 = 6, 10
    topo = make_topology((n1, n2))
    params = ModelParams(a, b)
    out = step_level(np.ones(3), params, topo)
    assert out[0] == pytest.approx(1 - 0.5 * 0.85**6, abs=1e-16)
    assert out[1] == pytest.approx(1 - (1 - a) * (1 - b) * (1 - b) ** n2, abs=1e-16)
    assert out[2] == pytest.approx(1 - (1 - a) * (1 - b), abs=1e-16)


def test_step_full_all_zero():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.3)
    assert np.array_equal(step_full(np.zeros(67), params, topo), np.zeros(67))


def test_step_full_uniform_collapse():
    topo = make_topology((6, 10))
    params = ModelParams(0.4, 0.2)
    p = expand_state([1.0, 0.0, 0.0], topo)
    out = step_full(p, params, topo)
    assert np.allclose(out[0], 0.4)
    assert np.allclose(out[1:7], 0.2)
    assert np.allclose(out[7:], 0.0)


def test_step_full_matches_independent_oracle():
    topo = make_topology((2, 2))
    params = ModelParams(0.5, 0.3)
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.random(7)
        assert np.allclose(step_full(p, params, topo),
                           step_full_oracle_topo22(p, 0.5, 0.3), atol=1e-15)


def test_range_preservation():
    rng = np.random.default_rng(2)
    for branching in [(6, 10), (3, 3, 3), (5,)]:
        topo = make_topology(branching)
        params = ModelParams(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        d = rng.random((500, topo.k))
        out = step_level(d, params, topo)
        assert np.all((out >= 0.0) & (out <= 1.0))


def test_componentwise_monotonicity():
    rng = np.random.default_rng(3)
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.3)
    lo = rng.random((500, 3))
    hi = lo + (1 - lo) * rng.random((500, 3))
    assert np.all(step_level(lo, params, topo) <= step_level(hi, params, topo))


def test_general_k_matches_dedicated_three_level():
    rng = np.random.default_rng(4)
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.15)
    d = rng.random((1000, 3))
    assert np.max(np.abs(step_level(d, params, topo) - step_level3(d, params, topo))) <= 1e-15


def test_full_vs_reduced_consistency():
    rng = np.random.default_rng(5)
    for branching in [(6, 10), (3, 3, 3)]:
        topo = make_topology(branching)
        params = ModelParams(0.5, 0.3)
        for _ in range(50):
            d = rng.random(topo.k)
            lhs = reduce_state(step_full(expand_state(d, topo), params, topo), topo)
            assert np.max(np.abs(lhs - step_level(d, params, topo))) <= 1e-14


def test_coalescence_gap_definition():
    topo = make_topology((6, 10))
    p = expand_state([0.3, 0.25, 0.1], topo)
    assert np.array_equal(coalescence_gap(p, topo), np.zeros(3))
    p[1], p[2] = 0.4, 0.1
    gaps = coalescence_gap(p, topo)
    assert gaps[0] == 0.0
    assert gaps[1] == pytest.approx(0.3)
    assert gaps[2] == 0.0


def test_sibling_leaf_gap_contracts_by_factor_a():
    # leaves sharing a parent have identical neighbor values, so their pair
    # difference multiplies by exactly a * (1 - b * p_parent) <= a
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.3)
    rng = np.random.default_rng(6)
    p = rng.random(67)
    for _ in range(10):
        nxt = step_full(p, params, topo)
        for leaf in range(7, 67 - 1):
            if topo.parent_of(leaf) == topo.parent_of(leaf + 1):
                before = abs(p[leaf] - p[leaf + 1])
                after = abs(nxt[leaf] - nxt[leaf + 1])
                assert after <= 0.5 * before + 1e-15
        p = nxt


def test_gap_decays_to_zero():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.3)
    rng = np.random.default_rng(8)
    p = rng.random(67)
    g0 = coalescence_gap(p, topo).max()
    for _ in range(60):
        p = step_full(p, params, topo)
    assert coalescence_gap(p, topo).max() < 1e-12 * max(g0, 1.0)


def test_iterate_from_fixed_point():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.15)
    traj = iterate(np.zeros(3), params, topo, tol=1e-10)
    assert traj.converged
    assert traj.iterations == 0
    assert np.array_equal(traj.limit, np.zeros(3))


def test_iterate_subcritical_dies_out():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.08)
    traj = iterate(np.ones(3), params, topo, tol=1e-10)
    assert traj.converged
    assert np.max(traj.limit) < 1e-9


def test_iterate_supercritical_interior_limit():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.15)
    traj = iterate(np.ones(3), params, topo, tol=1e-10)
    assert traj.converged
    assert np.all((traj.limit > 0.0) & (traj.limit < 1.0))
    res = np.max(np.abs(step_level(traj.limit, params, topo) - traj.limit))
    assert res <= 1e-10


def test_iterate_thinning_keeps_endpoints():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.15)
    full = iterate(np.ones(3), params, topo, tol=1e-10)
    thinned = iterate(np.ones(3), params, topo, tol=1e-10, store_every=50)
    assert len(thinned.states) < len(full.states)
    assert np.array_equal(thinned.states[0], full.states[0])
    assert np.array_equal(thinned.states[-1], full.states[-1])


def test_iterate_reports_max_iter():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.15)
    traj = iterate(np.ones(3), params, topo, tol=1e-15, max_iter=5)
    assert not traj.converged
    assert traj.iterations == 5
    assert traj.final_residual > 0.0


def test_iterate_input_validation():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.15)
    with pytest.raises(ValueError):
        iterate(np.ones(3), params, topo, tol=0.0)
    with pytest.raises(ValueError):
        iterate(np.ones(3), params, topo, max_iter=0)
    with pytest.raises(ValueError):
        iterate(np.ones(4), params, topo)


def test_nan_states_and_tol_rejected():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.15)
    with pytest.raises(ValueError):
        step_level([np.nan, 0.5, 0.5], params, topo)
    with pytest.raises(ValueError):
        step_full(np.full(topo.node_count, np.nan), params, topo)
    with pytest.raises(ValueError):
        iterate([np.nan, 0.5, 0.5], params, topo)
    with pytest.raises(ValueError):
        iterate(np.ones(3), params, topo, tol=np.nan)
