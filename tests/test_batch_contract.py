"""Leading-batch contract of the per-node functions and the one Region I mask.

step_full, coalescence_gap and reduce_state take (..., N) node states and
expand_state (..., k) level states.  Every batch row must be bitwise equal to
the 1-D call on that row, whatever the input's memory layout.  The per-row
loops that run_property_suite used before it made batched calls are kept
here as oracles, as are the former per-level reduce_state and the written-out
region_slice formula.  The Region I mask, T(d) < d on the map kernel, is
checked against the partial-fixed-point bounds in tests/oracles.py.
"""

import warnings

import numpy as np
import pytest

from oracles import region_one_bounds
from starsis import (ModelParams, coalescence_gap, expand_state, in_region_one,
                     make_topology, phi_hub, phi_leaf, phi_middle, reduce_state,
                     region_slice, sample_curves, solve_fixed_point, step_full,
                     step_level)
from starsis.cli import FIGURE_ZS
from starsis.geometry import _region_one_mask
from starsis.model import as_node_state
from starsis.verify import run_property_suite

SHAPES = [(6, 10), (3, 3, 3), (1, 5), (2, 2, 2, 2, 2, 2), (99, 100), (30, 30, 10)]


def loop_reduce_state(p, topo):
    offs = topo.level_offsets
    return np.array([p[offs[m]:offs[m + 1]].mean() for m in range(topo.k)])


def loop_consistency_error(d, params, topo):
    err = 0.0
    for row in d[:50]:
        p = expand_state(row, topo)
        err = max(err, float(np.max(np.abs(
            reduce_state(step_full(p, params, topo), topo) - step_level(row, params, topo)
        ))))
    return err


def loop_region_closure(pts, params, topo):
    region_pts = [row for row in [*pts, np.ones(topo.k)]
                  if region_one_bounds(row, params, topo)]
    return all(region_one_bounds(step_level(p, params, topo), params, topo)
               for p in region_pts)


def loop_region_slice(z_level, grid_n, params, topo):
    xs = np.linspace(0.0, 1.0, grid_n)
    n1, n2 = topo.branching
    x = xs[:, None]
    y = xs[None, :]
    return (
        (x > phi_hub(y, params, n1))
        & (y > phi_middle(x, np.full_like(x, z_level), params, n2))
        & (z_level > phi_leaf(y, params))
    )


def assert_rows_bitwise(batch, rows):
    """Each row of batch, in C order of its leading axes, is bitwise rows[i]."""
    flat = batch.reshape(-1, batch.shape[-1])
    assert len(flat) == len(rows)
    for got, want in zip(flat, rows):
        assert got.tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("shape", SHAPES)
def test_batched_node_functions_equal_their_rows(shape):
    topo = make_topology(shape)
    params = ModelParams(0.5, 0.1)
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    d = rng.random((2, 3, topo.k))
    p = expand_state(d, topo)
    assert_rows_bitwise(p, [expand_state(row, topo) for row in d.reshape(-1, topo.k)])

    q = rng.random((2, 3, topo.node_count))
    nxt = step_full(q, params, topo)
    flat = q.reshape(-1, topo.node_count)
    assert_rows_bitwise(nxt, [step_full(row, params, topo) for row in flat])

    levels = reduce_state(nxt, topo)
    rows = [loop_reduce_state(step_full(row, params, topo), topo) for row in flat]
    assert_rows_bitwise(levels, rows)
    assert all(reduce_state(row, topo).tobytes() == loop_reduce_state(row, topo).tobytes()
               for row in flat)


@pytest.mark.parametrize("shape", [(6, 10), (30, 30, 10)])
@pytest.mark.parametrize("layout", ["fortran", "sliced"])
def test_batch_rows_do_not_depend_on_layout(shape, layout):
    topo = make_topology(shape)
    params = ModelParams(0.4, 0.2)
    rng = np.random.default_rng(7)
    d = rng.random((5, topo.k))
    q = rng.random((5, topo.node_count))
    if layout == "fortran":
        d, q = np.asfortranarray(d), np.asfortranarray(q)
    else:
        d = np.repeat(d, 2, axis=-1)[::2, ::2]
        q = np.repeat(q, 3, axis=-1)[:, ::3]
        assert not q.flags.c_contiguous
    assert_rows_bitwise(expand_state(d, topo), [expand_state(row, topo) for row in d])
    assert_rows_bitwise(step_full(q, params, topo), [step_full(row, params, topo) for row in q])
    assert_rows_bitwise(reduce_state(q, topo), [loop_reduce_state(row, topo) for row in q])
    assert_rows_bitwise(coalescence_gap(q, topo), [coalescence_gap(row, topo) for row in q])


def test_reduce_state_of_batched_step_full_keeps_pairwise_sums():
    # step_full's batched result need not be C-ordered; reduced without care,
    # its level means were naive sums, off by 8.5e-14 on this tree.
    topo = make_topology((30, 30, 10))
    params = ModelParams(0.5, 0.1)
    d = np.random.default_rng(1).random((50, topo.k))
    full = reduce_state(step_full(expand_state(d, topo), params, topo), topo)
    rows = [loop_reduce_state(step_full(expand_state(row, topo), params, topo), topo)
            for row in d]
    assert_rows_bitwise(full, rows)
    assert np.max(np.abs(full - step_level(d, params, topo))) <= 1e-14


def test_suite_consistency_holds_on_wide_tree():
    checks = run_property_suite(ModelParams(0.5, 0.1), make_topology((30, 30, 10)), seed=1)
    assert checks["full_vs_reduced_consistency"] is True


@pytest.mark.parametrize("shape, a, b, seed", [
    ((6, 10), 0.5, 0.05, 0), ((6, 10), 0.5, 0.12, 3), ((6, 10), 0.3, 0.4, 5),
    ((2, 50), 0.8, 0.1, 2), ((30, 30, 10), 0.5, 0.1, 1), ((2, 3, 4), 0.4, 0.2, 4),
])
def test_suite_batched_checks_match_former_loops(shape, a, b, seed):
    topo = make_topology(shape)
    params = ModelParams(a, b)
    samples = 200  # the suite's sample size
    # The suite's draws, in its order: states, then the two monotonicity
    # batches, then the Region I sample.
    rng = np.random.default_rng(seed)
    d = rng.random((samples, topo.k))
    rng.random((samples, topo.k))
    rng.random((samples, topo.k))
    checks = run_property_suite(params, topo, seed=seed)
    assert checks["full_vs_reduced_consistency"] == (
        loop_consistency_error(d, params, topo) <= 1e-14)
    assert checks["region_one_closed_under_map"] == loop_region_closure(
        rng.random((samples, topo.k)), params, topo)
    assert "region_one_strict_decrease" not in checks


@pytest.mark.parametrize("shape, a, b", [((6, 10), 0.5, 0.08), ((6, 10), 0.2, 0.5),
                                         ((2, 50), 0.7, 0.05), ((30, 10), 0.5, 0.02)])
def test_region_mask_equals_in_region_one(shape, a, b):
    topo = make_topology(shape)
    params = ModelParams(a, b)
    rng = np.random.default_rng(11)
    # Half uniform, half pushed toward the unit corner, so both outcomes occur.
    pts = rng.random((10_000, 3))
    pts[::2] = 1.0 - 0.3 * pts[::2]
    mask = _region_one_mask(pts.T, params, topo)
    want = np.array([in_region_one(row, params, topo) for row in pts])
    assert np.array_equal(mask, want)
    assert np.array_equal(want, region_one_bounds(pts.T, params, topo))
    assert 0 < want.sum() < len(want)


@pytest.mark.parametrize("shape", [(6,), (6, 10), (6, 10, 4), (2, 2, 2, 2, 2, 2)])
@pytest.mark.parametrize("a, b", [(0.5, 0.08), (0.5, 0.15), (0.2, 0.5), (0.9, 0.03)])
def test_region_mask_equals_the_bounds_oracle(shape, a, b):
    topo = make_topology(shape)
    params = ModelParams(a, b)
    rng = np.random.default_rng(len(shape))
    # A quarter uniform, the rest pushed toward the unit corner, so both
    # outcomes occur where the fixed point is near it.
    pts = rng.random((20_000, topo.k))
    pts[::2] = 1.0 - 0.3 * pts[::2]
    pts[1::4] = 1.0 - 1e-3 * pts[1::4]
    mask = _region_one_mask(pts.T, params, topo)
    assert mask.tobytes() == region_one_bounds(pts.T, params, topo).tobytes()
    assert 0 < mask.sum() < len(mask)


@pytest.mark.parametrize("zs, grid_n", [(FIGURE_ZS, 101), ((0.25,), 21)])
def test_region_mask_equals_the_bounds_oracle_on_pinned_grids(zs, grid_n):
    # The grids of the two pinned `regions --a 0.5 --b 0.08 --branching 6,10` runs.
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.08)
    xs = np.linspace(0.0, 1.0, grid_n)
    for z in zs:
        want = region_one_bounds([xs[:, None], xs[None, :], np.full((1, 1), z)], params, topo)
        assert region_slice(z, grid_n, params, topo).tobytes() == want.tobytes()


def test_region_bounds_are_strict():
    # The bounds' own rounding decides a state one ulp from a rounded bound,
    # so this holds for the oracle; the library's T(d) < d may differ within
    # a few dozen ulps of the bound.
    params = ModelParams(0.5, 0.15)
    topo = make_topology((6, 10))
    x, y, z = 0.9, 0.8, 0.5
    assert region_one_bounds([x, y, z], params, topo)
    on_hub = float(phi_hub(y, params, 6))
    on_middle = float(phi_middle(x, z, params, 10))
    on_leaf = float(phi_leaf(y, params))
    for i, state in enumerate(([on_hub, y, z], [x, on_middle, z], [x, y, on_leaf])):
        assert not region_one_bounds(state, params, topo)
        state[i] = np.nextafter(state[i], 2.0)
        assert region_one_bounds(state, params, topo)


@pytest.mark.parametrize("fake_map, closed", [
    (lambda d, params, topo: np.zeros_like(d), False),
    (lambda d, params, topo: np.asarray(d, dtype=float), True),
], ids=["zero_map", "identity_map"])
def test_suite_region_checks_see_the_mapped_batch(monkeypatch, fake_map, closed):
    monkeypatch.setattr("starsis.verify.step_level", fake_map)
    checks = run_property_suite(ModelParams(0.5, 0.2), make_topology((6, 10)), seed=2)
    assert checks["region_one_closed_under_map"] is closed


@pytest.mark.parametrize("shape", [(6, 10), (6, 10, 4)])
def test_suite_threshold_check_reads_the_spectral_threshold(monkeypatch, shape):
    # critical_b is not the threshold for k >= 4, and on a sum of branching
    # entries its check could not fail.
    monkeypatch.setattr("starsis.verify.spectral_threshold", lambda a, branching: 0.1)
    checks = run_property_suite(ModelParams(0.5, 0.2), make_topology(shape), seed=2)
    assert checks["threshold_decreasing_in_branching"] is False


@pytest.mark.parametrize("z", [0.0, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("grid_n", [2, 41, 101])
def test_region_slice_equals_former_formula(z, grid_n):
    topo = make_topology((6, 10))
    for a, b in ((0.5, 0.08), (0.2, 0.5), (0.9, 0.03)):
        params = ModelParams(a, b)
        assert np.array_equal(region_slice(z, grid_n, params, topo),
                              loop_region_slice(z, grid_n, params, topo))


def test_coalescence_gap_batched_per_row():
    topo = make_topology((6, 10))
    rng = np.random.default_rng(3)
    p = rng.random((4, 2, topo.node_count))
    gaps = coalescence_gap(p, topo)
    assert gaps.shape == (4, 2, topo.k)
    for got, row in zip(gaps.reshape(-1, topo.k), p.reshape(-1, topo.node_count)):
        offs = topo.level_offsets
        want = [np.ptp(row[offs[m]:offs[m + 1]]) for m in range(topo.k)]
        assert got.tobytes() == np.array(want).tobytes()


def test_node_state_checks_only_the_last_axis():
    topo = make_topology((6, 10))
    n = topo.node_count
    assert as_node_state(np.zeros((3, 2, n)), topo).shape == (3, 2, n)
    for bad in (np.zeros(n + 1), np.zeros((2, n - 1)), np.zeros((n, 2)), np.float64(0.5)):
        with pytest.raises(ValueError):
            as_node_state(bad, topo)
    p = np.full((2, n), 0.5)
    p[1, 7] = np.nan
    with pytest.raises(ValueError):
        step_full(p, ModelParams(0.5, 0.1), topo)
    with pytest.raises(ValueError):
        reduce_state(p, topo)


@pytest.mark.parametrize("a, b, shape", [
    (0.8, 0.72, (32, 26, 14, 16, 3, 4)),
    (0.484, 0.767, (32, 41, 46)),
    (0.966, 0.36, (37, 15, 40, 31)),
])
def test_tail_curve_overflow_is_silent(a, b, shape):
    # Each of these made the solver print overflow and invalid-value
    # RuntimeWarnings from phi_hub and tail_curve on the caller's stderr.
    params = ModelParams(a, b)
    topo = make_topology(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve_fixed_point(params, topo)
        curves = sample_curves(params, topo, 200)
    assert np.all(np.isfinite(report.nontrivial_point))
    assert curves.shape == (200, 4)
