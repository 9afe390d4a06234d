import re

import numpy as np
import pytest

from oracles import region_one_bounds
from starsis import (ModelParams, check_convexity, in_region_one,
                     make_topology, phi_hub, phi_hub_inverse, phi_leaf, phi_middle,
                     region_slice, sample_curves, slopes_at_zero, step_level,
                     tail_composition)


TOPO = make_topology((6, 10))


def test_region_membership_corners():
    params = ModelParams(0.5, 0.08)
    assert in_region_one([1.0, 1.0, 1.0], params, TOPO)
    assert not in_region_one([0.0, 0.0, 0.0], params, TOPO)


def test_region_membership_matches_direct_bounds():
    params = ModelParams(0.5, 0.08)
    x, y, z = 0.9, 0.8, 0.5
    expected = (
        x > phi_hub(y, params, 6)
        and y > phi_middle(x, z, params, 10)
        and z > phi_leaf(y, params)
    )
    assert in_region_one([x, y, z], params, TOPO) == expected


def test_region_requires_three_levels():
    # Only the 2-D slice is a 3-level notion; membership holds for any k.
    params = ModelParams(0.5, 0.08)
    topo = make_topology((6,))
    with pytest.raises(ValueError):
        region_slice(0.5, 11, params, topo)
    assert in_region_one([1.0, 1.0], params, topo)
    assert not in_region_one([0.0, 0.0], params, topo)
    with pytest.raises(ValueError):
        in_region_one(0.5, params, topo)
    # A batch is not one state, whatever its row count.
    for shape in [(2, 3), (3, 3)]:
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            in_region_one(np.ones(shape), params, TOPO)


@pytest.mark.parametrize("z, grid_n", [(-0.1, 11), (1.1, 11), (np.nan, 11), (0.5, 1)])
def test_region_slice_rejects_bad_height_or_grid(z, grid_n):
    with pytest.raises(ValueError):
        region_slice(z, grid_n, ModelParams(0.5, 0.08), TOPO)


def test_unit_corner_is_outside_where_the_hub_rounds_to_one():
    # T_1(1) = 1 - 0.5 * 0.1**50 rounds to 1.0: the hub does not decrease,
    # though the other two levels do.
    params = ModelParams(0.5, 0.9)
    topo = make_topology((50, 2))
    image = step_level(np.ones(3), params, topo)
    assert image[0] == 1.0 and np.all(image[1:] < 1.0)
    assert not in_region_one(np.ones(3), params, topo)


def test_region_slice_empty_at_z_zero():
    params = ModelParams(0.5, 0.08)
    mask = region_slice(0.0, 51, params, TOPO)
    assert not mask.any()


def test_region_slice_nonempty_and_z_dependent():
    params = ModelParams(0.5, 0.08)
    low = region_slice(0.25, 51, params, TOPO)
    high = region_slice(0.75, 51, params, TOPO)
    assert low.any()
    assert high.any()
    # membership concentrates toward the (1,1) corner of the square
    assert low[-1, -1]
    assert high[-1, -1]
    # raising z eases the leaf bound but tightens the middle-level bound,
    # so the slices genuinely depend on z without being nested
    assert not np.array_equal(low, high)


@pytest.mark.parametrize("shape", [(6,), (6, 10), (6, 10, 4)])
def test_region_bounds_are_where_the_map_decreases(shape):
    # T_m(d) - d_m falls strictly in d_m and is 0 at the level's partial
    # fixed point, so a state is above every bound iff T(d) < d.
    rng = np.random.default_rng(11)
    topo = make_topology(shape)
    for b in (0.08, 0.15):
        params = ModelParams(0.5, b)
        d = np.vstack([rng.random((3000, topo.k)), np.ones(topo.k), np.zeros(topo.k)])
        inside = region_one_bounds(d.T, params, topo)
        decrease = np.all(step_level(d, params, topo) < d, axis=-1)
        assert np.array_equal(inside, decrease)
        assert inside[-2] and not inside[-1]
        assert inside.sum() > 10


def test_strict_decrease_on_region_points():
    rng = np.random.default_rng(11)
    for b in (0.08, 0.15):
        params = ModelParams(0.5, b)
        assert np.all(step_level(np.ones(3), params, TOPO) < 1.0)
        found = 0
        for d in rng.random((3000, 3)):
            if in_region_one(d, params, TOPO):
                assert np.all(step_level(d, params, TOPO) < d)
                found += 1
        assert found > 10


def test_strict_decrease_rejects_outside_points():
    # The zero state is a fixed point, so it is outside Region I.
    params = ModelParams(0.5, 0.08)
    zero = np.zeros(3)
    assert not in_region_one(zero, params, TOPO)
    assert np.array_equal(step_level(zero, params, TOPO), zero)


def test_region_closed_under_map():
    rng = np.random.default_rng(12)
    params = ModelParams(0.5, 0.08)
    for d in rng.random((3000, 3)):
        if in_region_one(d, params, TOPO):
            assert in_region_one(step_level(d, params, TOPO), params, TOPO)


def test_region_start_yields_monotone_decay_to_zero():
    params = ModelParams(0.5, 0.08)
    d = np.ones(3)
    for _ in range(200):
        nxt = step_level(d, params, TOPO)
        assert np.all(nxt <= d)
        d = nxt
    assert np.max(d) < 1e-10


def test_check_convexity_known_functions():
    convex = check_convexity(lambda t: t * t, (0.0, 1.0), 101)
    assert convex.convex and not convex.concave
    concave = check_convexity(lambda t: -t * t, (0.0, 1.0), 101)
    assert concave.concave and not concave.convex
    affine = check_convexity(lambda t: 0.3 * t + 1.0, (0.0, 1.0), 101)
    assert affine.convex and affine.concave
    wiggle = check_convexity(lambda t: np.sin(20 * t), (0.0, 1.0), 101)
    assert not wiggle.convex and not wiggle.concave
    # second differences of -2e-13, inside the 1e-12 tolerance: both facts
    flat = check_convexity(lambda t: -1e-9 * t * t, (0.0, 1.0), 101)
    assert flat.convex and flat.concave
    half_nan = check_convexity(lambda t: np.where(t < 0.5, t, np.nan), (0.0, 1.0), 101)
    assert not half_nan.convex and not half_nan.concave


def test_check_convexity_validation():
    with pytest.raises(ValueError):
        check_convexity(lambda t: t, (1.0, 0.0), 10)
    with pytest.raises(ValueError):
        check_convexity(lambda t: t, (0.0, 1.0), 2)


def test_hub_curve_convexity_directions():
    # the hub curve is concave as d1 versus d2 and convex in the flipped
    # frame d2 versus d1, which is the frame used for intersection counting
    params = ModelParams(0.5, 0.08)
    forward = check_convexity(lambda t: phi_hub(t, params, 6), (0.0, 1.0), 2000)
    assert forward.concave and not forward.convex
    flipped = check_convexity(lambda x: phi_hub_inverse(x, params, 6), (0.0, 1.0), 2000)
    assert flipped.convex
    leaf = check_convexity(lambda t: phi_leaf(t, params), (0.0, 1.0), 2000)
    assert leaf.concave and not leaf.convex


def test_phi_hub_inverse_round_trip():
    params = ModelParams(0.5, 0.15)
    ys = np.linspace(0.0, 1.0, 50)
    back = phi_hub_inverse(phi_hub(ys, params, 6), params, 6)
    assert np.max(np.abs(back - ys)) < 1e-12


def test_tail_composition_concave():
    for b in (0.08, 0.125, 0.15):
        params = ModelParams(0.5, b)
        report = check_convexity(lambda x: tail_composition(x, params, TOPO), (1e-3, 1.0), 500)
        assert report.concave and not report.convex, f"b={b}"


def test_slopes_closed_form_values():
    params = ModelParams(0.5, 0.08)
    rep = slopes_at_zero(params, TOPO)
    assert rep.hub_slope == pytest.approx(0.96, abs=1e-15)
    assert rep.tail_slope == pytest.approx(4.65, abs=1e-12)
    assert rep.hub_slope_fd == pytest.approx(rep.hub_slope, rel=1e-6)
    assert rep.tail_slope_fd == pytest.approx(rep.tail_slope, rel=1e-6)


def test_slopes_equal_at_threshold():
    params = ModelParams(0.5, 0.125)
    rep = slopes_at_zero(params, TOPO)
    # both equal b * n1 / (1 - a) = 0.125 * 6 / 0.5 at the threshold
    assert rep.hub_slope == pytest.approx(1.5, abs=1e-12)
    assert rep.tail_slope == pytest.approx(1.5, abs=1e-12)
    # algebraic identity b^2 (n1 + n2) = (1 - a)^2 at threshold
    assert 0.125**2 * 16 == pytest.approx(0.25, abs=1e-15)


def test_sample_curves_intersection_counts():
    expected = {0.08: 0, 0.125: 0, 0.15: 1}
    for b, want in expected.items():
        table = sample_curves(ModelParams(0.5, b), TOPO, 5000)
        diff = table[:, 2] - table[:, 1]
        signs = np.sign(diff)
        flips = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert flips == want, f"b={b}"


def test_sample_curves_shape_and_validation():
    table = sample_curves(ModelParams(0.5, 0.08), TOPO, 2)
    assert table.shape == (2, 4)
    with pytest.raises(ValueError):
        sample_curves(ModelParams(0.5, 0.08), TOPO, 1)
