import numpy as np
import pytest

from starsis import (ModelParams, RegimeKind, SolverInvariantError,
                     classify_regime, critical_b, hub_gap, iterate,
                     make_topology, phi_hub, phi_leaf, phi_middle,
                     solve_fixed_point, spectral_threshold, step_level, tail_curve)


def tail_curve_closed_form_k3(y, a, b, n2):
    """Direct evaluation of the 3-level tail composition x(y) and z(y)."""
    z = b * y / (1 - a + a * b * y)
    x = 1 / b + (y - 1) / (b * (1 - a * y) * (1 - b * z) ** n2)
    return x, z


def test_critical_b_values():
    assert critical_b(0.5, (6, 10)) == pytest.approx(0.125, abs=1e-15)
    assert critical_b(0.5, (6,)) == pytest.approx(0.5 / np.sqrt(6), abs=1e-15)
    assert critical_b(0.5, (6, 10, 4)) == pytest.approx(0.5 / np.sqrt(20), abs=1e-15)


def test_critical_b_monotonicity():
    assert critical_b(0.5, (7, 10)) < critical_b(0.5, (6, 10))
    assert critical_b(0.5, (6, 11)) < critical_b(0.5, (6, 10))
    assert critical_b(0.6, (6, 10)) < critical_b(0.5, (6, 10))


def test_critical_b_validation():
    with pytest.raises(ValueError):
        critical_b(1.5, (6, 10))
    with pytest.raises(ValueError):
        critical_b(0.5, ())
    with pytest.raises(ValueError):
        critical_b(0.5, (6, 0))
    # A non-integral entry raises; (6.7, 10) must not be read as (6, 10).
    for branching in [(6.7, 10), (6, 10.2), (6, float("nan")), (6, float("inf"))]:
        with pytest.raises(ValueError, match="integers"):
            critical_b(0.5, branching)
        with pytest.raises(ValueError, match="integers"):
            spectral_threshold(0.5, branching + (4,))
    assert critical_b(0.5, (np.int64(6), 10.0)) == critical_b(0.5, (6, 10)) == 0.125


def test_classify_regime():
    topo = make_topology((6, 10))
    assert classify_regime(ModelParams(0.5, 0.08), topo).kind is RegimeKind.SUBCRITICAL
    assert classify_regime(ModelParams(0.5, 0.125), topo, eq_tol=1e-12).kind is RegimeKind.CRITICAL
    assert classify_regime(ModelParams(0.5, 0.15), topo).kind is RegimeKind.SUPERCRITICAL


@pytest.mark.parametrize("eq_tol", [-1e-12, np.nan])
def test_classify_regime_rejects_a_negative_or_nan_eq_tol(eq_tol):
    with pytest.raises(ValueError, match="eq_tol"):
        classify_regime(ModelParams(0.5, 0.15), make_topology((6, 10)), eq_tol=eq_tol)


def test_phi_values_at_endpoints():
    params = ModelParams(0.5, 0.08)
    assert phi_hub(0.0, params, 6) == 0.0
    assert phi_middle(0.0, 0.0, params, 10) == 0.0
    assert phi_leaf(0.0, params) == 0.0
    q = 0.92**6
    assert phi_hub(1.0, params, 6) == pytest.approx((1 - q) / (1 - 0.5 * q), abs=1e-16)
    params2 = ModelParams(0.5, 0.15)
    assert phi_middle(1.0, 0.0, params2, 10) == pytest.approx(0.15 / 0.575, abs=1e-16)
    assert phi_leaf(1.0, params2) == pytest.approx(0.15 / 0.575, abs=1e-16)


def test_phi_leaf_strictly_below_one():
    for a in (0.1, 0.5, 0.9):
        for b in (0.1, 0.5, 0.9):
            params = ModelParams(a, b)
            assert phi_leaf(1.0, params) < 1.0


def test_phi_middle_monotone_in_each_argument():
    params = ModelParams(0.5, 0.15)
    grid = np.linspace(0.0, 1.0, 100)
    for z in grid[::7]:
        vals = phi_middle(grid, z, params, 10)
        assert np.all(np.diff(vals) >= 0)
    for x in grid[::7]:
        vals = phi_middle(x, grid, params, 10)
        assert np.all(np.diff(vals) >= 0)


def test_tail_curve_matches_closed_form_k3():
    topo = make_topology((6, 10))
    for b in (0.08, 0.125, 0.15):
        params = ModelParams(0.5, b)
        for y in np.linspace(1e-3, 1.0, 57):
            d = tail_curve(y, params, topo)
            x_ref, z_ref = tail_curve_closed_form_k3(y, 0.5, b, 10)
            assert d[0] == pytest.approx(x_ref, abs=1e-14)
            assert d[1] == y
            assert d[2] == pytest.approx(z_ref, abs=1e-16)


def test_tail_curve_levels_invariant_under_map():
    # coordinates 2..k are partial fixed points along the curve
    for branching, b in [((6, 10), 0.15), ((6, 10, 4), 0.12)]:
        topo = make_topology(branching)
        params = ModelParams(0.5, b)
        for t in np.linspace(1e-3, 1.0, 31):
            d = tail_curve(t, params, topo)
            if np.any(d < 0.0) or np.any(d > 1.0):
                continue  # hub off the unit cube: map not applicable
            out = step_level(d, params, topo)
            assert np.max(np.abs(out[1:] - d[1:])) <= 1e-12


def test_tail_curve_rejects_zero():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.15)
    with pytest.raises(ValueError):
        tail_curve(0.0, params, topo)
    with pytest.raises(ValueError):
        tail_curve(-0.1, params, topo)


def test_tail_curve_hub_at_t_one_is_reciprocal_b():
    # numerator (d2 - 1) vanishes, leaving 1/b, which is flagged by being > 1
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.15)
    d = tail_curve(1.0, params, topo)
    assert d[0] == pytest.approx(1 / 0.15, rel=1e-12)
    assert d[0] > 1.0


def test_sign_change_counts_match_regime():
    topo = make_topology((6, 10))
    ts = np.linspace(1e-3, 1.0, 10_000)
    expected = {0.08: 0, 0.125: 0, 0.15: 1}
    for b, want in expected.items():
        h = hub_gap(ts, ModelParams(0.5, b), topo)
        assert np.all(np.isfinite(h))
        signs = np.sign(h)
        flips = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert flips == want, f"b={b}"


def test_solve_subcritical_reports_no_nontrivial_point():
    topo = make_topology((6, 10))
    report = solve_fixed_point(ModelParams(0.5, 0.08), topo)
    assert report.regime.kind is RegimeKind.SUBCRITICAL
    assert report.nontrivial_point is None


def test_solve_critical_reports_no_nontrivial_point():
    topo = make_topology((6, 10))
    report = solve_fixed_point(ModelParams(0.5, 0.125), topo)
    assert report.regime.kind is not RegimeKind.SUPERCRITICAL
    assert report.nontrivial_point is None


def test_solve_supercritical_dual_route():
    topo = make_topology((6, 10))
    report = solve_fixed_point(ModelParams(0.5, 0.15), topo)
    point = report.nontrivial_point
    assert point is not None
    assert np.all((point > 0.0) & (point < 1.0))
    assert report.iteration_residual <= 1e-10
    assert report.curve_root_residual <= 1e-10
    assert report.agreement <= 1e-11


def test_solve_supercritical_matches_long_iteration_oracle():
    # oracle: very long plain iteration at a tighter tolerance
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.15)
    oracle = iterate(np.ones(3), params, topo, tol=1e-14, max_iter=10**6).limit
    report = solve_fixed_point(params, topo)
    assert np.max(np.abs(report.nontrivial_point - oracle)) <= 1e-10


def test_solve_k4_supercritical():
    topo = make_topology((6, 10, 4))
    report = solve_fixed_point(ModelParams(0.5, 0.12), topo)
    assert report.regime.kind is RegimeKind.SUPERCRITICAL
    assert report.nontrivial_point is not None
    assert np.all((report.nontrivial_point > 0.0) & (report.nontrivial_point < 1.0))
    assert report.agreement <= 1e-11
    oracle = iterate(np.ones(4), ModelParams(0.5, 0.12), topo, tol=1e-14).limit
    assert np.max(np.abs(report.nontrivial_point - oracle)) <= 1e-10


def test_solve_k2_star():
    # 2-level star: threshold 0.5/sqrt(6) ~ 0.204
    topo = make_topology((6,))
    assert solve_fixed_point(ModelParams(0.5, 0.15), topo).nontrivial_point is None
    report = solve_fixed_point(ModelParams(0.5, 0.3), topo)
    assert report.nontrivial_point is not None
    assert report.agreement <= 1e-11
