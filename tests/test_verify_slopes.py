import pytest

import starsis.verify as verify
from starsis import (ModelParams, Regime, RegimeKind, make_topology, slopes_at_zero,
                     spectral_threshold)
from starsis.verify import run_property_suite

TOPO = make_topology((6, 10))


@pytest.mark.parametrize("a, b", [(0.5, 0.1625), (0.8, 0.5), (0.2, 0.25)])
def test_slope_estimates_within_suite_tolerance(a, b):
    # points where the one-sided secant f(h)/h missed the closed forms by
    # more than the suite's 1e-6 relative tolerance
    rep = slopes_at_zero(ModelParams(a, b), TOPO)
    assert rep.hub_slope_fd == pytest.approx(rep.hub_slope, rel=1e-6)
    assert rep.tail_slope_fd == pytest.approx(rep.tail_slope, rel=1e-6)


def test_suite_slope_check_passes_where_tail_slope_is_small():
    checks = run_property_suite(ModelParams(0.5, 0.1625), TOPO)
    assert checks["slope_formulas_match_finite_differences"]
    assert all(checks.values()), checks


@pytest.mark.parametrize("a, branching", [(0.5, (6, 10)), (0.2, (50, 2))])
@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
def test_sign_change_check_sees_the_root_just_above_the_threshold(a, branching, eps):
    # t* = d2* lies below 1e-3 here, so the sign-change grid must start below it.
    b = spectral_threshold(a, branching) * (1.0 + eps)
    checks = run_property_suite(ModelParams(a, b), make_topology(branching))
    assert checks["tail_curve_sign_changes_match_regime"]
    assert all(checks.values()), checks


@pytest.mark.parametrize("r", [1.0 + 1e-4, 1.2, 1.0 - 1e-4, 0.5])
def test_sign_change_check_fails_for_the_wrong_regime(monkeypatch, r):
    params = ModelParams(0.5, r * spectral_threshold(0.5, (6, 10)))
    wrong = RegimeKind.SUBCRITICAL if r > 1.0 else RegimeKind.SUPERCRITICAL
    monkeypatch.setattr(verify, "classify_regime",
                        lambda params, topo, eq_tol=0.0: Regime(wrong, 0.125))
    assert not run_property_suite(params, TOPO)["tail_curve_sign_changes_match_regime"]
