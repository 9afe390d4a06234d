import pytest

from starsis import ModelParams, make_topology, slopes_at_zero
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
