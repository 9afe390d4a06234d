"""Spectral threshold and the Newton route of solve_fixed_point against an mpmath oracle."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import starsis.fixedpoint as fixedpoint
from oracles import fixed_point_mp
from starsis import (ModelParams, RegimeKind, SolverInvariantError, classify_regime,
                     critical_b, make_topology, solve_fixed_point, spectral_threshold)
from starsis.cli import main
from starsis.fixedpoint import level_matrix

TREES = [(6, 10), (6, 10, 4), (2, 2, 2, 2, 2, 2), (30, 30, 10)]
EPSILONS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]


def symmetric_tridiagonal_radius(branching):
    """rho(M) built independently: the symmetric tridiagonal with off-diagonals sqrt(n_m)."""
    k = len(branching) + 1
    t = np.zeros((k, k))
    for m, n in enumerate(branching):
        t[m, m + 1] = t[m + 1, m] = np.sqrt(n)
    return np.linalg.eigvalsh(t)[-1]


@pytest.mark.parametrize("branching", TREES)
@pytest.mark.parametrize("eps", EPSILONS)
def test_newton_point_matches_mpmath_near_threshold(branching, eps):
    # The fixed point's condition number grows as 1 / eps, so float64 has a
    # relative error floor of about u / eps; the bound allows 9 u / eps.
    b = spectral_threshold(0.5, branching) * (1.0 + eps)
    report = solve_fixed_point(ModelParams(0.5, b), make_topology(branching))
    assert report.regime.kind is RegimeKind.SUPERCRITICAL
    oracle = fixed_point_mp(0.5, b, branching)
    rel = np.max(np.abs(report.nontrivial_point - oracle) / oracle)
    assert rel <= 1e-15 / eps


def test_k4_between_closed_form_and_spectral_threshold_is_subcritical():
    topo = make_topology((6, 10, 4))
    params = ModelParams(0.5, 0.113)
    assert critical_b(0.5, (6, 10, 4)) < 0.113 < spectral_threshold(0.5, (6, 10, 4))
    report = solve_fixed_point(params, topo)
    assert report.regime.kind is RegimeKind.SUBCRITICAL
    assert report.regime.b_crit == spectral_threshold(0.5, (6, 10, 4))
    assert report.nontrivial_point is None


@pytest.mark.parametrize("a", np.linspace(0.01, 0.99, 15))
def test_spectral_threshold_is_critical_b_bitwise_up_to_three_levels(a):
    for branching in [(n,) for n in range(1, 31)] + [(n1, n2) for n1 in range(1, 16)
                                                     for n2 in range(1, 16)]:
        b_crit = classify_regime(ModelParams(a, 0.5), make_topology(branching)).b_crit
        assert b_crit == critical_b(a, branching), branching


@pytest.mark.parametrize("branching", [(6, 10, 4), (2, 2, 2, 2, 2, 2), (30, 30, 10),
                                       (5, 5, 5, 5), (10, 3, 3, 3, 2)])
def test_spectral_threshold_from_k4_on(branching):
    rho = symmetric_tridiagonal_radius(branching)
    assert spectral_threshold(0.3, branching) == pytest.approx(0.7 / rho, rel=1e-15)
    assert spectral_threshold(0.3, branching) > critical_b(0.3, branching)
    # (aI + bM) has spectral radius exactly 1 at the threshold.
    b = spectral_threshold(0.3, branching)
    step = 0.3 * np.eye(len(branching) + 1) + b * level_matrix(branching)
    assert np.max(np.abs(np.linalg.eigvals(step))) == pytest.approx(1.0, rel=1e-14)


def test_spectral_radius_is_computed_once_per_branching(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counting(x):
        calls.append(1)
        return eigvalsh(x)

    rng = np.random.default_rng(23)
    pool = [tuple(int(n) for n in rng.integers(1, 51, size=rng.integers(3, 8)))
            for _ in range(120)]
    draws = [pool[i] for i in rng.integers(0, len(pool), size=200)]
    fixedpoint._spectral_radius.cache_clear()
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for branching in draws:
        a = float(rng.uniform(0.01, 0.99))
        m = level_matrix(branching)
        fresh = (1.0 - a) / eigvalsh(np.sqrt(m * m.T))[-1]
        assert spectral_threshold(a, branching) == fresh, branching
    assert len(calls) == len(set(draws))
    fixedpoint._spectral_radius.cache_clear()


@pytest.mark.parametrize("k", range(2, 8))
def test_threshold_reads_a_one_shot_branching_once(k):
    branching = (6, 10, 4, 3, 2, 5)[:k - 1]
    forms = [lambda: iter(branching), lambda: (n for n in branching),
             lambda: map(int, branching), lambda: branching, lambda: list(branching),
             lambda: np.array(branching)]
    expected = spectral_threshold(0.5, branching), critical_b(0.5, branching)
    for form in forms:
        got = spectral_threshold(0.5, form()), critical_b(0.5, form())
        assert got == expected, form()


def test_level_matrix_rows():
    assert level_matrix((6, 10)).tolist() == [[0, 6, 0], [1, 0, 10], [0, 1, 0]]


def test_formerly_off_domain_case_returns_the_mpmath_point():
    report = solve_fixed_point(ModelParams(0.5, 0.3), make_topology((2, 2, 2, 2, 2, 2)))
    oracle = fixed_point_mp(0.5, 0.3, (2, 2, 2, 2, 2, 2))
    assert np.max(np.abs(report.nontrivial_point - oracle) / oracle) <= 1e-15
    assert report.agreement <= 1e-12


@pytest.mark.parametrize("a, b, branching", [(0.5, 0.999, (6, 10)), (0.1, 0.9, (2, 50))])
def test_newton_point_where_levels_round_to_one(a, b, branching):
    # A level within u of 1 rounds to 1.0; Newton still lands on the oracle.
    # The tail curve is parameterised by that level, so its check is
    # ill-posed here and agreement is not asserted.
    report = solve_fixed_point(ModelParams(a, b), make_topology(branching))
    oracle = fixed_point_mp(a, b, branching)
    assert np.max(report.nontrivial_point) == 1.0
    assert np.max(np.abs(report.nontrivial_point - oracle) / oracle) <= 1e-15


def test_solve_path_uses_a_short_warm_start_and_a_local_bracket(monkeypatch):
    calls = {"iterate": [], "bracket": []}
    iterate, bracket = fixedpoint.iterate, fixedpoint._bracket_root

    def spy_iterate(*args, **kwargs):
        calls["iterate"].append(kwargs.get("max_iter"))
        return iterate(*args, **kwargs)

    def spy_bracket(params, topo, t_start, grid_points, t_end):
        calls["bracket"].append((t_start, t_end))
        return bracket(params, topo, t_start, grid_points=grid_points, t_end=t_end)

    monkeypatch.setattr(fixedpoint, "iterate", spy_iterate)
    monkeypatch.setattr(fixedpoint, "_bracket_root", spy_bracket)
    report = solve_fixed_point(ModelParams(0.5, 0.15), make_topology((6, 10)))
    t_star = report.nontrivial_point[1]
    assert calls["iterate"] == [8]
    assert calls["bracket"]
    for t_start, t_end in calls["bracket"]:
        assert t_star * (1 - 1e-6) <= t_start < t_end <= t_star * (1 + 1e-6)


def test_newton_stops_on_stagnation_at_the_float64_floor():
    # At eps = 1e-8 the floor u / eps is about 1e-8, far above the 4u step
    # test; the iteration must still end, and within the floor of the oracle.
    branching = (6, 10)
    b = spectral_threshold(0.5, branching) * (1.0 + 1e-8)
    params, topo = ModelParams(0.5, b), make_topology(branching)
    warm = np.ones(3)
    point = fixedpoint._newton(warm, params, topo)
    oracle = fixed_point_mp(0.5, b, branching)
    assert np.max(np.abs(point - oracle) / oracle) <= 1e-7


def test_thomas_solve_matches_dense_solve():
    rng = np.random.default_rng(3)
    k = 7
    lower, upper = rng.random(k - 1), rng.random(k - 1)
    diag = -(2.5 + rng.random(k))
    rhs = rng.random(k)
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    np.testing.assert_allclose(fixedpoint._thomas(lower, diag, upper, rhs),
                               np.linalg.solve(dense, rhs), rtol=1e-14)


@pytest.mark.parametrize("branching", TREES)
def test_newton_point_is_its_own_newton_limit(branching):
    # The stopping rule must not stop short of the float64 floor: Newton
    # restarted from its own answer moves it by a few ulps at most.
    topo = make_topology(branching)
    b_spec = spectral_threshold(0.5, branching)
    for r in np.linspace(1.5, min(0.95 / b_spec, 3.0), 10):
        params = ModelParams(0.5, r * b_spec)
        point = solve_fixed_point(params, topo).nontrivial_point
        again = fixedpoint._newton(point, params, topo)
        assert np.max(np.abs(again - point) / point) <= 8 * np.finfo(float).eps / 2


@pytest.mark.parametrize("half_width", [1e-3, 1e-1])
def test_bisection_reaches_a_relative_width_of_4u(half_width):
    # Grid passes of at most 4096 points: four at 1e-3, five at 1e-1.
    params, topo = ModelParams(0.5, 0.15), make_topology((6, 10))
    t_star = solve_fixed_point(params, topo).nontrivial_point[1]
    root = fixedpoint._bisect_root(params, topo, t_star * (1 - half_width),
                                   t_star * (1 + half_width))
    assert abs(root - t_star) <= 1e-13 * t_star


@pytest.mark.parametrize("a, r, branching", [(0.5, None, (6, 10)), (0.5, 1.01, (6, 10)),
                                             (0.5, 1.1, (2, 2, 2, 2, 2, 2))])
def test_curve_check_makes_few_hub_gap_calls(monkeypatch, a, r, branching):
    # The curve check narrows its bracket by whole grid passes of hub_gap.
    b = 0.15 if r is None else r * spectral_threshold(a, branching)
    calls = []
    hub_gap = fixedpoint.hub_gap

    def counting(t, params, topo):
        calls.append(t)
        return hub_gap(t, params, topo)

    monkeypatch.setattr(fixedpoint, "hub_gap", counting)
    report = solve_fixed_point(ModelParams(a, b), make_topology(branching))
    assert report.agreement <= 1e-13
    assert 2 <= len(calls) <= 4


@pytest.mark.parametrize("a, b, branching", [
    (0.5, 0.999, (6, 10)), (0.1, 0.9, (2, 50)), (0.5, 0.9, (6, 10, 4)),
    (0.8, 0.72, (32, 26, 14, 16, 3, 4)),
    (0.5, 0.6, (24, 44, 40, 28)),  # the curve route finds no sign change here
])
def test_points_the_curve_check_misses_are_accepted_with_a_tight_bound(a, b, branching):
    report = solve_fixed_point(ModelParams(a, b), make_topology(branching))
    oracle = fixed_point_mp(a, b, branching)
    point, bound = report.nontrivial_point, report.error_bound
    assert np.max(np.abs(point - oracle) / oracle) <= 1e-15
    assert np.all(np.abs(point - oracle) <= bound)
    assert np.max(bound / point) <= 1e-13


def test_error_bound_is_zero_below_the_threshold():
    report = solve_fixed_point(ModelParams(0.5, 0.1), make_topology((6, 10)))
    assert report.error_bound.tolist() == [0.0, 0.0, 0.0]


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(branching=st.lists(st.integers(1, 50), min_size=1, max_size=7),
       a=st.floats(0.01, 0.99), q=st.floats(0.0, 1.0))
def test_error_bound_covers_the_mpmath_error_over_the_random_domain(branching, a, q):
    # b / b_spec is log-uniform from 1 + 1e-8 up to b = 0.999.
    b_spec = spectral_threshold(a, branching)
    lo, hi = np.log1p(1e-8), np.log(0.999 / b_spec)
    b = b_spec * np.exp(lo + q * (hi - lo))
    report = solve_fixed_point(ModelParams(a, b), make_topology(branching))
    oracle = fixed_point_mp(a, b, branching, dps=40)
    assert np.all(np.abs(report.nontrivial_point - oracle) <= report.error_bound)


def _nan_jacobian(monkeypatch):
    log_residual = fixedpoint._log_residual

    def nan_diagonal(d, params, topo):
        f, diag, lower, upper = log_residual(d, params, topo)
        return f, np.full_like(diag, np.nan), lower, upper

    monkeypatch.setattr(fixedpoint, "_log_residual", nan_diagonal)


def _tiny_bound_limit(monkeypatch):
    monkeypatch.setattr(fixedpoint, "_MAX_REL_ERROR", 1e-16)


@pytest.mark.parametrize("fault, message", [(_nan_jacobian, "Newton did not converge"),
                                            (_tiny_bound_limit, "error bound")])
def test_a_rejected_solve_raises_and_the_cli_exits_3(monkeypatch, capsys, fault, message):
    fault(monkeypatch)
    with pytest.raises(SolverInvariantError, match=message):
        solve_fixed_point(ModelParams(0.5, 0.15), make_topology((6, 10)))
    assert main(["fixedpoint", "--a", "0.5", "--b", "0.15", "--branching", "6,10"]) == 3
    assert message in capsys.readouterr().err


def _nan_in_bound(level):
    def fault(monkeypatch):
        # Newton runs first; the next tridiagonal solve is the error bound's.
        newton, thomas = fixedpoint._newton, fixedpoint._thomas
        solved = []

        def flag_newton(*args):
            point = newton(*args)
            solved.append(True)
            return point

        def nan_after_newton(*args):
            x = thomas(*args)
            if solved:
                x[level] = math.nan
            return x

        monkeypatch.setattr(fixedpoint, "_newton", flag_newton)
        monkeypatch.setattr(fixedpoint, "_thomas", nan_after_newton)
    return fault


def _nan_in_step(level):
    def fault(monkeypatch):
        # NaN in Newton's last step, where the other levels' steps would
        # pass its stop test; the error bound's solve is left alone.
        newton, thomas = fixedpoint._newton, fixedpoint._thomas
        solving = []

        def flag_newton(*args):
            solving.append(True)
            try:
                return newton(*args)
            finally:
                solving.clear()

        def nan_last_step(*args):
            x = thomas(*args)
            if solving and max(abs(v) for v in x) <= 1e-15:
                x[level] = math.nan
            return x

        monkeypatch.setattr(fixedpoint, "_newton", flag_newton)
        monkeypatch.setattr(fixedpoint, "_thomas", nan_last_step)
    return fault


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("fault, message", [(_nan_in_bound, "error bound"),
                                            (_nan_in_step, "Newton did not converge")])
def test_a_nan_past_the_hub_level_raises(monkeypatch, fault, message, level):
    # Python's max and min keep a NaN only in first place; the solve must
    # reject one at any level, as np.max and np.minimum did.
    fault(level)(monkeypatch)
    with pytest.raises(SolverInvariantError, match=message):
        solve_fixed_point(ModelParams(0.5, 0.15), make_topology((6, 10)))


# (a, b, branching) above the threshold, with a and b exact doubles: k = 2..8,
# r = b / b_spec from 1 + 1e-8 up to points with a level that rounds to 1,
# and points the curve check misses.
PINNED_SOLVES = [
    (0.5, 0.15, (6, 10)), (0.5, 0.12500000125, (6, 10)), (0.5, 0.126, (6, 10)),
    (0.5, 0.999, (6, 10)), (0.1, 0.9, (2, 50)), (0.1, 0.124807545398752, (2, 50)),
    (0.9, 0.02080125735844609, (50, 2)), (0.25, 0.6, (3,)), (0.6, 0.2, (3, 4, 5)),
    (0.5, 0.2, (6, 10, 4)), (0.5, 0.11556933969135035, (6, 10, 4)), (0.5, 0.9, (6, 10, 4)),
    (0.5, 0.3, (2, 2, 2, 2, 2, 2)), (0.3, 0.2678784053343468, (2, 2, 2, 2, 2, 2)),
    (0.7, 0.07745974438381527, (5, 5, 5, 5)), (0.5, 0.061827074920300075, (30, 30, 10)),
    (0.2, 0.21463253543247732, (10, 3, 3, 3, 2)), (0.8, 0.72, (32, 26, 14, 16, 3, 4)),
    (0.5, 0.6, (24, 44, 40, 28)), (0.05, 0.7, (1, 1, 1, 1, 1, 1, 1)),
]
# sha256 of nontrivial_point.tobytes() + error_bound.tobytes() over the cases
# above, taken with numpy 2.4.6.  The solve runs on Python floats and math's
# libm functions, so one digest holds with and without AVX-512.
PINNED_SOLVES_SHA256 = "5a235ea7474156d324034977309dab4491d4b5fe36dd275fe3a1dd9504e32178"


def test_pinned_solve_bytes():
    digest = hashlib.sha256()
    for a, b, branching in PINNED_SOLVES:
        report = solve_fixed_point(ModelParams(a, b), make_topology(branching))
        digest.update(report.nontrivial_point.tobytes() + report.error_bound.tobytes())
    assert digest.hexdigest() == PINNED_SOLVES_SHA256
