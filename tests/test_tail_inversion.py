"""Batched tail-curve inversion and bracket search against their loop oracles and mpmath."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import starsis.fixedpoint as fixedpoint
from starsis import (ModelParams, SolverInvariantError, check_convexity, hub_gap,
                     make_topology, phi_hub_inverse, tail_composition, tail_curve,
                     tail_state_of_hub)


def scalar_state(t, params, topo):
    """Tail-curve state at one t in numpy scalar arithmetic."""
    return tail_curve(t, params, topo)


def array_state(t, params, topo):
    """Tail-curve state at one t in numpy array arithmetic, as the batch computes it."""
    return tail_curve(np.array([t]), params, topo)[0]


def oracle_tail_state_of_hub(d1, params, topo, t_min=1e-14, state=scalar_state):
    """One-target inversion: geometric expansion from t_min, then bisection.

    This is the bisection reference for the library's inversion.  `state`
    picks the arithmetic: numpy's scalar and array `**` can differ in the
    last ulp, which the cancellation in tail_curve amplifies at small b.
    """
    if d1 <= 0.0:
        raise ValueError("d1 must be positive")

    def f(t):
        return float(state(t, params, topo)[0]) - d1

    lo = t_min
    if f(lo) >= 0.0:
        raise SolverInvariantError(f"hub inversion: d1={d1} below curve start at t={t_min}")
    hi = lo
    while True:
        nxt = min(hi * 1.5, 1.0)
        v = f(nxt)
        if np.isfinite(v) and v >= 0.0:
            hi = nxt
            break
        if not np.isfinite(v) or nxt >= 1.0:
            raise SolverInvariantError(f"hub inversion: no bracket for d1={d1}")
        hi = nxt
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return state(0.5 * (lo + hi), params, topo)


def oracle_bracket(ts, h):
    """The former loop of _bracket_root over a sampled hub_gap."""
    finite = np.isfinite(h)
    for i in range(len(ts) - 1):
        if finite[i] and finite[i + 1] and h[i] * h[i + 1] < 0.0:
            return ts[i], ts[i + 1]
        if finite[i + 1] and h[i + 1] == 0.0:
            return ts[i + 1], ts[i + 1]
    return None


def outcome(fn):
    try:
        return fn(), None
    except (ValueError, SolverInvariantError) as exc:
        return None, type(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    a=st.floats(0.01, 0.99),
    b=st.floats(0.01, 0.99),
    branching=st.lists(st.integers(1, 12), min_size=2, max_size=4),
    d1s=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4),
)
def test_batch_matches_one_target_oracle(a, b, branching, d1s):
    params = ModelParams(a, b)
    topo = make_topology(tuple(branching))
    for d1 in d1s:
        got, got_err = outcome(lambda: tail_state_of_hub(d1, params, topo))
        want, want_err = outcome(
            lambda: oracle_tail_state_of_hub(d1, params, topo, state=array_state))
        assert got_err is want_err, (d1, got_err, want_err)
        if want is not None:
            t = got[topo.k - 2]
            assert abs(t - want[topo.k - 2]) <= 1e-13, (d1, t - want[topo.k - 2])
            assert np.array_equal(got, tail_curve(np.array([t]), params, topo)[0])
    batch, batch_err = outcome(lambda: tail_state_of_hub(np.array(d1s), params, topo))
    singles = [outcome(lambda: tail_state_of_hub(d1, params, topo)) for d1 in d1s]
    errors = [err for _, err in singles if err is not None]
    if errors:
        assert batch_err is errors[0]
    else:
        assert batch_err is None
        assert np.array_equal(batch, np.array([s for s, _ in singles]))


@pytest.mark.parametrize("b, branching", [(0.08, (6, 10)), (0.125, (6, 10)),
                                          (0.15, (6, 10)), (0.3, (6, 10)),
                                          (0.12, (6, 10, 4))])
def test_batch_matches_scalar_oracle_on_figure_cases(b, branching):
    params = ModelParams(0.5, b)
    topo = make_topology(branching)
    grid = np.linspace(1e-3, 1.0, 100)
    want = np.array([oracle_tail_state_of_hub(x, params, topo) for x in grid])
    assert np.max(np.abs(tail_state_of_hub(grid, params, topo) - want)) <= 1e-13


def test_batch_ties_follow_one_target_rule():
    # targets equal to curve values the inversion itself evaluates: the curve
    # start raises, and an expansion grid point is found within 1e-15
    params = ModelParams(0.5, 0.15)
    topo = make_topology((6, 10))
    t_min = g = 1e-14
    for _ in range(40):
        g *= 1.5
    got, got_err = outcome(lambda: tail_state_of_hub(
        float(array_state(t_min, params, topo)[0]), params, topo))
    assert got is None and got_err is SolverInvariantError
    got = tail_state_of_hub(float(array_state(g, params, topo)[0]), params, topo)
    assert abs(got[topo.k - 2] - g) <= 1e-15


def mp_curve_hub(t, a, b, branching):
    """tail_curve's hub value at t, in mpmath at the working precision."""
    n = list(branching)
    k = len(n) + 1
    d = [mpmath.mpf(0)] * k
    d[k - 2] = t
    d[k - 1] = b * t / (1 - a + a * b * t)
    for m in range(k - 1, 1, -1):
        d[m - 2] = 1 / b + (d[m - 1] - 1) / (b * (1 - a * d[m - 1]) * (1 - b * d[m]) ** n[m - 1])
    return d[0]


@pytest.mark.parametrize("a, b, branching", [(0.5, 0.08, (6, 10)), (0.5, 0.125, (6, 10)),
                                             (0.5, 0.15, (6, 10)), (0.5, 0.3, (6, 10)),
                                             (0.5, 0.12, (6, 10, 4)),
                                             (0.163, 0.0215, (7, 2, 6, 9))])
def test_inversion_matches_mpmath(a, b, branching):
    # t, not the hub value: at small b the float64 curve's hub value carries
    # 1e-11 of rounding noise, but its slope in t is large there
    params = ModelParams(a, b)
    topo = make_topology(branching)
    d1s = np.linspace(1e-3, 1.0, 20)
    ts = tail_state_of_hub(d1s, params, topo)[:, topo.k - 2]
    with mpmath.workdps(50):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        for d1, t in zip(d1s, ts):
            def gap(x):
                return mp_curve_hub(x, ma, mb, branching) - mpmath.mpf(d1)

            lo, hi = mpmath.mpf(t) - mpmath.mpf(1e-13), mpmath.mpf(t) + mpmath.mpf(1e-13)
            assert gap(lo) < 0 <= gap(hi), (d1, t)
            for _ in range(45):
                mid = (lo + hi) / 2
                if gap(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            assert abs(t - lo) <= 1e-14, (d1, float(t - lo))


@pytest.mark.parametrize("b", [0.08, 0.125, 0.15, 0.158, 0.3, 0.9])
def test_refinement_pass_count(monkeypatch, b):
    calls = []
    kernel = fixedpoint._tail_curve

    def counted(t, params, topo):
        calls.append(t.size)
        return kernel(t, params, topo)

    monkeypatch.setattr(fixedpoint, "_tail_curve", counted)
    tail_composition(np.linspace(1e-3, 1.0, 500), ModelParams(0.5, b), make_topology((6, 10)))
    # one call evaluates the expansion grid and one the returned states
    assert len(calls) - 2 <= 25, len(calls)


def test_batch_shape_contract():
    params = ModelParams(0.5, 0.15)
    topo = make_topology((6, 10))
    grid = np.linspace(0.05, 0.95, 12)
    flat = tail_state_of_hub(grid, params, topo)
    assert tail_state_of_hub(0.5, params, topo).shape == (3,)
    assert flat.shape == (12, 3)
    assert np.array_equal(tail_state_of_hub(grid.reshape(3, 4), params, topo),
                          flat.reshape(3, 4, 3))
    assert np.array_equal(tail_state_of_hub(grid[4], params, topo), flat[4])
    assert isinstance(tail_composition(0.5, params, topo), float)
    assert np.array_equal(tail_composition(grid.reshape(3, 4), params, topo),
                          flat[:, 1].reshape(3, 4))


def test_batch_errors():
    params = ModelParams(0.5, 0.15)
    topo = make_topology((6, 10))
    with pytest.raises(ValueError):
        tail_state_of_hub(np.array([0.5, 0.0]), params, topo)
    with pytest.raises(SolverInvariantError, match="below curve start"):
        tail_state_of_hub(np.array([0.5, 1e-20]), params, topo)
    with pytest.raises(SolverInvariantError, match="no bracket"):
        tail_state_of_hub(np.array([0.5, 1e3]), params, topo)


@pytest.mark.parametrize("x", [np.nan, np.array([0.5, np.nan])])
@pytest.mark.parametrize("fn", [tail_curve, hub_gap, tail_state_of_hub, tail_composition])
def test_nan_is_rejected_as_a_value_error(fn, x):
    with pytest.raises(ValueError):
        fn(x, ModelParams(0.5, 0.15), make_topology((6, 10)))


@pytest.mark.parametrize("b, branching", [(0.08, (6, 10)), (0.125, (6, 10)),
                                          (0.15, (6, 10)), (0.12, (6, 10, 4))])
def test_check_convexity_verdicts_unchanged(b, branching):
    # the shapes the pointwise loop found at these figure points
    params = ModelParams(0.5, b)
    topo = make_topology(branching)
    tail = check_convexity(lambda x: tail_composition(x, params, topo), (1e-3, 1.0), 500)
    assert tail.concave and not tail.convex
    hub = check_convexity(lambda x: phi_hub_inverse(x, params, branching[0]), (0.0, 1.0), 500)
    assert hub.convex


def test_check_convexity_rejects_non_elementwise_f():
    with pytest.raises(ValueError, match="elementwise"):
        check_convexity(lambda t: 1.0, (0.0, 1.0), 10)


@pytest.mark.parametrize("a, b, branching", [(0.5, 0.15, (6, 10)), (0.5, 0.3, (2, 2, 2, 2, 2, 2)),
                                             (0.5, 0.999, (6, 10)), (0.3, 0.05, (6, 10, 4)),
                                             (0.5, 0.08, (6, 10))])
def test_bracket_root_matches_loop(a, b, branching):
    params = ModelParams(a, b)
    topo = make_topology(branching)
    ts = np.geomspace(1e-9, 1.0, 4096)
    assert fixedpoint._bracket_root(params, topo, 1e-9, 4096, 1.0) == oracle_bracket(
        ts, fixedpoint.hub_gap(ts, params, topo))


def test_bracket_root_grid_is_geomspace(monkeypatch):
    # The grid skips geomspace's argument handling but not a bit of its points.
    grids = []

    def record(t, params, topo):
        grids.append(t)
        return -t  # no sign change

    monkeypatch.setattr(fixedpoint, "hub_gap", record)
    params, topo = ModelParams(0.5, 0.15), make_topology((6, 10))
    rng = np.random.default_rng(4)
    for _ in range(2000):
        lo = 10.0 ** rng.uniform(-16.0, -1e-3)
        hi = min(lo * 10.0 ** rng.uniform(1e-15, 16.0), 1.0)
        n = int(rng.integers(2, 4097))
        assert fixedpoint._bracket_root(params, topo, lo, n, hi) is None
        assert grids[-1].tobytes() == np.geomspace(lo, hi, n).tobytes(), (lo, hi, n)


@pytest.mark.parametrize("h", [
    [np.nan, -1.0, 2.0, 3.0],         # sign change after a non-finite head
    [-1.0, np.inf, 2.0, -3.0],        # an infinity blocks the first change
    [1.0, np.inf, -2.0, 3.0],         # so does one next to a negative value
    [1.0, 0.0, -1.0, 2.0],            # exact zero wins before the change after it
    [0.0, 1.0, 2.0, 3.0],             # a zero at index 0 is never a hit
    [1.0, 2.0, np.nan, 3.0],          # no bracket
    [-np.inf, 0.0, 1.0, 1.0],         # a zero after an infinity is a hit
])
def test_bracket_root_matches_loop_on_crafted_gaps(monkeypatch, h):
    h = np.array(h)
    ts = np.geomspace(1e-9, 1.0, h.size)
    monkeypatch.setattr(fixedpoint, "hub_gap", lambda t, params, topo: h)
    got = fixedpoint._bracket_root(ModelParams(0.5, 0.15), make_topology((6, 10)),
                                   1e-9, h.size, 1.0)
    assert got == oracle_bracket(ts, h)


@pytest.mark.parametrize("a, b, branching", [(0.5, 0.6, (24, 44, 40, 28)),
                                             (0.1, 0.9, (50, 50, 50))])
def test_hub_gap_is_quiet_where_the_curve_leaves_the_unit_interval(a, b, branching):
    # phi_hub of a curve far outside [0, 1] overflows in its power; on the
    # four-level tree the curve's own walk toward the hub overflows too.
    ts = np.geomspace(1e-6, 1.0, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hub_gap(ts, ModelParams(a, b), make_topology(branching))
        d = tail_curve(ts, ModelParams(a, b), make_topology(branching))
    assert not np.all(np.isfinite(h))
    assert d.shape == (200, len(branching) + 1)


def test_hub_inversion_is_quiet_where_its_expansion_grid_meets_a_nonfinite_hub():
    params, topo = ModelParams(0.5, 0.6), make_topology((24, 44, 40, 28))
    targets = np.array([0.5, 0.99])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        end = tail_curve(1.0, params, topo)
        d = tail_state_of_hub(targets, params, topo)
    assert not np.isfinite(end[0])
    assert np.all(np.abs(d[:, 0] - targets) <= 1e-9)


def test_hub_inversion_is_quiet_next_to_a_pole_of_the_curve():
    # Brackets here close on a pole, where the curve's values at both ends
    # reach -inf and +inf and the secant point is NaN.
    params, topo = ModelParams(0.1, 0.15), make_topology((3, 25, 6, 38, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = tail_state_of_hub(np.linspace(1e-3, 1.0, 200), params, topo)
    assert d.shape == (200, 6)
