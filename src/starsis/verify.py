"""Cross-module property suite backing the `verify` CLI command."""

import numpy as np

from .fixedpoint import (RegimeKind, classify_regime, hub_gap, phi_hub, phi_hub_inverse,
                         phi_leaf, solve_fixed_point, spectral_threshold)
from .geometry import (_region_one_mask, check_convexity, region_slice, slopes_at_zero,
                       tail_composition)
from .meanfield import coalescence_gap, step_full, step_level
from .model import ModelParams, StarlikeTopology, expand_state, reduce_state
from .stochastic import make_chain_state, run_trials

_SAMPLES = 200  # random states per batched check
_SLOPE_TOL = 1e-6  # relative slack of each slope estimate, on top of its error bound


def _slopes_match(params: ModelParams, topo: StarlikeTopology) -> bool:
    """Each slope estimate at 0 is within _SLOPE_TOL relative of its closed
    form, plus the estimate's own error bound."""
    s = slopes_at_zero(params, topo)
    return all(abs(fd - closed) <= _SLOPE_TOL * abs(closed) + err
               for closed, fd, err in ((s.hub_slope, s.hub_slope_fd, s.hub_slope_fd_error),
                                       (s.tail_slope, s.tail_slope_fd, s.tail_slope_fd_error)))


def run_property_suite(params: ModelParams, topo: StarlikeTopology, seed: int = 0) -> dict:
    """Run the numerical invariant checks and return {check_name: passed}.

    Every check on many states makes one batched call.  The full-vs-reduced
    check passes the first 50 random level states as one (50, k) batch
    through expand_state (-> (50, N)), step_full (-> (50, N)) and
    reduce_state (-> (50, k)), and compares with step_level of that batch.
    The Region I check stacks the unit corner onto _SAMPLES random states,
    keeps the rows in Region I (T(d) < d, the mask that in_region_one and
    region_slice share), and tests that mask on their step_level image.
    Where T(1) rounds to 1, the corner is not in Region I.  The slope check
    allows each estimate its error bound on top of 1e-6 relative, so it
    holds where the tail slope crosses 0.  Above the threshold,
    solver_cross_agreement reads the solver's error bound: it passes when
    max(error_bound / d) <= 1e-8.
    """
    rng = np.random.default_rng(seed)
    k = topo.k
    checks = {}

    d = rng.random((_SAMPLES, k))
    out = step_level(d, params, topo)
    checks["range_preservation"] = bool(np.all((out >= 0.0) & (out <= 1.0)))

    lo = rng.random((_SAMPLES, k))
    hi = lo + (1.0 - lo) * rng.random((_SAMPLES, k))
    checks["componentwise_monotonicity"] = bool(
        np.all(step_level(lo, params, topo) <= step_level(hi, params, topo))
    )

    zero = np.zeros(k)
    checks["trivial_fixed_point_exact"] = bool(
        np.array_equal(step_level(zero, params, topo), zero)
    )

    rows = d[:50]
    full = reduce_state(step_full(expand_state(rows, topo), params, topo), topo)
    err = float(np.max(np.abs(full - step_level(rows, params, topo)), initial=0.0))
    checks["full_vs_reduced_consistency"] = err <= 1e-14

    pts = np.vstack([rng.random((_SAMPLES, k)), np.ones(k)])
    pts = pts[_region_one_mask(pts.T, params, topo)]
    closure = _region_one_mask(step_level(pts, params, topo).T, params, topo)
    checks["region_one_closed_under_map"] = bool(np.all(closure))

    if k == 3:
        checks["slope_formulas_match_finite_differences"] = _slopes_match(params, topo)

        n1 = topo.branching[0]
        checks["hub_curve_convex_in_d1"] = check_convexity(
            lambda x: phi_hub_inverse(x, params, n1), (0.0, 1.0), 500
        ).convex
        checks["phi_hub_concave_in_d2"] = check_convexity(
            lambda t: phi_hub(t, params, n1), (0.0, 1.0), 500
        ).concave
        checks["phi_leaf_concave"] = check_convexity(
            lambda t: phi_leaf(t, params), (0.0, 1.0), 500
        ).concave
        checks["tail_composition_concave"] = check_convexity(
            lambda x: tail_composition(x, params, topo), (1e-3, 1.0), 500
        ).concave

        checks["region_slice_empty_at_z_zero"] = not region_slice(0.0, 41, params, topo).any()
        # pick a z strictly above phi_leaf(1) so the (1,1) corner qualifies
        z_corner = 0.5 * (1.0 + float(phi_leaf(1.0, params)))
        checks["region_slice_contains_unit_corner"] = bool(
            region_slice(z_corner, 41, params, topo)[-1, -1]
        )

        ts = np.linspace(1e-3, 1.0, 2001)
        hv = hub_gap(ts, params, topo)
        signs = np.sign(hv[np.isfinite(hv)])
        flips = int(np.sum(signs[:-1] * signs[1:] < 0.0))
        regime = classify_regime(params, topo, eq_tol=1e-12)
        expected = 1 if regime.kind is RegimeKind.SUPERCRITICAL else 0
        checks["tail_curve_sign_changes_match_regime"] = flips == expected

    checks["threshold_decreasing_in_branching"] = (
        spectral_threshold(params.a, topo.branching + (1,))
        < spectral_threshold(params.a, topo.branching)
    )

    report = solve_fixed_point(params, topo)
    if report.regime.kind is RegimeKind.SUPERCRITICAL:
        checks["solver_cross_agreement"] = bool(
            np.max(report.error_bound / report.nontrivial_point) <= 1e-8
        )
        checks["nontrivial_point_interior"] = bool(
            np.all((report.nontrivial_point > 0.0) & (report.nontrivial_point < 1.0))
        )
    else:
        checks["no_nontrivial_point_at_or_below_threshold"] = report.nontrivial_point is None

    p0 = expand_state(rng.random(k), topo)
    gap0 = coalescence_gap(p0, topo)
    checks["uniform_levels_have_zero_gap"] = bool(np.all(gap0 == 0.0))

    init = make_chain_state(topo, all_infected=True)
    s1 = run_trials(params, topo, init, horizon=20, trials=3, master_seed=seed)
    s2 = run_trials(params, topo, init, horizon=20, trials=3, master_seed=seed)
    checks["stochastic_determinism"] = bool(np.array_equal(s1.prevalence, s2.prevalence))

    return {name: bool(value) for name, value in checks.items()}
