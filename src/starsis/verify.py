"""Cross-module property suite backing the `verify` CLI command."""

import numpy as np

from .fixedpoint import (RegimeKind, classify_regime, critical_b, hub_gap,
                         phi_hub, phi_hub_inverse, phi_leaf, phi_middle,
                         solve_fixed_point)
from .geometry import (check_convexity, in_region_one, region_slice, slopes_at_zero,
                       tail_composition)
from .meanfield import coalescence_gap, step_full, step_level
from .model import ModelParams, StarlikeTopology, expand_state, reduce_state
from .stochastic import make_chain_state, run_trials


def run_property_suite(params: ModelParams, topo: StarlikeTopology, seed: int = 0,
                       eq_tol: float = 1e-12, slope_tol: float = 1e-6,
                       samples: int = 200) -> dict:
    """Run the numerical invariant checks and return {check_name: passed}."""
    rng = np.random.default_rng(seed)
    k = topo.k
    checks = {}

    d = rng.random((samples, k))
    out = step_level(d, params, topo)
    checks["range_preservation"] = bool(np.all((out >= 0.0) & (out <= 1.0)))

    lo = rng.random((samples, k))
    hi = lo + (1.0 - lo) * rng.random((samples, k))
    checks["componentwise_monotonicity"] = bool(
        np.all(step_level(lo, params, topo) <= step_level(hi, params, topo))
    )

    zero = np.zeros(k)
    checks["trivial_fixed_point_exact"] = bool(
        np.array_equal(step_level(zero, params, topo), zero)
    )

    err = 0.0
    for row in d[:50]:
        p = expand_state(row, topo)
        err = max(err, float(np.max(np.abs(
            reduce_state(step_full(p, params, topo), topo) - step_level(row, params, topo)
        ))))
    checks["full_vs_reduced_consistency"] = err <= 1e-14

    if k == 3:
        slopes = slopes_at_zero(params, topo)
        checks["slope_formulas_match_finite_differences"] = (
            abs(slopes.hub_slope_fd - slopes.hub_slope) <= slope_tol * abs(slopes.hub_slope)
            and abs(slopes.tail_slope_fd - slopes.tail_slope) <= slope_tol * abs(slopes.tail_slope)
        )

        n1 = topo.branching[0]
        checks["hub_curve_convex_in_d1"] = check_convexity(
            lambda x: phi_hub_inverse(x, params, n1), (0.0, 1.0), 500
        ).verdict == "convex"
        checks["phi_hub_concave_in_d2"] = check_convexity(
            lambda t: phi_hub(t, params, n1), (0.0, 1.0), 500
        ).verdict == "concave"
        checks["phi_leaf_concave"] = check_convexity(
            lambda t: phi_leaf(t, params), (0.0, 1.0), 500
        ).verdict == "concave"
        checks["tail_composition_concave"] = check_convexity(
            lambda x: tail_composition(x, params, topo), (1e-3, 1.0), 500
        ).verdict == "concave"

        region_pts = [row for row in rng.random((samples, 3)) if in_region_one(row, params, topo)]
        region_pts.append(np.ones(3))
        closure = all(
            in_region_one(step_level(p, params, topo), params, topo) for p in region_pts
        )
        decrease = all(np.all(step_level(p, params, topo) < p) for p in region_pts)
        checks["region_one_closed_under_map"] = closure
        checks["region_one_strict_decrease"] = decrease

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
        regime = classify_regime(params, topo, eq_tol=eq_tol)
        expected = 1 if regime.kind is RegimeKind.SUPERCRITICAL else 0
        checks["tail_curve_sign_changes_match_regime"] = flips == expected

    checks["threshold_decreasing_in_branching"] = (
        critical_b(params.a, tuple(topo.branching) + (1,)) < critical_b(params.a, topo.branching)
    )

    report = solve_fixed_point(params, topo)
    if report.regime.kind is RegimeKind.SUPERCRITICAL:
        checks["solver_cross_agreement"] = report.agreement <= 1e-8
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
