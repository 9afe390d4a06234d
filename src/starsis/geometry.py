"""Region membership, convexity/slope verification and figure-data sampling."""

from dataclasses import dataclass

import numpy as np

from .fixedpoint import _U, phi_hub, tail_curve, tail_state_of_hub
from .meanfield import _map_levels
from .model import ModelParams, StarlikeTopology, as_level_state


def _require_three_levels(topo: StarlikeTopology):
    if topo.k != 3:
        raise ValueError("this operation is defined for 3-level topologies only")


def _region_one_mask(levels, params: ModelParams, topo: StarlikeTopology):
    """Elementwise Region I membership of k validated level arrays.

    Region I is the set of states above every level's partial fixed point.
    Each level's map coordinate T_m(d) - d_m = (1 - q) - d_m (1 - a q), with
    q the level's neighbour survival product, strictly decreases in d_m and
    is zero at that level's partial fixed point, so the region is exactly
    {d : T(d) < d}, for any k.  The levels broadcast against each other, as
    in the map kernel, so a batch passes its columns and region_slice its
    grid axes without building the grid.
    """
    image = _map_levels(levels, params, topo)
    mask = next(image) < levels[0]
    for m, level in enumerate(image, 1):
        mask = mask & (level < levels[m])
    return mask


def in_region_one(d, params: ModelParams, topo: StarlikeTopology) -> bool:
    """True iff one map step strictly lowers every level of the one state d."""
    d = as_level_state(d, topo)
    if d.ndim != 1:
        raise ValueError(f"in_region_one takes one level state of shape ({topo.k},), "
                         f"got {d.shape}")
    return bool(_region_one_mask(d, params, topo))


def region_slice(z_level: float, grid_n: int, params: ModelParams,
                 topo: StarlikeTopology) -> np.ndarray:
    """Membership matrix of Region I on a uniform (x, y) grid at fixed z.

    Entry [i, j] is membership at x = i/(grid_n-1), y = j/(grid_n-1).
    """
    _require_three_levels(topo)
    if not (0.0 <= z_level <= 1.0):
        raise ValueError("z_level must lie in [0,1]")
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    xs = np.linspace(0.0, 1.0, grid_n)
    # z as an array keeps the middle level's power an array power, which can
    # differ in the last ulp from the power of a numpy scalar.
    return _region_one_mask([xs[:, None], xs[None, :], np.full((1, 1), z_level)],
                            params, topo)


@dataclass
class ConvexityReport:
    min_second_difference: float
    max_second_difference: float
    verdict: str  # "convex" | "concave" | "indeterminate"


def check_convexity(f, domain, grid_n: int) -> ConvexityReport:
    """Classify a scalar function by central second differences on a uniform grid.

    f is called once, on the whole grid array, so it must be elementwise:
    f(grid) returns one value per grid point.  A function passing both
    checks (affine) is reported convex; that tie rule is arbitrary but fixed.
    Second differences within 1e-12 of zero count as zero.
    """
    lo, hi = domain
    if not lo < hi:
        raise ValueError("domain must satisfy lo < hi")
    if grid_n < 3:
        raise ValueError("grid_n must be >= 3")
    grid = np.linspace(lo, hi, grid_n)
    vals = np.asarray(f(grid), dtype=float)
    if vals.shape != grid.shape:
        raise ValueError(f"f must be elementwise: f(grid) has shape {vals.shape}, "
                         f"expected {grid.shape}")
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    mn, mx = float(second.min()), float(second.max())
    if mn >= -1e-12:
        verdict = "convex"
    elif mx <= 1e-12:
        verdict = "concave"
    else:
        verdict = "indeterminate"
    return ConvexityReport(min_second_difference=mn, max_second_difference=mx,
                           verdict=verdict)


def tail_composition(d1, params: ModelParams, topo: StarlikeTopology):
    """Level-2 coordinate of the tail curve as a function of the hub coordinate.

    This is the direction in which the composed curve is concave.  Scalar d1
    gives a float, an array gives an array of the same shape.
    """
    d = tail_state_of_hub(d1, params, topo)
    return float(d[1]) if d.ndim == 1 else d[..., 1]


@dataclass
class SlopeReport:
    hub_slope: float        # closed form b*n1/(1-a)
    tail_slope: float       # closed form ((1-a)^2 - b^2*n2) / (b*(1-a))
    hub_slope_fd: float
    tail_slope_fd: float
    hub_slope_fd_error: float   # bound on |hub_slope_fd - true slope|
    tail_slope_fd_error: float  # bound on |tail_slope_fd - true slope|


def slopes_at_zero(params: ModelParams, topo: StarlikeTopology) -> SlopeReport:
    """Closed-form slopes at the origin of the two intersection curves, plus
    finite-difference estimates, each with an error bound.

    Each curve f is evaluated once, at h, 2h and 4h with h = 2^-18.  The
    estimate R(h) = 2 f(h)/h - f(2h)/(2h) cancels the secant's O(h) term.
    Its truncation is (R(2h) - R(h))/3 to leading order, doubled here to
    cover the O(h^3) rest.  A curve value is off by at most rho = (n + 8) u S
    to first order, with S = 1/(1 - a) or 1/b the scale it cancels from and
    n the largest branching entry, which moves R(h) by 2.5 rho/h and the
    doubled truncation estimate by 2.5 rho/h.
    """
    _require_three_levels(topo)
    a, b = params.a, params.b
    n1, n2 = topo.branching
    h = 2.0 ** -18  # near u^(1/3) = 2^-17.7, where rounding ~u/h and truncation ~h^2 balance
    ts = np.array([h, 2.0 * h, 4.0 * h])
    f1, f2, f4 = np.array([phi_hub(ts, params, n1), tail_curve(ts, params, topo)[:, 0]]).T
    fd = 2.0 * f1 / h - f2 / (2.0 * h)
    rho, scale = (max(n1, n2) + 8) * _U, np.array([1.0 / (1.0 - a), 1.0 / b])
    err = 5.0 * rho * scale / h + 2.0 * abs(fd - f2 / h + f4 / (4.0 * h)) / 3.0
    return SlopeReport(hub_slope=b * n1 / (1.0 - a),
                       tail_slope=((1.0 - a) ** 2 - b * b * n2) / (b * (1.0 - a)),
                       hub_slope_fd=float(fd[0]), tail_slope_fd=float(fd[1]),
                       hub_slope_fd_error=float(err[0]), tail_slope_fd_error=float(err[1]))


def sample_curves(params: ModelParams, topo: StarlikeTopology, grid_n: int) -> np.ndarray:
    """Sample both intersection curves at grid_n values of the curve
    parameter, evenly spaced from 1e-3 to 1.

    Columns: t, hub-curve d1 (= phi_hub at the tail curve's d2), tail-curve
    d1, tail-curve d2.  Interior sign changes of column2 - column1 count the
    nontrivial fixed points.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    ts = np.linspace(1e-3, 1.0, grid_n)
    d = tail_curve(ts, params, topo)
    # Where the tail curve leaves [0, 1], phi_hub of it overflows; the table
    # keeps those raw inf or NaN values without printing numpy warnings.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hub_curve = phi_hub(d[:, 1], params, topo.branching[0])
    return np.column_stack([ts, hub_curve, d[:, 0], d[:, 1]])
