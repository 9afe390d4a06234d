"""Thresholds, partial-fixed-point functions, tail curve and the dual solver."""

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .meanfield import _map_levels, iterate
from .model import ModelParams, StarlikeTopology, _as_branching


_U = np.finfo(float).eps / 2  # unit roundoff
_WARM_STEPS = 8
_NEWTON_MAX = 100
_STALL = 1e-6
_MAX_REL_ERROR = 1e-3  # the largest relative error bound a solve may return
_T_MIN = 1e-14  # where tail_state_of_hub starts its search along the tail curve
_T_WIDTH = 1e-15  # the width to which tail_state_of_hub narrows each bracket
_STRADDLE = 4e-16  # the least distance of a secant point from a bracket end


class SolverInvariantError(RuntimeError):
    """An internal solver invariant failed (e.g. Newton did not converge)."""


class RegimeKind(enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class Regime:
    kind: RegimeKind
    b_crit: float


@dataclass
class FixedPointReport:
    regime: Regime
    nontrivial_point: Optional[np.ndarray]
    iteration_residual: float
    curve_root_residual: float
    agreement: float
    error_bound: np.ndarray


def critical_b(a: float, branching) -> float:
    """The paper's closed-form threshold (1 - a) / sqrt(n1 + ... + n_{k-1}).

    It equals spectral_threshold for k <= 3 and lies below it for k >= 4.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must be in (0,1), got {a}")
    return (1.0 - a) / np.sqrt(sum(_as_branching(branching)))


def level_matrix(branching) -> np.ndarray:
    """Level adjacency M: near the trivial point the map is d' = (aI + bM) d.

    Row m has 1 at its parent level m - 1 and n_m at its child level m + 1.
    """
    n = np.asarray(branching, dtype=float)
    i = np.arange(n.size)
    m = np.zeros((n.size + 1, n.size + 1))
    m[i, i + 1] = n
    m[i + 1, i] = 1.0
    return m


def spectral_threshold(a: float, branching) -> float:
    """Epidemic threshold (1 - a) / rho(M), where the trivial point loses stability.

    rho(M) is the largest eigenvalue of M's symmetric form sqrt(M * M.T),
    the tridiagonal matrix with off-diagonals sqrt(n_m).  For k <= 3 it is
    sqrt(n1 + n2) exactly, and critical_b's value is returned bit for bit
    (eigvalsh can differ from it in the last ulp).  The branching is read
    once, so any iterable serves, and rho(M) is computed once per vector.
    """
    branching = _as_branching(branching)
    bc = critical_b(a, branching)  # checks a too
    return bc if len(branching) <= 2 else (1.0 - a) / _spectral_radius(branching)


@functools.lru_cache(maxsize=256)
def _spectral_radius(branching: tuple) -> float:
    """rho(M) for a validated branching tuple, by eigvalsh of sqrt(M * M.T)."""
    m = level_matrix(branching)
    return np.linalg.eigvalsh(np.sqrt(m * m.T))[-1]


def classify_regime(params: ModelParams, topo: StarlikeTopology, eq_tol: float = 0.0) -> Regime:
    """Compare b against the spectral threshold; ties within eq_tol classify as critical."""
    if not eq_tol >= 0:  # also rejects NaN
        raise ValueError("eq_tol must be >= 0")
    bc = spectral_threshold(params.a, topo.branching)
    if params.b < bc - eq_tol:
        kind = RegimeKind.SUBCRITICAL
    elif params.b <= bc + eq_tol:
        kind = RegimeKind.CRITICAL
    else:
        kind = RegimeKind.SUPERCRITICAL
    return Regime(kind=kind, b_crit=bc)


def phi_hub(d2, params: ModelParams, n1: int):
    """Hub partial fixed point: d1 such that the hub coordinate is invariant."""
    a, b = params.a, params.b
    q = (1.0 - b * np.asarray(d2, dtype=float)) ** n1
    return (1.0 - q) / (1.0 - a * q)


def phi_hub_inverse(d1, params: ModelParams, n1: int):
    """Hub curve expressed as d2 versus d1, inverting phi_hub in closed form.

    This is the direction in which the hub curve is convex; phi_hub itself is
    concave as a function of d2.  Values can exceed 1 near d1 = 1 (the curve
    reaches d2 = 1/b there), which callers compare against the unit interval.
    """
    a, b = params.a, params.b
    x = np.asarray(d1, dtype=float)
    q = (1.0 - x) / (1.0 - a * x)
    return (1.0 - q ** (1.0 / n1)) / b


def phi_middle(d_prev, d_next, params: ModelParams, n_m: int):
    """Middle-level partial fixed point given the two adjacent levels."""
    a, b = params.a, params.b
    q = (1.0 - b * np.asarray(d_prev, dtype=float)) * (1.0 - b * np.asarray(d_next, dtype=float)) ** n_m
    return (1.0 - q) / (1.0 - a * q)


def phi_leaf(d_prev, params: ModelParams):
    """Leaf partial fixed point given the parent level."""
    a, b = params.a, params.b
    d_prev = np.asarray(d_prev, dtype=float)
    return b * d_prev / (1.0 - a + a * b * d_prev)


def tail_curve(t, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """Full state on the tail-consistency curve, parameterized by t = d_{k-1}.

    Levels 2..k satisfy their partial-fixed-point equations exactly; the hub
    value is whatever the chain of solved equations produces and may leave
    [0,1] (returned raw -- the root finder needs the sign).  Scalar t gives a
    (k,) vector, an array of shape (...,) gives (..., k).  Raises ValueError
    unless every t lies in (0, 1].
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr > 0.0) & (t_arr <= 1.0)):  # also rejects NaN
        raise ValueError("curve parameter t must lie in (0, 1]")
    return _tail_curve(t_arr, params, topo)


def _tail_curve(t, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """tail_curve on floats in (0, 1], unchecked.  Deep or wide trees overflow
    toward the hub to inf or NaN, which the raw result keeps without a warning."""
    a, b = params.a, params.b
    k = topo.k
    n = topo.branching
    d = np.empty(np.shape(t) + (k,))
    d[..., k - 2] = t
    d[..., k - 1] = phi_leaf(t, params)
    # Solve each middle equation for the level above, walking toward the hub.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for m in range(k - 1, 1, -1):
            dm = d[..., m - 1]
            dnext = d[..., m]
            d[..., m - 2] = 1.0 / b + (dm - 1.0) / (
                b * (1.0 - a * dm) * (1.0 - b * dnext) ** n[m - 1])
    return d


def _hub_of(d, params: ModelParams, topo: StarlikeTopology):
    """phi_hub at the d2 of raw tail-curve states d (..., k); where d2 leaves
    [0, 1] its power overflows, and the inf or NaN is kept without a warning."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return phi_hub(d[..., 1], params, topo.branching[0])


def hub_gap(t, params: ModelParams, topo: StarlikeTopology):
    """Signed mismatch d1_curve - phi_hub(d2_curve) along the tail curve.

    Its roots on (0, 1] are the nontrivial fixed points of the reduced map.
    t is checked as tail_curve checks it.  Where the curve leaves [0, 1]
    (deep or wide trees) the gap is inf or NaN, without a warning.
    """
    d = tail_curve(t, params, topo)
    return d[..., 0] - _hub_of(d, params, topo)


def tail_state_of_hub(d1, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """Tail-curve states whose hub values equal d1, on the first rising branch.

    Inverts t -> d1_curve(t) for every target at once.  Each target is
    bracketed between consecutive points of the geometric grid
    _T_MIN * 1.5^j (capped at 1): the last one below it and the first one
    where the curve is finite and reaches it.  Safeguarded Illinois regula
    falsi then narrows each bracket to width 1e-15 (5 to 18 passes over the
    whole batch on the suite's figure grids, where bisection took about 50),
    and the state at the bracket's midpoint is returned.
    Used to express the tail composition as a function of the hub
    coordinate.  Scalar d1 gives a (k,) state, an array of shape s gives
    s + (k,).  Raises SolverInvariantError if any target lies below the
    curve start or has no bracket before the curve leaves the finite range
    or reaches t = 1.
    """
    d1 = np.asarray(d1, dtype=float)
    shape = d1.shape
    d1 = d1.ravel()
    if not np.all(d1 > 0.0):  # also rejects NaN
        raise ValueError("d1 must be positive")

    grid = [_T_MIN]
    while grid[-1] < 1.0:
        grid.append(min(grid[-1] * 1.5, 1.0))
    grid = np.array(grid)
    curve = _tail_curve(grid, params, topo)[:, 0]
    start = curve[0] - d1 >= 0.0
    if np.any(start):
        raise SolverInvariantError(
            f"hub inversion: d1={d1[start][0]} below curve start at t={_T_MIN}")
    # The bracket's upper end is the first expansion point whose value is
    # finite and >= d1; reaching a non-finite value or t = 1 first fails.
    expansion = curve[1:]
    nonfinite = np.flatnonzero(~np.isfinite(expansion))
    finite_end = nonfinite[0] if nonfinite.size else expansion.size
    first = np.searchsorted(np.maximum.accumulate(expansion[:finite_end]), d1, side="left")
    missing = first >= finite_end
    if np.any(missing):
        raise SolverInvariantError(f"hub inversion: no bracket for d1={d1[missing][0]}")
    t = _refine(grid[first], grid[first + 1], curve[first] - d1,
                curve[first + 1] - d1, d1, params, topo)
    return _tail_curve(t, params, topo).reshape(shape + (topo.k,))


def _refine(lo, hi, flo, fhi, d1, params, topo) -> np.ndarray:
    """Narrow brackets of curve(t) - d1 (flo < 0 <= fhi) to width 1e-15; the midpoints.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): the secant point
    replaces the end whose sign it shares, and an end kept twice running has
    its value halved.  The secant point is kept at least _STRADDLE from each
    end, so a root next to one end is straddled instead of crept up on.  A
    secant point that is not finite or not inside the bracket, or three
    steps that have not halved the width, give the midpoint instead: next
    to a pole of the curve, values of +-inf give a NaN secant, without a
    warning.  A NaN value counts as not below d1.  Each target's steps use
    only its own values, so a batch row equals its single call bit for bit.
    """
    t = np.empty(lo.shape)
    idx = np.arange(lo.size)  # every grid bracket is wider than _T_WIDTH
    width = halved_at = hi - lo
    stalled = np.zeros(idx.size, dtype=int)  # steps since the width last halved
    last_below = np.full(idx.size, 2, dtype=np.int8)  # no step yet
    while idx.size:
        # flo / (flo - fhi) rounds into [0, 1], so finite values give x in [lo, hi]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = lo + width * (flo / (flo - fhi))
        secant = (x >= lo) & (x <= hi) & (stalled < 3)
        x = np.where(secant, np.clip(x, lo + _STRADDLE, hi - _STRADDLE), 0.5 * (lo + hi))
        fx = _tail_curve(x, params, topo)[:, 0] - d1
        below = fx < 0.0
        # Illinois: halve the value at an end kept for a second step running.
        scale = np.where(below == last_below, 0.5, 1.0)
        flo = np.where(below, fx, scale * flo)
        fhi = np.where(below, scale * fhi, fx)
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        last_below = below
        width = hi - lo
        halved = width <= 0.5 * halved_at
        halved_at = np.where(halved, width, halved_at)
        stalled = np.where(halved, 0, stalled + 1)
        done = width <= _T_WIDTH
        if np.any(done):
            t[idx[done]] = 0.5 * (lo[done] + hi[done])
            go = ~done
            idx, lo, hi, flo, fhi, d1 = idx[go], lo[go], hi[go], flo[go], fhi[go], d1[go]
            width, halved_at, stalled, last_below = (
                width[go], halved_at[go], stalled[go], last_below[go])
    return t


def _bracket_root(params: ModelParams, topo: StarlikeTopology,
                  t_start: float, grid_points: int, t_end: float):
    """(lo, hi) around the first sign change of hub_gap on a geometric grid of
    [t_start, t_end]; (t, t) at an exact zero; None if there is neither.

    The grid is np.geomspace's own formula, point for point, without its
    argument handling."""
    ts = 10.0 ** np.linspace(np.log10(t_start), np.log10(t_end), grid_points)
    ts[0], ts[-1] = t_start, t_end
    h = hub_gap(ts, params, topo)
    sign = np.sign(np.where(np.isfinite(h), h, 0.0))  # a non-finite value has no sign
    change = sign[:-1] * sign[1:] < 0.0
    idx = np.flatnonzero(change | (h[1:] == 0.0))
    if idx.size == 0:
        return None
    i = idx[0]
    return (ts[i] if change[i] else ts[i + 1]), ts[i + 1]


def _bisect_root(params, topo, lo, hi) -> float:
    """Narrow a sign change of hub_gap on [lo, hi] to a relative width of 4u.

    Not bisection; the name stays only because the benchmark's tracer lists
    it.  Passes of _bracket_root with enough points to reach that width,
    capped at 4096, up to the first uncapped one; the rounding of the
    grid's points can leave up to about 9 ulps."""
    while hi - lo > 4 * _U * hi:
        points = int((hi - lo) / (4 * _U * hi)) + 2
        bracket = _bracket_root(params, topo, lo, min(points, 4096), hi)
        if bracket is None:
            break
        lo, hi = bracket
        if points <= 4096:
            break
    return float(0.5 * (lo + hi))


def _curve_root(params, topo, t0) -> Optional[float]:
    """The root of hub_gap next to t0: the narrowest interval t0 (1 -+ w), w
    growing 16-fold from 2^-40, that brackets a sign change, then narrowed.
    None if no such interval brackets one."""
    w = 2.0 ** -40
    while w < 1.0:
        bracket = _bracket_root(params, topo, t0 * (1.0 - w), 16, min(t0 * (1.0 + w), 1.0))
        if bracket is not None:
            return _bisect_root(params, topo, *bracket)
        w *= 16.0
    return None


def _log_residual(d, params, topo):
    """F(d) = -expm1(S(d)) - d and its tridiagonal Jacobian (diagonal, lower, upper).

    d is a list of k floats and the four results are lists too: on one small
    state, math's functions cost less than numpy's per-call overhead.  S is
    the log of the map's survival product, a sum of log1p terms, so F keeps
    relative accuracy at small d where 1 - (1 - a d)(...) cancels.
    """
    a, b = params.a, params.b
    n = topo.branching
    lb = [math.log1p(-b * x) for x in d]
    s = [math.log1p(-a * x) for x in d]
    for i in range(1, len(d)):
        s[i] += lb[i - 1]
    for i in range(len(d) - 1):
        s[i] += n[i] * lb[i + 1]
    e = [math.exp(v) for v in s]
    gb = [b / (1.0 - b * x) for x in d]
    f = [-math.expm1(v) - x for v, x in zip(s, d)]
    diag = [ei * a / (1.0 - a * x) - 1.0 for ei, x in zip(e, d)]
    lower = [e[i + 1] * gb[i] for i in range(len(d) - 1)]
    upper = [e[i] * n[i] * gb[i + 1] for i in range(len(d) - 1)]
    return f, diag, lower, upper


def _thomas(lower, diag, upper, rhs) -> list:
    """Solve a tridiagonal system by elimination without pivoting.

    Takes the diagonals and right-hand side as sequences of floats and
    returns the solution as a list.  The Newton matrices here are negated
    M-matrices, for which this is stable.
    """
    dia, r = list(diag), list(rhs)
    for i in range(1, len(dia)):
        w = lower[i - 1] / dia[i - 1]
        dia[i] -= w * upper[i - 1]
        r[i] -= w * r[i - 1]
    r[-1] /= dia[-1]
    for i in range(len(dia) - 2, -1, -1):
        r[i] = (r[i] - upper[i] * r[i + 1]) / dia[i]
    return r


def _nan_or(pick, values) -> float:
    """pick(values) for min or max, or NaN if any value is NaN, as np.min and
    np.max give: Python's min and max keep or drop a NaN by its position."""
    values = list(values)
    return math.nan if any(v != v for v in values) else pick(values)


def _newton(d, params, topo) -> list:
    """Newton on F from a state d above the fixed point d*, on a list of k floats.

    d may be any sequence of k floats; the point is returned as a list.  The
    map's Jacobian T'(d) = J + I decreases entrywise in d.  So from any d
    >= d* with F(d) <= 0 (every iterate from the all-ones state is one), each
    Newton step stays >= d* and descends, and -J is an M-matrix along the way.
    A step that would still leave (0, 1]^k in rounding is cut so that no
    level more than halves or passes 1.  It stops once the relative step is
    below 4u, or once a step below _STALL fails to shrink the next one: next
    to the threshold F is rounding noise at the float64 floor of about
    u / epsilon (epsilon = b / b_crit - 1) before a step gets near 4u.
    """
    d = [float(x) for x in d]
    prev = math.inf
    for _ in range(_NEWTON_MAX):
        f, diag, lower, upper = _log_residual(d, params, topo)
        step = _thomas(lower, diag, upper, [-v for v in f])
        new = [x + s for x, s in zip(d, step)]
        if not all(0.0 < y <= 1.0 for y in new):  # a NaN level fails too
            theta = _nan_or(min, [-0.5 * x / s if y <= 0.0 else (1.0 - x) / s if y > 1.0
                                  else 1.0 for x, s, y in zip(d, step, new)])
            # The cap at 1 keeps a NaN, which the test below then rejects.
            new = [1.0 if y > 1.0 else y for y in (x + theta * s for x, s in zip(d, step))]
            if not all(y > 0.0 for y in new):  # NaN from a singular Jacobian
                break
        rel = max(abs(y - x) / y for x, y in zip(d, new))
        if prev < _STALL and rel >= prev:
            return d
        d = new
        if rel <= 4 * _U:
            return d
        prev = rel
    raise SolverInvariantError(
        f"Newton did not converge; a={params.a}, b={params.b}, branching={topo.branching}")


def _residual(d, params, topo) -> float:
    """The sup-norm step |T(d) - d| of a list of k floats in [0, 1]."""
    return _nan_or(max, [abs(y - x) for y, x in zip(_map_levels(d, params, topo), d)])


def solve_fixed_point(params: ModelParams, topo: StarlikeTopology) -> FixedPointReport:
    """Classify the regime and, above threshold, find the nontrivial fixed point.

    At most 8 map steps from the all-ones state start Newton in log form,
    which runs to the float64 floor.  `error_bound` bounds that point's
    error componentwise (zeros below the threshold).  Only Newton failing, or
    a bound that is not finite or exceeds 1e-3 relative, raises
    SolverInvariantError.
    `agreement`, the sup-norm distance to the tail-curve root next to the
    point's d_{k-1}, is a report that never raises: inf where no sign change
    is found, and large where the curve's level-by-level rebuild amplifies
    rounding.
    """
    regime = classify_regime(params, topo)
    if regime.kind is not RegimeKind.SUPERCRITICAL:
        return FixedPointReport(
            regime=regime,
            nontrivial_point=None,
            iteration_residual=0.0,
            curve_root_residual=0.0,
            agreement=0.0,
            error_bound=np.zeros(topo.k),
        )

    warm = iterate(np.ones(topo.k), params, topo, max_iter=_WARM_STEPS).limit
    point = _newton(warm, params, topo)
    # B = (-J)^-1 (|F| + c u d), c = 4 (max n + 3), a first-order componentwise
    # error bound (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2002) whose c u d covers F's rounding.  -J is an M-matrix, so (-J)^-1 >= 0
    # and |J^-1| v for v >= 0 is one tridiagonal solve.
    f, diag, lower, upper = _log_residual(point, params, topo)
    c = 4 * (max(topo.branching) + 3)
    error_bound = _thomas(lower, diag, upper,
                          [-(abs(v) + c * _U * x) for v, x in zip(f, point)])
    rel_bound = _nan_or(max, [e / x for e, x in zip(error_bound, point)])
    if not rel_bound <= _MAX_REL_ERROR:  # NaN or inf fails too
        raise SolverInvariantError(
            f"fixed point error bound {rel_bound:g} relative exceeds {_MAX_REL_ERROR:g}; "
            f"a={params.a}, b={params.b}, branching={topo.branching}")
    iteration_residual = _residual(point, params, topo)

    point, error_bound = np.array(point), np.array(error_bound)
    t_curve = _curve_root(params, topo, point[topo.k - 2])
    if t_curve is None:
        curve_root_residual = agreement = np.inf
    else:
        point_curve = _tail_curve(t_curve, params, topo)
        curve_root_residual = _residual(np.clip(point_curve, 0.0, 1.0).tolist(), params, topo)
        agreement = float(np.max(np.abs(point - point_curve)))
    return FixedPointReport(
        regime=regime,
        nontrivial_point=point,
        iteration_residual=iteration_residual,
        curve_root_residual=curve_root_residual,
        agreement=agreement,
        error_bound=error_bound,
    )
