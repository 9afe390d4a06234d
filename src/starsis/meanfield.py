"""Deterministic dynamics: level-reduced map, per-node recursion, iteration."""

from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, StarlikeTopology, as_level_state, as_node_state


def step_level(d, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """One step of the level-reduced map on a state of shape (..., k).

    Hub:     d1' = 1 - (1 - a d1)(1 - b d2)^n1
    Middle:  dm' = 1 - (1 - a dm)(1 - b d_{m-1})(1 - b d_{m+1})^nm
    Leaf:    dk' = 1 - (1 - a dk)(1 - b d_{k-1})
    """
    d = as_level_state(d, topo)
    a, b = params.a, params.b
    k = topo.k
    n = topo.branching
    out = np.empty_like(d)
    out[..., 0] = 1.0 - (1.0 - a * d[..., 0]) * (1.0 - b * d[..., 1]) ** n[0]
    for m in range(2, k):
        i = m - 1
        out[..., i] = 1.0 - (1.0 - a * d[..., i]) * (1.0 - b * d[..., i - 1]) * (
            1.0 - b * d[..., i + 1]
        ) ** n[i]
    out[..., k - 1] = 1.0 - (1.0 - a * d[..., k - 1]) * (1.0 - b * d[..., k - 2])
    return out


def step_level3(d, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """Dedicated 3-level form of the reduced map, written out coordinate by coordinate."""
    if topo.k != 3:
        raise ValueError("step_level3 requires a 3-level topology")
    d = as_level_state(d, topo)
    a, b = params.a, params.b
    n1, n2 = topo.branching
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    return np.stack(
        [
            1.0 - (1.0 - a * x) * (1.0 - b * y) ** n1,
            1.0 - (1.0 - a * y) * (1.0 - b * x) * (1.0 - b * z) ** n2,
            1.0 - (1.0 - a * z) * (1.0 - b * y),
        ],
        axis=-1,
    )


def step_full(p, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """One step of the exact per-node recursion p_i' = 1 - (1 - a p_i) prod_j (1 - b p_j).

    The neighbour product is one multiply.reduceat over the topology's edge
    rows.  It multiplies each row in ascending source order, starting from the
    first factor, so it is bitwise equal to a left-to-right loop from 1.0.
    """
    p = as_node_state(p, topo)
    src, _, starts = topo.edges
    return 1.0 - (1.0 - params.a * p) * np.multiply.reduceat(1.0 - params.b * p[src], starts)


@dataclass
class Trajectory:
    """Recorded iteration of the level-reduced map."""

    states: np.ndarray  # (num_recorded, k)
    converged: bool
    iterations: int
    final_residual: float
    limit: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.limit is None:
            self.limit = self.states[-1]


def iterate(d0, params: ModelParams, topo: StarlikeTopology, tol: float = 1e-12,
            max_iter: int = 10**6, store_every: int = 1) -> Trajectory:
    """Iterate step_level from d0 until the sup-norm successive difference <= tol.

    Stores every store_every-th state (first and last always kept).  Hitting
    max_iter is reported via converged=False, not raised.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    d = as_level_state(d0, topo).copy()
    states = [d.copy()]
    converged = False
    res = np.inf
    steps = 0
    while steps < max_iter:
        nxt = step_level(d, params, topo)
        res = float(np.max(np.abs(nxt - d)))
        if res <= tol:
            converged = True
            if res > 0.0:
                d = nxt
                steps += 1
            break
        d = nxt
        steps += 1
        if steps % store_every == 0:
            states.append(d.copy())
    if not np.array_equal(states[-1], d):
        states.append(d.copy())
    return Trajectory(
        states=np.array(states),
        converged=converged,
        iterations=steps,
        final_residual=res,
        limit=d.copy(),
    )


def coalescence_gap(p, topo: StarlikeTopology) -> np.ndarray:
    """Per-level max spread |p_i - p_j| over same-level node pairs (level 1 gap is 0)."""
    p = as_node_state(p, topo)
    level_starts = topo.level_offsets[:-1]
    return np.maximum.reduceat(p, level_starts) - np.minimum.reduceat(p, level_starts)
