"""Deterministic dynamics: level-reduced map, per-node recursion, iteration."""

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, StarlikeTopology, as_level_state, as_node_state


def step_level(d, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """One step of the level-reduced map on a state of shape (..., k).

    Hub:     d1' = 1 - (1 - a d1)(1 - b d2)^n1
    Middle:  dm' = 1 - (1 - a dm)(1 - b d_{m-1})(1 - b d_{m+1})^nm
    Leaf:    dk' = 1 - (1 - a dk)(1 - b d_{k-1})
    """
    return _step_level(as_level_state(d, topo), params, topo)


def _step_level(d: np.ndarray, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """step_level on a state already validated by as_level_state.

    A (k,) state steps on Python floats, which skips numpy's per-call cost
    on 0-d values; a batch steps on its level arrays.
    """
    if d.ndim == 1:
        return np.array(list(_map_levels(d.tolist(), params, topo)))
    out = np.empty_like(d)
    for i, level in enumerate(_map_levels([d[..., m] for m in range(topo.k)], params, topo)):
        out[..., i] = level
    return out


def _map_levels(levels, params: ModelParams, topo: StarlikeTopology):
    """Yield the k levels of the map's image of k level arrays, hub first.

    The levels broadcast against each other, so a grid may pass each level
    along its own axis.  Each power is taken on its own level: on a (k,)
    state the levels are Python floats, whose power is libm's pow, as a
    numpy scalar power is, so iterate's bytes do not follow numpy's
    dispatch.  A power taken on an array can differ from it in the last ulp,
    so vectorising over the levels would change iterate's output.
    """
    a, b = params.a, params.b
    k = topo.k
    n = topo.branching
    yield 1.0 - (1.0 - a * levels[0]) * (1.0 - b * levels[1]) ** n[0]
    for i in range(1, k - 1):
        yield 1.0 - (1.0 - a * levels[i]) * (1.0 - b * levels[i - 1]) * (
            1.0 - b * levels[i + 1]
        ) ** n[i]
    yield 1.0 - (1.0 - a * levels[k - 1]) * (1.0 - b * levels[k - 2])


def step_level3(d, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """step_level restricted to 3-level topologies.

    Not exported: the name stays only because the benchmark's tracer lists
    it.  It runs the one kernel above; the written-out 3-level formula that
    the tests check step_level against lives in tests/oracles.py.
    """
    if topo.k != 3:
        raise ValueError("step_level3 requires a 3-level topology")
    return step_level(d, params, topo)


def step_full(p, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """One step of the exact per-node recursion p_i' = 1 - (1 - a p_i) prod_j (1 - b p_j).

    p has shape (..., N); each state along the leading axes steps on its own.
    The neighbour product is one multiply.reduceat over the topology's edge
    rows.  It multiplies each row in ascending source order, starting from the
    first factor, so it is bitwise equal to a left-to-right loop from 1.0, and
    a batch row is bitwise equal to its own 1-D call.  The result's memory
    layout follows reduceat's and need not be C-ordered.  The gather is a
    take, which on a 1-D state is about twice as fast as p[..., src].
    """
    p = as_node_state(p, topo)
    src, _, starts = topo.edges
    return 1.0 - (1.0 - params.a * p) * np.multiply.reduceat(
        1.0 - params.b * p.take(src, axis=-1), starts, axis=-1)


@dataclass
class Trajectory:
    """Recorded iteration of the level-reduced map."""

    states: np.ndarray  # (num_recorded, k)
    converged: bool
    iterations: int
    final_residual: float
    limit: np.ndarray


def iterate(d0, params: ModelParams, topo: StarlikeTopology, tol: float = 1e-12,
            max_iter: int = 10**6) -> Trajectory:
    """Iterate step_level from d0 until the sup-norm successive difference <= tol.

    d0 is validated once; the steps run the unchecked kernel, since the map
    keeps [0,1]^k.  Every state is stored, d0 and the limit included.
    Hitting max_iter is reported via converged=False, not raised.
    """
    if not tol > 0:  # also rejects NaN
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    d = as_level_state(d0, topo).copy()
    states = [d.copy()]
    converged = False
    res = np.inf
    steps = 0
    while steps < max_iter:
        nxt = _step_level(d, params, topo)
        res = float(np.abs(nxt - d).max())
        converged = res <= tol
        if res == 0.0:  # a step that changes nothing is not counted
            break
        d = nxt
        steps += 1
        states.append(d)
        if converged:
            break
    return Trajectory(
        states=np.array(states),
        converged=converged,
        iterations=steps,
        final_residual=res,
        limit=d.copy(),
    )


def coalescence_gap(p, topo: StarlikeTopology) -> np.ndarray:
    """Per-level max spread |p_i - p_j| over same-level node pairs (level 1 gap is 0).

    p has shape (..., N) and the gaps shape (..., k).
    """
    p = as_node_state(p, topo)
    level_starts = topo.level_offsets[:-1]
    return (np.maximum.reduceat(p, level_starts, axis=-1)
            - np.minimum.reduceat(p, level_starts, axis=-1))
