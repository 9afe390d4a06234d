"""Independent numpy references the benchmark checks the library against.

Nothing here imports starsis: each function restates a documented contract
(the level map, the spectral threshold, the chain's draw order) so that a
change inside the library cannot move the yardstick it is measured with.
"""

import numpy as np


def level_sizes(branching):
    sizes = [1]
    for n in branching:
        sizes.append(sizes[-1] * int(n))
    return np.array(sizes, dtype=np.int64)


def level_offsets(branching):
    return np.concatenate([[0], np.cumsum(level_sizes(branching))])


def spectral_radius(branching) -> float:
    """rho(M) of the lumped level matrix, via its symmetric k x k tridiagonal form."""
    k = len(branching) + 1
    t = np.zeros((k, k))
    for m, n in enumerate(branching):
        t[m, m + 1] = t[m + 1, m] = np.sqrt(n)
    return float(np.linalg.eigvalsh(t)[-1])


def spectral_threshold(a, branching) -> float:
    """b at which the trivial point loses stability: (1 - a) / rho(M)."""
    return (1.0 - a) / spectral_radius(branching)


def step_level(d, a, b, branching):
    """The level-reduced map of the README on a state of shape (..., k)."""
    d = np.asarray(d, dtype=float)
    k = len(branching) + 1
    out = np.empty_like(d)
    for i in range(k):
        q = 1.0 - a * d[..., i]
        if i > 0:
            q = q * (1.0 - b * d[..., i - 1])
        if i < k - 1:
            q = q * (1.0 - b * d[..., i + 1]) ** branching[i]
        out[..., i] = 1.0 - q
    return out


def expand(d, branching):
    """Per-node vector, breadth-first order, with every level-m node at d[m-1]."""
    return np.repeat(np.asarray(d, dtype=float), level_sizes(branching))


def reduce(p, branching):
    """Per-level means of a breadth-first per-node vector."""
    offs = level_offsets(branching)
    return np.add.reduceat(np.asarray(p, dtype=float), offs[:-1]) / level_sizes(branching)


def directed_edges(branching):
    """(source, target) of every directed tree edge, sorted by (target, source)."""
    sizes = level_sizes(branching)
    offs = level_offsets(branching)
    parent = np.concatenate([
        offs[m] + np.arange(sizes[m + 1]) // branching[m] for m in range(len(branching))
    ])
    child = np.arange(1, offs[-1])
    src = np.concatenate([parent, child])
    dst = np.concatenate([child, parent])
    order = np.lexsort((src, dst))
    return src[order], dst[order]


def run_trials(a, b, branching, infected, horizon, trials, master_seed):
    """The chain's documented stream: SeedSequence(master).spawn(trials), then per
    step the node uniforms followed by the edge uniforms in (target, source) order.

    Returns (prevalence of shape (horizon + 1, k), extinction steps per trial).
    """
    src, dst = directed_edges(branching)
    offs = level_offsets(branching)
    n = int(offs[-1])
    total = np.zeros((horizon + 1, len(branching) + 1))
    extinction = []
    for seq in np.random.SeedSequence(master_seed).spawn(trials):
        rng = np.random.default_rng(seq)
        inf = np.asarray(infected, dtype=bool).copy()
        ext = None
        for t in range(horizon + 1):
            total[t] += np.add.reduceat(inf.astype(np.int64), offs[:-1])
            if ext is None and not inf.any():
                ext = t
            if t < horizon:
                u_node = rng.random(n)
                u_edge = rng.random(len(src))
                nxt = inf & (u_node < a)
                nxt[dst[inf[src] & (u_edge < b)]] = True
                inf = nxt
        extinction.append(ext)
    return total / (trials * level_sizes(branching)), extinction
