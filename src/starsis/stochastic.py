"""Exact Markov-chain simulator of the per-node SIS process."""

import functools
import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .model import ModelParams, StarlikeTopology

# Draw-buffer sizes of run_trials, in uniforms: a group of trials holds between
# _GROUP_MIN_DRAWS and _GROUP_MAX_DRAWS of them per step, and one chunk of steps
# draws at most _CHUNK_DRAWS.
_GROUP_MIN_DRAWS = 2**13
_GROUP_MAX_DRAWS = 2**15
_CHUNK_DRAWS = 2**15


@dataclass
class ChainState:
    infected: np.ndarray  # bool, length node_count


def make_chain_state(topo: StarlikeTopology, all_infected=False) -> ChainState:
    """The all-healthy start state, or the all-infected one.  Any other start
    is ChainState(mask), with mask a bool vector over the nodes."""
    return ChainState(infected=np.full(topo.node_count, bool(all_infected)))


def _check_infected(infected, topo: StarlikeTopology) -> None:
    """Reject a configuration that is not a bool vector over the topology's nodes.

    An integer 0/1 vector would turn the masks in step_chain into index
    arrays and give a wrong state without any error.
    """
    dtype = getattr(infected, "dtype", None)
    if dtype != bool:
        raise ValueError(f"infected must be a bool array, got dtype {dtype}")
    if infected.shape != (topo.node_count,):
        raise ValueError(f"infected must have shape ({topo.node_count},), got {infected.shape}")


def _chain_step(inf, keep, hit, src, dst):
    """Next configuration: node i stays infected iff inf[i] & keep[i], and edge
    e infects dst[e] iff inf[src[e]] & hit[e].  On a forest of tree copies the
    arrays are the copies' arrays laid end to end."""
    nxt = inf & keep
    nxt[dst[inf[src] & hit]] = True
    return nxt


def step_chain(state: ChainState, params: ModelParams, topo: StarlikeTopology,
               rng: np.random.Generator) -> ChainState:
    """One step of the chain.

    An infected node stays infected with probability a; every infected
    neighbor independently transmits with probability b (one draw per
    directed edge); a node is infected next step iff it stayed infected or
    received at least one transmission.  Draws are consumed in a fixed order
    (all node draws, then all edge draws sorted by (target, source)) so the
    stream is independent of the configuration.
    """
    inf = state.infected
    _check_infected(inf, topo)
    src, dst, _ = topo.edges
    n = topo.node_count
    # One call draws the same stream as a node call followed by an edge call.
    u = rng.random(n + len(src))
    nxt = _chain_step(inf, u[:n] < params.a, u[n:] < params.b, src, dst)
    return ChainState(infected=nxt)


@dataclass
class RunSummary:
    prevalence: np.ndarray            # (horizon + 1, k) mean per-level infected fraction
    extinction_steps: List[Optional[int]]  # per trial, step at which all-healthy was reached


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_group(seqs, init, a, b, src, dst, starts, k, horizon, steps):
    """Per-level infected counts summed over one group of trials, and each
    trial's extinction step.

    The group is one chain on a forest of len(seqs) copies of the tree.
    src, dst and starts are the edge arrays and the k level starts of a
    forest of at least that many copies, tiled by node offset.  Each trial
    draws `steps` steps of uniforms at once from its own stream, which is the
    stream of `steps` one-step draws.  Trials extinct at a chunk's end leave
    the batch, and the survivors keep their order, so their forest is a
    prefix of the tiled arrays.
    """
    n, batch = len(init), len(seqs)
    e = len(src) * k // len(starts)
    rngs = [np.random.default_rng(seq) for seq in seqs]
    ids = np.arange(batch)
    counts = np.zeros((horizon + 1, k), dtype=np.int64)
    extinction = [None] * batch
    if not init.any():
        return counts, [0] * batch
    counts[0] = batch * np.add.reduceat(init, starts[:k], dtype=np.int64)
    u = np.empty((batch, steps, n + e))
    keep = np.empty((steps, batch, n), dtype=bool)
    hit = np.empty((steps, batch, e), dtype=bool)
    states = np.empty((steps, batch * n), dtype=bool)
    inf = np.tile(init, batch)
    t = 0
    while t < horizon and len(rngs):
        sc, nb = min(steps, horizon - t), len(rngs)
        for j, rng in enumerate(rngs):
            rng.random(out=u[j, :sc])
        np.less(u[:nb, :sc, :n].transpose(1, 0, 2), a, out=keep[:sc, :nb])
        np.less(u[:nb, :sc, n:].transpose(1, 0, 2), b, out=hit[:sc, :nb])
        for s in range(sc):
            inf = _chain_step(inf, keep[s, :nb].reshape(-1), hit[s, :nb].reshape(-1),
                              src[:nb * e], dst[:nb * e])
            states[s, :nb * n] = inf
        level = np.add.reduceat(states[:sc, :nb * n], starts[:nb * k], axis=1,
                                dtype=np.int64).reshape(sc, nb, k)
        counts[t + 1:t + 1 + sc] += level.sum(axis=1)
        live = level.any(axis=2)
        if not live[-1].all():
            died = ~live[-1]
            for j, s in zip(ids[died], np.argmin(live[:, died], axis=0)):
                extinction[j] = t + 1 + int(s)
            ids = ids[live[-1]]
            rngs = [rng for rng, alive in zip(rngs, live[-1]) if alive]
            inf = inf.reshape(nb, n)[live[-1]].reshape(-1)
        t += sc
    return counts, extinction


def run_trials(params: ModelParams, topo: StarlikeTopology, init: ChainState,
               horizon: int, trials: int, master_seed: int) -> RunSummary:
    """Average per-level prevalence over independent trials.

    Per-trial RNG streams are spawned from the master seed, so the result is
    deterministic and independent of execution order.  A trial stops at its
    first all-healthy step: that state is absorbing, so its later rows would
    add 0, and its stream is its own, so stopping consumes no other trial's draws.

    Consecutive trials run in groups whose sizes differ by at most one, each
    group as one chain on a forest of tree copies; two or more groups run on
    a thread pool with one worker per CPU this process may use.  Counts are
    integers and extinction steps are kept in trial order, so the output
    does not depend on the CPU count.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_infected(init.infected, topo)
    cpus = _cpu_count()
    src, dst, _ = topo.edges
    n, width = topo.node_count, topo.node_count + len(src)
    batch = min(max(-(-trials // cpus), -(-_GROUP_MIN_DRAWS // width)), _GROUP_MAX_DRAWS // width)
    batch = max(1, min(trials, batch))
    # The fewest groups of at most batch trials, their sizes differing by at most one.
    count = -(-trials // batch)
    batch = -(-trials // count)
    steps = max(1, _CHUNK_DRAWS // (width * batch))
    offsets = n * np.arange(batch)[:, None]
    run = functools.partial(
        _run_group, init=init.infected, a=params.a, b=params.b,
        src=(src + offsets).ravel(), dst=(dst + offsets).ravel(),
        starts=(topo.level_offsets[:-1] + offsets).ravel(), k=topo.k, horizon=horizon,
        steps=steps)
    seeds = np.random.SeedSequence(master_seed).spawn(trials)
    cuts = [trials * i // count for i in range(count + 1)]
    groups = [seeds[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    workers = min(cpus, len(groups))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(run, groups))
    else:
        results = [run(group) for group in groups]
    total = sum(counts for counts, _ in results)
    extinction = [e for _, ext in results for e in ext]
    sizes = np.array(topo.level_sizes, dtype=float)
    return RunSummary(prevalence=total / (trials * sizes), extinction_steps=extinction)
