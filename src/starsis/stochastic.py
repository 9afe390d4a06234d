"""Exact Markov-chain simulator of the per-node SIS process."""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .model import ModelParams, StarlikeTopology


@dataclass
class ChainState:
    infected: np.ndarray  # bool, length node_count
    t: int = 0


def make_chain_state(topo: StarlikeTopology, infected_nodes=None, all_infected=False) -> ChainState:
    inf = np.zeros(topo.node_count, dtype=bool)
    if all_infected:
        inf[:] = True
    elif infected_nodes is not None:
        inf[np.asarray(infected_nodes, dtype=np.intp)] = True
    return ChainState(infected=inf, t=0)


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
    # One call draws the same stream as a node call followed by an edge call.
    u = rng.random(topo.node_count + len(src))
    nxt = inf & (u[:topo.node_count] < params.a)
    nxt[dst[inf[src] & (u[topo.node_count:] < params.b)]] = True
    return ChainState(infected=nxt, t=state.t + 1)


@dataclass
class RunSummary:
    prevalence: np.ndarray            # (horizon + 1, k) mean per-level infected fraction
    extinction_steps: List[Optional[int]]  # per trial, step at which all-healthy was reached
    master_seed: int
    trials: int


def run_trials(params: ModelParams, topo: StarlikeTopology, init: ChainState,
               horizon: int, trials: int, master_seed: int) -> RunSummary:
    """Average per-level prevalence over independent trials.

    Per-trial RNG streams are spawned from the master seed, so the result is
    deterministic and independent of execution order.  A trial stops at its
    first all-healthy step: that state is absorbing, so its later rows would
    add 0, and its stream is its own, so stopping consumes no other trial's draws.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_infected(init.infected, topo)
    level_starts = topo.level_offsets[:-1]
    sizes = np.array(topo.level_sizes, dtype=float)
    seeds = np.random.SeedSequence(master_seed).spawn(trials)
    total = np.zeros((horizon + 1, topo.k))
    extinction = []
    for seq in seeds:
        rng = np.random.default_rng(seq)
        state = init
        ext = None
        for t in range(horizon + 1):
            total[t] += np.add.reduceat(state.infected.astype(np.int64), level_starts)
            if not state.infected.any():
                ext = t
                break
            if t < horizon:
                state = step_chain(state, params, topo, rng)
        extinction.append(ext)
    return RunSummary(prevalence=total / (trials * sizes), extinction_steps=extinction,
                      master_seed=master_seed, trials=trials)
