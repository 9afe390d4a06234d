"""The topology's edge arrays and the per-node layers built on them.

The loop implementations these replaced are kept as oracles: the neighbour
lists (in oracles.py) and directed edges built node by node, the per-node
product loop of step_full, and the per-step run_trials loop that simulates
every trial to the horizon.  Every comparison is exact.
"""

import hashlib
import threading

import numpy as np
import pytest

from oracles import loop_neighbors
from starsis import (ChainState, ModelParams, coalescence_gap, make_chain_state,
                     make_topology, run_trials, step_chain, step_full, stochastic)
from starsis.cli import main

SHAPES = [(6, 10), (3, 3, 3), (1, 1, 1), (1, 5), (10, 3, 3, 3, 2), (30, 30, 10)]


def loop_edges(topo):
    src, dst = [], []
    for i, nbrs in enumerate(loop_neighbors(topo)):
        for j in nbrs:
            src.append(j)
            dst.append(i)
    return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)


def loop_step_full(p, params, topo):
    out = np.empty_like(p)
    for i, nbrs in enumerate(loop_neighbors(topo)):
        prod = 1.0
        for j in nbrs:
            prod *= 1.0 - params.b * p[j]
        out[i] = 1.0 - (1.0 - params.a * p[i]) * prod
    return out


def two_draw_step(inf, params, src, dst, rng):
    """One chain step drawing the node uniforms, then the edge uniforms, in two calls."""
    u_node = rng.random(len(inf))
    u_edge = rng.random(len(src))
    nxt = inf & (u_node < params.a)
    np.logical_or.at(nxt, dst[inf[src] & (u_edge < params.b)], True)
    return nxt


def loop_run_trials(params, topo, infected, horizon, trials, master_seed):
    src, dst = loop_edges(topo)
    offs = topo.level_offsets
    total = np.zeros((horizon + 1, topo.k))
    extinction = []
    for seq in np.random.SeedSequence(master_seed).spawn(trials):
        rng = np.random.default_rng(seq)
        inf = infected.copy()
        ext = None
        for t in range(horizon + 1):
            total[t] += [inf[offs[m]:offs[m + 1]].sum() for m in range(topo.k)]
            if ext is None and not inf.any():
                ext = t
            if t < horizon:
                inf = two_draw_step(inf, params, src, dst, rng)
        extinction.append(ext)
    return total / (trials * np.array(topo.level_sizes, dtype=float)), extinction


@pytest.mark.parametrize("branching", SHAPES + [(1,), (7,), (2, 2), (5, 1, 4)])
def test_edge_arrays_match_loop_construction(branching):
    topo = make_topology(branching)
    src, dst, starts = topo.edges
    want_src, want_dst = loop_edges(topo)
    assert src.dtype == dst.dtype == starts.dtype == np.intp
    assert np.array_equal(src, want_src) and np.array_equal(dst, want_dst)
    assert np.array_equal(starts, np.searchsorted(want_dst, np.arange(topo.node_count)))
    assert not src.flags.writeable


@pytest.mark.parametrize("branching", SHAPES)
def test_level_arrays_match_loops(branching):
    topo = make_topology(branching)
    offs = topo.level_offsets
    want_levels = np.empty(topo.node_count, dtype=np.intp)
    for m in range(topo.k):
        want_levels[offs[m]:offs[m + 1]] = m + 1
    assert topo.node_levels.dtype == np.intp
    assert np.array_equal(topo.node_levels, want_levels)
    p = np.random.default_rng(len(branching)).random(topo.node_count)
    want_gap = [p[offs[m]:offs[m + 1]].max() - p[offs[m]:offs[m + 1]].min() for m in range(topo.k)]
    assert coalescence_gap(p, topo).tobytes() == np.array(want_gap).tobytes()


@pytest.mark.parametrize("branching", SHAPES)
def test_step_full_bitwise_equals_loop(branching):
    topo = make_topology(branching)
    rng = np.random.default_rng(sum(branching))
    for a, b in [(0.5, 0.3), (0.9, 0.01), (0.1, 0.99)]:
        params = ModelParams(a, b)
        for p in (rng.random(topo.node_count), np.ones(topo.node_count),
                  rng.random(topo.node_count) ** 8):
            assert step_full(p, params, topo).tobytes() == loop_step_full(p, params, topo).tobytes()


@pytest.mark.parametrize("branching", [(2, 2), (6, 10), (3, 3, 3)])
def test_conditional_probability_bitwise_equals_loop(branching):
    topo = make_topology(branching)
    params = ModelParams(0.5, 0.3)
    infected = np.random.default_rng(1).random(topo.node_count) < 0.4
    got = step_full(infected.astype(float), params, topo)
    assert got.tobytes() == loop_step_full(infected.astype(float), params, topo).tobytes()


# Explicit ids keep the names of the first four cases stable.
@pytest.mark.parametrize("branching, a, b, seed, trials", [
    # subcritical: every trial dies out early
    pytest.param((6, 10), 0.5, 0.05, 7, 12, id="branching0-0.5-0.05-7"),
    # supercritical: no trial dies out
    pytest.param((6, 10), 0.5, 0.3, 9, 12, id="branching1-0.5-0.3-9"),
    # near threshold: some trials die out
    pytest.param((2, 3, 2), 0.4, 0.35, 11, 12, id="branching2-0.4-0.35-11"),
    pytest.param((1,), 0.3, 0.4, 3, 12, id="branching3-0.3-0.4-3"),
    # one trial per group, groups on the thread pool, trials dying at different steps
    pytest.param((30, 30, 10), 0.5, 0.05, 5, 12, id="forest-of-one-10k-nodes"),
    # groups of unequal size, most trials dying at different chunk ends
    pytest.param((6, 10), 0.5, 0.16, 13, 201, id="unequal-groups"),
    pytest.param((3, 4), 0.5, 0.3, 2, 1, id="one-trial"),
    # one chunk covers the horizon; trials die at different offsets within it
    pytest.param((2, 2), 0.9, 0.1, 4, 12, id="deaths-within-a-chunk"),
])
def test_run_trials_matches_full_horizon_loop(branching, a, b, seed, trials):
    topo = make_topology(branching)
    params = ModelParams(a, b)
    init = make_chain_state(topo, all_infected=True)
    got = run_trials(params, topo, init, horizon=120, trials=trials, master_seed=seed)
    want_prev, want_ext = loop_run_trials(params, topo, init.infected, 120, trials, seed)
    assert got.prevalence.tobytes() == want_prev.tobytes()
    assert got.extinction_steps == want_ext


@pytest.mark.parametrize("cpus", [1, 3])
def test_run_trials_output_does_not_depend_on_the_cpu_count(monkeypatch, cpus):
    topo = make_topology((10, 10, 9))
    params = ModelParams(0.5, 0.2)
    init = make_chain_state(topo, all_infected=True)
    want = run_trials(params, topo, init, horizon=60, trials=12, master_seed=21)
    threads = threading.enumerate()
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: cpus)
    got = run_trials(params, topo, init, horizon=60, trials=12, master_seed=21)
    assert got.prevalence.tobytes() == want.prevalence.tobytes()
    assert got.extinction_steps == want.extinction_steps
    assert threading.enumerate() == threads


def test_run_trials_workers_call_no_public_name(monkeypatch):
    """A tracer wraps public names and keeps one span stack, which worker
    threads must not touch."""
    def fail(*args, **kwargs):
        raise AssertionError("step_chain called")

    topo = make_topology((10, 10, 9))
    params = ModelParams(0.5, 0.2)
    init = make_chain_state(topo, all_infected=True)
    want = run_trials(params, topo, init, horizon=30, trials=8, master_seed=4)
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 2)
    monkeypatch.setattr(stochastic, "step_chain", fail)
    got = run_trials(params, topo, init, horizon=30, trials=8, master_seed=4)
    assert got.prevalence.tobytes() == want.prevalence.tobytes()


@pytest.mark.parametrize("branching", [(6, 10), (30, 30, 10), (1,), (3, 4)])
@pytest.mark.parametrize("a, b", [(0.5, 0.3), (0.3, 0.02)])
def test_step_chain_consumes_the_two_draw_stream(branching, a, b):
    topo = make_topology(branching)
    params = ModelParams(a, b)
    src, dst = loop_edges(topo)
    rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    state = make_chain_state(topo, all_infected=True)
    want = state.infected
    for _ in range(40):
        state = step_chain(state, params, topo, rng)
        want = two_draw_step(want, params, src, dst, want_rng)
        assert state.infected.tobytes() == want.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state


def test_run_trials_from_all_healthy_stops_at_zero():
    topo = make_topology((6, 10))
    summary = run_trials(ModelParams(0.5, 0.3), topo, make_chain_state(topo),
                         horizon=5, trials=3, master_seed=0)
    assert summary.extinction_steps == [0, 0, 0]
    assert not summary.prevalence.any()


# sha256 of `simulate --a 0.5 --b <b> --branching 6,10 --horizon 200 --trials 20
# --seed 7 --out <file>`, CSV then sidecar, as written by the per-step loop
# that simulated every trial to the horizon.
SIMULATE_SHA256 = {
    "0.05": ("cb92383830224ede720f70b55f729d6aeda4baef3dc7f64bce36e22fcad1589d",
             "b9a7ef7cc00f799a0bc7ecdb18dda9bfe9f3f007e295b3620be59dbe6b89e496"),
    "0.3": ("2cf7198eee99cb82b86a368c076a6d5f429699475ee9ff1953349f0065e61c8b",
            "b82a13c0e8cd1aa29aecdecec0603866c471c97303933494fc07b2ce404f6835"),
}


@pytest.mark.parametrize("b", sorted(SIMULATE_SHA256))
def test_simulate_bytes_pinned(tmp_path, b):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--a", "0.5", "--b", b, "--branching", "6,10", "--horizon", "200",
                 "--trials", "20", "--seed", "7", "--out", str(out)])
    assert code == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out, tmp_path / "sim.csv.json"))
    assert digests == SIMULATE_SHA256[b]


def test_chain_rejects_non_bool_or_misshapen_state():
    topo = make_topology((2, 2))
    params = ModelParams(0.5, 0.9)
    rng = np.random.default_rng(0)
    for infected in (np.array([1, 0, 0, 0, 0, 0, 0]), np.ones(7, dtype=float),
                     [True] * 7, np.ones(6, dtype=bool), np.ones((7, 1), dtype=bool)):
        with pytest.raises(ValueError):
            step_chain(ChainState(infected), params, topo, rng)
        with pytest.raises(ValueError):
            run_trials(params, topo, ChainState(infected), horizon=3, trials=2, master_seed=1)
