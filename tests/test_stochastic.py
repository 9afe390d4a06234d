import numpy as np
import pytest

from oracles import loop_neighbors
import starsis.stochastic as stochastic
from starsis import (ChainState, ModelParams, make_chain_state, make_topology, run_trials,
                     step_chain, step_full)


def test_all_healthy_is_absorbing():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.3)
    rng = np.random.default_rng(0)
    state = make_chain_state(topo)
    for _ in range(20):
        state = step_chain(state, params, topo, rng)
        assert not state.infected.any()


def test_two_node_star_transition_kernel():
    # hub infected, spoke healthy: next step hub infected w.p. a, spoke w.p. b,
    # independently; compare empirical cell frequencies to the exact kernel
    topo = make_topology((1,))
    a, b = 0.6, 0.3
    params = ModelParams(a, b)
    rng = np.random.default_rng(42)
    counts = np.zeros((2, 2))
    n = 100_000
    start = ChainState(np.array([True, False]))
    for _ in range(n):
        nxt = step_chain(start, params, topo, rng)
        counts[int(nxt.infected[0]), int(nxt.infected[1])] += 1
    probs = counts / n
    exact = np.array([[(1 - a) * (1 - b), (1 - a) * b], [a * (1 - b), a * b]])
    se = np.sqrt(exact * (1 - exact) / n)
    assert np.all(np.abs(probs - exact) <= 3 * se + 1e-12)


def test_one_step_law_matches_product_formula():
    topo = make_topology((2, 2))
    params = ModelParams(0.5, 0.3)
    start = ChainState(np.array([1, 0, 0, 1, 0, 1, 0], dtype=bool))
    expected = step_full(start.infected.astype(float), params, topo)
    rng = np.random.default_rng(7)
    n = 100_000
    freq = np.zeros(topo.node_count)
    for _ in range(n):
        freq += step_chain(start, params, topo, rng).infected
    freq /= n
    se = np.sqrt(expected * (1 - expected) / n)
    assert np.all(np.abs(freq - expected) <= 3 * se + 1e-12)


def test_conditional_probability_matches_mean_field_product():
    topo = make_topology((2, 2))
    params = ModelParams(0.5, 0.3)
    state = ChainState(np.array([1, 0, 0, 1, 0, 1, 0], dtype=bool))
    s = state.infected.astype(float)
    for i, nbrs in enumerate(loop_neighbors(topo)):
        prod = 1.0
        for j in nbrs:
            prod *= 1.0 - params.b * s[j]
        want = 1.0 - (1.0 - params.a * s[i]) * prod
        assert step_full(s, params, topo)[i] == pytest.approx(want)


def test_run_trials_deterministic():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.3)
    init = make_chain_state(topo, all_infected=True)
    s1 = run_trials(params, topo, init, horizon=50, trials=4, master_seed=123)
    s2 = run_trials(params, topo, init, horizon=50, trials=4, master_seed=123)
    assert np.array_equal(s1.prevalence, s2.prevalence)
    assert s1.extinction_steps == s2.extinction_steps
    s3 = run_trials(params, topo, init, horizon=50, trials=4, master_seed=124)
    assert not np.array_equal(s1.prevalence, s3.prevalence)


def test_run_trials_subcritical_decay():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.08)
    init = make_chain_state(topo, all_infected=True)
    summary = run_trials(params, topo, init, horizon=120, trials=30, master_seed=5)
    early = summary.prevalence[:5].mean()
    late = summary.prevalence[-5:].mean()
    assert late < 0.05 * early


def test_run_trials_supercritical_plateau_near_mean_field():
    from starsis import solve_fixed_point
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.3)
    init = make_chain_state(topo, all_infected=True)
    summary = run_trials(params, topo, init, horizon=300, trials=30, master_seed=9)
    plateau = summary.prevalence[100:300].mean(axis=0)
    fp = solve_fixed_point(params, topo).nontrivial_point
    # diagnostic-grade comparison: finite-graph metastable level shadows the
    # mean-field point but independence is only approximate
    assert np.max(np.abs(plateau - fp)) < 0.15


def test_run_trials_validation():
    topo = make_topology((6, 10))
    params = ModelParams(0.5, 0.3)
    init = make_chain_state(topo, all_infected=True)
    with pytest.raises(ValueError):
        run_trials(params, topo, init, horizon=0, trials=1, master_seed=0)
    with pytest.raises(ValueError):
        run_trials(params, topo, init, horizon=1, trials=0, master_seed=0)
    with pytest.raises(ValueError):
        run_trials(params, make_topology((2, 2)), init, horizon=1, trials=1, master_seed=0)


def test_extinction_recorded():
    topo = make_topology((2,))
    params = ModelParams(0.1, 0.1)  # fast extinction
    init = make_chain_state(topo, all_infected=True)
    summary = run_trials(params, topo, init, horizon=200, trials=10, master_seed=3)
    assert all(step is not None for step in summary.extinction_steps)
    for step in summary.extinction_steps:
        assert np.all(summary.prevalence[-1] >= 0)  # series stays well formed


@pytest.mark.parametrize("branching, trials", [((6, 10), 50), ((10, 10, 9), 25)])
def test_run_trials_groups_differ_in_size_by_at_most_one(monkeypatch, branching, trials):
    sizes = []
    run_group = stochastic._run_group

    def spy(seqs, *args, **kwargs):
        sizes.append(len(seqs))
        return run_group(seqs, *args, **kwargs)

    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 2)
    monkeypatch.setattr(stochastic, "_run_group", spy)
    topo = make_topology(branching)
    init = make_chain_state(topo, all_infected=True)
    run_trials(ModelParams(0.5, 0.3), topo, init, horizon=20, trials=trials, master_seed=1)
    assert len(sizes) >= 2 and sum(sizes) == trials
    assert max(sizes) - min(sizes) <= 1
