"""Tests of the benchmark itself: seeded inputs, output checkers, span arithmetic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
They sit outside tests/ so the library's own suite does not get slower.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import reference as ref  # noqa: E402
import starsis  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _plain(value):
    """Op arguments as comparable plain data."""
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, starsis.StarlikeTopology):
        return ("topology", value.branching)
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.astuple(value))
    return value


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    def rounds(seed):
        wl = workloads.WORKLOADS[name](seed, str(tmp_path))
        return [[(op.kind, _plain(op.args)) for op in wl.round(i)] for i in range(3)]

    assert rounds(5) == rounds(5)
    assert rounds(5) != rounds(6)


def test_solve_sweep_inputs_stay_inside_their_bands():
    wl = workloads.SolveSweep(3, "")
    for i in range(4):
        for op in wl.round(i):
            params, topo, b_spec = op.args
            a, shape, r = params.a, tuple(topo.branching), params.b / b_spec
            if op.kind == "subcritical":
                assert params.b < min(b_spec, wl.b_closed_form(a, shape))
            elif op.kind == "near_threshold":
                assert a <= 0.6
                assert wl.DELTA[0] * (1 - 1e-12) <= (r - 1) * (1 - a) <= wl.DELTA[1] * (1 + 1e-12)
            else:
                assert a <= 0.8 and 1.05 * (1 - 1e-12) <= r <= wl.SHAPES[shape] * (1 + 1e-12)


def _supercritical_case():
    a, shape = 0.5, (6, 10)
    b_spec = ref.spectral_threshold(a, shape)
    params = starsis.ModelParams(a, 1.2 * b_spec)
    return Op("supercritical", (params, starsis.make_topology(shape), b_spec))


def test_solve_check_accepts_a_good_solve():
    op = _supercritical_case()
    report = starsis.solve_fixed_point(*op.args[:2])
    assert workloads.SolveSweep(0, "").check(op, report) is None


def test_solve_check_rejects_a_perturbed_fixed_point():
    op = _supercritical_case()
    report = starsis.solve_fixed_point(*op.args[:2])
    report.nontrivial_point = report.nontrivial_point * (1.0 + 1e-6)
    assert workloads.SolveSweep(0, "").check(op, report) == "residual"


def test_solve_check_rejects_a_flipped_regime():
    op = _supercritical_case()
    report = starsis.solve_fixed_point(*op.args[:2])
    report.regime = dataclasses.replace(report.regime, kind=starsis.RegimeKind.SUBCRITICAL)
    assert workloads.SolveSweep(0, "").check(op, report) == "misclassified_regime"


def test_rng_check_rejects_one_altered_prevalence():
    a, b, shape, horizon, trials, seed = 0.5, 0.3, (6, 10), 30, 3, 4
    topo = starsis.make_topology(shape)
    init = starsis.make_chain_state(topo, all_infected=True)
    got = starsis.run_trials(starsis.ModelParams(a, b), topo, init, horizon=horizon,
                             trials=trials, master_seed=seed)
    want = ref.run_trials(a, b, shape, init.infected, horizon, trials, seed)
    assert workloads.rng_matches(got.prevalence, got.extinction_steps, *want)
    altered = got.prevalence.copy()
    altered[7, 1] = np.nextafter(altered[7, 1], 2.0)
    assert not workloads.rng_matches(altered, got.extinction_steps, *want)


def test_cli_check_rejects_a_csv_with_a_missing_row(tmp_path):
    wl = workloads.Cli(0, str(tmp_path))
    out = str(tmp_path / "curves.csv")
    op = Op("curves", (["curves", "--grid-n", "50", "--out", out], {"rows": 150}))
    result = wl.run(op)
    assert wl.check(op, result) is None
    with open(out) as fh:
        lines = fh.read().splitlines()
    with open(out, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert wl.check(op, result) == "csv"


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100] holds A [10, 40] and B [50, 90]; A holds C [15, 25].
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent).tolist() == [30, 20, 10, 40]
    assert tracing.under(parent, [False, True, False, False]).tolist() == [
        False, True, True, False]


def test_tracer_wraps_every_holder_and_restores_them():
    import starsis.fixedpoint
    import starsis.geometry
    original = starsis.fixedpoint.tail_state_of_hub
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert starsis.geometry.tail_state_of_hub is starsis.fixedpoint.tail_state_of_hub
        assert starsis.fixedpoint.tail_state_of_hub is not original
        assert tracer.absent() == []
        sid = tracer.begin_op(0)
        starsis.solve_fixed_point(*_supercritical_case().args[:2])
        tracer.end_op(sid)
    finally:
        tracer.uninstall()
    assert starsis.fixedpoint.tail_state_of_hub is original
    names = [tracer.names[i] for i in tracer.arrays()["name"]]
    assert {"fixedpoint.solve_fixed_point", "meanfield.iterate", "fixedpoint.hub_gap",
            "fixedpoint._bracket_root"} <= set(names)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    import run
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail(list(range(12))) == (1, 100.0 * 2 / 12, 10)
