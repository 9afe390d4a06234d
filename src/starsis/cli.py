"""Command-line surface: threshold, iterate, fixedpoint, curves, regions, simulate, verify."""

import argparse
import json
import sys

import numpy as np

from .fixedpoint import (RegimeKind, SolverInvariantError, classify_regime,
                         critical_b, solve_fixed_point)
from .geometry import region_slice, sample_curves
from .meanfield import iterate, step_level
from .model import ModelParams, make_topology
from .stochastic import make_chain_state, run_trials
from .verify import run_property_suite

FIGURE_BS = (0.08, 0.125, 0.15)
FIGURE_ZS = (0.0, 0.25, 0.75)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _parse_branching(text):
    try:
        return tuple(int(part) for part in str(text).split(","))
    except ValueError as exc:
        raise ValueError(f"branching must be comma-separated integers, got {text!r}") from exc


def _parse_floats(text):
    return tuple(float(part) for part in str(text).split(","))


def _build_parser():
    """The top-level parser and one subparser per command.

    Each command takes the shared model flags and only the options it reads.
    The defaults live here: a and branching default to the paper's figure
    (a = 0.5, branching 6,10).
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--a", type=float, default=0.5)
    shared.add_argument("--b", type=float)
    shared.add_argument("--branching", default="6,10")
    shared.add_argument("--config", help="JSON file supplying values for this command's flags")
    shared.add_argument("--out")

    parser = argparse.ArgumentParser(prog="starsis",
                                     description="SIS mean-field dynamics on starlike graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, parents=[shared]) for name in _COMMANDS}
    commands["iterate"].add_argument("--tol", type=float, default=1e-12)
    commands["iterate"].add_argument("--max-iter", type=int, default=10**6)
    commands["iterate"].add_argument("--d0", help="comma-separated start state, default all ones")
    commands["fixedpoint"].add_argument("--tol", type=float, default=1e-12)
    commands["curves"].add_argument("--grid-n", type=int, default=1000)
    commands["regions"].add_argument("--grid-n", type=int, default=101)
    commands["regions"].add_argument("--z", type=float,
                                     help="slice height; default emits the three figure slices")
    commands["simulate"].add_argument("--horizon", type=int, default=500)
    commands["simulate"].add_argument("--trials", type=int, default=50)
    commands["simulate"].add_argument("--seed", type=int, default=0)
    commands["verify"].add_argument("--seed", type=int, default=0)
    commands["verify"].add_argument("--slope-tol", type=float, default=1e-6)
    return parser, commands


def _apply_config(args, parser, commands, argv):
    """Parse argv again with the --config values as the command's defaults.

    Flags given on the command line still win.  A key the command does not
    take is rejected.  set_defaults changes the shared flags' defaults for
    every command of this parser, which main builds afresh for each call.
    """
    if args.config is None:
        return args
    with open(args.config) as fh:
        cfg = json.load(fh)
    takes = set(vars(args)) - {"command", "config"}
    values = {}
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr not in takes:
            raise ValueError(f"{args.command} does not take config key {key!r}")
        values[attr] = value
    commands[args.command].set_defaults(**values)
    return parser.parse_args(argv)


def _model_inputs(args, require_b=True):
    a = float(args.a)
    topo = make_topology(_parse_branching(args.branching))
    b = args.b
    if b is None and require_b:
        raise ValueError("--b is required for this command")
    params = ModelParams(a=a, b=float(b)) if b is not None else None
    return a, params, topo


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _emit_sidecar(payload: dict, out):
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stderr.write(text)
    else:
        with open(out + ".json", "w") as fh:
            fh.write(text)


def cmd_threshold(args) -> int:
    a, params, topo = _model_inputs(args, require_b=False)
    bc = critical_b(a, topo.branching)
    payload = {"a": a, "branching": list(topo.branching), "b_crit": bc}
    if params is not None:
        regime = classify_regime(params, topo, eq_tol=1e-12)
        payload["b"] = params.b
        payload["regime"] = regime.kind.value
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_iterate(args) -> int:
    _, params, topo = _model_inputs(args)
    d0 = np.ones(topo.k) if args.d0 is None else np.array(_parse_floats(args.d0))
    traj = iterate(d0, params, topo, tol=args.tol, max_iter=args.max_iter)
    header = "step," + ",".join(f"d{i + 1}" for i in range(topo.k)) + ",residual"
    lines = [header]
    for step, state in enumerate(traj.states):
        res = np.max(np.abs(step_level(state, params, topo) - state))
        lines.append(",".join([str(step)] + [_fmt(v) for v in state] + [_fmt(res)]))
    _emit("\n".join(lines) + "\n", args.out)
    _emit_sidecar(
        {
            "status": "converged" if traj.converged else "max_iter",
            "converged": traj.converged,
            "iterations": traj.iterations,
            "final_residual": traj.final_residual,
            "limit": [float(v) for v in traj.limit],
            "tol": args.tol,
        },
        args.out,
    )
    return EXIT_OK


def cmd_fixedpoint(args) -> int:
    _, params, topo = _model_inputs(args)
    tol = args.tol
    report = solve_fixed_point(params, topo, tol=tol)
    payload = {
        "regime": report.regime.kind.value,
        "b_crit": report.regime.b_crit,
        "trivial_point": [float(v) for v in report.trivial_point],
        "nontrivial_point": (
            None if report.nontrivial_point is None
            else [float(v) for v in report.nontrivial_point]
        ),
        "iteration_residual": report.iteration_residual,
        "curve_root_residual": report.curve_root_residual,
        "agreement": report.agreement,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if report.regime.kind is RegimeKind.SUPERCRITICAL and report.agreement > 10.0 * tol:
        sys.stderr.write(
            f"solver disagreement {report.agreement:g} exceeds 10*tol={10 * tol:g}\n"
        )
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_curves(args) -> int:
    a, params, topo = _model_inputs(args, require_b=False)
    bs = FIGURE_BS if params is None else (params.b,)
    lines = ["b,t,d1_hub_curve,d1_tail_curve,d2"]
    for b in bs:
        table = sample_curves(ModelParams(a=a, b=b), topo, args.grid_n)
        for row in table:
            lines.append(",".join([_fmt(b)] + [_fmt(v) for v in row]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_regions(args) -> int:
    _, params, topo = _model_inputs(args)
    grid_n = args.grid_n
    zs = FIGURE_ZS if args.z is None else (args.z,)
    xs = np.linspace(0.0, 1.0, grid_n)
    lines = ["z,x,y,inside"]
    for z in zs:
        mask = region_slice(z, grid_n, params, topo)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                lines.append(f"{_fmt(z)},{_fmt(x)},{_fmt(y)},{int(mask[i, j])}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    _, params, topo = _model_inputs(args)
    init = make_chain_state(topo, all_infected=True)
    summary = run_trials(params, topo, init, horizon=args.horizon, trials=args.trials,
                         master_seed=args.seed)
    header = "step," + ",".join(f"level{i + 1}" for i in range(topo.k))
    lines = [header]
    for step, row in enumerate(summary.prevalence):
        lines.append(",".join([str(step)] + [_fmt(v) for v in row]))
    _emit("\n".join(lines) + "\n", args.out)
    _emit_sidecar(
        {
            "master_seed": summary.master_seed,
            "trials": summary.trials,
            "horizon": args.horizon,
            "extinction_steps": summary.extinction_steps,
        },
        args.out,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    _, params, topo = _model_inputs(args)
    checks = run_property_suite(params, topo, seed=args.seed, slope_tol=args.slope_tol)
    payload = {"checks": checks, "all_passed": all(checks.values())}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "threshold": cmd_threshold,
    "iterate": cmd_iterate,
    "fixedpoint": cmd_fixedpoint,
    "curves": cmd_curves,
    "regions": cmd_regions,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, parser, commands, argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except SolverInvariantError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
