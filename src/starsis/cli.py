"""Command-line surface: threshold, iterate, fixedpoint, curves, regions, simulate, verify."""

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from .fixedpoint import (SolverInvariantError, classify_regime, solve_fixed_point,
                         spectral_threshold)
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

_BLOCK_ROWS = 1024


def _parse_branching(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"branching must be comma-separated integers, got {text!r}") from exc


def _build_parser():
    """The top-level parser, with one subparser per command.

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
    commands["curves"].add_argument("--grid-n", type=int, default=1000)
    commands["regions"].add_argument("--grid-n", type=int, default=101)
    commands["regions"].add_argument("--z", type=float,
                                     help="slice height; default emits the three figure slices")
    commands["simulate"].add_argument("--horizon", type=int, default=500)
    commands["simulate"].add_argument("--trials", type=int, default=50)
    commands["simulate"].add_argument("--seed", type=int, default=0)
    commands["verify"].add_argument("--seed", type=int, default=0)
    return parser


@functools.cache
def _parser():
    """The parser main reuses for every call in this process."""
    return _build_parser()


def _apply_config(args, argv):
    """Parse argv again with the --config values as flags before its own.

    Each key becomes a `--key=value` token placed right after the command,
    and argparse keeps the last value of a repeated flag, so flags given on
    the command line still win.  A non-null value goes in as its text, so
    argparse runs it through the flag's type like a command-line string: a
    seed of 1.5 is a usage error (exit 2).  A key the command does not take
    is rejected, and so is a null for a flag whose default is not None
    (`{"a": null}`); a null for any other flag adds no token.
    """
    if args.config is None:
        return args
    with open(args.config) as fh:
        cfg = json.load(fh)
    defaults = vars(_parser().parse_args([args.command]))
    tokens = []
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr not in defaults or attr in ("command", "config"):
            raise ValueError(f"{args.command} does not take config key {key!r}")
        if value is not None:
            tokens.append(f"--{attr.replace('_', '-')}={value}")
        elif defaults[attr] is not None:
            raise ValueError(f"config key {key!r} of {args.command} cannot be null")
    argv = sys.argv[1:] if argv is None else list(argv)
    at = argv.index(args.command) + 1
    return _parser().parse_args(argv[:at] + tokens + argv[at:])


def _model_inputs(args, require_b=True):
    topo = make_topology(_parse_branching(args.branching))
    if args.b is None and require_b:
        raise ValueError("--b is required for this command")
    params = None if args.b is None else ModelParams(a=args.a, b=args.b)
    return args.a, params, topo


def _emit_json(payload, out, sidecar=False):
    """Write a report to --out or stdout, or a sidecar to <out>.json or stderr."""
    if sidecar and out is not None:
        out += ".json"
    with _sink(out, sys.stderr if sidecar else sys.stdout) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _emit_table(header, table, out):
    """Stream a 2-D float table as CSV to --out or stdout, _BLOCK_ROWS rows at a time.

    Every cell is "%.17g" % x, which is format(x, ".17g"), so values
    round-trip and integral values (step indices, 0/1 flags) print with no
    point.  Each block formats each of its distinct bit patterns once and
    gathers the strings per cell.  Keying on the bits rather than the values
    keeps -0.0 apart from 0.0, which print differently.
    """
    table = np.asarray(table, dtype=np.float64)
    row = ",".join(["%s"] * table.shape[1]) + "\n"
    with _sink(out, sys.stdout) as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            keys, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
            # One %-format over the whole key vector runs in C; no formatted
            # double contains whitespace, so split() recovers the strings.
            text = ("%.17g\n" * len(keys) % tuple(keys.view(np.float64).tolist())).split()
            fh.write((row * len(block)) % tuple([text[i] for i in inverse.tolist()]))


def _finite_or_none(x):
    return x if np.isfinite(x) else None


def _sink(path, stream):
    """The file at path opened for writing, or stream when path is None."""
    return contextlib.nullcontext(stream) if path is None else open(path, "w", newline="")


def cmd_threshold(args) -> int:
    a, params, topo = _model_inputs(args, require_b=False)
    bc = spectral_threshold(a, topo.branching)
    payload = {"a": a, "branching": list(topo.branching), "b_crit": bc}
    if params is not None:
        regime = classify_regime(params, topo, eq_tol=1e-12)
        payload["b"] = params.b
        payload["regime"] = regime.kind.value
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_iterate(args) -> int:
    _, params, topo = _model_inputs(args)
    d0 = np.ones(topo.k) if args.d0 is None else np.array([float(v) for v in args.d0.split(",")])
    traj = iterate(d0, params, topo, tol=args.tol, max_iter=args.max_iter)
    # Each stored state is the map applied to the one before, so a row's
    # residual is its difference to the next row; the last row takes one step.
    states = traj.states
    after = np.vstack([states[1:], step_level(states[-1], params, topo)])
    residual = np.max(np.abs(after - states), axis=1)
    header = "step," + ",".join(f"d{i + 1}" for i in range(topo.k)) + ",residual"
    _emit_table(header, np.column_stack([np.arange(len(states)), states, residual]), args.out)
    meta = {
        "status": "converged" if traj.converged else "max_iter",
        "converged": traj.converged,
        "iterations": traj.iterations,
        "final_residual": traj.final_residual,
        "limit": [float(v) for v in traj.limit],
        "tol": args.tol,
    }
    _emit_json(meta, args.out, sidecar=True)
    return EXIT_OK


def cmd_fixedpoint(args) -> int:
    _, params, topo = _model_inputs(args)
    report = solve_fixed_point(params, topo)
    payload = {
        "regime": report.regime.kind.value,
        "b_crit": report.regime.b_crit,
        "trivial_point": [0.0] * topo.k,
        "nontrivial_point": (
            None if report.nontrivial_point is None
            else [float(v) for v in report.nontrivial_point]
        ),
        "iteration_residual": report.iteration_residual,
        # inf where the curve route found no root; JSON has no infinity
        "curve_root_residual": _finite_or_none(report.curve_root_residual),
        "agreement": _finite_or_none(report.agreement),
        "error_bound": [float(v) for v in report.error_bound],
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_curves(args) -> int:
    a, params, topo = _model_inputs(args, require_b=False)
    bs = FIGURE_BS if params is None else (params.b,)
    curves = [sample_curves(ModelParams(a=a, b=b), topo, args.grid_n) for b in bs]
    table = np.vstack([np.column_stack([np.full(len(c), b), c]) for b, c in zip(bs, curves)])
    _emit_table("b,t,d1_hub_curve,d1_tail_curve,d2", table, args.out)
    return EXIT_OK


def cmd_regions(args) -> int:
    _, params, topo = _model_inputs(args)
    zs = FIGURE_ZS if args.z is None else (args.z,)
    xs = np.linspace(0.0, 1.0, args.grid_n)
    masks = [region_slice(z, args.grid_n, params, topo).ravel() for z in zs]
    x, y = (g.ravel() for g in np.meshgrid(xs, xs, indexing="ij"))
    table = np.vstack([np.column_stack([np.full(x.size, z), x, y, m]) for z, m in zip(zs, masks)])
    _emit_table("z,x,y,inside", table, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    _, params, topo = _model_inputs(args)
    init = make_chain_state(topo, all_infected=True)
    summary = run_trials(params, topo, init, horizon=args.horizon, trials=args.trials,
                         master_seed=args.seed)
    prevalence = summary.prevalence
    header = "step," + ",".join(f"level{i + 1}" for i in range(topo.k))
    _emit_table(header, np.column_stack([np.arange(len(prevalence)), prevalence]), args.out)
    meta = {
        "master_seed": args.seed,
        "trials": args.trials,
        "horizon": args.horizon,
        "extinction_steps": summary.extinction_steps,
    }
    _emit_json(meta, args.out, sidecar=True)
    return EXIT_OK


def cmd_verify(args) -> int:
    _, params, topo = _model_inputs(args)
    checks = run_property_suite(params, topo, seed=args.seed)
    payload = {"checks": checks, "all_passed": all(checks.values())}
    _emit_json(payload, args.out)
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
    args = _parser().parse_args(argv)
    try:
        args = _apply_config(args, argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except SolverInvariantError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
