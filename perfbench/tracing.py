"""Opt-in tracing of starsis from outside: wrap the public functions of every
module, record one span per call while an op is open, compute self times.

Nothing under src/ is edited.  A function is wrapped at every starsis module
attribute that holds it, so a call that crosses modules (geometry calling
fixedpoint.tail_state_of_hub, fixedpoint calling meanfield.iterate) is caught
whichever module it is looked up in.  Calls that reach a function through a
reference taken before wrapping (for example cli's command table) are not
spans; they show as self time of their caller.
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("model", "meanfield", "fixedpoint", "geometry", "stochastic", "verify", "cli")

# Names the trace looks for: those the per-layer metrics read, the solver's
# bracket and bisection helpers (private, wrapped because they are listed
# here), and names a planned clean-up may remove (step_level3).  One missing
# after a refactor is reported as absent, never as an error.
EXPECTED = (
    "model.make_topology", "model.as_level_state", "model.as_node_state",
    "meanfield.step_level", "meanfield.step_level3", "meanfield.step_full",
    "meanfield.iterate", "meanfield.coalescence_gap",
    "fixedpoint.solve_fixed_point", "fixedpoint.classify_regime", "fixedpoint.hub_gap",
    "fixedpoint.tail_curve", "fixedpoint.tail_state_of_hub",
    "fixedpoint._bracket_root", "fixedpoint._bisect_root",
    "geometry.tail_composition", "geometry.check_convexity", "geometry.region_slice",
    "geometry.sample_curves",
    "stochastic.step_chain", "stochastic.run_trials",
    "verify.run_property_suite",
    "cli.main",
)

OP = "op"


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _iterations(args, kwargs, result):
    return int(getattr(result, "iterations", 0))


def _nodes(args, kwargs, result):
    return int(getattr(_arg(args, kwargs, 2, "topo"), "node_count", 0))


def _steps_to_extinction(args, kwargs, result):
    horizon = int(_arg(args, kwargs, 3, "horizon"))
    return sum(horizon if e is None else min(int(e), horizon)
               for e in getattr(result, "extinction_steps", ()))


# The unit of work of a span, read off its arguments or result where the span
# alone does not carry it.
WORK = {
    "meanfield.iterate": _iterations,
    "meanfield.step_full": _nodes,
    "stochastic.step_chain": _nodes,
    "stochastic.run_trials": _steps_to_extinction,
}


class Tracer:
    """Spans (name, start, end, parent, op id) kept in flat arrays in memory."""

    def __init__(self):
        self.names = [OP]
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("H")
        self.work = array("q")
        self.recording = False
        self._stack = []
        self._op_id = -1
        self._patched = []
        self.wrapped = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name_id):
        sid = len(self.start)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.name.append(name_id)
        self.work.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid, t0, t1):
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def begin_op(self, op_id):
        self._op_id = op_id
        self.recording = True
        sid = self._open(0)
        self.start[sid] = time.perf_counter_ns()
        return sid

    def end_op(self, sid):
        self._close(sid, self.start[sid], time.perf_counter_ns())
        self.recording = False

    def _wrap(self, fn, qual):
        name_id = len(self.names)
        self.names.append(qual)
        work = WORK.get(qual)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = tracer._open(name_id)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, t0, time.perf_counter_ns())
            if work is not None:
                try:
                    tracer.work[sid] = work(args, kwargs, result)
                except (TypeError, ValueError, AttributeError):
                    pass  # a changed signature leaves the count at 0, not the op failed
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        """Replace each public (or EXPECTED private) starsis function at every
        module attribute that holds it."""
        holders = [importlib.import_module("starsis")]
        holders += [importlib.import_module(f"starsis.{m}") for m in MODULES]
        wrappers = {}
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("starsis."):
                    continue
                qual = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                if attr.startswith("_") and qual not in EXPECTED:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, qual)
                    self.wrapped.add(qual)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def absent(self):
        return sorted(set(EXPECTED) - self.wrapped)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return {
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent):
    """Span duration minus the time its child spans cover.

    Spans come from one thread and nest, so the children of a span never
    overlap and the time they cover is the sum of their durations.
    """
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def under(parent, flags):
    """For each span, whether it or one of its ancestors has a flag set.

    Span ids are assigned on entry, so parents precede children; pointer
    jumping needs log2(depth) passes.
    """
    parent = np.asarray(parent)
    idx = np.arange(len(parent))
    up = np.where(parent >= 0, parent, idx)
    hit = np.asarray(flags, dtype=bool).copy()
    while True:
        nxt = hit | hit[up]
        up2 = up[up]
        if np.array_equal(nxt, hit) and np.array_equal(up2, up):
            return hit
        hit, up = nxt, up2


# -- per-layer metrics ---------------------------------------------------------

CALLS = ("meanfield.step_level", "model.as_level_state", "fixedpoint.hub_gap",
         "fixedpoint.tail_curve", "fixedpoint.tail_state_of_hub", "meanfield.step_full",
         "stochastic.step_chain")
SELF = ("meanfield.step_level", "meanfield.iterate", "fixedpoint.solve_fixed_point",
        "fixedpoint.hub_gap", "fixedpoint.tail_curve", "fixedpoint.tail_state_of_hub",
        "geometry.tail_composition", "geometry.check_convexity", "geometry.region_slice",
        "geometry.sample_curves", "verify.run_property_suite", "meanfield.step_full",
        "stochastic.run_trials", "stochastic.step_chain")
PER_CALL = ("meanfield.step_level", "stochastic.step_chain")
CLI_COMMANDS = ("threshold", "iterate", "fixedpoint", "curves", "regions", "simulate")


def _metric(value, unit, base):
    return {"value": float(value), "unit": unit, "base": base}


def layer_metrics(tracer, traced, untraced, cold_start_ms, bytes_out):
    """Per-layer metrics of a traced phase.

    Returns (per_layer, extra).  per_layer holds counts, rates, ratios and
    shares of traced op time, which are defined on every workload (0 where a
    layer is bypassed); extra holds the absolute times, which exist only
    where the layer runs, and is reported beside them.
    """
    a = tracer.arrays()
    names = tracer.names
    ids = {qual: i for i, qual in enumerate(names)}
    name, parent, work = a["name"], a["parent"], a["work"]
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], parent)

    def spans(qual):
        return name == ids[qual] if qual in ids else np.zeros(len(name), dtype=bool)

    ops = spans(OP)
    n_ops = int(ops.sum())
    op_ns = float(dur[ops].sum())
    base_ops = f"{n_ops} traced ops, {op_ns / 1e9:.3f} s"

    def pct(ns):
        return 100.0 * ns / op_ns if op_ns else 0.0

    per_layer, extra = {}, {}
    for qual in CALLS:
        calls = int(spans(qual).sum())
        per_layer[f"{qual}.calls"] = _metric(calls / n_ops, "calls/op",
                                             f"{calls} calls, {base_ops}")
    for qual in SELF:
        ns = float(own[spans(qual)].sum())
        per_layer[f"{qual}.self_pct"] = _metric(pct(ns), "%", f"of {base_ops}")
        extra[f"{qual}.self_ms"] = _metric(ns / 1e6 / n_ops, "ms/op", base_ops)
    for qual in PER_CALL:
        sel = spans(qual)
        calls = int(sel.sum())
        extra[f"{qual}.us_per_call"] = _metric(
            dur[sel].sum() / 1e3 / calls if calls else 0.0, "us", f"{calls} calls")

    solve = spans("fixedpoint.solve_fixed_point")
    solves = int(solve.sum())
    in_solve = under(parent, solve) & ~solve
    iterations = int(work[in_solve & spans("meanfield.iterate")].sum())
    steps = int((in_solve & spans("meanfield.step_level")).sum())
    per_layer["fixedpoint.iterations_per_solve"] = _metric(
        iterations / solves if solves else 0.0, "iter/solve",
        f"{iterations} iterations over {solves} solves")
    per_layer["fixedpoint.step_level_calls_per_solve"] = _metric(
        steps / solves if solves else 0.0, "calls/solve", f"{steps} calls over {solves} solves")

    full = spans("meanfield.step_full")
    full_ns = float(dur[full].sum())
    per_layer["meanfield.step_full.node_updates_per_s"] = _metric(
        work[full].sum() / full_ns * 1e9 if full_ns else 0.0, "1/s",
        f"{int(work[full].sum())} node updates in {full_ns / 1e9:.3f} s of step_full")

    trials = spans("stochastic.run_trials")
    chain = spans("stochastic.step_chain") & under(parent, trials)
    trials_ns = float(dur[trials].sum())
    node_steps = int(work[chain].sum())
    per_layer["stochastic.node_steps_per_s"] = _metric(
        node_steps / trials_ns * 1e9 if trials_ns else 0.0, "1/s",
        f"{node_steps} node steps in {trials_ns / 1e9:.3f} s of run_trials")
    draws = int((2 * np.maximum(work[spans("stochastic.step_chain")] - 1, 0)).sum())
    per_layer["stochastic.edge_draws"] = _metric(draws / n_ops, "draws/op",
                                                 f"{draws} draws, {base_ops}")
    useful, simulated = int(work[trials].sum()), int(chain.sum())
    per_layer["stochastic.useful_step_ratio"] = _metric(
        useful / simulated if simulated else 0.0, "ratio",
        f"{useful} steps up to extinction of {simulated} simulated")

    kinds = np.array(traced["kinds"])
    op_dur = np.zeros(n_ops)
    op_dur[a["op"][ops]] = dur[ops]
    for command in CLI_COMMANDS:
        sel = kinds == command
        per_layer[f"cli.{command}.pct"] = _metric(pct(op_dur[sel].sum()), "%", f"of {base_ops}")
        extra[f"cli.{command}.ms"] = _metric(
            op_dur[sel].mean() / 1e6 if sel.any() else 0.0, "ms", f"{int(sel.sum())} calls")
    cli_ns = float(sum(own[name == i].sum() for q, i in ids.items() if q.startswith("cli.")))
    per_layer["cli.self_pct"] = _metric(pct(cli_ns), "%", f"of {base_ops}")
    extra["cli.self_ms"] = _metric(cli_ns / 1e6 / n_ops, "ms/op", base_ops)
    per_layer["cli.bytes_out"] = _metric(bytes_out / n_ops, "B/op", f"{bytes_out} B, {base_ops}")
    per_layer["cli.cold_start_ms"] = _metric(cold_start_ms, "ms",
                                             "median of fresh `python -m starsis.cli threshold`")

    extra["model.topology_cold_ms"] = _topology_cold(a, ids, kinds)
    traced_p50 = 1e3 * float(np.median(traced["latencies"]))
    untraced_p50 = 1e3 * float(np.median(untraced["latencies"]))
    per_layer["trace.overhead_ms"] = _metric(
        traced_p50 - untraced_p50, "ms",
        f"traced op_p50 {traced_p50:.4f} ms minus untraced {untraced_p50:.4f} ms")
    return per_layer, extra


def _topology_cold(a, ids, kinds):
    """make_topology plus the first step_full, minus a warm step_full, per trajectory op."""
    make, full = ids.get("model.make_topology"), ids.get("meanfield.step_full")
    values = []
    if make is not None and full is not None:
        dur = a["end"] - a["start"]
        for op_id in np.flatnonzero(kinds == "trajectory"):
            in_op = a["op"] == op_id
            made = dur[in_op & (a["name"] == make)]
            steps = dur[in_op & (a["name"] == full)]
            if len(made) and len(steps) >= 2:
                values.append((made[0] + steps[0] - steps[1]) / 1e6)
    return _metric(np.mean(values) if values else 0.0, "ms", f"mean of {len(values)} ops")
