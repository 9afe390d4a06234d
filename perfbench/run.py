#!/usr/bin/env python3
"""starsis benchmark: one single-threaded client driving the public API in a closed loop.

Run from the root of a checkout (the directory holding src/starsis):

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The next op starts when the previous one returns.  Ops are timed one by one,
scaled to reference machine speed by a probe run between them (see
measure), and checked after their timer stops.  The loop ends on the first
round boundary after the ops have taken --seconds at reference speed (and,
untraced, after at least MIN_OPS ops).  --trace 0 prints the end-to-end
metrics; --trace 1 runs the same inputs once untraced and once traced and
prints the per-layer metrics.  The last line of stdout is one JSON object; a
readable report and a file under perfbench/out/ come with it.  See
perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # setup_s starts here, before numpy or starsis is imported

import os  # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("solve_sweep", "figure_verify", "full_tree", "cli")
SETUP_PROBES = 4       # extra fresh processes timed for setup_s, besides this one
COLD_START_RUNS = 3
MIN_OPS = 11           # the least that gives a tail percentile with 10 samples beyond it
PROCESS_TIMEOUT_S = 120
PROBE_REF_S = 1.5e-3   # probe_speed() at reference speed: its median on a 2-core 2.0 GHz VM


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the setup time and exit")
    return parser.parse_args(argv)


def load_library(root):
    """Import starsis from root/src and nowhere else; None if it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "starsis", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import starsis
    if not os.path.abspath(starsis.__file__).startswith(src + os.sep):
        return None
    return starsis


# -- measuring ---------------------------------------------------------------


def _probe_loop():
    s = 0
    for i in range(20000):
        s += i
    x = np.ones(3)
    for _ in range(200):
        x = x * 0.5 + 0.1


def probe_speed():
    """Seconds taken by a fixed pure-Python and numpy loop that never touches starsis.

    The 2-core 2.0 GHz virtual machine this was tuned on changes speed by up
    to 1.9x from one second to the next; this loop slows down with it
    (correlation 0.99 over 1 s windows), so it measures the machine's speed
    around each op.  The
    loop runs once untimed first, so that what the op left in the caches does
    not show in the probe.
    """
    _probe_loop()
    t0 = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - t0


def measure(wl, seconds, min_ops, tracer=None):
    """Closed loop over whole rounds, until the ops have taken `seconds` at
    reference speed, so that a run does the same work whatever the machine's
    speed.

    Returns each op's latency as measured ("raw", s) and scaled to reference
    speed ("latencies": raw x PROBE_REF_S / the mean probe time just before
    and after the op), op kinds and failure causes.  The probe runs between
    ops, outside their timers.
    """
    wl.begin_phase()
    raw, latencies, kinds, causes = [], [], [], Counter()
    busy, i = 0.0, 0
    before = probe_speed()
    while busy < seconds or len(raw) < min_ops:
        for op in wl.round(i):
            sid = tracer.begin_op(len(raw)) if tracer else None
            t0 = time.perf_counter()
            try:
                out, error = wl.run(op), None
            except Exception as exc:  # a failed op is counted, the loop goes on
                out, error = None, exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op(sid)
            after = probe_speed()
            cause = wl.check(op, out) if error is None else wl.error_cause(op, error)
            if cause is not None:
                causes[cause] += 1
            raw.append(dt)
            latencies.append(dt * PROBE_REF_S / (0.5 * (before + after)))
            kinds.append(op.kind)
            busy += latencies[-1]
            before = after
        i += 1
    return {"raw": raw, "latencies": latencies, "kinds": kinds, "causes": causes,
            "rounds": i}


def known_defects(wl):
    """Run the workload's known-defect census once: (cases, Counter of causes)."""
    causes = Counter()
    ops = wl.known_defects()
    for op in ops:
        try:
            cause = wl.check(op, wl.run(op))
        except Exception as exc:
            cause = wl.error_cause(op, exc)
        if cause is not None:
            causes[cause] += 1
    wl.begin_phase()
    return len(ops), causes


def tail(latencies):
    """The highest percentile with at least 10 samples beyond it: (value, pct, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def setup_probe(name, seed, root):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def cold_start_ms(root):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "starsis.cli", "threshold", "--a", "0.5", "--branching", "6,10"]
    times = []
    for _ in range(COLD_START_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                       timeout=PROCESS_TIMEOUT_S, check=True)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def machine():
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": 1}


# -- reporting ---------------------------------------------------------------


def metric(value, unit, base=None):
    entry = {"value": float(value), "unit": unit}
    if base:
        entry["base"] = base
    return entry


def end_to_end(sample, setup_times):
    """End-to-end metrics; op times are at reference speed (see measure)."""
    lat, raw = sample["latencies"], sample["raw"]
    n = len(lat)
    value, pct, beyond = tail(lat)
    speed = f"raw {{:.5g}} as measured, machine at {sum(raw) / sum(lat):.3f}x reference time"
    return {
        "setup_s": metric(statistics.median(setup_times), "s",
                          f"median of {len(setup_times)} fresh processes, at reference speed"),
        "ops_per_s": metric(n / sum(lat), "1/s",
                            f"{n} ops; " + speed.format(n / sum(raw))),
        "op_p50_ms": metric(1e3 * statistics.median(lat), "ms",
                            f"{n} ops; " + speed.format(1e3 * statistics.median(raw))),
        "op_tail_ms": metric(1e3 * value, "ms", f"p{pct:.2f} of {n} ops, {beyond} beyond; "
                             + speed.format(1e3 * tail(raw)[0])),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB", "ru_maxrss of this process"),
    }


def run_workload(args, root):
    import workloads
    workdir = os.path.join(HERE, "out", f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warmup()
        own_setup = (time.perf_counter() - T0) * PROBE_REF_S / probe_speed()
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        rng_ok = workloads.rng_contract(args.seed)
        census = known_defects(wl)
        if args.trace:
            return traced_run(args, root, wl, rng_ok, census)
        setup_times = [own_setup] + [setup_probe(args.workload, args.seed, root)
                                     for _ in range(SETUP_PROBES)]
        sample = measure(wl, args.seconds, MIN_OPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return finish(args, rng_ok, census, sample, end_to_end(sample, setup_times))


def traced_run(args, root, wl, rng_ok, census):
    import tracing
    half = args.seconds / 2.0
    untraced = measure(wl, half, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(wl, half, 1, tracer)
    finally:
        tracer.uninstall()
    per_layer, extra = tracing.layer_metrics(tracer, traced, untraced, cold_start_ms(root),
                                             getattr(wl, "bytes_out", 0))
    tracer.save(os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-spans.npz"))
    sample = {key: untraced[key] + traced[key] for key in ("raw", "latencies", "causes", "rounds")}
    return finish(args, rng_ok, census, sample, per_layer, extra, tracer.absent())


def finish(args, rng_ok, census, sample, metrics, extra=None, absent=()):
    """Print the report and the result line, and keep the full record."""
    attempted = len(sample["latencies"])
    failed = sum(sample["causes"].values())
    correct = rng_ok and failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {sample['rounds']}  {json.dumps(machine())}")
    for key, entry in {**metrics, **(extra or {})}.items():
        print(f"  {key:48s} {entry['value']:>16.6g} {entry['unit']:<10s}  ({entry['base']})")
    causes = ", ".join(f"{c}: {n}" for c, n in sorted(sample["causes"].items())) or "none"
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} ops);"
          f" by cause: {causes}")
    cases, defects = census
    if cases:
        found = ", ".join(f"{c}: {n}" for c, n in sorted(defects.items())) or "none"
        print(f"  known defects, outside the timed loop: {sum(defects.values())} of {cases}"
              f" cases fail; by cause: {found}")
    print(f"  run_trials draw-order contract: {'holds' if rng_ok else 'BROKEN'};"
          f" correct: {correct}")
    if absent:
        print(f"  absent (not traced): {', '.join(absent)}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "metrics": metrics,
              "report_metrics": extra or {}, "failed_by_cause": dict(sample["causes"]),
              "known_defects": {"cases": cases, "failed_by_cause": dict(defects)},
              "attempted": attempted, "failed": failed, "correct": correct}
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0


def run_all(args, root):
    """Every workload in its own process, then one table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=3 * PROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stdout.write(proc.stdout)
        path = os.path.join(HERE, "out", f"{name}-seed{args.seed}-trace0.json")
        with open(path) as fh:
            rows[name] = json.load(fh)
    for rec in rows.values():
        rec["metrics"]["fail_frac"] = metric(rec["failed"] / rec["attempted"], "ratio")
    keys = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "fail_frac", "peak_rss_mb")
    units = rows[WORKLOAD_NAMES[0]]["metrics"]
    print(f"\n{'workload':14s}" + "".join(f"{k:>14s}" for k in keys) + "   op_tail_ms at")
    print(f"{'':14s}" + "".join(f"{units[k]['unit']:>14s}" for k in keys))
    for name, rec in rows.items():
        m = rec["metrics"]
        print(f"{name:14s}" + "".join(f"{m[k]['value']:>14.5g}" for k in keys)
              + f"   {m['op_tail_ms']['base']}")
    print(json.dumps({name: {"correct": r["correct"], "attempted": r["attempted"],
                             "failed": r["failed"],
                             "metrics": {k: r["metrics"][k]["value"] for k in keys}}
                      for name, r in rows.items()}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if load_library(root) is None:
        sys.stderr.write("error: src/starsis not found; run from the root of a starsis checkout\n")
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
