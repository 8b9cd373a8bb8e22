"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload corridor_fft_8k --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  With ``--trace 0`` the last line carries the end-to-end metrics
of BENCHMARK.json, measured untraced but for a time mark at the end of
each piece of a call (a coupling step, 20 ticks of an oracle replication,
a CSV write), which lets ``run_s`` take the host's noise out lap by lap
(see ``quiet_call_time``); with ``--trace 1`` it carries the
per-layer metrics, from traced calls alternating with untraced ones
(their ratio gives ``trace.overhead_frac``).  The line before it records
the run environment, the gate values and any gate failures.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import ExitStack

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_BUDGET_S = 0.5  # set-up is timed for this long before the first short call
SETUP_SHARE = 0.1  # and after every short call for this share of its time
SETUP_BATCH_S = 0.002  # one timed batch repeats set-up for about this long


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' elsewhere."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cap_threads() -> dict:
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))
        caps[var] = os.environ[var]
    return {"nproc": nproc, "thread_caps": caps}


def setup_batches(workload, reps: int, seconds: float) -> list[float]:
    """Time batches of ``reps`` set-ups for ``seconds``; per-set-up times."""
    workload.setup()  # untimed: the first set-up after a call finds cold caches
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        for _ in range(reps):
            workload.setup()
        times.append((time.perf_counter() - t0) / reps)
    return times


class LapClock:
    """Marks the time at the return of every call of the workload's mark
    functions.  The laps between the marks cut a call into pieces of work
    that are the same in every call."""

    def __init__(self):
        self.marks: list[float] = []
        self.laps: list[float] = []

    def wrapper(self, fn):
        marks, clock = self.marks, time.perf_counter

        def marked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(clock())
        return marked

    def close(self, t0: float, t1: float):
        stamps = [t0] + self.marks + [t1]
        self.laps = [b - a for a, b in zip(stamps, stamps[1:])]


def quiet_call_time(laps) -> float:
    """Wall time of one call with the host's noise taken out lap by lap:
    the k-th lap does the same work in every call, so take its fastest
    time over the calls and add these up."""
    return sum(min(times) for times in zip(*laps))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "ifpw", "__init__.py")):
        fail(f"no package source under {SRC}; run from a source checkout")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    env = cap_threads()
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy
    import scipy

    import ifpw
    import ifpw.cli  # noqa: F401  (traced entry point)
    if os.path.dirname(os.path.abspath(ifpw.__file__)) != os.path.join(SRC, "ifpw"):
        fail(f"imported ifpw from {ifpw.__file__}, not from {SRC}")
    from tracing import EXACT_COUNTS, Tracer, dump, patched
    from workloads import WORKLOADS, Gates

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    wl = WORKLOADS[args.workload](args.seed, out_dir)
    env.update({
        "workload": wl.name, "seed": args.seed, "variant": wl.variant,
        "work_unit": wl.work_unit, "numpy": numpy.__version__,
        "scipy": scipy.__version__, "python": sys.version.split()[0],
        "git_sha": git_sha(), "trace": args.trace,
    })

    wl.prepare()
    single = min(setup_batches(wl, 1, 0.0)[0] for _ in range(3))
    setup_reps = max(1, math.ceil(SETUP_BATCH_S / single))
    setup_times = setup_batches(wl, setup_reps, SETUP_BUDGET_S)

    errors: list[str] = []
    gate_values: dict[str, float] = {}
    missing_marks: set[str] = set()
    attempted = failed = 0

    def one_call(full, tracer=None, clock=None):
        """Make one call under the probes (and tracer or lap clock);
        gate it; return its time."""
        nonlocal attempted, failed
        wl.before_call()
        gc.collect()
        gates = Gates()
        with ExitStack() as stack:
            for target, make in wl.probes():
                stack.enter_context(patched(target, make))
            if tracer is not None:
                stack.enter_context(tracer.active())
            if clock is not None:
                for target in wl.marks:
                    try:
                        stack.enter_context(patched(target, clock.wrapper))
                    except AttributeError:  # a renamed mark only coarsens the laps
                        missing_marks.add(target)
            t0 = time.perf_counter()
            try:
                result = wl.call(full)
            except Exception as exc:  # a failed call counts; keep measuring
                result = exc
            t1 = time.perf_counter()
            if clock is not None:
                clock.close(t0, t1)
            elapsed = t1 - t0
        attempted += wl.ops_per_call
        if isinstance(result, Exception):
            gates.require(False, f"{type(result).__name__}: {result}")
            n_failed = wl.ops_per_call
        else:
            try:
                n_failed = wl.check(result, full, gates)
            except Exception as exc:  # a gate that cannot be evaluated fails
                gates.require(False, f"check raised {type(exc).__name__}: {exc}")
                n_failed = wl.ops_per_call
        failed += n_failed
        errors.extend(("full: " if full else "") + e for e in gates.errors)
        for k, v in gates.values.items():
            gate_values[k] = max(gate_values.get(k, 0.0), v)
        return elapsed

    # the full scenario, untimed, under every gate; it also warms caches
    full_s = one_call(True)

    run_times, lap_times, traced_times, per_layer = [], [], [], []
    tracer = None
    # each CPU slows down on its own, for seconds at a time; moving every
    # other call to the next CPU lets every lap meet a quiet CPU, and
    # puts traced and untraced calls on each CPU alike
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    for i in itertools.count():
        os.sched_setaffinity(0, {cpus[i // 2 % len(cpus)]})
        if args.trace and len(run_times) > len(traced_times):
            tracer = Tracer()
            elapsed = one_call(False, tracer)
            traced_times.append(elapsed)
            per_layer.append(tracer.metrics())
        else:
            clock = LapClock()
            elapsed = one_call(False, clock=clock)
            run_times.append(elapsed)
            lap_times.append(clock.laps)
        setup_times += setup_batches(wl, setup_reps, SETUP_SHARE * elapsed)
        spent = time.perf_counter() - start
        enough = run_times and (traced_times or not args.trace)
        if enough and spent * (i + 2) / (i + 1) > seconds:
            break

    os.sched_setaffinity(0, cpus)
    if len({len(t) for t in lap_times}) > 1:
        errors.append(f"lap counts differ between calls: "
                      f"{sorted({len(t) for t in lap_times})}")
        failed += 1
        lap_times = [[t] for t in run_times]
    run_s = quiet_call_time(lap_times)
    if args.trace:
        metrics = {k: statistics.median(m[k] for m in per_layer) for k in per_layer[0]}
        for k in EXACT_COUNTS:
            if len({m[k] for m in per_layer}) > 1:
                errors.append(f"{k} differs between traced calls")
                failed += 1
        metrics["trace.overhead_frac"] = min(traced_times) / min(run_times) - 1.0
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": min(setup_times),
            "run_s": run_s,
            "work_rate": wl.work() / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        fail(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")

    env.update({
        "full_call_s": full_s, "calls": i + 1,
        "run_s_all": run_times, "run_s_fastest_call": min(run_times),
        "laps_per_call": len(lap_times[0]), "missing_marks": sorted(missing_marks),
        "traced_s_all": traced_times,
        "setup_s_median": statistics.median(setup_times),
        "setup_batches": len(setup_times), "setup_reps_per_batch": setup_reps,
        "work_per_call": wl.work(), "failed_frac": failed / attempted,
        "gates": gate_values, "gate_failures": errors[:20],
    })
    if tracer is not None:
        os.makedirs(OUT_ROOT, exist_ok=True)
        trace_path = os.path.join(OUT_ROOT, f"trace-{wl.name}-seed{args.seed}.json")
        dump(tracer, trace_path, env)
        env["trace_file"] = os.path.relpath(trace_path, ROOT)
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"perfbench": env}))
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
