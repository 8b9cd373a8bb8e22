"""Outside-in tracer for the benchmark's traced runs.

Each traced name is wrapped where its caller looks it up: ``coupling.run``
calls ``step``, ``lwr.advance_total`` and ``shre.rk4_step`` through module
attributes, and builds table kernels through the name ``CellKernel``
imported into ``coupling``, so patching those attributes sees every call
without touching the package.  Spans (name, start, end, parent) stay in
memory; ``dump`` writes them out once the run ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack, contextmanager

# (where the caller looks the name up, span name)
TRACE_POINTS = (
    ("cli.main", "cli.main"),
    ("coupling.run", "coupling.run"),
    ("coupling.step", "coupling.step"),
    ("coupling.RunOutput.write", "coupling.write"),
    ("coupling.CellKernel", "kernel.cell_kernel"),
    ("kernel.interp_kernel_params", "kernel.interp"),
    ("lwr.advance_total", "lwr.advance_total"),
    ("lwr.split_class_flows", "lwr.split_class_flows"),
    ("lwr.update_class_densities", "lwr.update_class_densities"),
    ("shre.rk4_step", "shre.rk4_step"),
    ("shre.convolve_relaying", "shre.convolve"),
    ("queueing.wait_probability", "queueing.wait_probability"),
    ("analysis.sweep", "analysis.sweep"),
    ("micro.simulate", "micro.simulate"),
    ("micro._one_replication", "micro.replication"),
    ("micro.write_result_csv", "micro.write"),
)

# counts that must repeat bit-for-bit across runs of one seed
EXACT_COUNTS = (
    "shre.convolve_calls",
    "kernel.cell_kernel_builds",
    "queueing.xi_evals",
    "analysis.traffic_steps",
    "coupling.write_bytes",
    "micro.vehicle_ticks",
    "micro.receptions",
    "lwr.layers",
)


def resolve(target: str):
    """(owner, attribute) for a dotted target below the ``ifpw`` package."""
    import ifpw

    *path, attr = target.split(".")
    owner = ifpw
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(target: str, make_wrapper):
    """Replace ``target`` by ``make_wrapper(original)`` for the block."""
    owner, attr = resolve(target)
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Span recorder for one traced call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        sid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            rec = [sid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self.counts, out, args, kwargs)
            return out

        return traced

    @contextmanager
    def active(self):
        with ExitStack() as stack:
            for target, name in TRACE_POINTS:
                try:
                    resolve(target)
                except AttributeError:
                    self.missing.append(target)
                    continue
                stack.enter_context(patched(target, lambda fn, n=name: self._wrap(fn, n)))
            yield self

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this call (zero for layers that did not run)."""
        dur: dict[str, list[float]] = {n: [] for n in self.names}
        child = [0.0] * len(self.spans)
        for sid, start, end, parent in self.spans:
            dur[self.names[sid]].append(end - start)
            if parent >= 0:
                child[parent] += end - start

        def total(name):
            return float(sum(dur.get(name, ())))

        def calls(name):
            return len(dur.get(name, ()))

        def self_time(name):
            return float(sum(end - start - child[i]
                             for i, (sid, start, end, _p) in enumerate(self.spans)
                             if self.names[sid] == name))

        def pct(name, q):
            xs = sorted(dur.get(name, ()))
            return 1e3 * xs[min(len(xs) - 1, int(q * len(xs)))] if xs else 0.0

        sweep_windows = [(s[1], s[2]) for s in self.spans
                         if self.names[s[0]] == "analysis.sweep"]
        traffic_steps = sum(1 for s in self.spans
                            if self.names[s[0]] == "lwr.advance_total"
                            and any(a <= s[1] <= b for a, b in sweep_windows))
        rk4_steps = calls("shre.rk4_step")
        reps = calls("micro.replication")
        c = self.counts
        return {
            "coupling.step_ms_p50": pct("coupling.step", 0.50),
            "coupling.step_ms_p95": pct("coupling.step", 0.95),
            "coupling.step_self_s": self_time("coupling.step"),
            "coupling.write_s": total("coupling.write"),
            "coupling.write_bytes": c.get("coupling.write_bytes", 0),
            "lwr.advance_total_s": total("lwr.advance_total"),
            "lwr.split_class_flows_s": total("lwr.split_class_flows"),
            "lwr.update_class_densities_s": total("lwr.update_class_densities"),
            "lwr.layers": c.get("lwr.layers", 0),
            "shre.rk4_step_s": total("shre.rk4_step"),
            "shre.convolve_s": total("shre.convolve"),
            "shre.convolve_calls": calls("shre.convolve"),
            "shre.rhs_evals_per_step": calls("shre.convolve") / rk4_steps if rk4_steps else 0.0,
            "queueing.wait_probability_s": total("queueing.wait_probability"),
            "queueing.xi_evals": calls("queueing.wait_probability"),
            "kernel.cell_kernel_s": total("kernel.cell_kernel"),
            "kernel.cell_kernel_builds": calls("kernel.cell_kernel"),
            "kernel.interp_s": total("kernel.interp"),
            "analysis.sweep_s": total("analysis.sweep"),
            "analysis.traffic_steps": traffic_steps,
            "micro.simulate_s": total("micro.simulate"),
            "micro.rep_ms": 1e3 * total("micro.replication") / reps if reps else 0.0,
            "micro.write_s": total("micro.write"),
            "micro.vehicle_ticks": c.get("micro.vehicle_ticks", 0),
            "micro.receptions": c.get("micro.receptions", 0),
            "cli.self_s": self_time("cli.main"),
        }


def _after_write(counts, manifest, args, kwargs):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    written = sum(os.path.getsize(os.path.join(out_dir, f)) for f in manifest["files"])
    counts["coupling.write_bytes"] = counts.get("coupling.write_bytes", 0) + written


def _after_split(counts, class_flows, args, kwargs):
    counts["lwr.layers"] = max(counts.get("lwr.layers", 0), len(class_flows))


def _after_replication(counts, result, args, kwargs):
    # one replication ran: its vehicles times its ticks
    cfg = args[0][0]
    ticks = int(round(cfg.horizon / cfg.tick))
    counts["micro.vehicle_ticks"] = (counts.get("micro.vehicle_ticks", 0)
                                     + len(cfg.positions) * ticks)


def _after_simulate(counts, result, args, kwargs):
    cfg = args[0] if args else kwargs["config"]
    informed = (result.final_fractions * len(cfg.positions)).round().astype(int)
    counts["micro.receptions"] = (counts.get("micro.receptions", 0)
                                  + int((informed - len(cfg.seeds)).sum()))


_AFTER = {
    "coupling.write": _after_write,
    "lwr.split_class_flows": _after_split,
    "micro.simulate": _after_simulate,
    "micro.replication": _after_replication,
}


def dump(tracer: Tracer, path: str, meta: dict):
    """Write a traced call's spans as JSON."""
    doc = {"meta": meta, "names": tracer.names, "missing": tracer.missing,
           "spans": tracer.spans}
    with open(path, "w") as fh:
        json.dump(doc, fh)
