"""Run every workload several times, print every metric and check steadiness.

    python3 perfbench/steady.py                      # all workloads, 5 seeds each
    python3 perfbench/steady.py --runs 10 --workloads sweep_jammed_9pt

For each workload: ``--runs`` untraced runs with seeds 1..runs, then two
traced runs of seed 1.  Prints each end-to-end metric's median, quartile
spread (IQR / median) and bound, and each per-layer metric's median, all
with units.  Exits 1 if any run fails its gates or exits non-zero, if a
spread is over its bound, or if an exact count differs between the two
traced runs.  Every run's two result lines are kept in
``.perfbench_out/steady-runs.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import EXACT_COUNTS  # noqa: E402


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    ok = True
    kept = []
    for name in args.workloads:
        results = [run(spec, name, seed, 0) for seed in range(1, args.runs + 1)]
        print(f"== {name} ({results[0][0]['work_unit']}, {args.runs} runs)")
        for env, res in results:
            if not res["correct"]:
                ok = False
                print(f"  seed {env['seed']}: FAILED {res['failed']}/{res['attempted']}: "
                      f"{env['gate_failures'][:3]}")
        for m in spec["end_to_end"]:
            vals = [res["metrics"][m["name"]]["value"] for _env, res in results]
            med, sp = spread(vals) if len(vals) > 1 else (vals[0], 0.0)
            flag = "" if sp <= m["bound"] else "  OVER BOUND"
            ok &= not flag
            print(f"  {m['name']:<14} {med:14.6g} {m['unit']:<6} spread {sp:7.4f} "
                  f"(bound {m['bound']}, target < {m['bound'] / 3:.4f}){flag}")
        traced = [run(spec, name, 1, 1) for _ in range(2)]
        kept += results + traced
        for env, res in traced:
            ok &= res["correct"]
        for m in spec["per_layer"]:
            vals = [res["metrics"][m["name"]]["value"] for _env, res in traced]
            same = ""
            if m["name"] in EXACT_COUNTS:
                same = "  exact" if vals[0] == vals[1] else f"  DIFFERS {vals}"
                ok &= vals[0] == vals[1]
            print(f"  {m['name']:<30} {statistics.median(vals):14.6g} {m['unit']}{same}")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady-runs.json"), "w") as fh:
        json.dump(kept, fh)
    print("steady" if ok else "NOT steady or NOT correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
