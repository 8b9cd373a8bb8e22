"""Command-line driver.

Subcommands: run, analyze, calibrate, speed, sweep, oracle.  Outputs are
batch CSV files plus a manifest; there is no plotting here.  Exit codes:
0 success, 1 domain error (a run or fit that fails, a file that cannot be
read or written), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, coupling, kernel, micro, queueing
from .errors import ConfigurationError, StabilityError, whole_number
from .kernel import KernelParams
from .queueing import ClassParams

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CONFIG = 2


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            _fail(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                  f"{exc.msg}", EXIT_CONFIG))
    except OSError as exc:
        raise SystemExit(_fail(f"cannot read {path}: {exc}", EXIT_DOMAIN))


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _arg(convert, ok, what: str):
    """argparse type: ``convert(text)``, if ``ok`` holds for it."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"not a {what}: {text!r}")
    return parse


def _whole(text: str) -> int:
    return whole_number(float(text), "value")  # 2 or 2.0


_count_arg = _arg(_whole, lambda v: v >= 1, "whole number >= 1")
_index_arg = _arg(_whole, lambda v: v >= 0, "whole number >= 0")
# the comparisons also reject NaN
_time_arg = _arg(float, lambda v: 0 <= v < math.inf, "finite non-negative number")
_rate_arg = _arg(float, lambda v: 0 < v < math.inf, "finite positive number")


def cmd_run(args) -> int:
    raw = _load_json(args.config)
    try:
        cfg = coupling.config_from_dict(raw)
    except (ConfigurationError, ValueError) as exc:
        return _fail(str(exc), EXIT_CONFIG)
    try:
        # every run reads the bundled kernel table: read it before writing anything
        kernel.load_reference_table()
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read the kernel table: {exc}", EXIT_DOMAIN)
    try:
        os.makedirs(args.out, exist_ok=True)
        out = coupling.run(cfg, out_dir=args.out)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_DOMAIN)
    except Exception as exc:
        return _fail(f"run failed (partial outputs flushed): {exc}", EXIT_DOMAIN)
    for w in out.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {len(out.snapshots)} snapshots to {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    if (args.lam is None) != (args.n is None):
        return _fail("--lambda and --n must be given together", EXIT_CONFIG)
    try:
        res = analysis.asymptotics(args.beta, args.b, args.sigma, args.mu)
    except ValueError as exc:
        return _fail(str(exc), EXIT_DOMAIN)
    print(f"gamma = {res.gamma:.6f}")
    if not res.exists:
        print("IFPW does not exist (gamma <= 1)")
    else:
        print(f"alpha* = {res.alpha_star:.6f}")
        print(f"asymptotic informed density = {res.informed_density:.6f} veh/km")
    if args.lam is not None:
        try:
            cp = ClassParams(args.lam, args.n, args.mu)
            m = queueing.queue_metrics(cp)
        except (StabilityError, ValueError) as exc:
            return _fail(str(exc), EXIT_DOMAIN)
        print(f"xi (wait probability) = {m.xi:.6f}")
        print(f"mean waiting time = {m.mean_wait:.6f} s")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    try:
        samples = kernel.read_samples(args.samples)
        kp, r2 = kernel.calibrate(samples)
    except Exception as exc:
        return _fail(str(exc), EXIT_DOMAIN)
    print(f"a = {kp.a:.6f} km")
    print(f"b = {kp.b:.6f}")
    print(f"r_squared = {r2:.6f}")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump({"a_km": kp.a, "b": kp.b, "r_squared": r2}, fh, indent=2)
        except OSError as exc:
            return _fail(f"cannot write {args.out}: {exc}", EXIT_DOMAIN)
        print(f"saved to {args.out}")
    return EXIT_OK


def _load_field(run_dir, cls, field):
    if field == "informed":
        paths = [os.path.join(run_dir, f"class{cls}_{f}.csv") for f in ("h", "r", "e")]
        parts = [coupling.read_field_csv(path) for path in paths]
        times = parts[0][0]
        for path, (other, _) in zip(paths, parts):
            # summed snapshot by snapshot, so each must be at the same time
            if not np.array_equal(other, times):
                raise ConfigurationError(
                    f"{path}: snapshot times {other.tolist()} differ from those of "
                    f"{os.path.basename(paths[0])}: {times.tolist()}")
        return times, sum(p[1] for p in parts)
    path = os.path.join(run_dir, f"class{cls}_{field}.csv")
    return coupling.read_field_csv(path)


def cmd_speed(args) -> int:
    if args.t1 == args.t2:
        return _fail("t1 and t2 must differ", EXIT_CONFIG)
    if not os.path.isdir(args.run_dir):
        return _fail(f"no run directory {args.run_dir}", EXIT_DOMAIN)
    manifest = _load_json(os.path.join(args.run_dir, "manifest.json"))
    classes = sum(f.endswith("_s.csv") for f in manifest.get("files", ()))  # class{j}_s.csv
    if args.cls >= classes:
        return _fail(f"class {args.cls} is outside the run's classes [0, {classes})",
                     EXIT_CONFIG)
    try:
        times, data = _load_field(args.run_dir, args.cls, args.field)
    except (OSError, ConfigurationError) as exc:
        return _fail(str(exc), EXIT_DOMAIN)
    snaps = {}
    for t in (args.t1, args.t2):
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) > 1e-6:
            return _fail(f"no snapshot at t={t}s (have {times.tolist()})", EXIT_CONFIG)
        snaps[t] = data[i]
    dx = manifest.get("grid", {}).get("dx_km")
    if dx is None:
        return _fail(f"{args.run_dir}/manifest.json records no grid.dx_km", EXIT_DOMAIN)
    seed_cell = args.seed_cell
    if seed_cell is None:
        seed_cell = int(np.argmax(snaps[args.t1]))
    elif seed_cell >= data.shape[1]:
        return _fail(f"seed cell {seed_cell} is outside the run's {data.shape[1]} cells",
                     EXIT_CONFIG)
    try:
        est = analysis.estimate_wave_speeds(snaps[args.t1], snaps[args.t2],
                                            args.t1, args.t2, args.reference,
                                            seed_cell, dx)
    except Exception as exc:
        return _fail(str(exc), EXIT_DOMAIN)
    print(f"c_forward = {est.c_forward:.3f} km/h")
    print(f"c_backward = {est.c_backward:.3f} km/h")
    return EXIT_OK


def cmd_sweep(args) -> int:
    raw = _load_json(args.config)
    try:
        cfg = coupling.config_from_dict(raw)
    except (ConfigurationError, ValueError) as exc:
        return _fail(str(exc), EXIT_CONFIG)
    try:
        # a file that cannot be written fails now, not after every point ran;
        # "a" keeps an existing file whole until the rows are in
        existed = os.path.exists(args.out)
        open(args.out, "a").close()
        if not existed:
            os.remove(args.out)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_DOMAIN)
    try:
        rows = analysis.sweep(cfg, args.n, args.mu, args.t1, args.t2,
                              workers=args.threads)
    except ConfigurationError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except Exception as exc:
        return _fail(str(exc), EXIT_DOMAIN)
    if all(not r.stable for r in rows):
        return _fail("all sweep points are unstable", EXIT_DOMAIN)

    def fmt(v):
        return "" if v is None else f"{v:.9g}"

    try:
        with open(args.out, "w") as fh:
            fh.write("n_servers,mu_per_s,stable,gamma,alpha_star,spread,"
                     "c_forward_km_h,c_backward_km_h,mean_wait_s,error\n")
            for r in rows:
                fh.write(f"{r.n_servers},{r.mu:.9g},{int(r.stable)},{fmt(r.gamma)},"
                         f"{fmt(r.alpha_star)},{fmt(r.spread)},{fmt(r.c_forward)},"
                         f"{fmt(r.c_backward)},{fmt(r.mean_wait)},"
                         f"{r.error or ''}\n")
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_DOMAIN)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _micro_config_from_dict(d: dict, seed_override=None) -> micro.MicroConfig:
    c = d["class"]
    cp = ClassParams(float(c["lambda_per_s"]), whole_number(c["n_servers"], "n_servers"),
                     float(c["mu_per_s"]))
    kp = KernelParams(float(d["kernel"]["a_km"]), float(d["kernel"]["b"]))
    # checked before make_positions, whose numpy error would not name rng_seed
    seed = micro.checked_seed(seed_override if seed_override is not None
                              else d.get("rng_seed", 0))
    if "positions_km" in d:
        positions = tuple(float(x) for x in d["positions_km"])
    else:
        positions = tuple(micro.make_positions(
            float(d["length_km"]), whole_number(d["num_vehicles"], "num_vehicles"),
            d.get("placement", "equal"), rng=seed))
    return micro.MicroConfig(
        positions=positions,
        class_params=cp,
        kernel=kp,
        beta=float(d["beta_hz"]),
        horizon=float(d["horizon_s"]),
        tick=float(d["tick_s"]),
        replications=d.get("replications", 1),
        rng_seed=seed,
        seeds=tuple(d.get("seed_vehicles", (0,))),
        ring_length=float(d["ring_length_km"]) if "ring_length_km" in d else None,
        record_every=d.get("record_every", 1),
        num_bins=d.get("num_bins", 20),
    )


def cmd_oracle(args) -> int:
    raw = _load_json(args.config)
    try:
        cfg = _micro_config_from_dict(raw, seed_override=args.seed)
    except (KeyError, TypeError) as exc:
        return _fail(f"bad oracle config: {exc}", EXIT_CONFIG)
    except (ConfigurationError, ValueError) as exc:
        return _fail(str(exc), EXIT_CONFIG)
    try:
        os.makedirs(args.out, exist_ok=True)  # before the replications run
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_DOMAIN)
    try:
        result = micro.simulate(cfg)
    except Exception as exc:
        return _fail(str(exc), EXIT_DOMAIN)
    try:
        files = micro.write_result_csv(result, args.out)
        with open(os.path.join(args.out, "manifest.json"), "w") as fh:
            json.dump({
                "replications": cfg.replications,
                "rng_seed": cfg.rng_seed,
                "final_informed_fraction_mean": result.final_mean,
                "final_informed_fraction_se": result.final_se,
                "files": [os.path.basename(f) for f in files],
            }, fh, indent=2)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_DOMAIN)
    print(f"final informed fraction {result.final_mean:.4f} "
          f"+- {result.final_se:.4f} ({cfg.replications} replications)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ifpw",
                                description="V2V information flow propagation model")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="run a coupled scenario")
    r.add_argument("--config", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)

    a = sub.add_parser("analyze", help="asymptotic wave analytics")
    a.add_argument("--beta", type=_rate_arg, required=True, help="Hz")
    a.add_argument("--b", type=_rate_arg, required=True, help="kernel mass")
    a.add_argument("--sigma", type=_rate_arg, required=True, help="veh/km")
    a.add_argument("--mu", type=_rate_arg, required=True, help="1/s")
    a.add_argument("--lambda", dest="lam", type=_rate_arg, default=None, help="1/s")
    a.add_argument("--n", type=_count_arg, default=None, help="servers")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("calibrate", help="fit kernel to samples")
    c.add_argument("--samples", required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_calibrate)

    s = sub.add_parser("speed", help="front speeds from a run directory")
    s.add_argument("--run-dir", required=True)
    s.add_argument("--t1", type=_time_arg, required=True, help="s")
    s.add_argument("--t2", type=_time_arg, required=True, help="s")
    s.add_argument("--reference", type=_rate_arg, required=True, help="veh/km")
    s.add_argument("--field", default="informed",
                   choices=["h", "r", "e", "informed"])
    s.add_argument("--class", dest="cls", type=_index_arg, default=0)
    s.add_argument("--seed-cell", type=_index_arg, default=None)
    s.set_defaults(func=cmd_speed)

    w = sub.add_parser("sweep", help="(n, mu) parameter sweep")
    w.add_argument("--config", required=True)
    w.add_argument("--n", type=_count_arg, nargs="+", required=True,
                   help="server counts")
    w.add_argument("--mu", type=_rate_arg, nargs="+", required=True, help="1/s")
    w.add_argument("--t1", type=float, required=True)
    w.add_argument("--t2", type=float, required=True)
    w.add_argument("--out", required=True)
    w.add_argument("--threads", type=_count_arg, default=None,
                   help="worker processes that share the sweep points")
    w.set_defaults(func=cmd_sweep)

    o = sub.add_parser("oracle", help="per-vehicle stochastic oracle")
    o.add_argument("--config", required=True)
    o.add_argument("--out", required=True)
    o.add_argument("--seed", type=int, default=None)
    o.set_defaults(func=cmd_oracle)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
