"""Command-line front door.

Five subcommands: `rates` (arrival-rate curves vs the inactivity timer),
`dimension` (minimum instance count for a load), `capacity` (max users per
instance count), `simulate` (trace generation + queue simulation), and
`scalability` (cost/productivity table). All outputs are CSV or JSON with
units in the column names and a config digest in the header, so every run
is reproducible from its own output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

from . import __version__
from .config import ToolConfig, load_config
from .econ import scalability_table
from .errors import (
    ConfigError,
    DegenerateChainError,
    InfeasibleError,
    InstabilityError,
    VmmeCapError,
)
from .queueing import capacity, dimension, system_response
from .simcore import generate_triggers, measured_rates, run_queue_sim
from .workload import aggregate_rates, htc_rates, mtc_rates


def _parse_grid(text: str) -> list[float]:
    """'1:30' -> 1..30 step 1; '1:30:5' -> step 5; '1,5,10' -> the list; '10' -> [10]."""
    try:
        parts = [float(p) for p in text.split(":" if ":" in text else ",")]
    except ValueError:
        raise ConfigError(f"bad grid spec {text!r}") from None
    if ":" in text:
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1.0
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ConfigError(f"bad grid spec {text!r}")
        if step <= 0 or hi < lo:
            raise ConfigError(f"bad grid spec {text!r}")
        out = []
        v = lo
        while v <= hi + 1e-9:
            out.append(round(v, 9))
            v += step
        return out
    return parts


def _flag(value, default, name: str, kind=float, strict: bool = True, scale: float = 1):
    """A flag's value times `scale`, or the config default if the flag is absent.

    A flag given as zero is a value, not an absent flag. The value must be a
    `kind` (float or int) and > 0, or >= 0 when not `strict`; anything else
    raises ConfigError.
    """
    v = default if value is None else value
    try:
        ok = kind(v) == float(v) and (float(v) > 0 if strict else float(v) >= 0)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what} {'>' if strict else '>='} 0, got {v!r}")
    return kind(v) * (1 if value is None else scale)


def _emit(rows: list[dict], meta: dict, args) -> None:
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        if args.format == "json":
            json.dump({"meta": meta, "rows": rows}, out, indent=2)
            out.write("\n")
        else:
            w = csv.writer(out)
            for k, v in meta.items():
                w.writerow([f"# {k}", v])
            if rows:
                w.writerow(list(rows[0].keys()))
                for r in rows:
                    w.writerow([f"{v:.10g}" if isinstance(v, float) else v
                                for v in r.values()])
    finally:
        if args.out is not None:
            out.close()


def _meta(cfg: ToolConfig, **extra) -> dict:
    return {"tool_version": __version__, "config_digest": cfg.digest, **extra}


def _mtcd_ratio(cfg: ToolConfig, args) -> float:
    return _flag(args.mtcd_ratio, cfg.scenario["mtcd_per_ue"], "--mtcd-ratio", strict=False)


def _scenario_counts(cfg: ToolConfig, args) -> tuple[int, int]:
    """(n_u, n_d), with n_d = round(MTCDs per UE * n_u) as `capacity` counts them."""
    n_u = _flag(args.users, cfg.scenario["n_u"], "--users", int, strict=False)
    return n_u, int(round(_mtcd_ratio(cfg, args) * n_u))


def cmd_rates(cfg: ToolConfig, args) -> None:
    if args.ti is None:
        tis = [cfg.scenario["t_i_s"]]
    else:
        tis = [_flag(v, None, "--ti", strict=False) for v in _parse_grid(args.ti)]
    n_u, n_d = _scenario_counts(cfg, args)
    if args.simulate:
        horizon = _flag(args.duration_s, cfg.scenario["horizon_s"], "--duration-s")
    rows = []
    sim_cols = {"lam_u_sr": [], "lam_s_sr": []}
    theory_cols = {"lam_u_sr": [], "lam_s_sr": []}
    for ti in tis:
        u_sr, u_srr, u_hr = htc_rates(cfg.mix, cfg.geom, ti)
        s_sr, _ = mtc_rates(cfg.mmpp, ti, method=args.mtc_method)
        row = {
            "t_i_s": ti,
            "lam_u_sr_per_s": u_sr,
            "lam_u_hr_per_s": u_hr,
            "lam_s_sr_per_s": s_sr,
        }
        if args.simulate:
            trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, n_u, n_d, ti, horizon,
                                      args.seed, speed_dist=cfg.speed_dist)
            emp = measured_rates(trace, n_u, n_d, horizon)
            row["sim_lam_u_sr_per_s"] = emp.lam_u_sr
            row["sim_lam_u_hr_per_s"] = emp.lam_u_hr
            row["sim_lam_s_sr_per_s"] = emp.lam_s_sr
            theory_cols["lam_u_sr"].append(u_sr)
            theory_cols["lam_s_sr"].append(s_sr)
            sim_cols["lam_u_sr"].append(emp.lam_u_sr)
            sim_cols["lam_s_sr"].append(emp.lam_s_sr)
        rows.append(row)
    meta = _meta(cfg, seed=args.seed)
    if args.simulate:
        from .simcore import compare

        meta.update({f"rmse_{k}": v for k, v in
                     compare(theory_cols, sim_cols).items()})
    _emit(rows, meta, args)


def _analytic_rates(cfg: ToolConfig, n_u: int, n_d: int, ti: float):
    per_ue = htc_rates(cfg.mix, cfg.geom, ti)
    per_mtcd = mtc_rates(cfg.mmpp, ti) if n_d > 0 else (0.0, 0.0)
    return aggregate_rates(per_ue, per_mtcd, n_u, n_d)


def cmd_dimension(cfg: ToolConfig, args) -> None:
    ti = _flag(args.ti, cfg.scenario["t_i_s"], "--ti", strict=False)
    t_max = _flag(args.tmax_us, cfg.queue.t_max, "--tmax-us", scale=1e-6)
    n_u, n_d = _scenario_counts(cfg, args)
    rates = _analytic_rates(cfg, n_u, n_d, ti)
    m = dimension(rates, cfg.queue, t_max)
    total, breakdown = system_response(rates, replace(cfg.queue, m=m))
    rows = [{
        "n_u": n_u,
        "n_d": n_d,
        "t_i_s": ti,
        "lambda_msgs_per_s": rates.lam_total_msgs,
        "m_min": m,
        "t_mean_us": total * 1e6,
        "t_fe_us": breakdown["fe_s"] * 1e6,
        "t_sl_us": breakdown["sl_s"] * 1e6,
        "t_db_us": breakdown["db_s"] * 1e6,
        "t_oi_us": breakdown["oi_s"] * 1e6,
        "t_max_us": t_max * 1e6,
    }]
    _emit(rows, _meta(cfg), args)


def _capacity_points(cfg: ToolConfig, ks: list[int], args):
    ti = _flag(args.ti, cfg.scenario["t_i_s"], "--ti", strict=False)
    t_max = _flag(args.tmax_us, cfg.queue.t_max, "--tmax-us", scale=1e-6)
    ratio = _mtcd_ratio(cfg, args)
    for k in ks:
        yield capacity(k, cfg.queue, cfg.mix, cfg.geom, cfg.mmpp, ti,
                       mtcd_per_ue=ratio, t_max=t_max)


def cmd_capacity(cfg: ToolConfig, args) -> None:
    ks = [_flag(v, None, "--m", int) for v in _parse_grid("1:10" if args.m is None else args.m)]
    rows = []
    for res in _capacity_points(cfg, ks, args):
        rows.append({
            "m": res.m,
            "n_u_max": res.n_u_max,
            "n_d": res.n_d,
            "lambda_msgs_per_s": res.lam_msgs,
            "procedures_per_s": res.procedures_per_s,
            "t_mean_us": res.t_mean_s * 1e6,
        })
    _emit(rows, _meta(cfg), args)


def cmd_scalability(cfg: ToolConfig, args) -> None:
    ks = list(range(1, _flag(args.kmax, None, "--kmax", int) + 1))
    points = []
    for res in _capacity_points(cfg, ks, args):
        points.append((res.m, res.n_u_max, res.lam_msgs, res.t_mean_s))
    gamma = _flag(args.gamma, cfg.gamma, "--gamma", strict=False)
    table = scalability_table(points, cfg.cost, cfg.t_hat_s, gamma)
    rows = [{
        "k": p.k,
        "n_u": p.n_u,
        "lambda_msgs_per_s": p.lam_msgs,
        "t_mean_us": p.t_mean_s * 1e6,
        "cost_usd_per_s": p.cost_usd_per_s,
        "f": p.f,
        "productivity": p.productivity,
        "psi": p.psi,
        "class": p.classification,
    } for p in table]
    _emit(rows, _meta(cfg, gamma=gamma), args)


def cmd_simulate(cfg: ToolConfig, args) -> None:
    ti = _flag(args.ti, cfg.scenario["t_i_s"], "--ti", strict=False)
    horizon = _flag(args.duration_s, cfg.scenario["horizon_s"], "--duration-s")
    m = _flag(args.m_instances, cfg.queue.m, "--m", int)
    n_u, n_d = _scenario_counts(cfg, args)
    if n_u + n_d == 0:
        raise ConfigError("simulate needs at least one device, got 0 UEs and 0 MTCDs")
    trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, n_u, n_d, ti,
                              horizon, args.seed, speed_dist=cfg.speed_dist)
    if args.trace_out:
        trace.to_csv(args.trace_out)
    law = args.service_law or cfg.scenario["service_law"]
    stats = run_queue_sim(trace, replace(cfg.queue, m=m), service_law=law, seed=args.seed)
    emp = measured_rates(trace, n_u, n_d, horizon)
    rows = [{
        "n_u": n_u,
        "n_d": n_d,
        "t_i_s": ti,
        "horizon_s": horizon,
        "m": m,
        "n_triggers": stats.n_triggers,
        "n_messages": stats.n_messages,
        "mean_response_us": stats.mean_response_s * 1e6,
        "ci_halfwidth_us": stats.ci_halfwidth_s * 1e6,
        "util_fe": stats.utilization["fe"],
        "util_sl": stats.utilization["sl"],
        "util_db": stats.utilization["db"],
        "util_oi": stats.utilization["oi"],
        "sim_lam_msgs_per_s": stats.empirical_lam_msgs,
        "sim_lam_u_sr_per_s": emp.lam_u_sr,
        "sim_lam_u_hr_per_s": emp.lam_u_hr,
        "sim_lam_s_sr_per_s": emp.lam_s_sr,
        "max_backlog": stats.max_backlog,
        "stats_valid": stats.valid,
    }]
    _emit(rows, _meta(cfg, seed=args.seed, service_law=law), args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vmmecap",
        description="Capacity planning for a virtualized MME: workload rates, "
                    "queueing delays, dimensioning, cost/scalability, and a "
                    "validating discrete-event simulator.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML config overlaying the defaults")
    common.add_argument("--seed", type=int, default=None, help="master random seed")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--ti", help="inactivity timer seconds; grids as lo:hi[:step] or a,b,c")
    common.add_argument("--users", type=int, help="number of UEs")
    common.add_argument("--mtcd-ratio", type=float, dest="mtcd_ratio",
                        help="MTCDs per UE")
    common.add_argument("--tmax-us", type=float, dest="tmax_us",
                        help="processing-delay budget, microseconds")
    common.add_argument("--duration-s", type=float, dest="duration_s",
                        help="simulated horizon, seconds")

    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("rates", parents=[common],
                       help="analytic procedure rates vs the inactivity timer")
    p.add_argument("--simulate", action="store_true",
                   help="append simulated rates and an RMSE footer")
    p.add_argument("--mtc-method", choices=("approx", "monte_carlo"),
                   default="approx")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("dimension", parents=[common],
                       help="minimum SL instance count for a device population")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("capacity", parents=[common],
                       help="maximum supported UEs per instance count")
    p.add_argument("--m", help="instance-count grid, e.g. 1:10")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a trigger trace and run the queue simulator")
    p.add_argument("--m", type=int, dest="m_instances", help="SL instance count")
    p.add_argument("--service-law", choices=("deterministic", "exponential"))
    p.add_argument("--trace-out", metavar="PATH", help="also dump the trigger trace CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scalability", parents=[common],
                       help="cost, productivity and the scalability index psi(k)")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--gamma", type=float, help="not-scalable threshold")
    p.set_defaults(func=cmd_scalability)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is None:
            args.seed = int(cfg.scenario["seed"])
        args.func(cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (InstabilityError, InfeasibleError, DegenerateChainError) as e:
        print(f"infeasible model: {e}", file=sys.stderr)
        return 3
    except VmmeCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
