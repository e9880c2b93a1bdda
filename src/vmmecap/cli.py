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
import math
import sys
import time
from dataclasses import replace

from . import __version__
from .config import ToolConfig, load_config
from .econ import scalability_table
from .errors import ConfigError, InfeasibleError, InstabilityError, ParameterError, VmmeCapError
from .queueing import capacity, dimension, system_response
from .simcore import generate_triggers, measured_rates, rmse, run_queue_sim
from .simcore.triggers import MAX_DEVICES
from .workload import aggregate_rates, htc_rates, mtc_rates


def _parse_grid(text: str, flag: str, whole: bool = False) -> list:
    """'1:30' -> 1..30 step 1; '1:30:5' -> step 5; '1,5,10' -> the list; '10' -> [10].
    Every value must be >= 0, or with `whole` a whole number >= 1."""
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
        if not (step > 0 and -math.inf < lo <= hi < math.inf):
            raise ConfigError(f"bad grid spec {text!r}")
        # point i is lo + i * step, so no rounding error builds up over the grid
        parts = [round(lo + i * step, 9) for i in range(math.floor((hi - lo) / step + 1e-9) + 1)]
    rule = "whole numbers >= 1" if whole else ">= 0"
    if not all(v >= 1 and v.is_integer() if whole else v >= 0 for v in parts):
        raise ConfigError(f"{flag} values must be {rule}, got {text!r}")
    return [int(v) for v in parts] if whole else parts


def _number(text: str, scale: float = 1):
    """A numeric flag's value, an int or a float, times `scale`. Other text is
    passed on unchanged, for the typed config merge to reject under its key."""
    for kind in (int, float):
        try:
            return kind(text) * scale
        except ValueError:
            pass
    return text


def _overlay(args) -> dict:
    """The scalar flags given, as a config overlay: each one's dest is its key."""
    overlay: dict = {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            overlay.setdefault(section, {})[key] = value
    return overlay


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


def _scenario_counts(cfg: ToolConfig, command: str | None = None,
                     traced: bool = False) -> tuple[int, int]:
    """(n_u, n_d), with n_d = round(MTCDs per UE * n_u) as `capacity` counts them.
    A `command` named here needs at least one device, and one that builds a
    trace (`traced`) at most MAX_DEVICES, the ids a trace holds."""
    n_u, per_ue = cfg.scenario["n_u"], cfg.scenario["mtcd_per_ue"]
    if not math.isfinite(per_ue * n_u):
        raise ConfigError(f"scenario.mtcd_per_ue must give a finite MTCD count, "
                          f"got {per_ue:g} MTCDs per UE for {n_u} UEs")
    n_d = int(round(per_ue * n_u))
    if command is not None and n_u + n_d == 0:
        raise ConfigError(f"{command} needs at least one device, got 0 UEs and 0 MTCDs")
    if traced and n_u + n_d > MAX_DEVICES:
        raise ConfigError(f"scenario.n_u and scenario.mtcd_per_ue must give {command} at most "
                          f"{MAX_DEVICES} devices, got {n_u} UEs + {n_d} MTCDs")
    return n_u, n_d


def _sim_cols(n_u: int, n_d: int) -> list[str]:
    """The per-device rates a simulation measures: those of the device kinds it has."""
    return [c for c, n in (("lam_u_sr", n_u), ("lam_u_hr", n_u), ("lam_s_sr", n_d)) if n]


def _timed(walls: dict, phase: str, fn, *fn_args, **kw):
    """fn(*fn_args, **kw), its wall seconds added to walls[phase]."""
    t0 = time.perf_counter()
    out = fn(*fn_args, **kw)
    walls[phase] = walls.get(phase, 0.0) + time.perf_counter() - t0
    return out


def cmd_rates(cfg: ToolConfig, args) -> None:
    if not args.simulate:  # with no trace, a trace's key would move only the digest
        for key, flag in args.trace_flags.items():
            if getattr(args, key) is not None:
                raise ConfigError(f"rates takes {flag} only with --simulate")
    tis = [cfg.scenario["t_i_s"]] if args.ti is None else _parse_grid(args.ti, "--ti")
    n_u, n_d = _scenario_counts(cfg, "rates --simulate" if args.simulate else None,
                                traced=args.simulate)
    horizon, seed = cfg.scenario["horizon_s"], cfg.scenario["seed"]
    sim_cols = _sim_cols(n_u, n_d) if args.simulate else []
    walls = {}  # wall seconds of each phase over the grid, for the output's meta
    rows = []
    for ti in tis:
        u_sr, u_srr, u_hr = htc_rates(cfg.mix, cfg.geom, ti)
        s_sr, _ = mtc_rates(cfg.mmpp, ti)
        row = {
            "t_i_s": ti,
            "lam_u_sr_per_s": u_sr,
            "lam_u_hr_per_s": u_hr,
            "lam_s_sr_per_s": s_sr,
        }
        if args.simulate:
            trace = _timed(walls, "generate_s", generate_triggers, cfg.mix, cfg.geom,
                           cfg.mmpp, n_u, n_d, ti, horizon, seed, speed_dist=cfg.speed_dist)
            emp = _timed(walls, "stats_s", measured_rates, trace, n_u, n_d, horizon)
            row.update({f"sim_{c}_per_s": getattr(emp, c) for c in sim_cols})
        rows.append(row)
    meta = _meta(cfg, seed=seed) if args.simulate else _meta(cfg)
    if args.simulate:
        meta.update({f"rmse_{c}": rmse([r[f"{c}_per_s"] for r in rows],
                                        [r[f"sim_{c}_per_s"] for r in rows])
                     for c in sorted(sim_cols)})
    _emit(rows, {**meta, **walls}, args)


def cmd_dimension(cfg: ToolConfig, args) -> None:
    ti = cfg.scenario["t_i_s"]
    n_u, n_d = _scenario_counts(cfg, "dimension")
    per_mtcd = mtc_rates(cfg.mmpp, ti) if n_d > 0 else (0.0, 0.0)
    rates = aggregate_rates(htc_rates(cfg.mix, cfg.geom, ti), per_mtcd, n_u, n_d)
    if rates.lam_total_msgs == 0:
        raise InfeasibleError("the configured mix generates no signaling at all")
    m = dimension(rates, cfg.queue)
    total, breakdown = system_response(rates, replace(cfg.queue, m=m))
    rows = [{
        "n_u": n_u,
        "n_d": n_d,
        "t_i_s": ti,
        "lambda_msgs_per_s": rates.lam_total_msgs,
        "m_min": m,
        "t_mean_us": total * 1e6,
        **{f"t_{key.removesuffix('_s')}_us": t * 1e6 for key, t in breakdown.items()},
        "t_max_us": cfg.queue.t_max_s * 1e6,
    }]
    _emit(rows, _meta(cfg), args)


def _capacity_points(cfg: ToolConfig, ks: list[int]):
    for k in ks:
        yield capacity(k, cfg.queue, cfg.mix, cfg.geom, cfg.mmpp, cfg.scenario["t_i_s"],
                       mtcd_per_ue=cfg.scenario["mtcd_per_ue"])


def cmd_capacity(cfg: ToolConfig, args) -> None:
    rows = []
    for res in _capacity_points(cfg, _parse_grid(args.m, "--m", whole=True)):
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
    if args.kmax < 1:
        raise ConfigError(f"--kmax must be >= 1, got {args.kmax}")
    points = []
    for res in _capacity_points(cfg, list(range(1, args.kmax + 1))):
        points.append((res.m, res.n_u_max, res.lam_msgs, res.t_mean_s))
    try:
        table = scalability_table(points, cfg.cost, cfg.t_hat_s, cfg.gamma)
    except ParameterError as e:  # a schedule that bills nothing
        raise ConfigError(f"cost: {e}") from e
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
    _emit(rows, _meta(cfg, gamma=cfg.gamma), args)


def cmd_simulate(cfg: ToolConfig, args) -> None:
    ti, horizon, seed = (cfg.scenario[k] for k in ("t_i_s", "horizon_s", "seed"))
    n_u, n_d = _scenario_counts(cfg, "simulate", traced=True)
    walls = {}  # wall seconds of each phase, for the output's meta
    trace = _timed(walls, "generate_s", generate_triggers, cfg.mix, cfg.geom, cfg.mmpp,
                   n_u, n_d, ti, horizon, seed, speed_dist=cfg.speed_dist)
    _timed(walls, "generate_s", getattr, trace, "time_s")  # the first column read sorts
    if args.trace_out:
        trace.to_csv(args.trace_out)
    law = cfg.scenario["service_law"]
    stats = _timed(walls, "queue_s", run_queue_sim, trace, cfg.queue, service_law=law,
                   seed=seed)
    emp = _timed(walls, "stats_s", measured_rates, trace, n_u, n_d, horizon)
    rows = [{
        "n_u": n_u,
        "n_d": n_d,
        "t_i_s": ti,
        "horizon_s": horizon,
        "m": cfg.queue.m,
        "n_triggers": len(trace),
        "n_messages": stats.n_messages,
        "mean_response_us": stats.mean_response_s * 1e6,
        "ci_halfwidth_us": stats.ci_halfwidth_s * 1e6,
        **{f"util_{k}": u for k, u in stats.utilization.items()},
        "sim_lam_msgs_per_s": stats.empirical_lam_msgs,
        **{f"sim_{c}_per_s": getattr(emp, c) for c in _sim_cols(n_u, n_d)},
        "max_backlog": stats.max_backlog,
        "stats_valid": stats.valid,
    }]
    _emit(rows, _meta(cfg, seed=seed, service_law=law, **walls), args)


def _key_flag(parser, flag: str, key: str, text: str, kind=_number) -> argparse.Action:
    """A flag that sets the config key `key`, shown as its metavar in --help."""
    return parser.add_argument(flag, dest=key, metavar=key, type=kind, help=text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vmmecap",
        description="Capacity planning for a virtualized MME: workload rates, "
                    "queueing delays, dimensioning, cost/scalability, and a "
                    "validating discrete-event simulator.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # Flag groups: a command takes the key flags of the config keys it reads.
    common, users, trace, timer, budget = (argparse.ArgumentParser(add_help=False)
                                           for _ in range(5))
    common.add_argument("--config", metavar="PATH", help="YAML config overlaying the defaults")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    trace_flags = (  # the keys a trace reads; `rates` takes them only with --simulate
        _key_flag(common, "--mtcd-ratio", "scenario.mtcd_per_ue", "MTCDs per UE"),
        _key_flag(users, "--users", "scenario.n_u", "number of UEs"),
        _key_flag(trace, "--seed", "scenario.seed", "master random seed"),
        _key_flag(trace, "--duration-s", "scenario.horizon_s", "simulated horizon, seconds"))
    _key_flag(timer, "--ti", "scenario.t_i_s", "inactivity timer, seconds")
    _key_flag(budget, "--tmax-us", "queue.t_max_s", "processing-delay budget, microseconds",
              lambda text: _number(text, 1e-6))  # the config holds seconds

    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("rates", parents=[common, users, trace],
                       help="analytic procedure rates vs the inactivity timer")
    p.add_argument("--ti", metavar="GRID",
                   help="inactivity timers, seconds, as lo:hi[:step] or a,b,c "
                        "(default scenario.t_i_s)")
    p.add_argument("--simulate", action="store_true",
                   help="append simulated rates and an RMSE footer")
    p.set_defaults(func=cmd_rates,
                   trace_flags={a.dest: a.option_strings[0] for a in trace_flags})

    p = sub.add_parser("dimension", parents=[common, users, timer, budget],
                       help="minimum SL instance count for a device population")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("capacity", parents=[common, timer, budget],
                       help="maximum supported UEs per instance count")
    p.add_argument("--m", metavar="GRID", default="1:10",
                   help="instance-count grid (default 1:10)")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("simulate", parents=[common, users, trace, timer],
                       help="generate a trigger trace and run the queue simulator")
    _key_flag(p, "--m", "queue.m", "SL instance count")
    _key_flag(p, "--service-law", "scenario.service_law", "deterministic or exponential",
              str)
    p.add_argument("--trace-out", metavar="PATH", help="also dump the trigger trace CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scalability", parents=[common, timer, budget],
                       help="cost, productivity and the scalability index psi(k)")
    p.add_argument("--kmax", type=int, default=10)
    _key_flag(p, "--gamma", "cost.gamma", "not-scalable threshold")
    p.set_defaults(func=cmd_scalability)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(load_config(args.config, _overlay(args)), args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (InstabilityError, InfeasibleError) as e:
        print(f"infeasible model: {e}", file=sys.stderr)
        return 3
    except (VmmeCapError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
