"""Layer probes: direct calls into layers the workloads reach only indirectly.

``dists`` and ``mmpp`` run inside trace generation, the queue kernel inside
``run_queue_sim`` for one law and pool size per workload, ``batch_means``
inside the simulator. Each probe calls the layer's public functions itself,
on a fixed input built from the workloads' own parameters, and reports a
per-call or per-item cost. Every traced run executes all probes, so every
per-layer metric is measured on every workload.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np

from vmmecap import dists
from vmmecap.queueing import dimension

from workloads import queue_pool_rates

REPS = 5  # median of this many timed repetitions per probe


def _median_time(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def config_laws(cfg) -> dict:
    """The first law of each kind in the configuration, in config order."""
    laws = [cfg.speed_dist]
    for app in cfg.mix.apps:
        laws.append(app.n_aap)
        if app.reading_time_s is not None:
            laws.append(app.reading_time_s)
        laws.extend(v for v in vars(app.model).values() if isinstance(v, dists.Dist))
        laws.extend(getattr(app.model, "encoding_rate_choices", ()))
    out = {}
    for law in laws:
        out.setdefault(law.kind, law)
    return out


def run_probes(lib, cfg, size: dict, scale: float = 1.0, reps: int = REPS) -> dict:
    """Every probe metric, by name; each a median over `reps` repetitions.

    `scale` shrinks every input, for the traced sweep and smoke runs.
    """
    def n(base):
        return max(1, int(base * scale))

    def median_time(fn, most: int = reps) -> float:
        return _median_time(fn, min(reps, most))

    out = {}
    rng = np.random.default_rng(0)

    lib.load_config()  # the config layer, as the CLI calls it

    laws = config_laws(cfg)
    draws, blocks, block = n(400), n(100), 64
    for kind, law in laws.items():
        def scalar():
            for _ in range(draws):
                lib.sample(law, rng)

        def blocked():
            for _ in range(blocks):
                lib.sample(law, rng, size=block)

        out[f"dists.sample_scalar_us.{kind}"] = median_time(scalar) / draws * 1e6
        out[f"dists.sample_block_ns_per_draw.{kind}"] = (
            median_time(blocked) / (blocks * block) * 1e9)
    calls = n(500)
    law_list = list(laws.values())
    points = [(law, 0.5 * dists.mean(law)) for law in law_list]
    for name in ("mean", "tail_prob", "expected_truncated"):
        fn = getattr(lib, name)
        if name == "mean":
            body = lambda: [fn(law) for _ in range(calls) for law in law_list]  # noqa: E731
        else:
            body = lambda: [fn(law, t) for _ in range(calls) for law, t in points]  # noqa: E731
        out[f"dists.{name}_us"] = median_time(body) / (calls * len(law_list)) * 1e6

    horizon = 2e7 * scale
    stream = []
    t = median_time(lambda: stream.append(
        lib.mmpp_packet_stream(cfg.mmpp, horizon, np.random.default_rng(1))), 3)
    out["mmpp.packets_per_s"] = len(stream[-1]) / t

    ti = cfg.scenario["t_i_s"]
    n_ue = n(10)
    t = median_time(lambda: lib.generate_triggers(
        cfg.mix, cfg.geom, cfg.mmpp, n_ue, 0, size["rs_ti"][0], size["rs_horizon"], 0,
        speed_dist=cfg.speed_dist), 1)
    out["triggers.ue_ms_per_device"] = t / n_ue * 1e3
    n_mtcd = n(1000)
    traces = []
    t = median_time(lambda: traces.append(lib.generate_triggers(
        cfg.mix, cfg.geom, cfg.mmpp, 0, n_mtcd, ti, size["sm_horizon"], 0,
        speed_dist=cfg.speed_dist)), 3)
    out["triggers.mtcd_ms_per_device"] = t / n_mtcd * 1e3
    mtc_trace = traces[-1]
    out["stats.measured_rates_s"] = median_time(
        lambda: lib.measured_rates(mtc_trace, 0, n_mtcd, size["sm_horizon"]))

    # the queue kernel for each law and pool size the workloads use, on a
    # Poisson trace at that workload's message rate
    sm_per_mtcd = lib.mtc_rates(cfg.mmpp, ti)
    sm_rates = lib.aggregate_rates((0.0, 0.0, 0.0), sm_per_mtcd, 0, size["sm_n_d"])
    qp_rates = queue_pool_rates(cfg, size["qp_pairs"])
    m_pool = dimension(qp_rates, cfg.queue)
    for law, rates, m, horizon in (
            (cfg.scenario["service_law"], sm_rates, cfg.queue.m, 20.0 * scale),
            ("exponential", qp_rates, m_pool, 1.0 * scale)):
        trace = lib.poisson_triggers(rates.lam_sr, rates.lam_srr, rates.lam_hr,
                                     horizon, 0)
        params = replace(cfg.queue, m=m)
        res = []
        t = median_time(lambda: res.append(
            lib.run_queue_sim(trace, params, service_law=law, seed=0)), 3)
        out[f"queuesim.msgs_per_s.{law}.m{m}"] = res[-1].n_messages / t

    samples = rng.exponential(1e-4, n(200_000))
    out["stats.batch_means_s"] = median_time(lambda: lib.batch_means(samples, 20))

    calls = n(100)
    out["workload.htc_rates_us"] = median_time(lambda: [
        lib.htc_rates(cfg.mix, cfg.geom, ti) for _ in range(calls)]) / calls * 1e6
    out["workload.mtc_rates_us"] = median_time(lambda: [
        lib.mtc_rates(cfg.mmpp, ti) for _ in range(calls)]) / calls * 1e6
    ratio = cfg.scenario["mtcd_per_ue"]
    caps = []
    t = median_time(lambda: caps.append([
        lib.capacity(k, cfg.queue, cfg.mix, cfg.geom, cfg.mmpp, ti, ratio)
        for k in range(1, 11)]))
    out["queueing.capacity_us"] = t / 10 * 1e6
    out["queueing.dimension_us"] = median_time(lambda: [
        lib.dimension(qp_rates, cfg.queue) for _ in range(calls)]) / calls * 1e6
    points = [(r.m, r.n_u_max, r.lam_msgs, r.t_mean_s) for r in caps[-1]]
    out["econ.scalability_table_s"] = median_time(lambda: lib.scalability_table(
        points, cfg.cost, cfg.t_hat_s, cfg.gamma))
    return out
