"""Built-in default configuration (the validated reference parameter set).

`paper_defaults()` returns a plain nested dict; the config module turns it
(or a user file deep-merged over it) into typed model objects. This is the
only copy of the reference values: the model dataclasses have no defaults
of their own, apart from `MmppParams.delta_t` (1 s slots), which a caller
building the class directly may omit and the config always sets. Every
number here is overridable from the configuration file.
"""

from __future__ import annotations


def paper_defaults() -> dict:
    return {
        "traffic": {
            "mean_iast_s": 1200.0,
            "link_rate_bps": 300e6,
            "apps": [
                {
                    "name": "web",
                    "p_app": 0.74,
                    "n_aap": {"kind": "geometric_count", "p_continue": 0.893},
                    "reading_time_s": {"kind": "exponential", "mean": 30.0},
                    "model": {
                        "type": "web",
                        "main_obj_bytes": {
                            "kind": "trunc_lognormal",
                            "mu": 15.098, "sigma": 4.390e-5, "lo": 100.0, "hi": 6e6,
                        },
                        "embedded_obj_bytes": {
                            "kind": "trunc_lognormal",
                            "mu": 6.17, "sigma": 2.36, "lo": 50.0, "hi": 2e6,
                        },
                        # the embedded-object count is specified only by (shape 1.1,
                        # mean 22); with hi fixed at 550, lo is the root that gives
                        # mean 22, and dists.mean returns exactly 22.0 at this value
                        "n_embedded": {
                            "kind": "trunc_pareto",
                            "shape": 1.1, "lo": 5.363082609966363, "hi": 550.0,
                        },
                        "parsing_time_s": {"kind": "exponential", "mean": 0.13},
                    },
                },
                {
                    "name": "video",
                    "p_app": 0.03,
                    "n_aap": {"kind": "geometric_count", "p_continue": 0.6},
                    "reading_time_s": {"kind": "exponential", "mean": 30.0},
                    "model": {
                        "type": "video",
                        # stand-in duration law: lognormal, mean 210 s, sigma 0.7
                        # (mu = ln 210 - sigma^2/2), truncated only nominally
                        "duration_s": {
                            "kind": "trunc_lognormal",
                            "mu": 5.102108, "sigma": 0.7, "lo": 1e-3, "hi": 1e6,
                        },
                        "encoding_rate_choices": [
                            {"kind": "uniform", "lo": 2.5e6, "hi": 3.0e6},
                            {"kind": "uniform", "lo": 4.0e6, "hi": 4.5e6},
                            {"kind": "uniform", "lo": 12.5e6, "hi": 16.0e6},
                            {"kind": "uniform", "lo": 20.0e6, "hi": 25.0e6},
                        ],
                        "burst_media_s": 40.0,
                        "throttle_factor": 1.25,
                    },
                },
                {
                    "name": "call",
                    "p_app": 0.23,
                    "n_aap": {"kind": "constant", "value": 1.0},
                    "reading_time_s": None,
                    "model": {
                        "type": "call",
                        "holding_time_s": {
                            "kind": "gpd", "shape": -0.39, "scale": 69.33, "loc": 0.0,
                        },
                    },
                },
            ],
        },
        "geometry": {
            "cell_width_m": 138.0,
            "cell_height_m": 129.0,
            "speed_dist": {"kind": "uniform", "lo": 0.0, "hi": 4.2},
        },
        "mmpp": {
            "p": 6.75e-5,
            "q": 1.47e-4,
            "lambda1": 0.0015,
            "lambda2": 0.065,
            "delta_t": 1.0,
        },
        "queue": {
            "mu_fe": 120_000.0,
            "mu_sdb": 100_000.0,
            "mu_oi": 5_000_000.0,
            "sl_times_us": {
                "t_sr1": 127.4, "t_sr2": 94.0, "t_sr3": 94.0,
                "t_srr1": 94.0, "t_srr2": 94.0, "t_srr3": 93.2,
                "t_hr1": 94.0, "t_hr2": 94.0,
            },
            "m": 1,
            "t_im_s": 15e-3,
            "t_max_s": 1e-3,
        },
        "cost": {
            "ci_type_usd_per_h": 0.266,
            "ci_storage_gb": 10.0,
            "ci_storage_usd_per_gb_month": 0.10,
            "ci_optimized_access_usd_per_h": 0.025,
            "egress_tiers_gb_usd": [  # [bracket width in GB, $/GB]
                [1.0, 0.0],  # first GB each month is free
                [10239.0, 0.090],  # up to 10 TB cumulative
                [40960.0, 0.085],  # up to 50 TB
                [102400.0, 0.070],  # up to 150 TB
                [358400.0, 0.050],  # up to 500 TB
            ],
            "db_type_usd_per_h": 4.64,
            "db_storage_usd_per_gb_month": 0.1,
            "db_usd_per_million_tx": 0.2,
            "lb_fee_usd_per_month": 0.025,
            "lb_usd_per_gb": 0.008,
            "i_size_bytes": 200.0,
            "o_size_bytes": 200.0,
            "per_user_state_bytes": 1024.0,
            "seconds_per_month": 2_628_000.0,
            "t_hat_s": 1e-3,
            "gamma": 0.8,
        },
        "scenario": {
            "n_u": 20_000,
            "mtcd_per_ue": 1.0,
            "t_i_s": 10.0,
            "seed": 1,
            "horizon_s": 20_000.0,
            "service_law": "deterministic",
        },
    }
