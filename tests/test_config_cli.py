"""Configuration ingestion and the command-line interface."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import vmmecap
from vmmecap import cli
from vmmecap.cli import _parse_grid, main
from vmmecap.config import config_digest, deep_merge, load_config
from vmmecap.defaults import paper_defaults
from vmmecap.errors import ConfigError
from vmmecap.simcore import triggers
from vmmecap.workload import aggregate_rates


def _scalar_leaves(tree: dict, path: str = ""):
    """(dotted path, default) of every scalar the typed merge checks."""
    for key, val in tree.items():
        here = f"{path}.{key}" if path else key
        if isinstance(val, dict) and "kind" not in val:
            yield from _scalar_leaves(val, here)
        elif isinstance(val, (int, float, str)):
            yield here, val


# a value of the wrong type for a key whose default has the given type
_WRONG_TYPE = {int: 2.5, float: "1e3", str: 1.0}


class TestConfig:
    def test_defaults_build(self):
        cfg = load_config()
        assert len(cfg.mix.apps) == 3
        assert cfg.queue.mu_fe == 120000.0
        assert cfg.geom.mean_speed_mps == pytest.approx(2.1)
        assert cfg.mmpp.lambda2 == 0.065

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("queue:\n  mu_fee: 1000\n")
        with pytest.raises(ConfigError, match="queue.mu_fee"):
            load_config(str(p))

    def test_deep_merge_override(self, tmp_path):
        p = tmp_path / "ok.yaml"
        p.write_text("queue:\n  mu_sdb: 50000\nscenario:\n  t_i_s: 5\n")
        cfg = load_config(str(p))
        assert cfg.queue.mu_sdb == 50000.0
        assert cfg.queue.mu_fe == 120000.0  # untouched sibling survives
        assert cfg.scenario["t_i_s"] == 5

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.yaml")

    def test_digest_stable_and_sensitive(self):
        a = config_digest(paper_defaults())
        b = config_digest(paper_defaults())
        assert a == b
        mutated = deep_merge(paper_defaults(), {"queue": {"m": 2}})
        assert config_digest(mutated) != a

    def test_bad_value_reported_as_config_error(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("mmpp:\n  p: 1.5\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    @pytest.mark.parametrize("path, bad", [
        (path, bad) for path, default in _scalar_leaves(paper_defaults())
        for bad in (None, _WRONG_TYPE[type(default)])
    ], ids=str)
    def test_every_scalar_leaf_is_typed(self, path, bad):
        overlay = bad
        for key in reversed(path.split(".")):
            overlay = {key: overlay}
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)} must be "):
            load_config(None, overlay)

    def test_distribution_override(self, tmp_path):
        p = tmp_path / "ok.yaml"
        p.write_text("geometry:\n  speed_dist: {kind: constant, value: 3.0}\n")
        cfg = load_config(str(p))
        assert cfg.geom.mean_speed_mps == pytest.approx(3.0)


def _apps(edit) -> dict:
    """A `traffic.apps` overlay: the default apps after `edit` changed them in place."""
    apps = paper_defaults()["traffic"]["apps"]
    edit(apps)
    return {"traffic": {"apps": apps}}


def _rename(spec: dict, old: str, new: str) -> None:
    spec[new] = spec.pop(old)


# every price and fee of the cost schedule at 0
_COST = paper_defaults()["cost"]
_FREE = {**{k: 0.0 for k in _COST if "_usd_" in k},
         "egress_tiers_gb_usd": [[w, 0.0] for w, _ in _COST["egress_tiers_gb_usd"]]}


WALLS = ("generate_s", "queue_s", "stats_s")  # phase wall times in `simulate`'s meta


def _without_walls(text: str) -> dict:
    """A JSON output without the phase wall times, the one part that varies by run."""
    out = json.loads(text)
    for k in WALLS:
        del out["meta"][k]
    return out


def _run_child(args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds the package where this process
    found it, installed or not."""
    src = str(Path(vmmecap.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_cli(args, tmp_path, fmt="csv"):
    out = tmp_path / "out.txt"
    code = main(args + ["--out", str(out), "--format", fmt])
    return code, out.read_text()


class TestCli:
    def test_rates_reference_row(self, tmp_path):
        code, text = run_cli(["rates", "--ti", "10"], tmp_path)
        assert code == 0
        rows = [r for r in csv.reader(text.splitlines()) if not r[0].startswith("#")]
        header, row = rows[0], rows[1]
        vals = dict(zip(header, row))
        assert float(vals["lam_u_sr_per_s"]) == pytest.approx(0.0045394, rel=1e-4)
        assert float(vals["lam_s_sr_per_s"]) == pytest.approx(0.0116969, rel=1e-4)

    def test_rates_ti_zero_mtc_limit(self, tmp_path):
        code, text = run_cli(["rates", "--ti", "0"], tmp_path)
        rows = [r for r in csv.reader(text.splitlines()) if not r[0].startswith("#")]
        vals = dict(zip(rows[0], rows[1]))
        assert float(vals["lam_s_sr_per_s"]) == pytest.approx(0.0214825, rel=1e-4)

    def test_rates_sweep_monotone(self, tmp_path):
        code, text = run_cli(["rates", "--ti", "1:30:5"], tmp_path)
        rows = [r for r in csv.reader(text.splitlines()) if not r[0].startswith("#")]
        idx = rows[0].index("lam_u_sr_per_s")
        col = [float(r[idx]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(col, col[1:]))

    def test_grid_points_do_not_drift(self):
        # each point is lo + i * step, not a running sum, so a long grid keeps its endpoint
        grid = _parse_grid("0:10000:0.1", "--ti")
        assert len(grid) == 100_001
        assert grid[-1] == 10000.0
        assert _parse_grid("1:30:5", "--ti") == [1.0, 6.0, 11.0, 16.0, 21.0, 26.0]
        assert _parse_grid("0:1:0.1", "--ti") == [i / 10 for i in range(11)]
        assert _parse_grid("1:10", "--m", whole=True) == list(range(1, 11))

    def test_dimension_reference(self, tmp_path):
        code, text = run_cli(["dimension", "--users", "20000"], tmp_path, fmt="json")
        assert code == 0
        row = json.loads(text)["rows"][0]
        assert row["m_min"] == 1
        assert row["n_d"] == 20000
        assert row["t_mean_us"] < 1000.0

    def test_capacity_row(self, tmp_path):
        code, text = run_cli(["capacity", "--m", "10,12"], tmp_path, fmt="json")
        rows = json.loads(text)["rows"]
        assert rows[0]["n_u_max"] == pytest.approx(977666, abs=3)
        assert rows[1]["n_u_max"] >= rows[0]["n_u_max"]

    def test_scalability_reference_row(self, tmp_path):
        code, text = run_cli(["scalability", "--kmax", "2"], tmp_path, fmt="json")
        rows = json.loads(text)["rows"]
        assert rows[0]["psi"] == 1.0
        assert rows[0]["class"] == "positive"
        assert rows[1]["psi"] == pytest.approx(1.1829, abs=2e-3)

    def test_simulate_deterministic_output(self, tmp_path):
        args = ["simulate", "--users", "50", "--mtcd-ratio", "1",
                "--duration-s", "1500", "--seed", "9"]
        _, a = run_cli(args, tmp_path, fmt="json")
        _, b = run_cli(args, tmp_path, fmt="json")
        assert _without_walls(a) == _without_walls(b)

    def test_simulate_phase_walls(self, tmp_path):
        _, text = run_cli(["simulate", "--users", "20", "--duration-s", "200"], tmp_path,
                          fmt="json")
        meta = json.loads(text)["meta"]
        assert all(meta[k] >= 0.0 for k in WALLS)
        _, text = run_cli(["simulate", "--users", "20", "--duration-s", "200"], tmp_path)
        assert [r[0] for r in csv.reader(text.splitlines()) if r[0].startswith("#")][-3:] \
            == [f"# {k}" for k in WALLS]

    def test_simulate_queues_a_sorted_trace(self, tmp_path, monkeypatch):
        # the trace sorts on its first column read, in `simulate`'s generate
        # phase, so the queue phase times the kernel alone; `rates --simulate`
        # only counts triggers and never sorts
        events = []
        sort, queue = triggers._sort_parts, cli.run_queue_sim
        monkeypatch.setattr(triggers, "_sort_parts",
                            lambda parts: events.append("sort") or sort(parts))
        monkeypatch.setattr(cli, "run_queue_sim",
                            lambda *args, **kw: events.append("queue") or queue(*args, **kw))
        assert run_cli(["simulate", "--users", "20", "--duration-s", "200"], tmp_path)[0] == 0
        assert events == ["sort", "queue"]
        events.clear()
        assert run_cli(["rates", "--simulate", "--users", "20", "--ti", "10,30",
                        "--duration-s", "200"], tmp_path)[0] == 0
        assert events == []

    def test_rates_simulate_phase_walls(self, tmp_path):
        # `simulate`'s phases but the queue, each summed over the T_I grid
        _, text = run_cli(["rates", "--simulate", "--users", "20", "--ti", "10,30",
                           "--duration-s", "200"], tmp_path)
        meta = [r for r in csv.reader(text.splitlines()) if r[0].startswith("#")]
        assert [k for k, _ in meta[-2:]] == ["# generate_s", "# stats_s"]
        assert all(float(v) >= 0.0 for _, v in meta[-2:])

    @pytest.mark.parametrize("ratio, rates", [
        ("1", ["lam_u_sr", "lam_u_hr", "lam_s_sr"]),
        ("0", ["lam_u_sr", "lam_u_hr"]),  # a kind the population lacks is not reported
    ])
    def test_rates_simulate_reports_and_scores(self, ratio, rates, tmp_path):
        code, text = run_cli(["rates", "--simulate", "--users", "20", "--mtcd-ratio", ratio,
                              "--ti", "1,10", "--duration-s", "2000"], tmp_path, fmt="json")
        assert code == 0
        out = json.loads(text)
        assert [k for k in out["rows"][0] if k.startswith("sim_")] == [
            f"sim_{r}_per_s" for r in rates]
        assert {k for k in out["meta"] if k.startswith("rmse_")} == {f"rmse_{r}" for r in rates}
        # `simulate` reports the same per-device kinds, after the message rate
        code, text = run_cli(["simulate", "--users", "20", "--mtcd-ratio", ratio,
                              "--duration-s", "500"], tmp_path, fmt="json")
        assert code == 0
        assert [k for k in json.loads(text)["rows"][0] if k.startswith("sim_")] == [
            "sim_lam_msgs_per_s"] + [f"sim_{r}_per_s" for r in rates]

    def test_rates_needs_no_device_without_simulate(self, tmp_path):
        assert run_cli(["rates", "--users", "0"], tmp_path)[0] == 0

    def test_config_error_exit_code(self, tmp_path):
        code = main(["rates", "--config", "/no/such/file.yaml"])
        assert code == 2

    def test_simulate_counts_mtcds_per_ue(self, tmp_path):
        # n_d = round(scenario.mtcd_per_ue * n_u), the rule `capacity` uses
        code, text = run_cli(["simulate", "--users", "50", "--duration-s", "200"],
                             tmp_path, fmt="json")
        assert code == 0
        assert json.loads(text)["rows"][0]["n_d"] == 50

    def test_simulate_counts_the_triggers_it_writes(self, tmp_path):
        trace_csv = tmp_path / "trace.csv"
        code, text = run_cli(["simulate", "--users", "30", "--duration-s", "300",
                              "--trace-out", str(trace_csv)], tmp_path, fmt="json")
        assert code == 0
        header, *rows = csv.reader(trace_csv.read_text().splitlines())
        assert header[0] == "time_s" and rows
        assert json.loads(text)["rows"][0]["n_triggers"] == len(rows)

    @pytest.mark.parametrize("overlay, path", [
        ({"nonsense": 1}, "nonsense"),
        ({"mmpp": {"packet_size_bytes": 100.0}}, "mmpp.packet_size_bytes"),
        ({"queue": {"o_bw": 1e9}}, "queue.o_bw"),
        ({"queue": {"o_size_bytes": 200.0}}, "queue.o_size_bytes"),
        ({"scenario": {"n_d": 100}}, "scenario.n_d"),
        (_apps(lambda a: a[0]["model"].update(parsing_per_object=True)),
         "traffic.apps[0].model.parsing_per_object"),
        (_apps(lambda a: _rename(a[2]["model"], "holding_time_s", "holdnig_time_s")),
         "traffic.apps[2].model.holdnig_time_s"),
        (_apps(lambda a: _rename(a[0], "reading_time_s", "reding_time_s")),
         "traffic.apps[0].reding_time_s"),
        ({"queue": {"mu_oi": None}}, None),  # no longer means "derive from o_bw"
        ({"geometry": {"grid_cols": 4}}, "geometry.grid_cols"),  # cells wrap around
        # egress is always billed on each instance's own meter
        ({"cost": {"egress_per_instance": True}}, "cost.egress_per_instance"),
    ], ids=["nonsense", "mmpp.packet_size_bytes", "queue.o_bw", "queue.o_size_bytes",
            "scenario.n_d", "parsing_per_object", "misspelt-model-key",
            "misspelt-app-key", "queue.mu_oi-null", "geometry.grid_cols",
            "cost.egress_per_instance"])
    def test_unknown_key_exit_code(self, overlay, path, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(overlay))
        assert main(["rates", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        if path is not None:
            assert f"unknown configuration key: {path}" in err

    @pytest.mark.parametrize("argv", [
        ["dimension", "--ti", "1:30"],  # a grid where a scalar is needed
        ["capacity", "--m", "0"],
        ["dimension", "--users", "-5"],
        ["dimension", "--tmax-us", "0"],  # a given zero is not the default
        ["simulate", "--m", "0"],
        ["simulate", "--duration-s", "0"],
        ["simulate", "--users", "0", "--mtcd-ratio", "0"],  # no devices to simulate
        ["scalability", "--kmax", "0"],
        ["rates", "--ti", "abc"],
        ["rates", "--ti=-inf:3"],  # no first point
        ["simulate", "--duration-s", "inf"],
        ["simulate", "--seed", "-1"],
        ["dimension", "--users", "0"],  # no devices to dimension for
        ["rates", "--simulate", "--users", "0"],  # no devices to simulate
    ], ids=lambda argv: " ".join(argv))
    def test_bad_flag_exit_code(self, argv, tmp_path, capsys):
        # rejected before any trace is generated or any output written
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    # Each id is written out, so deleting a case renames no other; the
    # "overlayN" tags are the ids these cases first ran under.
    @pytest.mark.parametrize("argv, overlay, key", [
        pytest.param(["dimension"], {"scenario": {"seed": "abc"}}, "scenario.seed",
                     id="dimension-overlay0-scenario.seed"),
        pytest.param(["simulate", "--seed", "-1"], None, "scenario.seed",
                     id="simulate --seed -1-None-scenario.seed"),
        pytest.param(["scalability"], {"cost": {"seconds_per_month": 0}},
                     "cost.seconds_per_month",
                     id="scalability-overlay2-cost.seconds_per_month"),
        pytest.param(["simulate", "--duration-s", "inf"], None, "scenario.horizon_s",
                     id="simulate --duration-s inf-None-scenario.horizon_s"),
        pytest.param(["dimension"], {"queue": {"m": 1.5}}, "queue.m",
                     id="dimension-overlay4-queue.m"),
        pytest.param(["dimension"], {"geometry": {"cell_width_m": 0.0}},
                     "geometry.cell_width_m", id="dimension-overlay5-geometry.cell_width_m"),
        pytest.param(["dimension"], {"scenario": {"seed": 1.7}}, "scenario.seed",
                     id="dimension-overlay6-scenario.seed"),
        pytest.param(["scalability"], {"cost": {"gamma": True}}, "cost.gamma",
                     id="scalability-overlay7-cost.gamma"),  # a bool is no number
        pytest.param(["scalability"], {"cost": {"t_hat_s": 0}}, "cost.t_hat_s",
                     id="scalability-overlay8-cost.t_hat_s"),
        pytest.param(["rates"], {"scenario": {"t_i_s": -1}}, "scenario.t_i_s",
                     id="rates-overlay9-scenario.t_i_s"),
        pytest.param(["dimension"], {"queue": {"mu_fe": None}}, "queue.mu_fe",
                     id="dimension-overlay10-queue.mu_fe"),
        pytest.param(["dimension"], {"traffic": {"apps": [1]}}, "traffic.apps[0]",
                     id="dimension-overlay11-traffic.apps[0]"),
        pytest.param(["scalability"], {"cost": {"egress_tiers_gb_usd": [[1.0]]}},
                     "cost.egress_tiers_gb_usd[0]",
                     id="scalability-overlay12-cost.egress_tiers_gb_usd[0]"),
        pytest.param(["dimension"], {"scenario": {"mtcd_per_ue": -1}},
                     "scenario.mtcd_per_ue", id="dimension-overlay13-scenario.mtcd_per_ue"),
        pytest.param(["dimension", "--users", "-5"], None, "scenario.n_u",
                     id="dimension --users -5-None-scenario.n_u"),
        # checked by the model classes, reported under the key they check
        pytest.param(["simulate", "--m", "0"], None, "queue.m",
                     id="simulate --m 0-None-queue.m"),
        pytest.param(["dimension", "--tmax-us", "0"], None, "queue.t_max_s",
                     id="dimension --tmax-us 0-None-queue.t_max_s"),
        pytest.param(["dimension"], {"queue": {"t_im_s": -1.0}}, "queue.t_im_s",
                     id="dimension-overlay17-queue.t_im_s"),
        pytest.param(["dimension"], {"mmpp": {"p": 1.5}}, "mmpp.p",
                     id="dimension-overlay18-mmpp.p"),
        pytest.param(["scalability"], {"cost": {"egress_tiers_gb_usd": [[0, 1.0]]}},
                     "cost.egress_tiers_gb_usd",
                     id="scalability-overlay19-cost.egress_tiers_gb_usd"),
        pytest.param(["dimension"], {"geometry": {"cell_height_m": float("nan")}},
                     "geometry.cell_height_m", id="dimension-overlay20-geometry.cell_height_m"),
        pytest.param(["dimension"], {"traffic": {"link_rate_bps": 0.0}},
                     "traffic.link_rate_bps", id="dimension-overlay21-traffic.link_rate_bps"),
        pytest.param(["dimension"], _apps(lambda a: a[1]["model"].update(throttle_factor=0.0)),
                     "traffic.apps[1].model.throttle_factor",
                     id="dimension-overlay22-traffic.apps[1].model.throttle_factor"),
        pytest.param(["dimension"],
                     {"geometry": {"speed_dist": {"kind": "constant", "value": True}}},
                     "geometry.speed_dist.value",
                     id="dimension-overlay23-geometry.speed_dist.value"),
        pytest.param(["dimension"],
                     {"geometry": {"speed_dist": {"kind": "uniform", "lo": 0, "hi": "x"}}},
                     "geometry.speed_dist.hi", id="dimension-overlay24-geometry.speed_dist.hi"),
        # mean 1, but it rounds to 2 AAPs at times, and calls have no reading time
        pytest.param(["dimension"],
                     _apps(lambda a: a[2].update(n_aap={"kind": "uniform", "lo": 0.2,
                                                        "hi": 1.8})),
                     "traffic.apps[2].reading_time_s",
                     id="dimension-overlay25-traffic.apps[2].reading_time_s"),
        pytest.param(["rates"], {"mmpp": {"lambda1": float("inf")}}, "mmpp.lambda1",
                     id="rates-overlay26-mmpp.lambda1"),  # rates would be NaN
        pytest.param(["scalability"], {"cost": {"egress_tiers_gb_usd": [[1.0, -5.0]]}},
                     "cost.egress_tiers_gb_usd",
                     id="scalability-overlay27-cost.egress_tiers_gb_usd"),
        pytest.param(["scalability"], {"cost": {"egress_tiers_gb_usd": []}},
                     "cost.egress_tiers_gb_usd",
                     id="scalability-overlay28-cost.egress_tiers_gb_usd"),
        # a schedule that bills nothing: productivity would divide by a zero cost
        pytest.param(["scalability"], {"cost": _FREE}, "cost:",
                     id="scalability-overlay29-cost:"),
        pytest.param(["rates"], {"mmpp": {"delta_t": float("inf")}}, "mmpp.delta_t",
                     id="rates-overlay30-mmpp.delta_t"),  # rates would be NaN
        # one price, on a volume of 0 bytes: nothing is billed at any load
        pytest.param(["scalability", "--kmax", "2"],
                     {"cost": {**_FREE, "lb_usd_per_gb": 0.008, "i_size_bytes": 0,
                               "o_size_bytes": 0}},
                     "cost:", id="scalability --kmax 2-overlay31-cost:"),
        # a chain that never moves has no stationary law to start from
        pytest.param(["dimension"], {"mmpp": {"p": 0, "q": 0}}, "mmpp.q",
                     id="dimension-overlay32-mmpp.q"),
        pytest.param(["simulate"], {"mmpp": {"p": 0, "q": 0}}, "mmpp.q",
                     id="simulate-overlay33-mmpp.q"),
    ])
    def test_bad_value_exit_code(self, argv, overlay, key, tmp_path, capsys):
        if overlay is not None:
            p = tmp_path / "bad.yaml"
            p.write_text(yaml.safe_dump(overlay))
            argv = argv + ["--config", str(p)]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} ") and err.count("\n") == 1

    def test_flags_match_config_keys(self, tmp_path):
        # a flag is an overlay of its config key, so the digest agrees too
        _, by_flags = run_cli(["simulate", "--users", "50", "--duration-s", "200",
                               "--seed", "3"], tmp_path, fmt="json")
        p = tmp_path / "scenario.yaml"
        p.write_text("scenario: {n_u: 50, horizon_s: 200.0, seed: 3}\n")
        _, by_file = run_cli(["simulate", "--config", str(p)], tmp_path, fmt="json")
        assert _without_walls(by_flags) == _without_walls(by_file)

    def test_exact_rates_ignore_the_seed(self, tmp_path):
        def row(seed):
            _, text = run_cli(["rates", "--ti", "10", "--seed", seed], tmp_path, fmt="json")
            return json.loads(text)["rows"]

        assert row("5") == row("7")
        assert row("5")[0]["lam_s_sr_per_s"] == pytest.approx(0.01169692524554546, rel=1e-12)

    def test_timer_past_every_slot_count(self, tmp_path, capsys):
        # t / delta_t overflows to inf: no gap outlasts the timer
        p = tmp_path / "slots.yaml"
        p.write_text("mmpp: {delta_t: 0.001}\n")
        code, text = run_cli(["rates", "--ti", "1.7e308", "--config", str(p)], tmp_path,
                             fmt="json")
        assert code == 0 and capsys.readouterr().err == ""
        assert json.loads(text)["rows"][0]["lam_s_sr_per_s"] == 0.0

    def test_commands_use_the_same_rates(self, tmp_path):
        # `dimension` plans on the per-device rates that `rates` reports
        _, text = run_cli(["rates", "--ti", "10"], tmp_path, fmt="json")
        r = json.loads(text)["rows"][0]
        _, text = run_cli(["dimension", "--ti", "10", "--users", "20000"], tmp_path, fmt="json")
        d = json.loads(text)["rows"][0]
        want = aggregate_rates((r["lam_u_sr_per_s"], r["lam_u_sr_per_s"], r["lam_u_hr_per_s"]),
                               (r["lam_s_sr_per_s"], r["lam_s_sr_per_s"]), d["n_u"], d["n_d"])
        assert d["lambda_msgs_per_s"] == pytest.approx(want.lam_total_msgs, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        "{kind: uniform, lo: 0.0, hi: 4.2, hgih: 9.0}",  # misspelt parameter
        "{kind: trunc_lognormal, mu: 8, sigma: 0.05, lo: 1, hi: 100}",  # no mass on [lo, hi]
        "abc",  # not a mapping
    ], ids=["unknown-parameter", "empty-truncation", "not-a-mapping"])
    def test_bad_distribution_exit_code(self, spec, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text(f"geometry:\n  speed_dist: {spec}\n")
        assert main(["capacity", "--m", "1", "--config", str(p),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: geometry.speed_dist: ")
        assert err.count("\n") == 1

    def test_infeasible_exit_code(self, tmp_path):
        # DB-saturating population: dimensioning has no solution
        assert main(["dimension", "--users", "30000000", "--out",
                     str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("command", ["dimension", "capacity", "scalability"])
    def test_no_signaling_exit_code(self, command, tmp_path, capsys):
        # devices that never move and whose timer never expires send nothing
        p = tmp_path / "still.yaml"
        p.write_text("geometry:\n  speed_dist: {kind: constant, value: 0.0}\n")
        assert main([command, "--ti", "inf", "--config", str(p),
                     "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err == "infeasible model: the configured mix generates no signaling at all\n"

    @pytest.mark.parametrize("command", ["rates", "dimension", "simulate"])
    def test_session_longer_than_iast_exit_code(self, command, tmp_path, capsys):
        # every command reaches the same standby law, so all call it infeasible
        p = tmp_path / "short.yaml"
        p.write_text("traffic:\n  mean_iast_s: 5.0\n")
        assert main([command, "--config", str(p), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.startswith("infeasible model: ")

    def test_digest_in_header(self, tmp_path):
        _, text = run_cli(["rates", "--ti", "10"], tmp_path)
        assert "config_digest" in text
        assert "tool_version" in text

    def test_console_script_installed(self):
        proc = _run_child(["-m", "vmmecap.cli", "--version"])
        assert proc.returncode == 0

    def test_no_command_imports_scipy(self):
        # scipy.special alone would cost about 0.3 s and 24 MB of a run's start;
        # the package draws even the truncated lognormal without it
        proc = _run_child(["-c", (
            "import os, sys, vmmecap.cli\n"
            "for argv in (['dimension'], ['capacity'], ['scalability'],\n"
            "             ['simulate', '--users', '20'], ['rates', '--simulate', '--users', '20']):\n"
            "    assert vmmecap.cli.main(argv + ['--out', os.devnull]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_sorting_a_trace_imports_no_numpy_ma(self):
        # numpy.ma, which np.unique imports on first use, costs about 14 ms
        # and 1 MB of long-lived objects; the trace sort needs none of it
        proc = _run_child(["-c", (
            "import os, sys, vmmecap.cli\n"
            "before = 'numpy.ma' in sys.modules\n"
            "assert vmmecap.cli.main(['simulate', '--users', '20', '--ti', '0',\n"
            "                         '--out', os.devnull]) == 0\n"
            "print(before or 'numpy.ma' not in sys.modules)"
        )])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_no_config_file_no_yaml(self):
        # the YAML parser costs about 26 ms and 0.9 MB of a run's start, and
        # only a --config file needs it
        proc = _run_child(["-c", (
            "import os, sys, vmmecap.cli\n"
            "assert vmmecap.cli.main(['dimension', '--out', os.devnull]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'yaml' or m.startswith('yaml.')))"
        )])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
