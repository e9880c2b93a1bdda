"""Configuration ingestion: YAML file deep-merged over the built-in defaults.

Unknown keys are rejected with their full path so typos fail loudly. Lists
(apps, encoding choices, egress tiers) are replaced wholesale, not merged
element-wise; each app spec and its model spec are checked against the
fields of the class they build. `ToolConfig` carries the typed model
objects plus a digest of the effective configuration for reproducible
report headers.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, fields

import yaml

from .defaults import paper_defaults
from .dists import Dist
from .econ import CostSchedule
from .errors import ConfigError, ParameterError, VmmeCapError
from .mmpp import MmppParams
from .queueing import QueueParams, SlServiceTimes
from .workload import (
    AppProfile,
    CallModel,
    CellGeometry,
    TrafficMix,
    VideoModel,
    WebModel,
)
from . import dists


def deep_merge(base: dict, override: dict, path: str = "") -> dict:
    """Merge `override` into a copy of `base`, rejecting keys absent from base."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key: {here}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            # distribution specs are replaced wholesale: their parameter
            # names depend on the kind, so field-wise merging is meaningless
            if "kind" in base[key] or "kind" in val:
                out[key] = copy.deepcopy(val)
                continue
            out[key] = deep_merge(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _dist(spec, where: str) -> Dist:
    if spec is None:
        raise ConfigError(f"{where}: missing distribution spec")
    try:
        return Dist.from_dict(spec)
    except (ParameterError, TypeError) as e:
        raise ConfigError(f"{where}: {e}") from e


def _check_keys(spec: dict, cls, where: str) -> None:
    """Reject a key of `spec` that names no field of the dataclass `cls`."""
    names = {f.name for f in fields(cls)}
    for key in spec:
        if key not in names:
            raise ConfigError(f"unknown configuration key: {where}.{key}")


def _app(spec: dict, idx: int) -> AppProfile:
    where = f"traffic.apps[{idx}]"
    try:
        _check_keys(spec, AppProfile, where)
        mspec = dict(spec["model"])
        mtype = mspec.pop("type")
        model_cls = {"web": WebModel, "video": VideoModel, "call": CallModel}.get(mtype)
        if model_cls is None:
            raise ConfigError(f"{where}: unknown model type {mtype!r}")
        _check_keys(mspec, model_cls, f"{where}.model")
        if model_cls is WebModel:
            model = WebModel(
                main_obj_bytes=_dist(mspec["main_obj_bytes"], where),
                embedded_obj_bytes=_dist(mspec["embedded_obj_bytes"], where),
                n_embedded=_dist(mspec["n_embedded"], where),
                parsing_time_s=_dist(mspec["parsing_time_s"], where),
            )
        elif model_cls is VideoModel:
            model = VideoModel(
                duration_s=_dist(mspec["duration_s"], where),
                encoding_rate_choices=tuple(
                    _dist(d, where) for d in mspec["encoding_rate_choices"]
                ),
                burst_media_s=float(mspec["burst_media_s"]),
                throttle_factor=float(mspec["throttle_factor"]),
            )
        else:
            model = CallModel(holding_time_s=_dist(mspec["holding_time_s"], where))
        reading = spec.get("reading_time_s")
        return AppProfile(
            name=str(spec["name"]),
            p_app=float(spec["p_app"]),
            n_aap=_dist(spec["n_aap"], where),
            reading_time_s=_dist(reading, where) if reading is not None else None,
            model=model,
        )
    except KeyError as e:
        raise ConfigError(f"{where}: missing field {e}") from e


@dataclass(frozen=True)
class ToolConfig:
    mix: TrafficMix
    geom: CellGeometry
    speed_dist: Dist
    mmpp: MmppParams
    queue: QueueParams
    cost: CostSchedule
    t_hat_s: float
    gamma: float
    scenario: dict
    raw: dict
    digest: str


def build(cfg: dict) -> ToolConfig:
    """Turn a merged configuration dict into typed model objects."""
    try:
        t = cfg["traffic"]
        apps = tuple(_app(a, i) for i, a in enumerate(t["apps"]))
        mix = TrafficMix(
            apps=apps,
            mean_iast_s=float(t["mean_iast_s"]),
            link_rate_bps=float(t["link_rate_bps"]),
        )
        g = cfg["geometry"]
        speed_dist = _dist(g["speed_dist"], "geometry.speed_dist")
        geom = CellGeometry(
            cell_width_m=float(g["cell_width_m"]),
            cell_height_m=float(g["cell_height_m"]),
            grid_cols=int(g["grid_cols"]),
            grid_rows=int(g["grid_rows"]),
            mean_speed_mps=dists.mean(speed_dist),
        )
        mm = cfg["mmpp"]
        mmpp = MmppParams(
            p=float(mm["p"]), q=float(mm["q"]),
            lambda1=float(mm["lambda1"]), lambda2=float(mm["lambda2"]),
            delta_t=float(mm["delta_t"]),
        )
        q = cfg["queue"]
        st = q["sl_times_us"]
        sl = SlServiceTimes(**{k: float(v) * 1e-6 for k, v in st.items()})
        queue = QueueParams(
            mu_fe=float(q["mu_fe"]),
            mu_sdb=float(q["mu_sdb"]),
            mu_oi=float(q["mu_oi"]),
            sl_times=sl,
            m=int(q["m"]),
            t_im=float(q["t_im_s"]),
            prop_delay=float(q["prop_delay_s"]),
            t_max=float(q["t_max_s"]),
        )
        c = dict(cfg["cost"])
        t_hat = float(c.pop("t_hat_s"))
        gamma = float(c.pop("gamma"))
        c["egress_tiers_gb_usd"] = tuple(
            (float(w), float(r)) for w, r in c["egress_tiers_gb_usd"]
        )
        cost = CostSchedule(**c)
        scenario = dict(cfg["scenario"])
        if scenario["service_law"] not in ("deterministic", "exponential"):
            raise ConfigError(
                f"scenario.service_law must be deterministic or exponential, "
                f"got {scenario['service_law']!r}"
            )
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError(f"missing configuration key {e}") from e
    except (TypeError, ValueError, VmmeCapError) as e:
        raise ConfigError(str(e)) from e
    return ToolConfig(
        mix=mix, geom=geom, speed_dist=speed_dist, mmpp=mmpp, queue=queue,
        cost=cost, t_hat_s=t_hat, gamma=gamma, scenario=scenario,
        raw=cfg, digest=config_digest(cfg),
    )


def load_config(path: str | None = None) -> ToolConfig:
    """Defaults, optionally overlaid with a YAML file."""
    cfg = paper_defaults()
    if path is not None:
        try:
            with open(path) as fh:
                user = yaml.safe_load(fh) or {}
        except OSError as e:
            raise ConfigError(f"cannot read {path}: {e}") from e
        except yaml.YAMLError as e:
            raise ConfigError(f"cannot parse {path}: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        cfg = deep_merge(cfg, user)
    return build(cfg)
