"""Configuration ingestion: YAML file and CLI flags deep-merged over the defaults.

The defaults tree is the schema. A key absent from it is rejected with its
full path so typos fail loudly, and every value must have the type of the
default at the same path. Lists (apps, encoding choices, egress tiers) are
replaced wholesale, not merged element-wise; each app spec and its model
spec are checked against the fields of the class they build. `ToolConfig`
carries the typed model objects plus a digest of the effective configuration
for reproducible report headers.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields

from .defaults import paper_defaults
from .dists import Dist
from .econ import CostSchedule
from .errors import ConfigError, FieldError, ParameterError
from .mmpp import MmppParams
from .queueing import QueueParams, SlServiceTimes
from .workload import AAP_MODELS, AppProfile, CellGeometry, TrafficMix
from . import dists


def _require(ok: bool, where: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{where} must be {rule}, got {value!r}")


def _typed(value, default, where: str):
    """`value` checked against the type of `default` and returned as that type.

    A float takes an int or a float, never a bool or NaN, and is stored as a
    float; an int takes an integer or an integral float. A str, mapping or
    list takes only its own type.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, int):
        ok = number and (isinstance(value, int) or value.is_integer())
        value = int(value) if ok else value
    elif isinstance(default, float):
        ok = number and value == value
        value = float(value) if ok else value
    else:
        ok = isinstance(value, type(default))
    _require(ok, where, f"of type {type(default).__name__}", value)
    return copy.deepcopy(value)


def deep_merge(base: dict, override: dict, path: str = "") -> dict:
    """Merge `override` into a copy of `base`, rejecting keys absent from base
    and values whose type differs from base's value at the same path."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key: {here}")
        if isinstance(base[key], dict) and "kind" in base[key]:
            # distribution specs are replaced wholesale and checked by
            # Dist.from_dict: their parameter names depend on the kind
            out[key] = copy.deepcopy(val)
        elif isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = deep_merge(base[key], val, here)
        else:
            out[key] = _typed(val, base[key], here)
    return out


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@contextmanager
def _under(where: str, given: dict | None = None):
    """Report a model class's ParameterError as a ConfigError under `where`: a
    field error under its field's config key, with the value in `given` if the
    class took it converted, any other with `where` as a prefix."""
    try:
        yield
    except FieldError as e:
        value = e.value if given is None else given[e.field]
        raise ConfigError(f"{where}.{e.field} must be {e.rule}, got {value!r}") from e
    except ParameterError as e:
        raise ConfigError(f"{where}: {e}") from e


def _dist(spec, where: str) -> Dist:
    with _under(where):
        return Dist.from_dict(spec)


def _check_keys(spec: dict, cls, where: str) -> None:
    """Reject a key of `spec` that names no field of the dataclass `cls`."""
    names = {f.name for f in fields(cls)}
    for key in spec:
        if key not in names:
            raise ConfigError(f"unknown configuration key: {where}.{key}")


def _model_field(value, ftype: str, where: str):
    """A traffic-model field from its config value, by the field's annotated type."""
    if ftype == "float":
        return _typed(value, 0.0, where)
    if ftype.startswith("tuple"):  # distributions to choose from
        return tuple(_dist(d, f"{where}[{i}]") for i, d in enumerate(_typed(value, [], where)))
    return _dist(value, where)


def _app(spec, where: str) -> AppProfile:
    _typed(spec, {}, where)
    _check_keys(spec, AppProfile, where)
    try:
        where_m = f"{where}.model"
        mspec = dict(_typed(spec["model"], {}, where_m))
        mtype = _typed(mspec.pop("type"), "", f"{where_m}.type")
        model_cls = AAP_MODELS.get(mtype)
        if model_cls is None:
            raise ConfigError(f"{where_m}.type: unknown model type {mtype!r}")
        _check_keys(mspec, model_cls, where_m)
        with _under(where_m):  # the config errors of the fields pass through
            model = model_cls(**{f.name: _model_field(mspec[f.name], f.type,
                                                      f"{where_m}.{f.name}")
                                 for f in fields(model_cls)})
        reading = spec.get("reading_time_s")
        with _under(where):
            return AppProfile(
                name=_typed(spec["name"], "", f"{where}.name"),
                p_app=_typed(spec["p_app"], 0.0, f"{where}.p_app"),
                n_aap=_dist(spec["n_aap"], f"{where}.n_aap"),
                reading_time_s=(None if reading is None
                                else _dist(reading, f"{where}.reading_time_s")),
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
    digest: str


def build(cfg: dict) -> ToolConfig:
    """Turn a merged, typed configuration dict into model objects, first
    checking under its path each value that no model class checks."""
    s = cfg["scenario"]
    for key in ("n_u", "mtcd_per_ue", "t_i_s", "seed"):
        _require(s[key] >= 0, f"scenario.{key}", ">= 0", s[key])
    _require(s["mtcd_per_ue"] < math.inf, "scenario.mtcd_per_ue", "finite", s["mtcd_per_ue"])
    _require(0 < s["horizon_s"] < math.inf, "scenario.horizon_s", "finite and > 0",
             s["horizon_s"])
    _require(s["service_law"] in ("deterministic", "exponential"), "scenario.service_law",
             "deterministic or exponential", s["service_law"])
    c = dict(cfg["cost"])
    t_hat, gamma = c.pop("t_hat_s"), c.pop("gamma")
    _require(t_hat > 0, "cost.t_hat_s", "> 0", t_hat)
    _require(gamma >= 0, "cost.gamma", ">= 0", gamma)
    tiers = []
    for i, row in enumerate(c["egress_tiers_gb_usd"]):
        where = f"cost.egress_tiers_gb_usd[{i}]"
        _require(isinstance(row, list) and len(row) == 2, where, "a [width GB, $/GB] pair", row)
        tiers.append(tuple(_typed(v, 0.0, f"{where}[{j}]") for j, v in enumerate(row)))
    c["egress_tiers_gb_usd"] = tuple(tiers)
    g = dict(cfg["geometry"])
    speed_dist = _dist(g.pop("speed_dist"), "geometry.speed_dist")
    q = dict(cfg["queue"])
    t = cfg["traffic"]
    apps = tuple(_app(a, f"traffic.apps[{i}]") for i, a in enumerate(t["apps"]))
    with _under("traffic"):
        mix = TrafficMix(apps=apps, mean_iast_s=t["mean_iast_s"],
                         link_rate_bps=t["link_rate_bps"])
    with _under("geometry"):
        geom = CellGeometry(**g, mean_speed_mps=dists.mean(speed_dist))
    sl_us = q.pop("sl_times_us")
    for key, v in sl_us.items():  # a time > 0 that is 0 in seconds would read as <= 0
        _require(not v > 0 or v * 1e-6 > 0, f"queue.sl_times_us.{key}",
                 "large enough not to underflow to 0 s", v)
    with _under("queue.sl_times_us", sl_us):
        sl_times = SlServiceTimes(**{k: v * 1e-6 for k, v in sl_us.items()})
    with _under("queue"):
        queue = QueueParams(**q, sl_times=sl_times)
    with _under("mmpp"):
        mmpp = MmppParams(**cfg["mmpp"])
    with _under("cost"):
        cost = CostSchedule(**c)
    return ToolConfig(
        mix=mix, geom=geom, speed_dist=speed_dist, mmpp=mmpp, queue=queue, cost=cost,
        t_hat_s=t_hat, gamma=gamma, scenario=dict(s), digest=config_digest(cfg),
    )


def load_config(path: str | None = None, overlay: dict | None = None) -> ToolConfig:
    """Defaults, overlaid with a YAML file and then with `overlay` (the CLI flags)."""
    cfg = paper_defaults()
    if path is not None:
        import yaml  # here, not at the top: a run without a file never pays for it

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
    if overlay:
        cfg = deep_merge(cfg, overlay)
    return build(cfg)
