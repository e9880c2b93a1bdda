"""Spans around the calls the benchmark makes into vmmecap's layers.

Workloads reach the library only through a :class:`Lib` object. Untraced,
its attributes are the library functions themselves, so the timed code runs
exactly as a caller of the package would run it. Traced, every attribute is
wrapped: a call records a span (name, layer, start, end, parent, operation
id) and the counts its result carries. Nothing inside the package is
instrumented, so work a layer does on behalf of another (``dists`` under
``simcore.triggers``, say) is part of the caller's self time; the layer
probes measure those layers directly.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

from vmmecap import config, dists, econ, mmpp, queueing, workload
from vmmecap.simcore import queuesim, stats, triggers

# public functions the workloads and probes call, by layer
LAYER_FUNCS = {
    "config": (config, ("load_config",)),
    "dists": (dists, ("sample", "mean", "tail_prob", "expected_truncated")),
    "mmpp": (mmpp, ("mmpp_packet_stream",)),
    "workload": (workload, ("htc_rates", "mtc_rates", "aggregate_rates")),
    "queueing": (queueing, ("capacity", "dimension")),
    "econ": (econ, ("scalability_table",)),
    "triggers": (triggers, ("generate_triggers", "poisson_triggers")),
    "queuesim": (queuesim, ("run_queue_sim",)),
    "stats": (stats, ("measured_rates", "batch_means")),
}
LAYERS = tuple(LAYER_FUNCS)
BENCH = "bench"  # the harness's own time inside an operation span
SETTLE_S = inspect.signature(triggers.generate_triggers).parameters["settle_s"].default


def _counts(fn_name: str, args, kwargs, out) -> dict:
    """Counts recorded at a layer boundary, read off the call and its result."""
    if fn_name == "generate_triggers":
        n_u, n_d, horizon = args[3], args[4], args[6]
        settle = kwargs.get("settle_s", SETTLE_S)
        devices = n_u + n_d
        return {"triggers.triggers_out": len(out),
                "triggers.device_s_useful": devices * horizon,
                "triggers.device_s_simulated": devices * (settle + horizon)}
    if fn_name == "poisson_triggers":
        return {"triggers.triggers_out": len(out)}
    if fn_name == "run_queue_sim":
        return {"queuesim.messages": out.n_messages,
                "queuesim.max_backlog": out.max_backlog}
    return {}


class Tracer:
    """In-memory span store; one instance per traced section of a run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, layer, name, t0, t1)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = None

    def _open(self, layer: str, name: str) -> tuple[int, int | None, float]:
        sid = len(self.spans)
        self.spans.append(None)  # reserve the slot so ids follow start order
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, layer, name, t0) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, parent, self._op, layer, name, t0, t1)

    def operation(self, op_id: str, fn, *args):
        """Run one workload operation under a root span of the harness."""
        self._op = op_id
        sid, parent, t0 = self._open(BENCH, op_id)
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, BENCH, op_id, t0)
            self._op = None

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"

        def traced(*args, **kwargs):
            sid, parent, t0 = self._open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, layer, name, t0)
            for key, val in _counts(fn.__name__, args, kwargs, out).items():
                if key == "queuesim.max_backlog":
                    self.counts[key] = max(self.counts[key], val)
                else:
                    self.counts[key] += val
            return out

        return traced

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span duration minus what its children cover."""
        child_time = defaultdict(float)
        for _sid, parent, _op, _layer, _name, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out = dict.fromkeys((BENCH,) + LAYERS, 0.0)
        for sid, _parent, _op, layer, _name, t0, t1 in self.spans:
            out[layer] += (t1 - t0) - child_time[sid]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line; called once, at the end of a run."""
        with open(path, "w") as fh:
            for sid, parent, op, layer, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "layer": layer, "name": name,
                                     "start": t0, "end": t1}) + "\n")


class Lib:
    """The package's public functions, called directly or through spans."""

    def __init__(self, tracer: Tracer | None = None):
        for layer, (module, names) in LAYER_FUNCS.items():
            for name in names:
                fn = getattr(module, name)
                setattr(self, name, fn if tracer is None else tracer.wrap(layer, fn))
