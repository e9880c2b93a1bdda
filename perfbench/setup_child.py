"""One fresh-interpreter set-up, timed from inside: import, config, inputs.

``run.py`` starts this script several times per run and times each start up
to the JSON line it prints, which is the benchmark's ``setup_s``.
Usage: python3 perfbench/setup_child.py WORKLOAD SEED SIZE
"""

import time

t_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import bootstrap  # noqa: E402,F401
import tracing  # noqa: E402,F401  (imports every layer, as vmmecap.cli does)
import workloads  # noqa: E402
from vmmecap.config import load_config  # noqa: E402

t_import = time.perf_counter()
cfg = load_config()
t_config = time.perf_counter()
name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.WORKLOADS[name](cfg, seed, workloads.SIZES[size])
t_inputs = time.perf_counter()
print(json.dumps({"import_s": t_import - t_start, "config_s": t_config - t_import,
                  "inputs_s": t_inputs - t_config, "config_digest": cfg.digest}),
      flush=True)
