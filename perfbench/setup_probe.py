"""Time the benchmark's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py CONFIG

Run from the repository root. Imports the package, loads ``CONFIG``, builds
its model and finishes the model's lazy set-up, then times run.py's
reference kernel twice and prints one JSON object with the seconds of each
step, their total and the mean probe. ``run.py`` starts several of these so
that set-up time, which a process pays once, gets a median, and scales each
by the probe taken in the same process right after it.
"""

import json
import os
import sys
import time

started = time.perf_counter()
sys.path.insert(0, os.path.abspath("src"))

from workloads import prepare  # noqa: E402  (imports numpy and every nmarl module)

imported = time.perf_counter()
_, _, parts = prepare(sys.argv[1])
total = time.perf_counter() - started

from run import reference_probe  # noqa: E402

probe = (reference_probe() + reference_probe()) / 2.0
print(json.dumps({"import": imported - started, **parts, "total": total, "probe": probe}))
