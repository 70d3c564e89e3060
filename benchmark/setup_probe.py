"""Set-up probe: a fresh interpreter that does a workload's set-up and exits.

``run.py`` starts it and times interpreter start up to the ``ready`` line,
which covers ``import hotlanes`` and config resolution.
Usage: python3 setup_probe.py <workload> <seed>
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import workloads  # noqa: E402  (needs the paths above)

workloads.set_up(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
