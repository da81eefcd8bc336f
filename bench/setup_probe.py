"""Set-up probe: one fresh interpreter from start to workload inputs ready.

    python3 bench/setup_probe.py WORKLOAD SEED WORK_DIR

Imports the package, assembles the default configuration and builds the
workload's ops, then prints ``time.monotonic()``. The caller subtracts the
reading it took before starting this process; both read the same
system-wide monotonic clock.
"""

import sys
import time
from pathlib import Path

import bootstrap

bootstrap.prepare_process()

import workloads  # noqa: E402  (needs the package path set above)

workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.monotonic()))
