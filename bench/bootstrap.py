"""Process set-up shared by the benchmark scripts.

Pins every numeric thread pool to one thread, drops ``PCMXBAR_*`` settings
inherited from the caller (the CLI would otherwise apply them), and puts the
package sources of this checkout first on the import path. Call
``prepare_process`` before anything imports numpy or pcmxbar.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pcmxbar"
OUT = ROOT / ".bench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare_process() -> None:
    """Pin threads, clear package settings, import pcmxbar from ``src/``.

    Exits with an error, before any result is printed, when the checkout has
    no package sources or a different pcmxbar shadows them.
    """
    for name in THREAD_VARS:
        os.environ[name] = "1"
    for name in [n for n in os.environ if n.startswith("PCMXBAR_")]:
        del os.environ[name]
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"bench: no package sources at {PACKAGE}")
    sys.path.insert(0, str(SRC))
    import pcmxbar

    if Path(pcmxbar.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"bench: imported pcmxbar from {pcmxbar.__file__}, not {PACKAGE}")


def environment() -> dict:
    """Host and library facts recorded beside the results."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }
