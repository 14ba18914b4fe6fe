"""Layer-by-layer benchmark of sigapprox: certification, query, explanation,
export, reload and the CLI, on fixed workloads.  Run it with
`python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1`
from the root of a checkout; see perfbench/README.md."""

from __future__ import annotations

import importlib
import os
import sys
from types import ModuleType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def import_library() -> ModuleType:
    """Import sigapprox from this checkout's `src`, never from an installed
    copy, so that the benchmark measures the code beside it."""
    if not os.path.isfile(os.path.join(SRC, "sigapprox", "__init__.py")):
        raise ImportError(f"no sigapprox package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    lib = importlib.import_module("sigapprox")
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sigapprox was imported from {lib.__file__}, not {SRC}")
    return lib


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM).  Unlike ru_maxrss it does
    not carry over the parent's peak across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")
