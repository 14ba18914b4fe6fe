"""Run `python -m sigapprox.cli ARGS...` in this process, then append its
peak resident set to stderr as a last line `VmHWM_MB <value>`.

    python3 perfbench/cli_child.py approximate --fn x --a 0 --b 1 ...
"""

import os
import runpy
import sys

sys.path.insert(1, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import peak_rss_mb  # noqa: E402

if __name__ == "__main__":
    sys.argv = ["sigapprox"] + sys.argv[1:]
    try:
        runpy.run_module("sigapprox.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.stderr.write(f"\nVmHWM_MB {peak_rss_mb()!r}\n")
