"""Set-up as a user pays it: start the interpreter, import sigapprox and draw
the workload's seeded query points, then exit.  run.py times this script
from outside, from spawn to exit, for `setup_s`.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import import_library  # noqa: E402
from perfbench.workloads import WORKLOADS, query_points  # noqa: E402


def main(argv: list[str]) -> int:
    import_library()
    workload = WORKLOADS[argv[0]]
    return 0 if len(query_points(workload, int(argv[1]))) == workload.queries else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
