"""Set-up probe: one fresh interpreter, from launch to a parsed workload config.

    python3 probe.py <workload> <seed> <tiny 0|1>

Imports noisyrf (with numpy and scipy) from this checkout, parses the
workload's config and prints time.monotonic().  The harness subtracts the
monotonic time at which it launched the interpreter; on Linux both read the
same system-wide clock.
"""

import sys
import time

import workloads

workloads.add_source_path()
import noisyrf.cli  # noqa: E402,F401  the package, numpy, scipy and the CLI's imports
import scipy.sparse.linalg  # noqa: E402,F401  imported lazily by the first large cell

workloads.make_config(sys.argv[1], int(sys.argv[2]), tiny=sys.argv[3] == "1")
print(repr(time.monotonic()))
