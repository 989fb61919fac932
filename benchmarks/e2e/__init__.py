"""End-to-end benchmark of the served estimator and the embedded optimizer.

Run it from the repository root::

    python -m benchmarks.e2e run --seed 1                  # all workloads
    python -m benchmarks.e2e run --workload estimate-hot --seed 1 --trace
    python -m benchmarks.e2e compare PARENT_TREE CHANGE_TREE

See ``README.md`` beside this file for the workloads and metrics.
"""

import os
import sys

#: The program under test is imported from the source tree this
#: benchmark sits in (``<root>/src``), never from an installed copy.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
