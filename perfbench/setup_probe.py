"""Cold set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <scenario seed>

Times `from wardsim import engine` through a constructed Engine (the cold
import, the scenario load and validation, and Engine.__init__) in a `Paced`
block, and prints its wall seconds and its scaled seconds.
"""

import sys

import workloads
from pace import Paced

workload, seed = sys.argv[1], int(sys.argv[2])
workloads.use_source_tree()
with Paced() as setup:
    from wardsim import engine  # the import is what is being timed

    engine.Engine(workloads.CONFIGS[workload](seed))
print(setup.wall_s, setup.scaled_s)
