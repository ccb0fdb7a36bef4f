"""Regenerate reference.json, the expected outcome of every input in the pools.

    python3 perfbench/make_reference.py

Each entry holds a run's record counts by kind, each task's final state, the
alert verdicts and the sha256 of its events.jsonl. Regenerate it only in a
change that means to alter wardsim's behaviour, and say in that change why
the outcomes moved.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl


def main() -> int:
    wl.use_source_tree()
    reference = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench_ref", dir=wl.ROOT) as tmp:
        for workload in wl.WORKLOADS:
            runs = {}
            for seed in wl.POOLS[workload]:
                sim = wl.simulate(workload, seed, Path(tmp))
                if sim.problems:
                    raise SystemExit("\n".join(sim.problems))
                runs[str(seed)] = {**sim.summary, "log_sha256": sim.log_sha256}
                print(f"{workload} seed {seed}: {sim.summary['counts']}", file=sys.stderr)
            reference[workload] = {"runs": runs}
    with open(wl.REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
