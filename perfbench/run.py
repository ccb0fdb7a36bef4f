"""wardsim benchmark.

    python3 perfbench/run.py --workload {patrol,ward_shift} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a wardsim checkout; it imports wardsim from src/.
It warms up with one checked operation, then runs the workload's operation
in a closed loop until S seconds of operations have been measured, checking
every result. Every timing is scaled by the pace of the host sampled while
it ran (pace.py), so that other tenants of a shared host do not move it.
It prints a report and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 measures untraced
sim_speed the same way, then runs one operation with a span around each
public function of the traced modules (see tracer.py) and reports per-layer
calls and self time, a few counts folded from the traced runs, and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads as wl
from pace import REFERENCE_PACE_S

SETUP_PROBES = 5
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
TMP = wl.ROOT / ".perfbench_tmp"

UNITS = {"sim_speed": "s/s", "setup_s": "s", "export_s": "s", "replay_s": "s",
         "log_bytes": "bytes", "peak_rss_mb": "MB"}


class Bench:
    """One benchmark run: the operations attempted, their checks, their timings."""

    def __init__(self, workload: str, seed: int, seconds: float, out_dir: Path):
        self.workload = workload
        self.order = wl.visit_order(workload, seed)
        self.reference = wl.load_reference()[workload]
        self.seconds = seconds
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.sha_checked = 0
        self.sha_matched = 0
        self._seen: dict[tuple, str] = {}  # earlier repetition of the same input
        self.timed: list[tuple[float, float]] = []  # (simulated s, scaled s) per operation
        self.unscaled: dict[str, float] = {}  # medians of the wall times, for the report

    def _attempt(self, label: str, operation):
        """Run one checked operation. Returns (result or None, wall seconds);
        an exception or a failed check counts against the error rate."""
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            result, problems = operation()
        except Exception:
            traceback.print_exc()
            result, problems = None, [f"{label}: raised"]
        wall = time.perf_counter() - start
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED: {problem}", file=sys.stderr)
        return result, wall

    def _same_as_before(self, key: tuple, digest: str, label: str) -> list[str]:
        if self._seen.setdefault(key, digest) != digest:
            return [f"{label}: two repetitions gave different results"]
        return []

    def simulation(self, seed: int):
        label = f"{self.workload} seed {seed}"

        def operation():
            sim = wl.simulate(self.workload, seed, self.out_dir)
            expected = self.reference["runs"].get(str(seed))
            problems = sim.problems + wl.reference_problems(expected, sim.summary, label)
            problems += self._same_as_before(("log", seed), sim.log_sha256, label)
            self.sha_checked += 1
            if expected is not None and expected["log_sha256"] == sim.log_sha256:
                self.sha_matched += 1
            else:
                print(f"WARNING: {label}: log_sha256 {sim.log_sha256} differs from the "
                      f"reference {expected and expected['log_sha256']}", file=sys.stderr)
            return sim, problems

        return self._attempt(label, operation)

    def closed_loop(self, operation, between=None) -> list:
        """Warm up on the first input, then repeat `operation` over the visit
        order until `seconds` of operations are measured (at least one). The
        first measured operation repeats the warm-up input, so every run
        checks that two repetitions agree. `between` runs after each measured
        operation, outside its timing."""
        operation(self.order[0])
        results, spent, i = [], 0.0, 0
        while i == 0 or spent < self.seconds:
            result, wall = operation(self.order[i % len(self.order)])
            spent += wall
            i += 1
            if result is not None:
                results.append(result)
            if between is not None:
                between()
        return results


def sim_speed(runs) -> float:
    """Median over operations of simulated seconds per scaled wall second,
    from (simulated, scaled wall) pairs."""
    return statistics.median(s / w for s, w in runs)


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Cold set-up of one fresh process: (wall seconds, scaled seconds)."""
    out = subprocess.run([sys.executable, str(PROBE), workload, str(seed)],
                         cwd=wl.ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    wall, scaled = out.stdout.split()[-2:]
    return float(wall), float(scaled)


def measure(bench: Bench, between=None) -> tuple[list, float]:
    """The untraced closed loop; fills bench.timed and calls `between` after
    each measured operation. Returns (the Simulations that were exported and
    replayed, peak RSS in MB)."""
    sims = bench.closed_loop(bench.simulation, between)
    bench.timed = [(s.sim_s, s.run_s) for s in sims]
    return sims, peak_rss_mb()


def end_to_end(bench: Bench) -> dict:
    setup: list[tuple[float, float]] = []

    def probe():
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(bench.workload, bench.order[0]))

    sims, rss = measure(bench, probe)
    while len(setup) < SETUP_PROBES:
        probe()
    if not bench.timed or not sims:
        raise RuntimeError("no operation completed")
    bench.unscaled = {
        "setup_s": statistics.median(wall for wall, _ in setup),
        "run_s": statistics.median(s.wall_s[0] for s in sims),
        "export_s": statistics.median(s.wall_s[1] for s in sims),
        "replay_s": statistics.median(s.wall_s[2] for s in sims),
        "run_pace_s": statistics.median(s.pace_s[0] for s in sims),
    }
    return {
        "sim_speed": sim_speed(bench.timed),
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "export_s": statistics.median(s.export_s for s in sims),
        "replay_s": statistics.median(s.replay_s for s in sims),
        "log_bytes": statistics.median_low(s.log_bytes for s in sims),
        "peak_rss_mb": rss,
    }


def per_layer(bench: Bench) -> dict:
    measure(bench)
    if not bench.timed:
        raise RuntimeError("no operation completed")
    untraced = sim_speed(bench.timed)

    folded = {"tasks": 0, "retries": 0, "sent": 0, "delivered": 0, "records": 0, "nav": 0}

    def after_engine_run(args, result, _ns):
        log = result[0]
        folded["tasks"] = max(folded["tasks"], len(args[0].leader.tasks))
        folded["records"] += len(log.records)
        state = {}
        for r in log.records:
            kind, p = r["kind"], r["payload"]
            if kind == "nav":
                folded["nav"] += 1
            elif kind == "packet_send":
                folded["sent"] += 1
                folded["delivered"] += p["outcome"] == "delivered"
            elif kind == "task":
                if state.get(p["task_id"]) == "timed_out" and p["state"] == "sent":
                    folded["retries"] += 1
                state[p["task_id"]] = p["state"]

    spans = tracer.Tracer()
    spans.after("engine.Engine.run", after_engine_run)
    with spans:
        sim = bench.simulation(bench.order[0])[0]
    if sim is None:
        raise RuntimeError("the traced operation did not complete")

    metrics = {}
    for name, _ in tracer.SPANS:
        metrics[f"{name}.calls"] = (spans.calls[name], "count")
        metrics[f"{name}.self_ms"] = (spans.self_ns[name] / 1e6, "ms")
    for name, _ in tracer.COUNTERS:
        metrics[f"{name}.calls"] = (spans.calls[name], "count")
    queries = spans.calls["track.Track.query"]
    metrics["track.Track.query.per_nav"] = (queries / folded["nav"] if folded["nav"] else 0.0,
                                            "calls/nav")
    metrics["protocol.tasks"] = (folded["tasks"], "count")
    metrics["protocol.retries"] = (folded["retries"], "count")
    metrics["rf_channel.delivered_ratio"] = (
        folded["delivered"] / folded["sent"] if folded["sent"] else 0.0, "ratio")
    metrics["metrics.records"] = (folded["records"], "count")
    # wall time per simulated second, traced over untraced
    metrics["trace.overhead"] = (untraced / sim_speed([(sim.sim_s, sim.run_s)]), "x")
    return metrics


def git_commit() -> str:
    head = wl.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = wl.ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (wl.ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_info() -> dict:
    import numpy
    import yaml
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "pyyaml": yaml.__version__,
            "platform": platform.platform(), "git_commit": git_commit()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl.use_source_tree()

    TMP.mkdir(exist_ok=True)
    out_dir = TMP / f"{args.workload}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, args.seconds, out_dir)
        measured = per_layer(bench) if args.trace else {
            name: (value, UNITS[name]) for name, value in end_to_end(bench).items()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  visit order {bench.order}")
    for name, (value, unit) in measured.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    print("  sim_speed of each measured operation: "
          + " ".join(f"{s / w:.2f}" for s, w in bench.timed))
    if bench.unscaled:
        print(f"  unscaled medians (reference pace {REFERENCE_PACE_S:g} s): "
              + " ".join(f"{name} {value:.6g}" for name, value in bench.unscaled.items()))
    print(f"  {'error_rate':42s} {bench.failed / bench.attempted:>16.6g} ratio "
          f"({bench.failed} of {bench.attempted} operations failed)")
    matched = "all match" if bench.sha_matched == bench.sha_checked else "MISMATCH"
    print(f"  log_sha256 vs reference: {bench.sha_matched} of {bench.sha_checked} "
          f"logs match ({matched})")
    print("info " + json.dumps(machine_info(), sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
