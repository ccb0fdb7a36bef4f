"""Command-line entry points.

    wardsim run <scenario-file-or-preset> [--seed N] [--out DIR]
    wardsim suite <dir-or-presets...> --trials K [--out DIR]
    wardsim replay <events.jsonl>
    wardsim mlbench [--n 1000] [--seed N]

Exit codes: 0 success; 2 scenario validation error (a scenario file that
is not YAML included), a scenario path that cannot be read (a directory for
`run`), malformed event log, or invalid option (a negative `--seed`,
`--trials` below 1, an `--out` that cannot be made a directory, checked
before the run, an `mlbench` `--n` below 10 or `--noise-rate` outside
[0, 1)); 3 engine abort (an invariant violation, a non-finite pose, or any
other error in the tick loop; `run` still writes events_partial.jsonl, and
`suite --out DIR` writes the aborted trial's, naming its scenario and seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import ConfigurationError
from .engine import EngineAbort, export_outputs, run, run_suite
from .metrics import EventLog, replay_metrics
from .scenario import ScenarioValidationError, load_preset, load_scenario, preset_names

EXIT_VALIDATION = 2
EXIT_INVARIANT = 3


def _load(name_or_path):
    if os.path.exists(name_or_path):
        return load_scenario(name_or_path)
    return load_preset(name_or_path)


def _make_out(out: str | None) -> bool:
    """Create the --out directory before a run starts; False, with the
    error reported, when the path cannot be one (it names a file, say)."""
    if out is not None:
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            print(f"invalid option: --out {out}: {exc}", file=sys.stderr)
            return False
    return True


def _save_partial(exc: EngineAbort, out: str):
    os.makedirs(out, exist_ok=True)
    exc.log.save(os.path.join(out, "events_partial.jsonl"))


def _cmd_run(args) -> int:
    try:
        config = _load(args.scenario)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except (ScenarioValidationError, ConfigurationError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    if not _make_out(args.out):
        return EXIT_VALIDATION
    try:
        log, metrics = run(config)
    except EngineAbort as exc:
        _save_partial(exc, args.out or ".")
        print(f"run aborted: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if args.out:
        export_outputs(log, metrics, args.out)
    print(metrics.as_text(), end="")
    return 0


def _cmd_suite(args) -> int:
    if args.trials < 1:
        print("invalid suite option: --trials must be at least 1", file=sys.stderr)
        return EXIT_VALIDATION
    configs = []
    try:
        for item in args.scenarios:
            if os.path.isdir(item):
                for fn in sorted(os.listdir(item)):
                    if fn.endswith((".yaml", ".yml")):
                        configs.append(load_scenario(os.path.join(item, fn)))
            else:
                configs.append(_load(item))
    except (ScenarioValidationError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    if not configs:
        print("no scenarios found", file=sys.stderr)
        return EXIT_VALIDATION
    if not _make_out(args.out):
        return EXIT_VALIDATION
    try:
        result = run_suite(configs, trials=args.trials)
    except EngineAbort as exc:
        if args.out:
            _save_partial(exc, args.out)
        print(f"suite aborted: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    text = result.as_text()
    if args.out:
        with open(os.path.join(args.out, "suite.txt"), "w") as f:
            f.write(text)
    print(text, end="")
    return 0


def _cmd_replay(args) -> int:
    try:
        log = EventLog.load(args.log)
        metrics = replay_metrics(log)
    except (OSError, ValueError) as exc:
        print(f"cannot replay: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(metrics.as_text(), end="")
    return 0


def _cmd_mlbench(args) -> int:
    from .ml import KnnClassifier, DecisionTree, RandomForest, evaluate, generate_dataset

    try:
        dataset = generate_dataset(n=args.n, noise_rate=args.noise_rate, seed=args.seed)
    except ValueError as exc:
        print(f"invalid mlbench option: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    models = [
        ("knn", KnnClassifier(k=5)),
        ("decision_tree", DecisionTree(max_depth=8, min_leaf=5)),
        ("random_forest", RandomForest(n_trees=50, max_depth=8, min_leaf=5,
                                       feature_subsample=2, seed=args.seed)),
    ]
    for name, model in models:
        report = evaluate(model, dataset, split_seed=args.seed, name=name)
        print(report.as_text())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wardsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("scenario", help=f"scenario file or preset name {preset_names()}")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for logs and CSVs")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("suite", help="run several scenarios with repeated trials")
    p.add_argument("scenarios", nargs="+", help="scenario files, preset names, or a directory")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("replay", help="recompute metrics from a saved event log")
    p.add_argument("log")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("mlbench", help="train and evaluate the triage classifiers")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-rate", type=float, default=0.05)
    p.set_defaults(func=_cmd_mlbench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
