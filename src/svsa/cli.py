"""Command-line front end.

    svsa run <config.json> [--out DIR] [--seeds s1,s2,...] [--jobs K]
    svsa validate <config.json>
    svsa diagnose <checkpoint.csv>

Exit codes: 0 success, 1 invalid config or usage, 2 a run escaped under strict
mode, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .artifacts import json_text
from .experiments import (ConfigError, ExperimentConfig, diagnose_checkpoint,
                          run_experiment, validate_config)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ESCAPED = 2
EXIT_IO = 3


def _load_config(path: str) -> ExperimentConfig:
    try:
        return ExperimentConfig.from_path(path)
    except OSError as exc:
        raise SystemExit(_fail(f"cannot read config: {exc}", EXIT_IO))
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    seeds = None
    if args.seeds is not None:  # ASCII digits only (int() also reads "1_0", "+1" and " 1");
        # a string fails, the empty entries of "", "1," and "1,,2" too
        seeds = [int(s) if s.isascii() and s.isdigit() else s for s in args.seeds.split(",")]
    try:
        report = run_experiment(config, out_dir=args.out, seeds=seeds, jobs=args.jobs)
    except ConfigError:  # the config is checked, so only the seeds can be wrong
        return _fail(f"--seeds expects comma-separated distinct non-negative integers, "
                     f"got {args.seeds!r}", EXIT_CONFIG)
    except OSError as exc:
        return _fail(f"i/o failure: {exc}", EXIT_IO)
    for summary in report.seed_summaries:
        clock = summary["elapsed_clock"]  # null when the clock overflowed
        print(f"seed {summary['seed']}: {summary['status']} ({summary['n_steps']} steps, "
              f"clock {'null' if clock is None else format(clock, '.6g')})")
    print(f"bounded fraction: {report.bounded_fraction:.2f}")
    if report.output_dir is not None:
        print(f"artifacts under {report.output_dir}")
    if config.strict_bounded and report.any_escaped:
        return _fail("strict mode: at least one run escaped the guard radius", EXIT_ESCAPED)
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = _load_config(args.config)
    violations = validate_config(config)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return EXIT_CONFIG
    print("config conforms to the step-size and noise requirements")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    try:
        entry = diagnose_checkpoint(args.checkpoint)
    except OSError as exc:
        return _fail(f"cannot read checkpoint: {exc}", EXIT_IO)
    except ValueError as exc:
        return _fail(f"bad checkpoint: {exc}", EXIT_CONFIG)
    sys.stdout.writelines(json_text(entry))
    return EXIT_OK


def _workers(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"a positive integer required, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svsa",
                                     description="set-valued stochastic approximation runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="runs", help="artifact root directory")
    p_run.add_argument("--seeds", default=None, help="comma-separated seed override")
    p_run.add_argument("--jobs", type=_workers, default=1, metavar="K", help="cores to use: "
                       "min(K, seeds) processes, each stepping consecutive seeds in lockstep")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check schedule/noise assumptions")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_diag = sub.add_parser("diagnose", help="recompute diagnostics from a checkpoint")
    p_diag.add_argument("checkpoint")
    p_diag.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 means an escape here
        raise SystemExit(EXIT_CONFIG if exc.code == 2 else exc.code) from None
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
