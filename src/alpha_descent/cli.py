"""Command line front end: ``alpha-descent run`` and ``alpha-descent check``."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from .harness import (
    ALGORITHMS,
    EXPLORATIONS,
    ExperimentConfig,
    parse_config,
    run_experiment,
    write_trace,
)


def _sample_counts(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or comma-separated integers, got {text!r}"
        )


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _add_config_flags(parser):
    for name, kind in _FIELD_TYPES.items():
        flag = "--" + name.replace("_", "-")
        if name == "sample_count":
            parser.add_argument(flag, type=_sample_counts, default=None)
        elif name == "algorithm":
            parser.add_argument(flag, choices=ALGORITHMS, default=None)
        elif name == "exploration":
            parser.add_argument(flag, choices=EXPLORATIONS, default=None)
        elif kind == "int":
            parser.add_argument(flag, type=int, default=None)
        else:
            parser.add_argument(flag, type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="alpha-descent",
        description="Mixture-weight optimisation by alpha-divergence descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run", help="run an experiment from a JSON config, with optional overrides"
    )
    run.add_argument("--config", required=True, help="path to the JSON config")
    run.add_argument("--out", default="out", help="output directory (default: out)")
    _add_config_flags(run)
    sub.add_parser("check", help="run the exact-oracle invariant battery")
    return parser


def _load_config(args):
    """The config file with the flags that were given applied over it."""
    config = parse_config(args.config)
    overrides = {
        name: getattr(args, name)
        for name in _FIELD_TYPES
        if getattr(args, name) is not None
    }
    return replace(config, **overrides) if overrides else config


def _out_dirs(config, out):
    """``(sample count, output directory)`` pairs, each directory created
    before the first replicate runs."""
    multi = len(config.sample_count) > 1
    dirs = [
        (count, os.path.join(out, f"samples_{count}") if multi else out)
        for count in config.sample_count
    ]
    for _, path in dirs:
        os.makedirs(path, exist_ok=True)
    return dirs


def _run(config, out_dirs):
    exit_code = 0
    for count, out_dir in out_dirs:
        sub_config = replace(config, sample_count=(count,))
        traces = run_experiment(sub_config)
        summary = write_trace(traces, out_dir, sub_config)
        bad = sum(1 for t in traces if not t.status.startswith("completed"))
        print(f"wrote {summary} ({len(traces)} replicates, {bad} aborted)")
        if bad:
            exit_code = 1
    return exit_code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            config = _load_config(args)
            out_dirs = _out_dirs(config, args.out)
        except (OSError, ValueError) as exc:
            # one line in argparse's error style, not a traceback
            parser.exit(2, f"{parser.prog} run: error: {exc}\n")
        code = _run(config, out_dirs)
    else:
        from .check import run_checks

        code = 1 if run_checks() else 0
    sys.exit(code)


if __name__ == "__main__":
    main()
