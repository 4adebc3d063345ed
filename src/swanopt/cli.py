"""Command-line interface for the sweep experiments.

Subcommands mirror the harness runners: bound-sweep, segment-sweep,
user-sweep, and single-run. Each reads a key=value config file; --seed,
--realizations, and --output override the corresponding config fields. A
bad config, a failed run or a run out of memory exits with status 2.
"""

import argparse
import sys

from .harness import (
    ExperimentConfig,
    apply_overrides,
    run_bound_sweep,
    run_segment_sweep,
    run_single,
    run_user_sweep,
    write_sweep_result,
    write_trace_result,
)

_RUNNERS = {
    "bound-sweep": run_bound_sweep,
    "segment-sweep": run_segment_sweep,
    "user-sweep": run_user_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swanopt",
        description="Seeded Monte Carlo sweeps for segmented-waveguide pinching-antenna uplink experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "bound-sweep": "analytical rate bounds versus the number of segments",
        "segment-sweep": "optimizer schemes versus the number of segments",
        "user-sweep": "optimizer schemes versus the number of users",
        "single-run": "one greedy run with the full per-level trace",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--realizations", type=int, default=None, help="override realization count")
        p.add_argument("--output", default=None, help="override the CSV output path")
        p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
        config = apply_overrides(config, seed=args.seed, realizations=args.realizations, output=args.output)
        if config.output is None:
            raise ValueError("no output path: set 'output' in the config or pass --output")
        if args.command == "single-run":
            traces = run_single(config)
            text = write_trace_result(traces, config, config.output)
        else:
            result = _RUNNERS[args.command](config)
            text = write_sweep_result(result, config.output)
    except (ValueError, OSError, MemoryError) as exc:
        hint = "out of memory; lower num_segments, segment_sweep, user_sweep, grid_points, num_users or realizations: "
        print(f"error: {hint if isinstance(exc, MemoryError) else ''}{str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    if not args.quiet:
        sys.stdout.write(text)
        print(f"wrote {config.output} and {config.output}.meta.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
