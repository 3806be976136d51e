"""Command line entry points.

Subcommands:
  run     simulate a scenario and run the full estimation pipeline
  gen     write the bundled scenario files
  replay  re-run estimation on a recorded detection stream

Exit codes: 0 success, 2 configuration or stream error, 3 pose-graph divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, SolverDiverged
from .pipeline import run_pipeline, simulate_detections, write_outputs
from .scenario import generate_scenarios, load_config
from .simulation import script_trajectory
from .sync import message_from_json, message_to_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        overrides[key] = value
    return overrides


def _load_stream(path):
    messages = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read stream {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            messages.append(message_from_json(line))
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{path}:{lineno}: malformed detection message: {exc}") from exc
    messages.sort(key=lambda m: (m.stamp, m.camera_id))
    return messages


def _report(rmse, out):
    for mode in sorted(rmse):
        print(f"{mode}: rmse {rmse[mode]:.4f} m")
    print(f"outputs written to {out}")
    return EXIT_OK


def _cmd_run(args):
    overrides = _parse_overrides(args.override)
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = load_config(args.scenario, overrides)
    samples = script_trajectory(config.trajectory)
    messages = simulate_detections(config, samples)
    result = run_pipeline(config, messages, samples)
    rmse = write_outputs(result, config, args.out)
    if messages:
        stream = "\n".join(message_to_json(m) for m in messages) + "\n"
        (Path(args.out) / "detections.jsonl").write_text(stream)
    return _report(rmse, args.out)


def _cmd_gen(args):
    paths = generate_scenarios(args.out)
    for p in paths:
        print(p)
    return EXIT_OK


def _cmd_replay(args):
    config = load_config(args.scenario)
    messages = _load_stream(args.stream)
    result = run_pipeline(config, messages=messages)
    return _report(write_outputs(result, config, args.out), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camloc", description="multi-camera robot pose estimation pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate and estimate a scenario")
    run_p.add_argument("--scenario", required=True, help="scenario JSON file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument(
        "--override",
        action="append",
        metavar="KEY=VALUE",
        help="dotted-path config override, repeatable",
    )
    run_p.set_defaults(func=_cmd_run)

    gen_p = sub.add_parser("gen", help="write the bundled scenario files")
    gen_p.add_argument("--out", required=True, help="output directory")
    gen_p.set_defaults(func=_cmd_gen)

    rep_p = sub.add_parser("replay", help="re-run estimation on a recorded stream")
    rep_p.add_argument("--stream", required=True, help="detections JSONL file")
    rep_p.add_argument("--scenario", required=True, help="scenario JSON file")
    rep_p.add_argument("--out", required=True, help="output directory")
    rep_p.set_defaults(func=_cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverDiverged as exc:
        print(f"error: solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
