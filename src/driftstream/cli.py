"""Command-line front end: gen, replay, eval, and band diagnostics.

Exit codes: 0 success, 1 input error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import ConfigError, EmbedderConfig, InputError
from .pipeline import (
    PipelineConfig,
    evaluate_windows,
    load_config,
    load_stream,
    replay,
    save_config,
)
from .synth import SCHEDULES, SynthConfig, generate_synthetic, output_paths
from .windows import DEFAULT_DELTA, DataWindow, centroid_distances, empirical_delta_band


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftstream")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic drifting stream")
    gen.add_argument("--schedule", choices=SCHEDULES, default=SynthConfig.schedule)
    gen.add_argument("--windows", type=int, default=SynthConfig.n_windows)
    gen.add_argument("--seed", type=int, default=SynthConfig.seed)
    gen.add_argument("--out", required=True)
    gen.add_argument("--window-size", type=int, default=SynthConfig.window_size)
    gen.add_argument("--dim", type=int, default=SynthConfig.dim)
    gen.add_argument("--corroborative-fraction", type=float,
                     default=SynthConfig.corroborative_fraction)
    gen.add_argument("--jump", type=float, default=SynthConfig.jump)

    rep = sub.add_parser("replay", help="replay a stream against corroborative events")
    rep.add_argument("--stream", help="stream JSONL (default: the config's stream=)")
    rep.add_argument("--corroborative",
                     help="corroborative feed (default: the config's corroborative=)")
    rep.add_argument("--config", required=True)
    rep.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="rebuild window reports from a replay run")
    ev.add_argument("--run", required=True)
    ev.add_argument("--truth", required=True)

    band = sub.add_parser("band", help="band diagnostics for a window of points")
    band.add_argument("--window", required=True, help="stream JSONL file")
    band.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    band.add_argument("--config", default=None)
    return parser


def _cmd_gen(args) -> int:
    cfg = SynthConfig(  # refuses a setting before anything is written
        schedule=args.schedule, n_windows=args.windows, seed=args.seed,
        window_size=args.window_size, dim=args.dim,
        corroborative_fraction=args.corroborative_fraction, jump=args.jump,
    )
    stream, corroborative, table = output_paths(args.out)
    run_cfg = PipelineConfig(  # refuses the paths before anything is written
        window_size=cfg.window_size, dim=cfg.dim, embed_mode="table",
        table_path=str(table.resolve()), seed=cfg.seed,
        stream=str(stream.resolve()), corroborative=str(corroborative.resolve()),
    )
    result = generate_synthetic(cfg, args.out)
    config_path = Path(args.out) / "config.txt"
    save_config(run_cfg, config_path)
    print(f"wrote {result.n_points} points to {result.stream_path}")
    print(f"wrote {result.events} events to {result.corroborative_path}")
    print(f"wrote config to {config_path}")
    return 0


def _cmd_replay(args) -> int:
    cfg = load_config(args.config)
    for name in ("stream", "corroborative"):
        if not (getattr(args, name) or getattr(cfg, name)):
            raise ConfigError(f"no {name} path: pass --{name} or set {name}= in the config")
    reports = replay(args.stream or cfg.stream, args.corroborative or cfg.corroborative,
                     cfg, out_dir=args.out)
    print(f"knowledgebase: {Path(args.out) / 'knowledgebase.jsonl'}")
    print(f"reports: {Path(args.out) / 'reports.csv'}")
    return _print_reports(reports)


def _cmd_eval(args) -> int:
    return _print_reports(evaluate_windows(args.run, args.truth))


def _print_reports(reports) -> int:
    for row in reports:
        print(
            f"window {row.window}: static={row.static_f1:.4f} "
            f"adaptive={row.adaptive_f1:.4f} labeled={row.pct_labeled:.2f}% "
            f"improvement={row.improvement_pct:.1f}%"
        )
    return 0


def _cmd_band(args) -> int:
    PipelineConfig(delta=args.delta)  # refuses a delta outside (0, 1] before the stream is read
    cfg = load_config(args.config) if args.config else EmbedderConfig()
    points, _ = load_stream(args.window, cfg)
    if not points:
        raise InputError(f"{args.window}: no points")
    distances = centroid_distances(DataWindow(points, capacity=len(points)))
    band = empirical_delta_band(distances, args.delta)
    print(f"points              {len(points)}")
    print(f"distance mean       {distances.mean():.6f}")
    print(f"distance sd         {distances.std():.6f}")
    print(f"empirical band      [{band.lo:.6f}, {band.hi:.6f}]  delta={args.delta}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen, "replay": _cmd_replay, "eval": _cmd_eval, "band": _cmd_band,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
