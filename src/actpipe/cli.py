"""Command-line front-end: one subcommand per pipeline stage.

A stage subcommand calls :func:`actpipe.pipeline.run_stage`, the stage body
``actpipe run`` calls, so every rule is the pipeline's. Its positional input
is the records the stage takes; ``--annotations``, ``--masks`` and
``--video-frames`` are the run's inputs, ``--frame-size`` every video's size,
and ``--thresholds-in``, ``--from``/``--fuse-weights`` and ``--proposals``
side inputs (:class:`actpipe.pipeline.StageRun`). Each output whose file
flag is given is written: ``-o``, ``--stats``, ``--thresholds``, ``--curves``.

Exit codes: 0 success, 1 contract error (bad records, bad config, stage
precondition), 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .config import ConfigError, PipelineConfig, parse_config, parse_overrides
from .pipeline import (CANONICAL_STAGES, OUTPUT_FILES, STAGE_INPUT,
                       PipelineInputs, StageRun, bench, read_input, run_pipeline,
                       run_stage)
from .records import write_records
from .synth import SceneSpec, generate_corpus


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="pipeline config file (flat key = value)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config key (repeatable)")


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    config = parse_config(args.config) if args.config else PipelineConfig()
    if args.overrides:
        config = parse_overrides(config, args.overrides)
    return config


def _positive_ints(flag: str, item: str, form: str, *values: str) -> Tuple[int, ...]:
    try:
        numbers = tuple(int(v) for v in values)
        if min(numbers) > 0:
            return numbers
    except ValueError:
        pass
    raise ConfigError(f"{flag} {item!r}: expected {form} in positive integers")


def _parse_video_lengths(items: List[str]) -> Dict[str, int]:
    lengths = {}
    for item in items:
        video_id, _, value = item.partition("=")
        if not video_id:
            raise ConfigError(f"--video-frames {item!r}: empty video id")
        if video_id in lengths:
            raise ConfigError(f"--video-frames {item!r}: video {video_id!r} repeated")
        lengths[video_id], = _positive_ints("--video-frames", item, "ID=FRAMES", value)
    return lengths


def _parse_frame_size(value: str) -> Tuple[int, ...]:
    w, _, h = value.partition("x")
    return _positive_ints("--frame-size", value, "WIDTHxHEIGHT", w, h)


def _cmd_simulate(args) -> None:
    config = _load_config(args)
    specs = SceneSpec.load(args.spec)
    scenes = generate_corpus(specs, config)
    write_records([d for s in scenes for d in s.detections],
                  args.detections, "detections")
    write_records([a for s in scenes for a in s.annotations],
                  args.annotations, "annotations")
    write_records([m for s in scenes for m in s.masks], args.masks, "masks")
    print(f"simulated {len(scenes)} scene(s): "
          f"{sum(len(s.detections) for s in scenes)} detections, "
          f"{sum(len(s.annotations) for s in scenes)} annotations, "
          f"{sum(len(s.masks) for s in scenes)} masks")


# the file flags of stage outputs other than the stage's records (-o)
_OUTPUT_FLAGS = {"label-stats": "stats", "filter-thresholds": "thresholds",
                 "det-curves": "curves"}


def _cmd_stage(args) -> None:
    flags = vars(args)
    files = flags.get("from_files") or ()
    if flags.get("fuse_weights") and len(files) < 2:
        raise ConfigError("--fuse-weights needs two or more --from files")
    inputs = PipelineInputs(
        annotations=flags.get("annotations"), masks=flags.get("masks"),
        video_lengths=_parse_video_lengths(flags.get("video_frames", [])))
    size = flags.get("frame_size")
    run = StageRun(_load_config(args), inputs, files, flags.get("strict", False),
                   frame_size=_parse_frame_size(size) if size else None,
                   thresholds=flags.get("thresholds_in"),
                   weights=flags.get("fuse_weights"),
                   proposals=flags.get("proposals"))
    stage = args.command
    records_in, outputs = run_stage(
        stage, read_input(args.input, STAGE_INPUT[stage]), run)
    for output, records in outputs.items():
        path = flags.get(_OUTPUT_FLAGS.get(output, "output"))
        if path:
            write_records(records, path, OUTPUT_FILES[output][1])
    if stage == "evaluate":
        _print_metrics(run.config, outputs["evaluate"][0].data)
    else:
        print(f"{stage}: {records_in} records in, {len(outputs[stage])} out")


def _print_metrics(config: PipelineConfig, summary: dict) -> None:
    print(f"mean nAUDC@{config.naudc_limit}Tfa: {summary['mean_naudc']:.4f}")
    for budget in config.pmiss_budgets:
        print(f"mean Pmiss@{budget}Tfa: {summary[f'mean_pmiss@{budget}']:.4f}")
    if "map_3d_iou" in summary:
        print(f"mean mAP(3D IoU): {summary['map_3d_iou']['mean']:.4f}")


def _rate_text(value: Optional[float], width: int = 12, digits: int = 1) -> str:
    """A rate for the tables; a rate over zero seconds (null) prints as -."""
    return ("-" if value is None else f"{value:.{digits}f}").rjust(width)


def _cmd_run(args) -> None:
    config = _load_config(args)
    inputs = PipelineInputs(args.detections, args.annotations, args.masks,
                            _parse_video_lengths(args.video_frames))
    stages = args.stages.split(",") if args.stages else None
    result = run_pipeline(config, inputs, args.out_dir, stages=stages,
                          scores=args.scores)
    for timing in result.stages:
        entry = timing.to_dict(result.total_frames)
        print(f"{timing.name:>15}: {timing.seconds:8.3f}s  "
              f"{_rate_text(entry['records_per_sec'])} rec/s  "
              f"{_rate_text(entry['frames_per_sec'])} frames/s")
    print(f"real-time factor: {_rate_text(result.real_time_factor, 0, 2)}x "
          f"at {config.video_fps:g} fps")
    if result.summary is not None:
        _print_metrics(config, result.summary)


def _cmd_bench(args) -> None:
    config = _load_config(args)
    result, report = bench(config, args.detections, args.out_dir,
                           seed=args.seed)
    for entry in report["stages"]:
        print(f"{entry['stage']:>15}: {entry['seconds']:8.3f}s  "
              f"{_rate_text(entry['records_per_sec'])} rec/s")
    print(f"{report['n_detections']} detections, "
          f"{report['video_seconds']:.1f} video seconds in "
          f"{report['wall_seconds']:.1f}s wall")
    print(f"real-time factor: {_rate_text(report['real_time_factor'], 0, 2)}x")


def _stage_parser(sub, stage: str, help: str, input_help: Optional[str] = None,
                  output_help: Optional[str] = None) -> argparse.ArgumentParser:
    """A stage subcommand: config flags, the records it takes and ``-o``."""
    p = sub.add_parser(stage, help=help)
    _add_config_args(p)
    p.add_argument("input", type=Path, help=input_help)
    p.add_argument("-o", "--output", type=Path, required=True, help=output_help)
    p.set_defaults(func=_cmd_stage)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``actpipe`` parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="actpipe",
        description="Streaming activity detection with overlapping cube "
                    "proposals: proposal generation, filtering, label "
                    "assignment, scoring, deduplication, and evaluation "
                    "over record files.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render synthetic scenes to records")
    _add_config_args(p)
    p.add_argument("spec", type=Path, help="scene spec JSON (one or a list)")
    p.add_argument("--detections", type=Path, required=True)
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("--masks", type=Path, required=True)
    p.set_defaults(func=_cmd_simulate)

    _stage_parser(sub, "track", "assign track ids to detections")

    p = _stage_parser(sub, "propose", "generate overlapping cube proposals",
                      "tracked detections")
    p.add_argument("--masks", type=Path, default=None,
                   help="masks giving each video's size (first mask) and, "
                        "without its length, its last frame")
    p.add_argument("--frame-size", metavar="WxH",
                   help="frame size of every video (default: the pipeline's)")
    p.add_argument("--video-frames", action="append", default=[],
                   metavar="ID=FRAMES", help="explicit video length (repeatable)")

    p = _stage_parser(sub, "assign-labels", "label proposals from annotations",
                      "proposals")
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("--stats", type=Path, default=None,
                   help="write proposal statistics report here")

    p = _stage_parser(sub, "filter", "foreground-score and filter proposals",
                      "proposals (labeled for calibration)")
    p.add_argument("--masks", type=Path, required=True)
    p.add_argument("--thresholds", type=Path, default=None,
                   help="write the threshold report here")
    p.add_argument("--thresholds-in", type=Path, default=None,
                   help="reuse thresholds from a previous report instead of "
                        "calibrating")

    p = _stage_parser(sub, "score", "attach confidence vectors to proposals",
                      "labeled proposals")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--oracle", action="store_true",
                       help="perfect-classifier scores from assigned labels")
    group.add_argument("--from", dest="from_files", type=Path, action="append",
                       metavar="FILE",
                       help="external scored-proposals file (repeat to fuse)")
    p.add_argument("--fuse-weights", type=Path, default=None,
                   help="JSON {class: [per-model weight]} for late fusion")

    _stage_parser(sub, "dedup", "deduplicate overlapping scored cubes",
                  "scored proposals")
    _stage_parser(sub, "merge-adjacent",
                  "merge abutting instances (strict setting)", "instances")

    p = _stage_parser(sub, "evaluate", "DET curves, nAUDC, Pmiss, mAP",
                      "instances", "evaluation report file")
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("--curves", type=Path, required=True,
                   help="plot-ready DET points file")
    p.add_argument("--strict", action="store_true",
                   help="also compute mAP at 3D tube IoU")
    p.add_argument("--proposals", type=Path, default=None,
                   help="labeled proposals for a proposal-quality section")
    p.add_argument("--video-frames", action="append", default=[],
                   metavar="ID=FRAMES")

    p = sub.add_parser("run", help="run the stage chain end to end")
    _add_config_args(p)
    p.add_argument("--detections", type=Path, required=True)
    p.add_argument("--annotations", type=Path, default=None)
    p.add_argument("--masks", type=Path, default=None)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--stages", default=None,
                   help=f"comma-separated subset of {','.join(CANONICAL_STAGES)}")
    p.add_argument("--scores", type=Path, action="append", default=[],
                   help="external score file (repeat to fuse); default oracle")
    p.add_argument("--video-frames", action="append", default=[],
                   metavar="ID=FRAMES")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="synthetic-load throughput benchmark")
    _add_config_args(p)
    p.add_argument("--detections", type=int, default=100_000,
                   help="approximate synthetic detection count")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.func(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
