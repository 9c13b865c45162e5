"""Command-line front-end: one subcommand per pipeline stage.

Exit codes: 0 success, 1 contract error (bad records, bad config, stage
precondition), 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import ConfigError, PipelineConfig, parse_config, parse_overrides
from .dedup import deduplicate, merge_adjacent
from .evaluation import evaluation_report, proposal_quality
from .filtering import SENTINEL_THRESHOLD, filter_stage
from .labeling import apply_assignments, assign_labels, gt_to_cubes, \
    proposal_stats
from .pipeline import (CANONICAL_STAGES, PipelineInputs, bench,
                       infer_video_lengths, run_pipeline)
from .proposals import generate_proposals
from .records import ReportRecord, read_records, write_records
from .scoring import fuse_scores, load_external_scores, oracle_scores
from .synth import SceneSpec, generate_corpus
from .tracking import greedy_iou_track, tracks_from_records

logger = logging.getLogger("actpipe")


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


def _parse_video_lengths(items: List[str]) -> Dict[str, int]:
    lengths = {}
    for item in items:
        video_id, _, value = item.partition("=")
        if not value:
            raise ConfigError(f"--video-frames {item!r}: expected ID=FRAMES")
        lengths[video_id] = int(value)
    return lengths


def _parse_frame_size(value: str) -> Tuple[int, int]:
    w, _, h = value.partition("x")
    try:
        return int(w), int(h)
    except ValueError as exc:
        raise ConfigError(f"--frame-size {value!r}: expected WIDTHxHEIGHT") from exc


def _classes(config: PipelineConfig, proposals) -> Tuple[str, ...]:
    if config.activity_classes:
        return config.activity_classes
    derived = sorted({label for p in proposals for label in (p.labels or ())})
    if not derived:
        raise ConfigError(
            "activity_classes not configured and not derivable from labels"
        )
    logger.info("derived activity classes: %s", ", ".join(derived))
    return tuple(derived)


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


def _cmd_track(args) -> None:
    config = _load_config(args)
    detections = list(read_records(args.input, "detections"))
    tracked = greedy_iou_track(detections, iou_gate=args.iou_gate,
                               max_gap=args.max_gap if args.max_gap else config.s_det)
    write_records(tracked, args.output, "detections")
    n_tracks = len({(d.video_id, d.track_id) for d in tracked})
    print(f"tracked {len(tracked)} detections into {n_tracks} tracks")


def _cmd_propose(args) -> None:
    config = _load_config(args)
    tracks = tracks_from_records(read_records(args.input, "detections"))
    inputs = PipelineInputs(detections=args.input,
                            video_lengths=_parse_video_lengths(args.video_frames))
    lengths = infer_video_lengths(inputs, tracks)
    size = _parse_frame_size(args.frame_size)
    sizes = {video_id: size for video_id in tracks}
    proposals = generate_proposals(tracks, lengths, sizes, config)
    write_records(proposals, args.output, "proposals")
    print(f"generated {len(proposals)} proposals")


def _cmd_assign_labels(args) -> None:
    config = _load_config(args)
    proposals = list(read_records(args.input, "proposals"))
    annotations = list(read_records(args.annotations, "annotations"))
    gt_cubes = [gt for a in annotations
                for gt in gt_to_cubes(a, config.d_prop, config.s_prop)]
    assignments = assign_labels(proposals, gt_cubes, config.s_high, config.s_low)
    write_records(apply_assignments(proposals, assignments), args.output,
                  "proposals")
    stats = proposal_stats(assignments)
    if args.stats:
        write_records([ReportRecord("proposal_stats", stats.to_dict())],
                      args.stats, "reports")
    print(f"assigned labels: {stats.positive} positive, {stats.negative} "
          f"negative, {stats.unassigned} unassigned "
          f"(positive rate {stats.positive_rate:.4f})")


def _cmd_filter(args) -> None:
    config = _load_config(args)
    proposals = list(read_records(args.input, "proposals"))
    thresholds = None
    if args.thresholds_in:
        thresholds = {cls: SENTINEL_THRESHOLD if value is None else float(value)
                      for record in read_records(args.thresholds_in, "reports")
                      if record.section == "filter_thresholds"
                      for cls, value in record.data["thresholds"].items()}
    kept, report = filter_stage(proposals, read_records(args.masks, "masks"),
                                config, thresholds)
    write_records(kept, args.output, "proposals")
    if args.thresholds:
        write_records([ReportRecord("filter_thresholds", report)],
                      args.thresholds, "reports")
    print(f"kept {len(kept)} of {len(proposals)} proposals")


def _cmd_score(args) -> None:
    config = _load_config(args)
    proposals = list(read_records(args.input, "proposals"))
    classes = _classes(config, proposals)
    if args.oracle:
        scored = oracle_scores(proposals, classes)
    else:
        sets = [load_external_scores(path, proposals, classes)
                for path in args.from_files]
        if len(sets) == 1:
            scored = sets[0]
        else:
            weights = None
            if args.fuse_weights:
                with open(args.fuse_weights, "r", encoding="utf-8") as fh:
                    table = json.load(fh)
                weights = np.array([[table[c][m] for c in classes]
                                    for m in range(len(sets))])
            scored = fuse_scores(sets, weights)
    write_records(scored, args.output, "scored-proposals")
    print(f"scored {len(scored)} proposals over {len(classes)} classes")


def _cmd_dedup(args) -> None:
    config = _load_config(args)
    scored = list(read_records(args.input, "scored-proposals"))
    if not config.activity_classes:
        raise ConfigError("dedup needs activity_classes in the config "
                          "(score vectors carry no class names)")
    instances = deduplicate(scored, config)
    write_records(instances, args.output, "instances")
    print(f"deduplicated {len(scored)} cubes into {len(instances)} instances")


def _cmd_merge_adjacent(args) -> None:
    config = _load_config(args)
    instances = list(read_records(args.input, "instances"))
    merged = merge_adjacent(instances, config.s_merg, config.l_merg)
    write_records(merged, args.output, "instances")
    print(f"merged {len(instances)} instances into {len(merged)}")


def _cmd_evaluate(args) -> None:
    config = _load_config(args)
    predictions = list(read_records(args.input, "instances"))
    annotations = list(read_records(args.annotations, "annotations"))
    inputs = PipelineInputs(annotations=args.annotations,
                            video_lengths=_parse_video_lengths(args.video_frames))
    lengths = infer_video_lengths(inputs, {a.video_id for a in annotations},
                                  lambda: annotations)
    for pred in predictions:
        lengths[pred.video_id] = max(lengths.get(pred.video_id, 0), pred.t1)
    curves, summary = evaluation_report(predictions, annotations, config,
                                        lengths, strict=args.strict)
    if args.proposals:
        proposals = list(read_records(args.proposals, "proposals"))
        summary["proposal_quality"] = proposal_quality(
            proposals, annotations, config, lengths
        )
    write_records([curves[c] for c in sorted(curves)], args.curves,
                  "det-curves")
    write_records([ReportRecord("evaluation", summary)], args.output,
                  "reports")
    print(f"mean nAUDC@{config.naudc_limit}Tfa: {summary['mean_naudc']:.4f}")
    for budget in config.pmiss_budgets:
        print(f"mean Pmiss@{budget}Tfa: {summary[f'mean_pmiss@{budget}']:.4f}")
    if args.strict and "map_3d_iou" in summary:
        print(f"mean mAP(3D IoU): {summary['map_3d_iou']['mean']:.4f}")


def _cmd_run(args) -> None:
    config = _load_config(args)
    inputs = PipelineInputs(
        detections=args.detections,
        annotations=args.annotations,
        masks=args.masks,
        video_lengths=_parse_video_lengths(args.video_frames),
    )
    stages = args.stages.split(",") if args.stages else None
    scores_paths = args.scores or None
    result = run_pipeline(
        config, inputs, args.out_dir, stages=stages,
        score_mode="external" if scores_paths else "oracle",
        scores_paths=scores_paths,
    )
    for timing in result.stages:
        entry = timing.to_dict(result.total_frames)
        print(f"{timing.name:>15}: {timing.seconds:8.3f}s  "
              f"{entry['records_per_sec']:12.1f} rec/s  "
              f"{entry['frames_per_sec']:12.1f} frames/s")
    print(f"real-time factor: {result.real_time_factor:.2f}x "
          f"at {config.video_fps:g} fps")
    if result.summary is not None:
        print(f"mean nAUDC@{config.naudc_limit}Tfa: "
              f"{result.summary['mean_naudc']:.4f}")


def _cmd_bench(args) -> None:
    config = _load_config(args)
    result, report = bench(config, args.detections, args.out_dir,
                           seed=args.seed)
    for entry in report["stages"]:
        print(f"{entry['stage']:>15}: {entry['seconds']:8.3f}s  "
              f"{entry['records_per_sec']:12.1f} rec/s")
    print(f"{report['n_detections']} detections, "
          f"{report['video_seconds']:.1f} video seconds in "
          f"{report['wall_seconds']:.1f}s wall")
    print(f"real-time factor: {report['real_time_factor']:.2f}x")


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("track", help="assign track ids to detections")
    _add_config_args(p)
    p.add_argument("input", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--iou-gate", type=float, default=0.3)
    p.add_argument("--max-gap", type=int, default=None,
                   help="frames before a track closes (default: s_det)")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("propose", help="generate overlapping cube proposals")
    _add_config_args(p)
    p.add_argument("input", type=Path, help="tracked detections")
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--frame-size", default="1920x1080", metavar="WxH")
    p.add_argument("--video-frames", action="append", default=[],
                   metavar="ID=FRAMES", help="explicit video length (repeatable)")
    p.set_defaults(func=_cmd_propose)

    p = sub.add_parser("assign-labels", help="label proposals from annotations")
    _add_config_args(p)
    p.add_argument("input", type=Path, help="proposals")
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--stats", type=Path, default=None,
                   help="write proposal statistics report here")
    p.set_defaults(func=_cmd_assign_labels)

    p = sub.add_parser("filter", help="foreground-score and filter proposals")
    _add_config_args(p)
    p.add_argument("input", type=Path, help="proposals (labeled for calibration)")
    p.add_argument("--masks", type=Path, required=True)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--thresholds", type=Path, default=None,
                   help="write the threshold report here")
    p.add_argument("--thresholds-in", type=Path, default=None,
                   help="reuse thresholds from a previous report instead of "
                        "calibrating")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("score", help="attach confidence vectors to proposals")
    _add_config_args(p)
    p.add_argument("input", type=Path, help="labeled proposals")
    p.add_argument("-o", "--output", type=Path, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--oracle", action="store_true",
                       help="perfect-classifier scores from assigned labels")
    group.add_argument("--from", dest="from_files", type=Path, action="append",
                       metavar="FILE",
                       help="external scored-proposals file (repeat to fuse)")
    p.add_argument("--fuse-weights", type=Path, default=None,
                   help="JSON {class: [per-model weight]} for late fusion")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("dedup", help="deduplicate overlapping scored cubes")
    _add_config_args(p)
    p.add_argument("input", type=Path, help="scored proposals")
    p.add_argument("-o", "--output", type=Path, required=True)
    p.set_defaults(func=_cmd_dedup)

    p = sub.add_parser("merge-adjacent",
                       help="merge abutting instances (strict setting)")
    _add_config_args(p)
    p.add_argument("input", type=Path, help="instances")
    p.add_argument("-o", "--output", type=Path, required=True)
    p.set_defaults(func=_cmd_merge_adjacent)

    p = sub.add_parser("evaluate", help="DET curves, nAUDC, Pmiss, mAP")
    _add_config_args(p)
    p.add_argument("input", type=Path, help="instances")
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("-o", "--output", type=Path, required=True,
                   help="evaluation report file")
    p.add_argument("--curves", type=Path, required=True,
                   help="plot-ready DET points file")
    p.add_argument("--strict", action="store_true",
                   help="also compute mAP at 3D tube IoU")
    p.add_argument("--proposals", type=Path, default=None,
                   help="labeled proposals for a proposal-quality section")
    p.add_argument("--video-frames", action="append", default=[],
                   metavar="ID=FRAMES")
    p.set_defaults(func=_cmd_evaluate)

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
