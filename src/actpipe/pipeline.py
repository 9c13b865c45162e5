"""Stage orchestration, timing, and throughput benchmarking.

Stages communicate through ordered record files so every stage is
independently runnable and resumable; re-running a stage on the same inputs
is bit-identical. The canonical chain is

    track -> propose -> assign-labels -> filter -> score -> dedup
          -> merge-adjacent -> evaluate

and any in-order subset of it is accepted. Label assignment sits between
propose and filter because both filter calibration and oracle scoring
consume assigned labels.
"""

from __future__ import annotations

import logging
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .dedup import deduplicate, merge_adjacent
from .evaluation import evaluation_report
from .filtering import (SENTINEL_THRESHOLD, calibrate_threshold,
                        collect_positive_scores, filter_proposals,
                        score_foreground)
from .geometry import BBox
from .labeling import apply_assignments, assign_labels, gt_to_cubes, \
    proposal_stats
from .proposals import generate_proposals
from .records import ReportRecord, read_records, write_records
from .scoring import fuse_scores, load_external_scores, oracle_scores
from .synth import ActivitySpec, ObjectSpec, SceneSpec, generate_scene
from .tracking import greedy_iou_track, tracks_from_records

__all__ = ["PipelineInputs", "StageTiming", "PipelineResult", "run_pipeline",
           "bench", "CANONICAL_STAGES", "infer_video_lengths"]

logger = logging.getLogger(__name__)

CANONICAL_STAGES = ("track", "propose", "assign-labels", "filter", "score",
                    "dedup", "merge-adjacent", "evaluate")
DEFAULT_FRAME_SIZE = (1920, 1080)


@dataclass
class PipelineInputs:
    detections: Optional[Path] = None
    annotations: Optional[Path] = None
    masks: Optional[Path] = None
    video_lengths: Dict[str, int] = field(default_factory=dict)
    frame_sizes: Dict[str, Tuple[int, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class StageTiming:
    name: str
    seconds: float
    records_in: int
    records_out: int

    def to_dict(self, total_frames: int) -> dict:
        return {
            "stage": self.name,
            "seconds": self.seconds,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "records_per_sec": (self.records_in / self.seconds
                                if self.seconds > 0 else float("inf")),
            "frames_per_sec": (total_frames / self.seconds
                               if self.seconds > 0 else float("inf")),
        }


@dataclass
class PipelineResult:
    out_dir: Path
    stages: List[StageTiming]
    outputs: Dict[str, Path]
    summary: Optional[dict]
    total_frames: int
    video_fps: float

    @property
    def wall_seconds(self) -> float:
        return sum(s.seconds for s in self.stages)

    @property
    def real_time_factor(self) -> float:
        video_seconds = self.total_frames / self.video_fps
        return video_seconds / self.wall_seconds if self.wall_seconds > 0 else float("inf")

    def timing_report(self) -> dict:
        return {
            "stages": [s.to_dict(self.total_frames) for s in self.stages],
            "total_frames": self.total_frames,
            "video_seconds": self.total_frames / self.video_fps,
            "wall_seconds": self.wall_seconds,
            "real_time_factor": self.real_time_factor,
        }


def infer_video_lengths(inputs: PipelineInputs) -> Dict[str, int]:
    """Best-effort per-video frame counts from whatever files exist.

    Explicit lengths win; otherwise the maximum frame index seen plus one.
    Inferred lengths can undercount trailing activity-free frames, which
    shifts false-alarm denominators, so explicit lengths are preferred.
    """
    lengths: Dict[str, int] = dict(inputs.video_lengths)
    if lengths:
        return lengths

    def bump(video_id: str, bound: int) -> None:
        lengths[video_id] = max(lengths.get(video_id, 0), bound)

    if inputs.detections and Path(inputs.detections).exists():
        for det in read_records(inputs.detections, "detections"):
            bump(det.video_id, det.frame + 1)
    if inputs.masks and Path(inputs.masks).exists():
        for mask in read_records(inputs.masks, "masks"):
            bump(mask.video_id, mask.frame + 1)
    if inputs.annotations and Path(inputs.annotations).exists():
        for ann in read_records(inputs.annotations, "annotations"):
            bump(ann.video_id, ann.t1)
    if lengths:
        logger.warning("video lengths inferred from record files; "
                       "pass explicit lengths for exact false-alarm rates")
    return lengths


def _frame_sizes(inputs: PipelineInputs,
                 video_ids: Sequence[str]) -> Dict[str, Tuple[int, int]]:
    """Explicit sizes, else each video's first mask (read no further)."""
    sizes = dict(inputs.frame_sizes)
    missing = {v for v in video_ids if v not in sizes}
    if missing and inputs.masks and Path(inputs.masks).exists():
        with closing(read_records(inputs.masks, "masks")) as masks:
            for mask in masks:
                if mask.video_id in missing:
                    missing.discard(mask.video_id)
                    sizes[mask.video_id] = (mask.width, mask.height)
                    if not missing:
                        break
    for video_id in video_ids:
        if video_id not in sizes:
            logger.warning("no frame size for %r; assuming %s", video_id,
                           DEFAULT_FRAME_SIZE)
            sizes[video_id] = DEFAULT_FRAME_SIZE
    return sizes


def _resolve_classes(config: PipelineConfig,
                     inputs: PipelineInputs) -> PipelineConfig:
    if config.activity_classes:
        return config
    if inputs.annotations and Path(inputs.annotations).exists():
        classes = sorted({a.activity_class
                          for a in read_records(inputs.annotations, "annotations")})
        if classes:
            return config.with_classes(activity_classes=classes)
    return config


def run_pipeline(config: PipelineConfig, inputs: PipelineInputs,
                 out_dir: Path, stages: Optional[Sequence[str]] = None,
                 score_mode: str = "oracle",
                 scores_paths: Optional[Sequence[Path]] = None,
                 fuse_weights: Optional[np.ndarray] = None,
                 strict: Optional[bool] = None) -> PipelineResult:
    """Run an in-order subset of the stage chain over record files.

    Each stage persists its output under ``out_dir`` and is timed. A stage
    contract violation aborts with the failing stage named.
    """
    stage_list = list(stages) if stages is not None else list(CANONICAL_STAGES)
    order = {name: i for i, name in enumerate(CANONICAL_STAGES)}
    unknown = [s for s in stage_list if s not in order]
    if unknown:
        raise ValueError(f"unknown stages: {unknown}")
    if [order[s] for s in stage_list] != sorted(order[s] for s in stage_list):
        raise ValueError(
            f"stages must follow the chain order {CANONICAL_STAGES}"
        )
    if len(set(stage_list)) != len(stage_list):
        raise ValueError("duplicate stages")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _resolve_classes(config, inputs)
    video_lengths = infer_video_lengths(inputs)
    total_frames = sum(video_lengths.values())

    state: Dict[str, Path] = {}
    if inputs.detections:
        state["detections"] = Path(inputs.detections)
    outputs: Dict[str, Path] = {}
    timings: List[StageTiming] = []
    summary: Optional[dict] = None

    def need(key: str, stage: str) -> Path:
        if key not in state:
            raise ValueError(f"stage {stage!r} needs a {key} input")
        return state[key]

    def annotations_list():
        if not inputs.annotations:
            raise ValueError("annotations input required")
        return list(read_records(inputs.annotations, "annotations"))

    for stage in stage_list:
        start = time.perf_counter()
        records_in = records_out = 0

        if stage == "track":
            detections = list(read_records(need("detections", stage), "detections"))
            records_in = len(detections)
            tracked = greedy_iou_track(detections, max_gap=config.s_det)
            records_out = len(tracked)
            path = out_dir / "detections_tracked.jsonl"
            write_records(tracked, path, "detections")
            state["detections"] = path
            outputs["track"] = path

        elif stage == "propose":
            detections = read_records(need("detections", stage), "detections")
            tracks = tracks_from_records(detections)
            records_in = sum(len(t.boxes) for ts in tracks.values() for t in ts)
            sizes = _frame_sizes(inputs, list(tracks))
            proposals = generate_proposals(tracks, video_lengths, sizes, config)
            records_out = len(proposals)
            path = out_dir / "proposals.jsonl"
            write_records(proposals, path, "proposals")
            state["proposals"] = path
            outputs["propose"] = path

        elif stage == "assign-labels":
            proposals = list(read_records(need("proposals", stage), "proposals"))
            records_in = len(proposals)
            annotations = annotations_list()
            gt_cubes = [gt for a in annotations
                        for gt in gt_to_cubes(a, config.d_prop, config.s_prop)]
            assignments = assign_labels(proposals, gt_cubes,
                                        config.s_high, config.s_low)
            labeled = apply_assignments(proposals, assignments)
            records_out = len(labeled)
            path = out_dir / "proposals_labeled.jsonl"
            write_records(labeled, path, "proposals")
            stats = proposal_stats(assignments)
            stats_path = out_dir / "label_stats.jsonl"
            write_records([ReportRecord("proposal_stats", stats.to_dict())],
                          stats_path, "reports")
            state["proposals"] = path
            outputs["assign-labels"] = path
            outputs["label-stats"] = stats_path

        elif stage == "filter":
            proposals = list(read_records(need("proposals", stage), "proposals"))
            records_in = len(proposals)
            masks = read_records(need_masks(inputs, stage), "masks")
            scored = score_foreground(proposals, masks)
            thresholds = {c.object_class: SENTINEL_THRESHOLD for c in scored}
            for cls in config.object_classes:
                thresholds.setdefault(cls, SENTINEL_THRESHOLD)
            thresholds.update(
                calibrate_threshold(collect_positive_scores(scored), config.p_pos)
            )
            kept = filter_proposals(scored, thresholds)
            records_out = len(kept)
            path = out_dir / "proposals_filtered.jsonl"
            write_records(kept, path, "proposals")
            report = {
                "thresholds": {
                    cls: (None if value == SENTINEL_THRESHOLD else value)
                    for cls, value in sorted(thresholds.items())
                },
                "p_pos": config.p_pos,
                "kept": len(kept),
                "removed": len(scored) - len(kept),
            }
            thr_path = out_dir / "filter_thresholds.jsonl"
            write_records([ReportRecord("filter_thresholds", report)],
                          thr_path, "reports")
            state["proposals"] = path
            outputs["filter"] = path
            outputs["filter-thresholds"] = thr_path

        elif stage == "score":
            proposals = list(read_records(need("proposals", stage), "proposals"))
            records_in = len(proposals)
            if score_mode == "oracle":
                scored = oracle_scores(proposals, config.activity_classes)
            elif score_mode == "external":
                if not scores_paths:
                    raise ValueError("external scoring needs a scores file")
                sets = [load_external_scores(p, proposals, config.activity_classes)
                        for p in scores_paths]
                scored = sets[0] if len(sets) == 1 else fuse_scores(sets, fuse_weights)
            else:
                raise ValueError(f"unknown score mode {score_mode!r}")
            records_out = len(scored)
            path = out_dir / "proposals_scored.jsonl"
            write_records(scored, path, "scored-proposals")
            state["scored"] = path
            outputs["score"] = path

        elif stage == "dedup":
            scored = list(read_records(need("scored", stage), "scored-proposals"))
            records_in = len(scored)
            instances = deduplicate(scored, config)
            records_out = len(instances)
            path = out_dir / "instances.jsonl"
            write_records(instances, path, "instances")
            state["instances"] = path
            outputs["dedup"] = path

        elif stage == "merge-adjacent":
            instances = list(read_records(need("instances", stage), "instances"))
            records_in = len(instances)
            merged = merge_adjacent(instances, config.s_merg, config.l_merg)
            records_out = len(merged)
            path = out_dir / "instances_merged.jsonl"
            write_records(merged, path, "instances")
            state["instances"] = path
            outputs["merge-adjacent"] = path

        elif stage == "evaluate":
            instances = list(read_records(need("instances", stage), "instances"))
            records_in = len(instances)
            annotations = annotations_list()
            use_strict = strict if strict is not None else "merge-adjacent" in stage_list
            curves, summary = evaluation_report(instances, annotations, config,
                                                video_lengths, strict=use_strict)
            curve_path = out_dir / "det_curves.jsonl"
            write_records(
                [curves[c] for c in sorted(curves)], curve_path, "det-curves"
            )
            report_path = out_dir / "evaluation.jsonl"
            write_records([ReportRecord("evaluation", summary)],
                          report_path, "reports")
            records_out = len(curves)
            outputs["evaluate"] = report_path
            outputs["det-curves"] = curve_path

        timings.append(StageTiming(stage, time.perf_counter() - start,
                                   records_in, records_out))

    result = PipelineResult(out_dir, timings, outputs, summary, total_frames,
                            config.video_fps)
    timing_path = out_dir / "timing.jsonl"
    write_records([ReportRecord("timing", result.timing_report())],
                  timing_path, "reports")
    result.outputs["timing"] = timing_path
    return result


def need_masks(inputs: PipelineInputs, stage: str) -> Path:
    if not inputs.masks:
        raise ValueError(f"stage {stage!r} needs a masks input")
    return Path(inputs.masks)


BENCH_STAGES = ("propose", "assign-labels", "filter", "score", "dedup",
                "evaluate")
BENCH_CLASSES = ("walking", "driving", "loading")


def _bench_specs(config: PipelineConfig, n_detections: int,
                 seed: int) -> List[SceneSpec]:
    videos, objects = 8, 8
    samples = max(8, round(n_detections / (videos * objects)))
    video_len = max(config.d_prop,
                    samples * config.s_det // config.d_prop * config.d_prop)
    width, height = 480, 270
    rng = np.random.default_rng(seed)
    specs = []
    for v in range(videos):
        object_specs = []
        activities = []
        for j in range(objects):
            moving = j < objects // 2
            size = float(rng.uniform(24, 40))
            x = float(rng.uniform(0, width - size - 1))
            y = float(rng.uniform(0, height - size - 1))
            start = BBox(x, x + size, y, y + size)
            if moving:
                dx = float(rng.uniform(-40, 40))
                dy = float(rng.uniform(-20, 20))
                ex = min(max(x + dx, 0.0), width - size - 1)
                ey = min(max(y + dy, 0.0), height - size - 1)
                end = BBox(ex, ex + size, ey, ey + size)
            else:
                end = start
            object_specs.append(
                ObjectSpec(
                    object_class="person" if j % 2 == 0 else "vehicle",
                    waypoints=((0, start), (video_len - 1, end)),
                    foreground=moving,
                )
            )
            if moving:
                activities.append(
                    ActivitySpec(j, BENCH_CLASSES[j % len(BENCH_CLASSES)],
                                 0, video_len)
                )
        specs.append(
            SceneSpec(video_id=f"bench{v:02d}", video_len=video_len,
                      width=width, height=height, objects=tuple(object_specs),
                      activities=tuple(activities), jitter_sigma=1.0,
                      seed=seed * 1000 + v)
        )
    return specs


def bench(config: PipelineConfig, n_detections: int, out_dir: Path,
          seed: int = 0) -> Tuple[PipelineResult, dict]:
    """Throughput benchmark on a synthetic load of roughly ``n_detections``.

    Generates a multi-video corpus, runs the proposal-to-evaluation chain
    single-threaded, and reports per-stage record rates plus the real-time
    factor (processed video seconds over wall seconds). Load generation is
    not counted.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = config.with_classes(object_classes=("person", "vehicle"),
                                 activity_classes=BENCH_CLASSES)
    specs = _bench_specs(config, n_detections, seed)

    det_path = out_dir / "detections.jsonl"
    ann_path = out_dir / "annotations.jsonl"
    mask_path = out_dir / "masks.jsonl"
    lengths: Dict[str, int] = {}
    sizes: Dict[str, Tuple[int, int]] = {}
    n_dets = 0
    # stream scene by scene to keep memory flat
    from .records import RECORD_KINDS
    import json as _json

    handles = {
        "detections": det_path.open("w", encoding="utf-8"),
        "annotations": ann_path.open("w", encoding="utf-8"),
        "masks": mask_path.open("w", encoding="utf-8"),
    }
    try:
        for kind, fh in handles.items():
            fh.write(f"#actpipe/{kind}/v1\n")
        for spec in specs:
            scene = generate_scene(spec, config)
            lengths[spec.video_id] = spec.video_len
            sizes[spec.video_id] = spec.frame_size
            n_dets += len(scene.detections)
            for kind, records in (("detections", scene.detections),
                                  ("annotations", scene.annotations),
                                  ("masks", scene.masks)):
                serializer = RECORD_KINDS[kind][0]
                fh = handles[kind]
                for record in records:
                    fh.write(_json.dumps(serializer(record),
                                         separators=(",", ":")))
                    fh.write("\n")
    finally:
        for fh in handles.values():
            fh.close()

    inputs = PipelineInputs(detections=det_path, annotations=ann_path,
                            masks=mask_path, video_lengths=lengths,
                            frame_sizes=sizes)
    result = run_pipeline(config, inputs, out_dir / "run", stages=BENCH_STAGES)
    report = result.timing_report()
    report["n_detections"] = n_dets
    write_records([ReportRecord("bench", report)], out_dir / "bench.jsonl",
                  "reports")
    return result, report
