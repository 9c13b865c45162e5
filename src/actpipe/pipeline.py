"""Stage orchestration, timing, and throughput benchmarking.

Every stage writes its output as an ordered record file, so each stage is
independently runnable and resumable; re-running a stage on the same inputs
is bit-identical. Within one run, each stage hands the records it wrote
to the next stage in memory: only the run's inputs are read from files,
and no stage re-reads what an earlier one wrote. The canonical chain is

    track -> propose -> assign-labels -> filter -> score -> dedup
          -> merge-adjacent -> evaluate

and any in-order subset of it is accepted. Label assignment sits between
propose and filter because both filter calibration and oracle scoring
consume assigned labels.

Explicit video lengths and frame sizes win. The propose stage fills in the
rest: a length is the video's largest track or mask frame + 1 or annotation
``t1``, a size its first mask's, else :data:`DEFAULT_FRAME_SIZE` (logged).
Evaluate fills the lengths of videos that only annotations name.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import (Collection, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from .config import PipelineConfig
from .dedup import deduplicate, merge_adjacent
from .evaluation import _classes_for, evaluation_report
from .filtering import filter_stage
from .geometry import BBox
from .labeling import label_stage
from .proposals import generate_proposals
from .records import RECORD_KINDS, ReportRecord, read_records, write_records
from .scoring import score_stage
from .synth import ActivitySpec, ObjectSpec, SceneSpec, generate_scene
from .tracking import Track, greedy_iou_track, tracks_from_records

__all__ = ["PipelineInputs", "StageTiming", "PipelineResult", "run_pipeline",
           "bench", "CANONICAL_STAGES", "infer_video_lengths", "track_ends",
           "frame_sizes"]

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


def infer_video_lengths(explicit: Mapping[str, int],
                        ends: Iterable[Tuple[str, int]]) -> Dict[str, int]:
    """Per-video frame counts: the explicit ones, else the largest end seen.

    ``ends`` are ``(video_id, end)`` pairs from records the caller already
    holds: a detection's or mask's ``frame + 1``, a track's last frame plus
    one, a window's ``t1``. Videos without an explicit length get their
    largest end and are logged; this can undercount trailing activity-free
    frames and so shift false-alarm denominators.
    """
    lengths = dict(explicit)
    inferred: Dict[str, int] = {}
    for video_id, end in ends:
        if video_id not in lengths:
            inferred[video_id] = max(inferred.get(video_id, 0), end)
    if inferred:
        logger.warning("video lengths inferred from record files for %s; pass "
                       "explicit lengths for exact false-alarm rates",
                       ", ".join(sorted(inferred)))
    lengths.update(inferred)
    return lengths


def track_ends(tracks: Mapping[str, Sequence[Track]]) -> Iterator[Tuple[str, int]]:
    """The ``(video_id, last frame + 1)`` end of every track."""
    return ((video_id, int(t.frames[-1]) + 1)
            for video_id, video_tracks in tracks.items() for t in video_tracks)


def frame_sizes(video_ids: Collection[str], known: Mapping[str, Tuple[int, int]]
                ) -> Dict[str, Tuple[int, int]]:
    """Each video's known size, else :data:`DEFAULT_FRAME_SIZE` (logged)."""
    for video_id in video_ids:
        if video_id not in known:
            logger.warning("no frame size for %r; assuming %s", video_id,
                           DEFAULT_FRAME_SIZE)
    return {v: known.get(v, DEFAULT_FRAME_SIZE) for v in video_ids}


def run_pipeline(config: PipelineConfig, inputs: PipelineInputs,
                 out_dir: Path, stages: Optional[Sequence[str]] = None,
                 scores: Sequence[Path] = (),
                 strict: Optional[bool] = None) -> PipelineResult:
    """Run an in-order subset of the stage chain.

    Each stage writes its output under ``out_dir``, is timed, and hands the
    records it wrote to the stage that consumes them. ``scores`` are
    external score files, fused when there are several; without them the
    oracle scores. A stage contract violation aborts with the stage named.
    One running clock times the run, so a stage's seconds also count any
    work since the previous stage ended (the first stage: since the call).
    """
    clock = time.perf_counter()
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

    @functools.cache
    def annotations_list() -> list:
        """The annotations file, parsed at most once per run."""
        if not inputs.annotations:
            raise ValueError("annotations input required")
        return list(read_records(inputs.annotations, "annotations"))

    has_annotations = bool(inputs.annotations) and Path(inputs.annotations).exists()
    if not config.activity_classes and has_annotations:
        config = config.with_classes(
            activity_classes=_classes_for(annotations_list(), config))
    video_lengths = dict(inputs.video_lengths)

    # records written by one stage, kept until the stage that consumes them
    handoff: Dict[str, list] = {}
    outputs: Dict[str, Path] = {}
    timings: List[StageTiming] = []
    summary: Optional[dict] = None

    def take(key: str, stage: str):
        """The records handed on as ``key``, else the input file of that kind."""
        if key in handoff:
            return handoff.pop(key)
        path = {"detections": inputs.detections, "masks": inputs.masks}.get(key)
        if not path:
            raise ValueError(f"stage {stage!r} needs a {key} input")
        return read_records(path, key)

    def emit(output: str, records: list, name: str, kind: str,
             key: Optional[str] = None) -> int:
        """Write one output file; ``key`` hands its records on."""
        outputs[output] = out_dir / name
        if key:
            handoff[key] = records
        return write_records(records, outputs[output], kind)

    def run_stage(stage: str) -> Tuple[int, int]:
        """One stage's body: its input and output record counts."""
        nonlocal video_lengths, summary
        if stage == "track":
            detections = list(take("detections", stage))
            tracked = greedy_iou_track(detections, max_gap=config.s_det)
            return len(detections), emit("track", tracked, "detections_tracked.jsonl",
                                         "detections", "detections")

        if stage == "propose":
            tracks = tracks_from_records(take("detections", stage))
            # one masks pass finds the first mask of each unsized video and,
            # when a length is missing, every mask's end (else it stops early)
            infer = any(v not in video_lengths for v in tracks)
            unsized = {v for v in tracks if v not in inputs.frame_sizes}
            first_masks, mask_ends = {}, []
            if (infer or unsized) and inputs.masks and Path(inputs.masks).exists():
                with closing(read_records(inputs.masks, "masks")) as masks:
                    for mask in masks:
                        if infer:
                            mask_ends.append((mask.video_id, mask.frame + 1))
                        if mask.video_id in unsized:
                            unsized.discard(mask.video_id)
                            first_masks[mask.video_id] = (mask.width, mask.height)
                            if not (unsized or infer):
                                break
            if infer:
                annotations = annotations_list() if has_annotations else ()
                video_lengths = infer_video_lengths(video_lengths, chain(
                    track_ends(tracks), mask_ends,
                    ((a.video_id, a.t1) for a in annotations)))
            sizes = frame_sizes(tracks, {**first_masks, **inputs.frame_sizes})
            proposals = generate_proposals(tracks, video_lengths, sizes, config)
            return (sum(len(t.boxes) for ts in tracks.values() for t in ts),
                    emit("propose", proposals, "proposals.jsonl", "proposals",
                         "proposals"))

        if stage == "assign-labels":
            proposals = take("proposals", stage)
            labeled, stats = label_stage(proposals, annotations_list(), config)
            records_out = emit("assign-labels", labeled, "proposals_labeled.jsonl",
                               "proposals", "proposals")
            emit("label-stats", [ReportRecord("proposal_stats", stats.to_dict())],
                 "label_stats.jsonl", "reports")
            return len(proposals), records_out

        if stage == "filter":
            proposals = take("proposals", stage)
            kept, report = filter_stage(proposals, take("masks", stage), config)
            records_out = emit("filter", kept, "proposals_filtered.jsonl",
                               "proposals", "proposals")
            emit("filter-thresholds", [ReportRecord("filter_thresholds", report)],
                 "filter_thresholds.jsonl", "reports")
            return len(proposals), records_out

        if stage == "score":
            proposals = take("proposals", stage)
            scored = score_stage(proposals, config.activity_classes, scores)
            return len(proposals), emit("score", scored, "proposals_scored.jsonl",
                                        "scored-proposals", "scored")

        if stage == "dedup":
            scored = take("scored", stage)
            return len(scored), emit("dedup", deduplicate(scored, config),
                                     "instances.jsonl", "instances", "instances")

        if stage == "merge-adjacent":
            instances = take("instances", stage)
            merged = merge_adjacent(instances, config.s_merg, config.l_merg)
            return len(instances), emit("merge-adjacent", merged,
                                        "instances_merged.jsonl", "instances",
                                        "instances")

        # evaluate
        instances = take("instances", stage)
        annotations = annotations_list()
        # only videos that no track named can still lack a length here
        video_lengths = infer_video_lengths(video_lengths, (
            (r.video_id, r.t1) for r in chain(annotations, instances)))
        use_strict = strict if strict is not None else "merge-adjacent" in stage_list
        curves, summary = evaluation_report(instances, annotations, config,
                                            video_lengths, strict=use_strict)
        records_out = emit("det-curves", [curves[c] for c in sorted(curves)],
                           "det_curves.jsonl", "det-curves")
        emit("evaluate", [ReportRecord("evaluation", summary)],
             "evaluation.jsonl", "reports")
        return len(instances), records_out

    for stage in stage_list:
        records_in, records_out = run_stage(stage)
        start, clock = clock, time.perf_counter()
        timings.append(StageTiming(stage, clock - start, records_in, records_out))

    result = PipelineResult(out_dir, timings, outputs, summary,
                            sum(video_lengths.values()), config.video_fps)
    emit("timing", [ReportRecord("timing", result.timing_report())],
         "timing.jsonl", "reports")
    return result


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

    paths = {kind: out_dir / f"{kind}.jsonl"
             for kind in ("detections", "annotations", "masks")}
    lengths: Dict[str, int] = {}
    sizes: Dict[str, Tuple[int, int]] = {}
    n_dets = 0
    # stream scene by scene to keep memory flat
    with ExitStack() as stack:
        handles = {kind: stack.enter_context(path.open("w", encoding="utf-8"))
                   for kind, path in paths.items()}
        for kind, fh in handles.items():
            fh.write(f"#actpipe/{kind}/v1\n")
        for spec in specs:
            scene = generate_scene(spec, config)
            lengths[spec.video_id] = spec.video_len
            sizes[spec.video_id] = spec.frame_size
            n_dets += len(scene.detections)
            for kind, fh in handles.items():
                serializer = RECORD_KINDS[kind][0]
                for record in getattr(scene, kind):
                    fh.write(json.dumps(serializer(record), separators=(",", ":")) + "\n")

    inputs = PipelineInputs(**paths, video_lengths=lengths, frame_sizes=sizes)
    result = run_pipeline(config, inputs, out_dir / "run", stages=BENCH_STAGES)
    report = result.timing_report()
    report["n_detections"] = n_dets
    write_records([ReportRecord("bench", report)], out_dir / "bench.jsonl",
                  "reports")
    return result, report
