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

import functools
import json
import logging
import time
from contextlib import ExitStack, closing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .dedup import deduplicate, merge_adjacent
from .evaluation import evaluation_report
from .filtering import filter_stage
from .geometry import BBox
from .labeling import apply_assignments, assign_labels, gt_to_cubes, \
    proposal_stats
from .proposals import generate_proposals
from .records import RECORD_KINDS, ReportRecord, read_records, write_records
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


def infer_video_lengths(inputs: PipelineInputs,
                        videos: Optional[Iterable[str]] = None,
                        annotations: Optional[Callable[[], list]] = None
                        ) -> Dict[str, int]:
    """Per-video frame counts: explicit lengths, the rest from record files.

    Videos without an explicit length get the maximum frame index seen plus
    one (annotation ends count too) and are logged; this can undercount
    trailing activity-free frames and so shift false-alarm denominators.
    No file is read when each of ``videos`` has an explicit length.
    ``annotations``, when given, returns the already parsed annotations.
    """
    lengths: Dict[str, int] = dict(inputs.video_lengths)
    if lengths and videos is not None and all(v in lengths for v in videos):
        return lengths
    inferred: Dict[str, int] = {}

    def bump(video_id: str, bound: int) -> None:
        if video_id not in lengths:
            inferred[video_id] = max(inferred.get(video_id, 0), bound)

    if inputs.detections and Path(inputs.detections).exists():
        for det in read_records(inputs.detections, "detections"):
            bump(det.video_id, det.frame + 1)
    if inputs.masks and Path(inputs.masks).exists():
        for mask in read_records(inputs.masks, "masks"):
            bump(mask.video_id, mask.frame + 1)
    if inputs.annotations and Path(inputs.annotations).exists():
        for ann in (annotations() if annotations
                    else read_records(inputs.annotations, "annotations")):
            bump(ann.video_id, ann.t1)
    if inferred:
        logger.warning("video lengths inferred from record files for %s; pass "
                       "explicit lengths for exact false-alarm rates",
                       ", ".join(sorted(inferred)))
    lengths.update(inferred)
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

    @functools.cache
    def annotations_list() -> list:
        """The annotations file, parsed at most once per run."""
        if not inputs.annotations:
            raise ValueError("annotations input required")
        return list(read_records(inputs.annotations, "annotations"))

    def lengths_for(videos: Iterable[str]) -> Dict[str, int]:
        known = replace(inputs, video_lengths=video_lengths)
        return infer_video_lengths(known, videos, annotations_list)

    if (not config.activity_classes and inputs.annotations
            and Path(inputs.annotations).exists()):
        classes = sorted({a.activity_class for a in annotations_list()})
        if classes:
            config = config.with_classes(activity_classes=classes)
    video_lengths = infer_video_lengths(inputs, (), annotations_list)

    state = {key: Path(path) for key, path in (("detections", inputs.detections),
                                               ("masks", inputs.masks)) if path}
    outputs: Dict[str, Path] = {}
    timings: List[StageTiming] = []
    summary: Optional[dict] = None

    def need(key: str, stage: str) -> Path:
        if key not in state:
            raise ValueError(f"stage {stage!r} needs a {key} input")
        return state[key]

    def emit(output: str, records, name: str, kind: str,
             key: Optional[str] = None) -> int:
        """Write one output file; ``key`` hands it on to later stages."""
        outputs[output] = out_dir / name
        if key:
            state[key] = outputs[output]
        return write_records(records, outputs[output], kind)

    for stage in stage_list:
        start = time.perf_counter()
        records_in = records_out = 0

        if stage == "track":
            detections = list(read_records(need("detections", stage), "detections"))
            records_in = len(detections)
            tracked = greedy_iou_track(detections, max_gap=config.s_det)
            records_out = emit("track", tracked, "detections_tracked.jsonl",
                               "detections", "detections")

        elif stage == "propose":
            detections = read_records(need("detections", stage), "detections")
            tracks = tracks_from_records(detections)
            records_in = sum(len(t.boxes) for ts in tracks.values() for t in ts)
            sizes = _frame_sizes(inputs, list(tracks))
            video_lengths = lengths_for(tracks)
            proposals = generate_proposals(tracks, video_lengths, sizes, config)
            records_out = emit("propose", proposals, "proposals.jsonl",
                               "proposals", "proposals")

        elif stage == "assign-labels":
            proposals = list(read_records(need("proposals", stage), "proposals"))
            records_in = len(proposals)
            gt_cubes = [gt for a in annotations_list()
                        for gt in gt_to_cubes(a, config.d_prop, config.s_prop)]
            assignments = assign_labels(proposals, gt_cubes,
                                        config.s_high, config.s_low)
            records_out = emit("assign-labels", apply_assignments(proposals, assignments),
                               "proposals_labeled.jsonl", "proposals", "proposals")
            stats = proposal_stats(assignments)
            emit("label-stats", [ReportRecord("proposal_stats", stats.to_dict())],
                 "label_stats.jsonl", "reports")

        elif stage == "filter":
            proposals = list(read_records(need("proposals", stage), "proposals"))
            records_in = len(proposals)
            masks = read_records(need("masks", stage), "masks")
            kept, report = filter_stage(proposals, masks, config)
            records_out = emit("filter", kept, "proposals_filtered.jsonl",
                               "proposals", "proposals")
            emit("filter-thresholds", [ReportRecord("filter_thresholds", report)],
                 "filter_thresholds.jsonl", "reports")

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
            records_out = emit("score", scored, "proposals_scored.jsonl",
                               "scored-proposals", "scored")

        elif stage == "dedup":
            scored = list(read_records(need("scored", stage), "scored-proposals"))
            records_in = len(scored)
            records_out = emit("dedup", deduplicate(scored, config), "instances.jsonl",
                               "instances", "instances")

        elif stage == "merge-adjacent":
            instances = list(read_records(need("instances", stage), "instances"))
            records_in = len(instances)
            merged = merge_adjacent(instances, config.s_merg, config.l_merg)
            records_out = emit("merge-adjacent", merged, "instances_merged.jsonl",
                               "instances", "instances")

        elif stage == "evaluate":
            instances = list(read_records(need("instances", stage), "instances"))
            records_in = len(instances)
            annotations = annotations_list()
            video_lengths = lengths_for({i.video_id for i in instances}
                                        | {a.video_id for a in annotations})
            use_strict = strict if strict is not None else "merge-adjacent" in stage_list
            curves, summary = evaluation_report(instances, annotations, config,
                                                video_lengths, strict=use_strict)
            records_out = emit("det-curves", [curves[c] for c in sorted(curves)],
                               "det_curves.jsonl", "det-curves")
            emit("evaluate", [ReportRecord("evaluation", summary)],
                 "evaluation.jsonl", "reports")

        timings.append(StageTiming(stage, time.perf_counter() - start,
                                   records_in, records_out))

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
