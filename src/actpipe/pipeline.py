"""Stage orchestration, timing, and throughput benchmarking.

Every stage writes its output as an ordered record file, so each stage is
independently runnable (the CLI subcommands call :func:`run_stage`, the one
body of each stage) and resumable; re-running a stage is bit-identical.
Within one run, each stage hands the records it wrote to the next stage in
memory: only the run's inputs are read from files. The canonical chain is

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
import logging
import time
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .dedup import deduplicate, merge_adjacent
from .evaluation import _classes_for, evaluation_report, proposal_quality
from .filtering import filter_stage, load_thresholds
from .geometry import BBox
from .labeling import label_stage
from .proposals import generate_proposals
from .records import (CubeTable, ReportRecord, _formatter, _header, read_detections,
                      read_proposals, read_records, write_records)
from .scoring import load_fuse_weights, score_stage
from .synth import ActivitySpec, ObjectSpec, SceneSpec, generate_scene
from .tracking import Track, greedy_iou_track, tracks_from_records

__all__ = ["PipelineInputs", "StageTiming", "PipelineResult", "StageRun", "run_stage",
           "run_pipeline", "bench", "CANONICAL_STAGES", "STAGE_INPUT", "OUTPUT_FILES",
           "infer_video_lengths", "track_ends", "read_input"]

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
            "records_per_sec": _rate(self.records_in, self.seconds),
            "frames_per_sec": _rate(total_frames, self.seconds),
        }


def _rate(amount: float, seconds: float) -> Optional[float]:
    """``amount`` per second, or None (written null) over zero seconds."""
    return amount / seconds if seconds > 0 else None


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
    def real_time_factor(self) -> Optional[float]:
        return _rate(self.total_frames / self.video_fps, self.wall_seconds)

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


# the record kind each stage takes, handed on by an earlier stage (the
# first stage of a run reads detections from the run's input file)
STAGE_INPUT = {
    "track": "detections", "propose": "detections",
    "assign-labels": "proposals", "filter": "proposals", "score": "proposals",
    "dedup": "scored-proposals", "merge-adjacent": "instances",
    "evaluate": "instances",
}
# output name -> (file name, record kind); each stage's records are the
# output named after it
OUTPUT_FILES = {
    "track": ("detections_tracked.jsonl", "detections"),
    "propose": ("proposals.jsonl", "proposals"),
    "assign-labels": ("proposals_labeled.jsonl", "proposals"),
    "label-stats": ("label_stats.jsonl", "reports"),
    "filter": ("proposals_filtered.jsonl", "proposals"),
    "filter-thresholds": ("filter_thresholds.jsonl", "reports"),
    "score": ("proposals_scored.jsonl", "scored-proposals"),
    "dedup": ("instances.jsonl", "instances"),
    "merge-adjacent": ("instances_merged.jsonl", "instances"),
    "det-curves": ("det_curves.jsonl", "det-curves"),
    "evaluate": ("evaluation.jsonl", "reports"),
    "timing": ("timing.jsonl", "reports"),
}


def read_input(path: Path, kind: str):
    """A stage's input file: detections as per-video batches, proposals of
    either kind as one table, else records."""
    if kind == "detections":
        return read_detections(path)
    if kind in ("proposals", "scored-proposals"):
        return read_proposals(path, kind)
    return read_records(path, kind)


@dataclass
class StageRun:
    """What the stages of one run share: the config, whose activity classes
    default to the annotations' (parsed at most once), the inputs, the
    lengths resolved so far, and side inputs only the CLI sets: every
    video's ``frame_size``, a ``thresholds`` report to reuse, fusion
    ``weights`` and ``proposals`` for a proposal-quality section."""
    config: PipelineConfig
    inputs: PipelineInputs
    scores: Sequence[Path] = ()
    strict: bool = False
    frame_size: Optional[Tuple[int, int]] = None
    thresholds: Optional[Path] = None
    weights: Optional[Path] = None
    proposals: Optional[Path] = None
    video_lengths: Dict[str, int] = field(init=False)

    def __post_init__(self):
        self.video_lengths = dict(self.inputs.video_lengths)
        if not self.config.activity_classes and self.inputs.annotations:
            self.config = self.config.with_classes(
                activity_classes=_classes_for(self.annotations, self.config))

    @functools.cached_property
    def annotations(self) -> list:
        if not self.inputs.annotations:
            raise ValueError("annotations input required")
        return list(read_records(self.inputs.annotations, "annotations"))


def run_stage(stage: str, records: Iterable, run: StageRun
              ) -> Tuple[int, Dict[str, list]]:
    """One stage's body on ``records`` of the kind it takes: how many
    records it took in, and its outputs by name (:data:`OUTPUT_FILES`), the
    one whose records the stage's timing counts first."""
    config = run.config
    if stage == "propose":
        tracks = tracks_from_records(records)
        del records  # no caller holds the detections, so they go here
        known = (dict.fromkeys(tracks, run.frame_size) if run.frame_size
                 else run.inputs.frame_sizes)
        # one masks pass finds the first mask of each unsized video and,
        # when a length is missing, every mask's end (else it stops early)
        infer = any(v not in run.video_lengths for v in tracks)
        unsized = {v for v in tracks if v not in known}
        first_masks, mask_ends = {}, []
        if (infer or unsized) and run.inputs.masks:
            with closing(read_records(run.inputs.masks, "masks")) as masks:
                for mask in masks:
                    if infer:
                        mask_ends.append((mask.video_id, mask.frame + 1))
                    if mask.video_id in unsized:
                        unsized.discard(mask.video_id)
                        first_masks[mask.video_id] = (mask.width, mask.height)
                        if not (unsized or infer):
                            break
        if infer:
            annotations = run.annotations if run.inputs.annotations else ()
            run.video_lengths = infer_video_lengths(run.video_lengths, chain(
                track_ends(tracks), mask_ends,
                ((a.video_id, a.t1) for a in annotations)))
        for video_id in (v for v in tracks if v in unsized):
            logger.warning("no frame size for %r; assuming %s", video_id,
                           DEFAULT_FRAME_SIZE)
        sizes = {**dict.fromkeys(unsized, DEFAULT_FRAME_SIZE), **first_masks, **known}
        return (sum(len(t.boxes) for ts in tracks.values() for t in ts),
                {"propose": generate_proposals(tracks, run.video_lengths, sizes,
                                               config)})

    if stage == "track":
        tracked = greedy_iou_track(records, max_gap=config.s_det)
        return len(tracked), {"track": tracked}
    items = records if isinstance(records, CubeTable) else list(records)

    if stage == "assign-labels":
        labeled, stats = label_stage(items, run.annotations, config)
        return len(items), {
            "assign-labels": labeled,
            "label-stats": [ReportRecord("proposal_stats", stats)]}

    if stage == "filter":
        if not run.inputs.masks:
            raise ValueError("stage 'filter' needs a masks input")
        thresholds = load_thresholds(run.thresholds) if run.thresholds else None
        kept, report = filter_stage(items, read_records(run.inputs.masks, "masks"),
                                    config, thresholds)
        return len(items), {
            "filter": kept,
            "filter-thresholds": [ReportRecord("filter_thresholds", report)]}

    if stage == "score":
        weights = (load_fuse_weights(run.weights, config.activity_classes,
                                     len(run.scores)) if run.weights else None)
        return len(items), {"score": score_stage(items, config.activity_classes,
                                                 run.scores, weights)}

    if stage == "dedup":
        return len(items), {"dedup": deduplicate(items, config)}

    if stage == "merge-adjacent":
        return len(items), {
            "merge-adjacent": merge_adjacent(items, config.s_merg, config.l_merg)}

    # evaluate
    annotations = run.annotations
    proposals = (read_proposals(run.proposals, "proposals") if run.proposals
                 else CubeTable.from_records(()))
    ends = [(r.video_id, r.t1) for r in chain(annotations, items)]
    ends += zip(proposals.video_ids, proposals.t1)
    # in a run, only videos that no track named can still lack a length here
    run.video_lengths = infer_video_lengths(run.video_lengths, ends)
    unnamed = set(run.inputs.video_lengths).difference(v for v, _ in ends)
    if unnamed:
        logger.warning("explicit lengths for %s, which no evaluated record "
                       "names: their frames count as activity-free in every "
                       "false-alarm rate", ", ".join(sorted(unnamed)))
    curves, summary = evaluation_report(items, annotations, config,
                                        run.video_lengths, strict=run.strict)
    if run.proposals:
        summary["proposal_quality"] = proposal_quality(
            proposals, annotations, config, run.video_lengths)
    return len(items), {"det-curves": [curves[c] for c in sorted(curves)],
                        "evaluate": [ReportRecord("evaluation", summary)]}


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
    if not stage_list:
        raise ValueError("no stages to run")
    order = {name: i for i, name in enumerate(CANONICAL_STAGES)}
    unknown = [s for s in stage_list if s not in order]
    if unknown:
        raise ValueError(f"unknown stages: {unknown}")
    if [order[s] for s in stage_list] != sorted({order[s] for s in stage_list}):
        raise ValueError(f"stages must follow the chain order {CANONICAL_STAGES}, "
                         "each at most once")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = StageRun(config, inputs, scores, strict if strict is not None
                   else "merge-adjacent" in stage_list)

    # records written by one stage, by kind, kept until a stage takes them
    handoff: Dict[str, list] = {}
    outputs: Dict[str, Path] = {}
    timings: List[StageTiming] = []

    def emit(output: str, records: list) -> int:
        """Write one output file and hand its records on."""
        name, kind = OUTPUT_FILES[output]
        outputs[output] = out_dir / name
        handoff[kind] = records
        return write_records(records, outputs[output], kind)

    summary: Optional[dict] = None
    for stage in stage_list:
        kind = STAGE_INPUT[stage]
        if kind not in handoff and not (kind == "detections" and inputs.detections):
            raise ValueError(f"stage {stage!r} needs a {kind} input")
        # no name here holds a stage's input, so propose frees the detections
        # once it has their tracks
        records_in, stage_outputs = run_stage(
            stage, handoff.pop(kind) if kind in handoff
            else read_input(inputs.detections, kind), run)
        written = [emit(output, items) for output, items in stage_outputs.items()]
        if stage == "evaluate":
            summary = stage_outputs["evaluate"][0].data
        del stage_outputs
        start, clock = clock, time.perf_counter()
        timings.append(StageTiming(stage, clock - start, records_in, written[0]))

    result = PipelineResult(out_dir, timings, outputs, summary,
                            sum(run.video_lengths.values()), config.video_fps)
    emit("timing", [ReportRecord("timing", result.timing_report())])
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
            fh.write(_header(kind) + "\n")
        for spec in specs:
            scene = generate_scene(spec, config)
            lengths[spec.video_id] = spec.video_len
            sizes[spec.video_id] = spec.frame_size
            n_dets += len(scene.detections)
            for kind, fh in handles.items():
                fh.writelines(map(_formatter(kind), getattr(scene, kind)))

    inputs = PipelineInputs(**paths, video_lengths=lengths, frame_sizes=sizes)
    result = run_pipeline(config, inputs, out_dir / "run", stages=BENCH_STAGES)
    report = result.timing_report()
    report["n_detections"] = n_dets
    write_records([ReportRecord("bench", report)], out_dir / "bench.jsonl",
                  "reports")
    return result, report
