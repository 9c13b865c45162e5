"""Seeded corpus generation for the benchmark workloads.

Every corpus is built with the public ``actpipe.synth`` scene model and
written with ``actpipe.records.write_records``; the program under test only
ever sees the resulting record files. The same workload and seed always
give byte-identical files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from actpipe.config import PipelineConfig
from actpipe.geometry import BBox
from actpipe.records import write_records
from actpipe.synth import ActivitySpec, ObjectSpec, SceneSpec, generate_scene

INPUT_KINDS = (("detections", "detections.jsonl"),
               ("annotations", "annotations.jsonl"),
               ("masks", "masks.jsonl"))

# Shape of the `actpipe bench` corpus: 8 videos of 8 objects, half of them
# moving and carrying full-length activities, 480x270 masks. The self-test
# checks that this generator writes the files `actpipe bench` writes.
LONG_VIDEO_DETECTIONS = 12_288
LONG_VIDEO_CLASSES = ("walking", "driving", "loading")

CROWDED_CLASSES = ("carrying", "loading", "opening", "talking", "walking")


@dataclass(frozen=True)
class Workload:
    name: str
    object_classes: Tuple[str, ...]
    activity_classes: Tuple[str, ...]
    # "pipeline": one run_pipeline call; "cli": one cli.main call per stage
    interface: str
    stages: Tuple[str, ...]
    strict: bool
    # how a pass's time follows the calibration kernel's (calibrate.py)
    host_exponent: float
    scenes: int = 0


WORKLOADS: Dict[str, Workload] = {
    "long_video": Workload(
        "long_video", ("person", "vehicle"), LONG_VIDEO_CLASSES, "pipeline",
        ("propose", "assign-labels", "filter", "score", "dedup", "evaluate"),
        strict=False, host_exponent=0.55),
    "crowded_short": Workload(
        "crowded_short", ("person", "vehicle"), CROWDED_CLASSES, "pipeline",
        ("track", "propose", "assign-labels", "filter", "score", "dedup",
         "merge-adjacent", "evaluate"),
        strict=True, host_exponent=0.75, scenes=24),
    "staged_cli": Workload(
        "staged_cli", ("person", "vehicle"), CROWDED_CLASSES, "cli",
        ("track", "propose", "assign-labels", "filter", "score", "dedup",
         "merge-adjacent", "evaluate"),
        strict=True, host_exponent=0.75, scenes=8),
}


def config_for(workload: Workload) -> PipelineConfig:
    return PipelineConfig().with_classes(
        object_classes=workload.object_classes,
        activity_classes=workload.activity_classes)


def long_video_specs(config: PipelineConfig, n_detections: int,
                     seed: int) -> List[SceneSpec]:
    """Scene specs of the `actpipe bench` load of about ``n_detections``."""
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
            object_specs.append(ObjectSpec(
                object_class="person" if j % 2 == 0 else "vehicle",
                waypoints=((0, start), (video_len - 1, end)),
                foreground=moving))
            if moving:
                activities.append(ActivitySpec(
                    j, LONG_VIDEO_CLASSES[j % len(LONG_VIDEO_CLASSES)],
                    0, video_len))
        specs.append(SceneSpec(
            video_id=f"bench{v:02d}", video_len=video_len, width=width,
            height=height, objects=tuple(object_specs),
            activities=tuple(activities), jitter_sigma=1.0,
            seed=seed * 1000 + v))
    return specs


def crowded_specs(scenes: int, seed: int) -> List[SceneSpec]:
    """Short crowded scenes: ~20 objects, jitter and dropout, 5 classes.

    Detection dropout above the tracker's gap tolerance splits tracks, and
    activities cover only part of an object's lifetime.
    """
    video_len, width, height, objects = 256, 320, 180, 20
    rng = np.random.default_rng(seed)
    specs = []
    for v in range(scenes):
        object_specs = []
        activities = []
        for j in range(objects):
            w = float(rng.uniform(12, 32))
            h = float(rng.uniform(12, 32))
            lo = int(rng.integers(0, 96))
            hi = int(rng.integers(lo + 128, video_len))
            moving = rng.random() < 0.75
            frames = (lo, (lo + hi) // 2, hi)
            boxes = []
            x = float(rng.uniform(0, width - w - 1))
            y = float(rng.uniform(0, height - h - 1))
            for _ in frames:
                boxes.append(BBox(x, x + w, y, y + h))
                if moving:
                    x = float(np.clip(x + rng.uniform(-50, 50), 0, width - w - 1))
                    y = float(np.clip(y + rng.uniform(-25, 25), 0, height - h - 1))
            object_specs.append(ObjectSpec(
                object_class="person" if rng.random() < 0.6 else "vehicle",
                waypoints=tuple(zip(frames, boxes)), foreground=moving))
            if moving and rng.random() < 0.8:
                t0 = int(rng.integers(lo, hi - 48))
                t1 = int(rng.integers(t0 + 48, min(t0 + 160, hi + 1) + 1))
                activities.append(ActivitySpec(
                    j, CROWDED_CLASSES[int(rng.integers(len(CROWDED_CLASSES)))],
                    t0, t1))
        specs.append(SceneSpec(
            video_id=f"crowd{v:03d}", video_len=video_len, width=width,
            height=height, objects=tuple(object_specs),
            activities=tuple(activities), jitter_sigma=2.0, dropout=0.15,
            seed=seed * 1000 + v))
    return specs


def specs_for(workload: Workload, seed: int) -> List[SceneSpec]:
    config = config_for(workload)
    if workload.name == "long_video":
        return long_video_specs(config, LONG_VIDEO_DETECTIONS, seed)
    return crowded_specs(workload.scenes, seed)


@dataclass
class Corpus:
    """Input files plus the per-video facts the program is told."""

    directory: Path
    video_lengths: Dict[str, int]
    frame_sizes: Dict[str, Tuple[int, int]]
    generate_s: float

    def path(self, kind: str) -> Path:
        return self.directory / dict(INPUT_KINDS)[kind]

    @property
    def total_frames(self) -> int:
        return sum(self.video_lengths.values())


def write_corpus(workload: Workload, seed: int, directory: Path) -> Corpus:
    """Generate and write one workload's inputs; times synth plus writing."""
    directory.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    config = config_for(workload)
    specs = specs_for(workload, seed)
    scenes = [generate_scene(spec, config) for spec in specs]
    for kind, name in INPUT_KINDS:
        write_records((r for s in scenes for r in getattr(s, kind)),
                      directory / name, kind)
    elapsed = time.perf_counter() - start
    return Corpus(directory,
                  {s.video_id: s.video_len for s in specs},
                  {s.video_id: s.frame_size for s in specs},
                  elapsed)
