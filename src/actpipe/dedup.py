"""Deduplication of overlapping scored cubes into non-overlapping instances.

Overlapping proposals would flood the output with duplicate predictions.
Per activity class and seed track, the three-step procedure:

1. split the overlapping duration-D cubes into duration-S segments, each
   scoring the mean of its covering cubes and boxed by their intersection
   (a cube covers every grid segment fully inside it, so end-anchored
   windows off the grid fold onto the grid);
2. merge the segments back into D/S candidate groups of duration-D cubes
   (one group per grid phase), each merged cube averaging its segments and
   taking the union of their boxes;
3. select the group holding the globally maximal score.

One body, :func:`deduplicate_subsets`, serves the dedup stage (through
:func:`deduplicate`) and all proposal-quality level subsets in one call.

A class scoring 0 on every cube of a partition is skipped. That is exact:
scores lie in [0, 1], every segment or merged score is a mean of member
scores, so all of them are 0, and only instances scoring above 0 are
emitted.

Every group blends information from all overlapping classifications, so the
winner keeps the evidence of the whole run. Adjacent high-confidence
instances are merged afterwards for the strict setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .geometry import BBox, bbox_intersection, bbox_union, box_ious
from .records import ActivityInstance, CubeTable, ScoredCube

__all__ = [
    "SegmentCube",
    "split_segments",
    "merge_groups",
    "select_group",
    "deduplicate",
    "deduplicate_subsets",
    "merge_adjacent",
]

CHAIN_IOU = 0.5


@dataclass(frozen=True)
class SegmentCube:
    """A single-class scored cube used inside the dedup pipeline."""

    t0: int
    t1: int
    score: float
    bbox: BBox

    def __post_init__(self):
        if self.t0 >= self.t1:
            raise ValueError(f"bad segment window [{self.t0}, {self.t1})")


def _runs(items: Sequence, period: int = 0, phase: int = 0) -> Iterator[list]:
    """The maximal runs of ``items`` (sorted by time, none overlapping) in
    which each item begins where the one before it ends. A gap begins a new
    run, and so does, given a ``period``, an item whose ``t0`` is ``phase``
    modulo it."""
    run: list = []
    for item in items:
        if run and (item.t0 != run[-1].t1 or period and (item.t0 - phase) % period == 0):
            yield run
            run = []
        run.append(item)
    if run:
        yield run


def _union(run: Sequence) -> BBox:
    """The union of a run's boxes, folded from left to right."""
    bbox = run[0].bbox
    for item in run[1:]:
        bbox = bbox_union(bbox, item.bbox)
    return bbox


def split_segments(cubes: Sequence[SegmentCube], d_prop: int,
                   s_prop: int) -> List[SegmentCube]:
    """Split overlapping cubes into duration-``s_prop`` segment cubes.

    A cube covers every grid segment fully inside it, so an end-anchored
    window off the grid folds onto its contained segments. Each covered
    segment scores the arithmetic mean of its covering cubes and takes the
    intersection of their boxes; an empty intersection falls back to the
    temporally nearest cube's box.
    """
    if d_prop % s_prop != 0:
        raise ValueError(f"d_prop={d_prop} not divisible by s_prop={s_prop}")
    covering: Dict[int, List[SegmentCube]] = {}
    for cube in cubes:
        for seg in range(-(-cube.t0 // s_prop), cube.t1 // s_prop):
            covering.setdefault(seg, []).append(cube)

    out = []
    for seg in sorted(covering):
        group = covering[seg]
        score = sum(c.score for c in group) / len(group)
        bbox = group[0].bbox
        for cube in group[1:]:
            if bbox is None:
                break
            bbox = bbox_intersection(bbox, cube.bbox)
        if bbox is None:
            center = (seg + 0.5) * s_prop
            nearest = min(group,
                          key=lambda c: (abs((c.t0 + c.t1) / 2 - center), c.t0))
            bbox = nearest.bbox
        out.append(SegmentCube(seg * s_prop, (seg + 1) * s_prop, score, bbox))
    return out


def merge_groups(segments: Sequence[SegmentCube], d_prop: int,
                 s_prop: int) -> List[List[SegmentCube]]:
    """Re-merge segment cubes into D/S groups of non-overlapping cubes.

    Group g tiles runs of D/S consecutive segments starting at segment
    index g. Partial runs merge the segments they have; runs broken by
    uncovered segments emit one cube per contiguous piece. Merged cubes
    average their segments' scores and union their boxes.
    """
    if d_prop % s_prop != 0:
        raise ValueError(f"d_prop={d_prop} not divisible by s_prop={s_prop}")
    r = d_prop // s_prop
    by_index: Dict[int, SegmentCube] = {}
    for seg in segments:
        if seg.t1 - seg.t0 != s_prop or seg.t0 % s_prop != 0:
            raise ValueError(
                f"segment [{seg.t0}, {seg.t1}) is not a stride-{s_prop} cell"
            )
        index = seg.t0 // s_prop
        if index in by_index:
            raise ValueError(f"duplicate segment at index {index}")
        by_index[index] = seg

    segments = [by_index[index] for index in sorted(by_index)]
    groups = []
    for g in range(r):
        runs = _runs([s for s in segments if s.t0 >= g * s_prop], d_prop, g * s_prop)
        groups.append([SegmentCube(run[0].t0, run[-1].t1,
                                   sum(s.score for s in run) / len(run), _union(run))
                       for run in runs])
    return groups


def select_group(groups: Sequence[Sequence[SegmentCube]]) -> List[SegmentCube]:
    """The group containing the globally maximal score; ties pick the
    lowest group offset."""
    if not groups:
        raise ValueError("no groups to select from")
    best = max((cube.score for group in groups for cube in group), default=None)
    if best is None:
        return []
    for group in groups:
        if any(cube.score == best for cube in group):
            return list(group)
    raise AssertionError("unreachable")


def _chain_partitions(table: CubeTable, rows: List[int]) -> Dict[int, List[int]]:
    """Spatial IoU chains of the table's seedless ``rows``, under negative
    ids so they never collide with tracker output."""
    partitions: Dict[int, List[int]] = {}
    rows = np.array(rows, dtype=np.intp)
    boxes = table.boxes[rows]
    order = np.lexsort((rows, boxes[:, 2], boxes[:, 0], [table.t0[i] for i in rows]))
    last_boxes = np.empty_like(boxes)  # the first n rows are the chains' last boxes
    n = 0
    for i, row in zip(rows[order].tolist(), boxes[order]):
        # the first chain whose last box overlaps enough, else a new one
        hits = np.flatnonzero(box_ious(row, last_boxes[:n]) >= CHAIN_IOU)
        c = int(hits[0]) if hits.size else n
        n = max(n, c + 1)
        last_boxes[c] = row
        partitions.setdefault(-(c + 1), []).append(i)
    return partitions


def _iter_partitions(table: CubeTable, ids: Iterable[int]
                     ) -> Iterator[Tuple[str, int, Tuple[int, ...]]]:
    """(video, partition id, member rows) per partition of the table's rows
    at ascending ``ids``, both ids in sorted order; seedless cubes go to
    negative-id spatial chains."""
    by_video: Dict[str, List[int]] = {}
    for i in ids:
        by_video.setdefault(table.video_ids[i], []).append(i)
    seeds = table.seed_tracks
    for video_id in sorted(by_video):
        tracked: Dict[int, List[int]] = {}
        for i in by_video[video_id]:
            tracked.setdefault(seeds[i], []).append(i)
        seedless = tracked.pop(None, None)
        if seedless:
            tracked.update(_chain_partitions(table, seedless))
        for partition_id in sorted(tracked):
            yield video_id, partition_id, tuple(tracked[partition_id])


def _partition_instances(video_id: str, partition_id: int, table: CubeTable,
                         members: Sequence[int],
                         config: PipelineConfig) -> List[ActivityInstance]:
    """One partition's instances: split/merge/select per non-zero class."""
    members = sorted(members, key=lambda i: (table.t0[i], table.t1[i]))
    t0, t1 = [table.t0[i] for i in members], [table.t1[i] for i in members]
    overlapping = any(map(gt, t1, t0[1:]))
    scores = table.scores[members]
    bboxes = None
    instances = []
    for class_idx, activity_class in enumerate(config.activity_classes):
        if not scores[:, class_idx].any():
            continue
        bboxes = bboxes or table.bboxes(members)
        run = list(map(SegmentCube, t0, t1, scores[:, class_idx].tolist(), bboxes))
        if overlapping:
            segments = split_segments(run, config.d_prop, config.s_prop)
            run = select_group(merge_groups(segments, config.d_prop,
                                            config.s_prop))
        instances += (ActivityInstance(video_id, activity_class, cube.t0,
                                       cube.t1, cube.bbox, cube.score,
                                       seed_track=partition_id)
                      for cube in run if cube.score > 0.0)
    return instances


def _instance_order(a: ActivityInstance) -> tuple:
    """Sort key of dedup and merge-adjacent output."""
    return (a.video_id, a.activity_class, a.t0, a.t1, a.seed_track or 0)


def _check_scores(table: CubeTable, classes: Sequence[str]) -> None:
    """Raise unless classes are set and every cube scores each class."""
    if not classes:
        raise ValueError("activity_classes must be configured for dedup")
    width = 0 if table.scores is None else table.scores.shape[1]
    if len(table) and width != len(classes):
        raise ValueError(f"score vector of length {width} for {table.keys()[0]}, "
                         f"expected {len(classes)}")


def deduplicate_subsets(scored_cubes: Sequence[ScoredCube],
                        subsets: Iterable[Iterable[int]],
                        config: PipelineConfig) -> List[List[ActivityInstance]]:
    """:func:`deduplicate` of each subset of ascending indices into
    ``scored_cubes`` (a scored :class:`CubeTable` or ScoredCubes). A
    partition recurring with the same members is deduplicated once, keyed by
    (video, partition id, member indices): the chain ids of seedless cubes
    can shift between subsets."""
    table = CubeTable.from_records(scored_cubes)
    _check_scores(table, config.activity_classes)
    done: Dict[tuple, List[ActivityInstance]] = {}
    out = []
    for subset in subsets:
        instances: List[ActivityInstance] = []
        for key in _iter_partitions(table, subset):
            if key not in done:
                done[key] = _partition_instances(*key[:2], table, key[2], config)
            instances += done[key]
        out.append(sorted(instances, key=_instance_order))
    return out


def deduplicate(scored_cubes: Sequence[ScoredCube],
                config: PipelineConfig) -> List[ActivityInstance]:
    """Run split/merge/select per (activity class, seed track) partition.

    Cubes without a track id are chained by spatial IoU instead and get
    negative partition ids. Partitions whose cubes are already pairwise
    non-overlapping have no duplicates to resolve and pass through
    unchanged, which makes deduplication idempotent. Only instances with a
    strictly positive score are emitted, so skipping all-zero classes is
    exact (see the module docstring).
    """
    return deduplicate_subsets(scored_cubes, [range(len(scored_cubes))],
                               config)[0]


def merge_adjacent(instances: Sequence[ActivityInstance], s_merg: float,
                   l_merg: int) -> List[ActivityInstance]:
    """Merge abutting high-confidence instances for the strict setting.

    Within each (video, class, track) partition, maximal runs of temporally
    abutting instances all scoring strictly above ``s_merg`` merge into one
    instance (window hull, box union, duration-weighted mean score, tube
    concatenated from the members). Merged instances no longer than
    ``l_merg`` are dropped, as is everything at or below the score bar.
    Overlapping input is an error.
    """
    partitions: Dict[tuple, List[ActivityInstance]] = {}
    for inst in instances:
        key = (inst.video_id, inst.activity_class, inst.seed_track)
        partitions.setdefault(key, []).append(inst)

    out: List[ActivityInstance] = []
    for key in sorted(partitions, key=lambda k: (k[0], k[1], k[2] or 0)):
        members = sorted(partitions[key], key=lambda a: a.t0)
        for prev, cur in zip(members, members[1:]):
            if cur.t0 < prev.t1:
                raise ValueError(
                    f"overlapping instances [{prev.t0}, {prev.t1}) and "
                    f"[{cur.t0}, {cur.t1}) in partition {key}"
                )
        high = [m for m in members if not m.score <= s_merg]  # NaN is not at the bar
        for run in _runs(high):
            t0, t1 = run[0].t0, run[-1].t1
            if t1 - t0 <= l_merg:
                continue
            weight = sum(m.t1 - m.t0 for m in run)
            score = sum(m.score * (m.t1 - m.t0) for m in run) / weight
            frames, boxes = zip(*(m.frame_boxes() for m in run))
            out.append(ActivityInstance(run[0].video_id, run[0].activity_class, t0, t1,
                                        _union(run), score, seed_track=run[0].seed_track,
                                        frames=np.concatenate(frames),
                                        boxes=np.concatenate(boxes)))
    out.sort(key=_instance_order)
    return out
