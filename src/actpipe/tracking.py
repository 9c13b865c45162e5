"""Baseline greedy IoU tracker for detections without track ids.

A live track's last box is the box of the detection that last extended
it, so every IoU the tracker asks for is between two same-class
detections at most ``max_gap`` frames apart. Per video, one band of such
(later, earlier) pairs gets its IoUs from the geometry kernel, one call
per bounded block of pair rows, and pairs under the gate drop out. Frames
then run in order: a pair is live while its earlier detection is still
its track's last one, and the live pairs are taken greedily, best IoU
first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterable, List

import numpy as np

from .geometry import IOU_BLOCK_ELEMENTS, box_ious
from .records import DetectionBatch, Detections

__all__ = ["Track", "greedy_iou_track", "tracks_from_records"]

IOU_GATE = 0.3


@dataclass(eq=False)
class Track:
    """Per-frame boxes of one tracked object; all boxes share one class.
    ``frames`` is sorted int64, ``boxes`` the matching (N, 4) float64 rows."""

    track_id: int
    object_class: str
    frames: np.ndarray
    boxes: np.ndarray


def _track_one_video(batch: DetectionBatch, max_gap: int) -> DetectionBatch:
    n, frames = len(batch.frames), batch.frames
    # by frame, then confidence rank: ties by x0, y0 and input order; frames
    # never decrease, so the detection at position p is on frames[p]
    ranked = np.lexsort((batch.boxes[:, 2], batch.boxes[:, 0], -batch.confidences, frames))
    _, classes = np.unique(batch.classes, return_inverse=True)
    rows, classes = batch.boxes[ranked], classes[ranked]
    # the band: position p against the positions lo[p]..first[p] - 1 of the
    # max_gap frames before its own, in blocks of later positions [a, b)
    lo, first = np.searchsorted(frames, frames - max_gap), np.searchsorted(frames, frames)
    counts = first - lo
    ends = np.cumsum(counts)
    before = ends - counts  # pairs of the positions before p
    pairs, a = [], 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(ends, before[a] + IOU_BLOCK_ELEMENTS // 8, "right")))
        later = np.repeat(np.arange(a, b), counts[a:b])
        earlier = np.arange(before[a], ends[b - 1]) + np.repeat((lo - before)[a:b], counts[a:b])
        same = classes[later] == classes[earlier]
        later, earlier = later[same], earlier[same]
        iou = box_ious(rows[later], rows[earlier])
        gated = iou >= IOU_GATE
        pairs.append((frames[later[gated]], -iou[gated], later[gated], earlier[gated]))
        a = b
    # a track's key is its first detection's input index, ordered as its id;
    # a pair is live while its earlier detection is its track's last one
    key, went_on = ranked.tolist(), [False] * n
    for _, block in groupby(zip(*(np.concatenate(c).tolist() for c in zip(*pairs))),
                            itemgetter(0)):
        taken, used = set(), set()
        # greedy over the live pairs by (-IoU, rank, track id)
        for _, p, t, q in sorted((d, p, key[q], q) for _, d, p, q in block if not went_on[q]):
            if p not in taken and t not in used:
                taken.add(p)
                used.add(t)
                key[p], went_on[q] = t, True
    # unmatched detections open tracks in input order
    ids = np.empty(n, dtype=np.int64)
    ids[ranked] = key
    return replace(batch, track_ids=np.cumsum(ids == np.arange(n))[ids])


def greedy_iou_track(detections: Iterable, max_gap: int) -> Detections:
    """Assign track ids per video by greedy same-class IoU matching.

    Per frame, detections match live tracks in descending IoU order; pairs
    below :data:`IOU_GATE` start new tracks; tracks unseen for more than
    ``max_gap`` frames (``s_det`` in the pipeline) are closed. Ids are
    dense positive integers per video. Existing ids on the input are
    ignored and reassigned. Takes and gives :class:`Detections` (records
    are grouped as :meth:`Detections.from_records` does); rows keep order.
    """
    if max_gap < 0:
        raise ValueError(f"max_gap={max_gap} must be >= 0")
    detections = Detections.from_records(detections)
    return Detections([_track_one_video(b, max_gap) for b in detections.videos],
                      detections.source)


def tracks_from_records(detections: Iterable) -> Dict[str, List[Track]]:
    """Group detections carrying track ids into per-video Track lists.

    A detection without a track id, a track id spanning two object classes,
    or one with two boxes on one frame is an error naming its line.
    """
    detections = Detections.from_records(detections)
    out: Dict[str, List[Track]] = {}
    for b in detections.videos:
        missing = np.flatnonzero(b.track_ids < 0)
        if missing.size:
            k = missing[0]
            raise ValueError(f"{detections.source}:{b.lines[k]}: detection at "
                             f"{b.video_id}:{b.frames[k]} has no track id; "
                             "run the tracker first")
        names, classes = np.unique(b.classes, return_inverse=True)
        names = names.tolist()
        # one sort by (track id, frame) for every track of the video; each
        # track's rows keep file order, so its first class change is the
        # first row off its class
        order = np.lexsort((b.frames, b.track_ids))
        ids, frames, classes = b.track_ids[order], b.frames[order], classes[order]
        same_id = np.diff(ids) == 0
        changed = np.flatnonzero(same_id & (np.diff(classes) != 0)) + 1
        if changed.size:
            k = changed[np.argmin(order[changed])]
            raise ValueError(f"{detections.source}:{b.lines[order[k]]}: track {ids[k]} "
                             f"in video {b.video_id!r} spans classes "
                             f"{names[classes[k - 1]]!r} and {names[classes[k]]!r}")
        repeated = np.flatnonzero(same_id & (np.diff(frames) == 0)) + 1
        if repeated.size:
            k = repeated[0]
            raise ValueError(f"{detections.source}:{b.lines[order[k]]}: track {ids[k]} "
                             f"in video {b.video_id!r} has two boxes on frame {frames[k]}")
        starts = np.flatnonzero(np.r_[True, ~same_id])
        boxes, bounds = b.boxes[order], [*starts.tolist(), len(ids)]
        out[b.video_id] = [
            Track(tid, names[classes[a]], frames[a:e], boxes[a:e]) for tid, a, e
            in zip(ids[starts].tolist(), bounds, bounds[1:])]
    return out
