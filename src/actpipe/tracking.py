"""Baseline greedy IoU tracker for detections without track ids."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from .geometry import bbox_iou
from .records import DetectionRecord

__all__ = ["Track", "greedy_iou_track", "tracks_from_records"]

DEFAULT_IOU_GATE = 0.3


@dataclass(eq=False)
class Track:
    """Per-frame boxes of one tracked object; all boxes share one class.
    ``frames`` is sorted int64, ``boxes`` the matching (N, 4) float64 rows."""

    track_id: int
    object_class: str
    frames: np.ndarray
    boxes: np.ndarray


class _LiveTrack:
    __slots__ = ("track_id", "object_class", "last_frame", "last_box")

    def __init__(self, track_id: int, det: DetectionRecord):
        self.track_id = track_id
        self.object_class = det.object_class
        self.last_frame = det.frame
        self.last_box = det.bbox

    def advance(self, det: DetectionRecord) -> None:
        self.last_frame = det.frame
        self.last_box = det.bbox


def _track_one_video(detections: List[DetectionRecord], iou_gate: float,
                     max_gap: int) -> List[DetectionRecord]:
    frames: Dict[int, List[DetectionRecord]] = {}
    for det in detections:
        frames.setdefault(det.frame, []).append(det)

    live: List[_LiveTrack] = []
    next_id = 1
    out: List[DetectionRecord] = []
    for frame in sorted(frames):
        dets = frames[frame]
        live = [t for t in live if frame - t.last_frame <= max_gap]

        # confidence rank within the frame breaks IoU ties deterministically
        ranked = sorted(
            range(len(dets)),
            key=lambda i: (-dets[i].confidence, dets[i].bbox.x0, dets[i].bbox.y0, i),
        )
        rank_of = {det_i: r for r, det_i in enumerate(ranked)}

        candidates = []
        for det_i, det in enumerate(dets):
            for track in live:
                if track.object_class != det.object_class:
                    continue
                iou = bbox_iou(track.last_box, det.bbox)
                if iou >= iou_gate:
                    candidates.append((-iou, rank_of[det_i], det.bbox.x0,
                                       track.track_id, det_i, track))
        candidates.sort(key=lambda c: c[:4])

        assigned: Dict[int, int] = {}
        used_tracks = set()
        for _, _, _, _, det_i, track in candidates:
            if det_i in assigned or track.track_id in used_tracks:
                continue
            assigned[det_i] = track.track_id
            used_tracks.add(track.track_id)
            track.advance(dets[det_i])

        for det_i, det in enumerate(dets):
            if det_i not in assigned:
                track = _LiveTrack(next_id, det)
                next_id += 1
                live.append(track)
                assigned[det_i] = track.track_id
            out.append(
                DetectionRecord(det.video_id, det.frame, det.object_class,
                                det.bbox, det.confidence, assigned[det_i])
            )
    return out


def greedy_iou_track(detections: Iterable[DetectionRecord],
                     iou_gate: float = DEFAULT_IOU_GATE,
                     max_gap: int = 8) -> List[DetectionRecord]:
    """Assign track ids per video by greedy same-class IoU matching.

    Per frame, detections match live tracks in descending IoU order; pairs
    below the gate start new tracks; tracks unseen for more than ``max_gap``
    frames are closed. Ids are dense positive integers per video. Existing
    ids on the input are ignored and reassigned.
    """
    by_video: Dict[str, List[DetectionRecord]] = {}
    order: List[str] = []
    for det in detections:
        if det.video_id not in by_video:
            by_video[det.video_id] = []
            order.append(det.video_id)
        by_video[det.video_id].append(det)
    out: List[DetectionRecord] = []
    for video_id in order:
        out.extend(_track_one_video(by_video[video_id], iou_gate, max_gap))
    return out


def tracks_from_records(detections: Iterable[DetectionRecord],
                        max_gap: Optional[int] = None) -> Dict[str, List[Track]]:
    """Group detections carrying track ids into per-video Track lists.

    A track id spanning two object classes is an error. When ``max_gap`` is
    given, frame gaps beyond it split the track and the later part gets a
    fresh id past the video's maximum.
    """
    # per video: track id -> object class, then flat id, frame and box columns
    per_video: Dict[str, tuple] = {}
    for det in detections:
        if det.track_id is None:
            raise ValueError(
                f"detection at {det.video_id}:{det.frame} has no track id; "
                "run the tracker first"
            )
        entry = per_video.get(det.video_id)
        if entry is None:
            entry = per_video[det.video_id] = ({}, [], [], [])
        classes, ids, frames, boxes = entry
        object_class = classes.setdefault(det.track_id, det.object_class)
        if object_class != det.object_class:
            raise ValueError(
                f"track {det.track_id} in video {det.video_id!r} spans classes "
                f"{object_class!r} and {det.object_class!r}"
            )
        b = det.bbox
        ids.append(det.track_id)
        frames.append(det.frame)
        boxes.append((b.x0, b.x1, b.y0, b.y1))

    out: Dict[str, List[Track]] = {}
    for video_id, (classes, ids, frames, boxes) in per_video.items():
        # one sort by (track id, frame) for every track of the video
        ids, frames = np.array(ids, dtype=np.int64), np.array(frames, dtype=np.int64)
        order = np.lexsort((frames, ids))
        ids, frames = ids[order], frames[order]
        boxes = np.array(boxes, dtype=np.float64)[order]
        new_id = np.diff(ids) != 0
        repeated = np.flatnonzero(~new_id & (np.diff(frames) == 0))
        if repeated.size:
            k = repeated[0]
            raise ValueError(f"track {ids[k]} in video {video_id!r} has two "
                             f"boxes on frame {frames[k]}")
        starts = np.flatnonzero(np.r_[True, new_id]).tolist()
        tracks = [Track(tid, classes[tid], frames[a:b], boxes[a:b]) for tid, a, b
                  in zip(ids[starts].tolist(), starts, starts[1:] + [len(ids)])]
        if max_gap is not None:
            tracks = _split_gaps(tracks, max_gap)
        out[video_id] = tracks
    return out


def _split_gaps(tracks: List[Track], max_gap: int) -> List[Track]:
    next_id = max((t.track_id for t in tracks), default=0) + 1
    out: List[Track] = []
    for track in tracks:
        cuts = np.flatnonzero(np.diff(track.frames) > max_gap) + 1
        pieces = zip(np.split(track.frames, cuts), np.split(track.boxes, cuts))
        frames, boxes = next(pieces)
        out.append(Track(track.track_id, track.object_class, frames, boxes))
        for frames, boxes in pieces:
            out.append(Track(next_id, track.object_class, frames, boxes))
            next_id += 1
    return out
