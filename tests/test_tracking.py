import itertools

import pytest

from actpipe.geometry import BBox
from actpipe.records import DetectionRecord
from actpipe.tracking import greedy_iou_track, tracks_from_records
from helpers import ref_bbox_iou


def det(video, frame, box, cls="person", conf=0.9, track=None):
    return DetectionRecord(video, frame, cls, box, conf, track)


def grouping(detections):
    """Frozenset of frame sets per track id, for order-free comparison."""
    groups = {}
    for d in detections:
        groups.setdefault(d.track_id, set()).add((d.frame, d.bbox))
    return frozenset(frozenset(v) for v in groups.values())


def brute_force_track(detections, iou_gate, max_gap):
    """Oracle: per frame, the assignment of detections to live tracks that
    maximizes total IoU (exhaustive over permutations)."""
    frames = {}
    for d in detections:
        frames.setdefault(d.frame, []).append(d)
    tracks = {}  # id -> (class, last_frame, last_box, members)
    next_id = 1
    for frame in sorted(frames):
        dets = frames[frame]
        live = [tid for tid, (_, lf, _, _) in tracks.items()
                if frame - lf <= max_gap]
        best_total, best_assign = -1.0, {}
        slots = live + [None] * len(dets)
        for perm in itertools.permutations(slots, len(dets)):
            if len([t for t in perm if t is not None]) != len(set(t for t in perm if t is not None)):
                continue
            total, assign = 0.0, {}
            ok = True
            for i, tid in enumerate(perm):
                if tid is None:
                    continue
                cls, _, box, _ = tracks[tid]
                if cls != dets[i].object_class:
                    ok = False
                    break
                iou = ref_bbox_iou(box, dets[i].bbox)
                if iou < iou_gate:
                    ok = False
                    break
                total += iou
                assign[i] = tid
            if ok and total > best_total:
                best_total, best_assign = total, assign
        for i, d in enumerate(dets):
            tid = best_assign.get(i)
            if tid is None:
                tid = next_id
                next_id += 1
                tracks[tid] = (d.object_class, frame, d.bbox, [])
            cls, _, _, members = tracks[tid]
            members.append((d.frame, d.bbox))
            tracks[tid] = (cls, frame, d.bbox, members)
    return frozenset(frozenset(m) for _, _, _, m in tracks.values())


class TestGreedyTracker:
    def test_stationary_box_single_track(self):
        box = BBox(10, 20, 10, 20)
        dets = [det("v", f, box) for f in range(10)]
        out = greedy_iou_track(dets, max_gap=1)
        assert {d.track_id for d in out} == {1}
        assert len(out) == 10

    def test_disjoint_boxes_never_swap(self):
        a, b = BBox(0, 10, 0, 10), BBox(100, 110, 0, 10)
        dets = []
        for f in range(10):
            dets.append(det("v", f, a, conf=0.9))
            dets.append(det("v", f, b, conf=0.8))
        out = greedy_iou_track(dets, max_gap=1)
        ids_a = {d.track_id for d in out if d.bbox == a}
        ids_b = {d.track_id for d in out if d.bbox == b}
        assert ids_a == {1} and ids_b == {2}

    def test_moving_box_matches_brute_force(self):
        # 5 px/frame drift on a 40 px box keeps IoU above the 0.3 gate
        dets = [det("v", f, BBox(5.0 * f, 5.0 * f + 40, 0, 40))
                for f in range(10)]
        out = greedy_iou_track(dets, max_gap=1)
        assert {d.track_id for d in out} == {1}
        oracle = brute_force_track(dets, 0.3, 1)
        assert grouping(out) == oracle

    def test_two_movers_match_brute_force(self):
        dets = []
        for f in range(10):
            dets.append(det("v", f, BBox(5.0 * f, 5.0 * f + 40, 0, 40),
                            conf=0.9))
            dets.append(det("v", f, BBox(200 - 5.0 * f, 240 - 5.0 * f, 50, 90),
                            conf=0.8))
        out = greedy_iou_track(dets, max_gap=1)
        assert grouping(out) == brute_force_track(dets, 0.3, 1)

    def test_class_mismatch_starts_new_track(self):
        box = BBox(0, 10, 0, 10)
        dets = [det("v", 0, box, cls="person"), det("v", 1, box, cls="vehicle")]
        out = greedy_iou_track(dets, max_gap=5)
        assert len({d.track_id for d in out}) == 2

    def test_gap_closes_track(self):
        box = BBox(0, 10, 0, 10)
        dets = [det("v", 0, box), det("v", 10, box)]
        assert len({d.track_id for d in greedy_iou_track(dets, max_gap=5)}) == 2
        assert len({d.track_id for d in greedy_iou_track(dets, max_gap=10)}) == 1

    def test_deterministic(self):
        dets = [det("v", f, BBox(3.0 * f, 3.0 * f + 30, 0, 30), conf=0.5)
                for f in range(20)]
        first = greedy_iou_track(dets, max_gap=8)
        second = greedy_iou_track(dets, max_gap=8)
        assert list(first) == list(second)

    def test_no_double_assignment_per_frame(self):
        box = BBox(0, 40, 0, 40)
        dets = [det("v", 0, box, conf=0.9), det("v", 0, box, conf=0.8),
                det("v", 1, box, conf=0.9), det("v", 1, box, conf=0.8)]
        out = greedy_iou_track(dets, max_gap=1)
        for frame in (0, 1):
            ids = [d.track_id for d in out if d.frame == frame]
            assert len(ids) == len(set(ids)) == 2

    def test_ids_dense_per_video(self):
        a, b = BBox(0, 10, 0, 10), BBox(50, 60, 0, 10)
        dets = [det("v1", 0, a), det("v1", 0, b), det("v2", 0, a)]
        out = greedy_iou_track(dets, max_gap=8)
        assert sorted(d.track_id for d in out if d.video_id == "v1") == [1, 2]
        assert [d.track_id for d in out if d.video_id == "v2"] == [1]


class TestTracksFromRecords:
    def test_empty(self):
        assert tracks_from_records([]) == {}

    def test_grouping(self):
        box = BBox(0, 10, 0, 10)
        dets = [det("v", f, box, track=tid) for tid in (1, 2) for f in (0, 8, 16)]
        dets.sort(key=lambda d: d.frame)
        tracks = tracks_from_records(dets)
        assert sorted(t.track_id for t in tracks["v"]) == [1, 2]
        assert all(len(t.boxes) == 3 for t in tracks["v"])

    def test_class_conflict_rejected(self):
        box = BBox(0, 10, 0, 10)
        dets = [det("v", 1, box, cls="person", track=7),
                det("v", 2, box, cls="vehicle", track=7)]
        with pytest.raises(ValueError, match="spans classes"):
            tracks_from_records(dets)

    def test_missing_id_rejected(self):
        with pytest.raises(ValueError, match="no track id"):
            tracks_from_records([det("v", 0, BBox(0, 1, 0, 1))])
