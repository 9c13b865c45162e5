"""The box overlap kernel, the tracker and the array-backed proposal,
labeling and tube steps against per-BBox references, label statistics,
dedup, proposal quality and DET curves against their plain sweeps,
every record kind's line against its dict through ``json.dumps``, and the
detection column reader against the record parser, errors included.

The references in ``helpers`` compute one ``BBox`` (or one pair of boxes)
at a time, as the steps did before boxes, tracks and tubes became arrays;
the label-statistics reference
counts outcome by outcome, the dedup reference runs every class of every
partition, the quality reference scores and deduplicates every level
afresh, and the DET reference walks predictions through per-video coverage
counters. Every comparison is exact: equal values and equal
``write_records`` bytes.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actpipe import evaluation
from actpipe.config import PipelineConfig
from actpipe.dedup import deduplicate, deduplicate_subsets, merge_adjacent
from actpipe.evaluation import DetCurve, DetPoint, det_curve, proposal_quality
from actpipe.geometry import BBox, Cube, box_areas, box_intersections, box_ious, \
    box_rows
from actpipe.labeling import (SAME_WINDOW_TIOU, assign_labels, gt_to_cubes,
                              proposal_stats, same_window_blocks, temporal_iou)
from actpipe.proposals import generate_video_proposals, sample_windows
from actpipe.tracking import IOU_GATE, greedy_iou_track
from actpipe.records import (RECORD_KINDS, ActivityAnnotation, ActivityInstance,
                             CubeTable, DetectionRecord, MaskFrame, RecordError,
                             ReportRecord, ScoredCube, _formatter, read_detections,
                             read_proposals, read_records, write_records)
from actpipe.scoring import fuse_scores, oracle_scores
from helpers import (block_tube_iou, make_track, ref_assign_labels, ref_bbox_iou,
                     ref_box_area, ref_coverage, ref_deduplicate, ref_det_curve,
                     ref_frame_boxes, ref_generate_video_proposals,
                     ref_greedy_iou_track, ref_intersection_area, ref_gt_to_cubes,
                     ref_fuse_scores, ref_map_3diou, ref_merge_adjacent,
                     ref_oracle_scores, ref_proposal_quality, ref_proposal_stats,
                     ref_record_line, ref_tube_iou_3d, tube_record)

# a few fixed boxes make exact IoU ties (and an IoU of exactly 0.5) likely
FIXED_BOXES = (BBox(0, 2, 0, 1), BBox(0, 1, 0, 1), BBox(1, 2, 0, 1),
               BBox(0, 2, 0, 2), BBox(-0.0, 4, 0, 4), BBox(0, 4, -0.0, 4),
               BBox(-3, -0.0, 0, 1), BBox(-2, 6, -0.0, 1.5))
# integer-typed, signed-zero and fractional coordinates
coords = st.one_of(st.integers(-4, 40),
                   st.sampled_from([0.0, -0.0, 0.1, 3.5, 7.25, 12.3, 33.125]))
extents = st.one_of(st.integers(1, 20), st.sampled_from([0.125, 0.5, 2.75, 9.9]))


@st.composite
def boxes(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.sampled_from(FIXED_BOXES))
    if kind == 1:
        x0, y0 = draw(coords), draw(coords)
        return BBox(x0, x0 + draw(extents), y0, y0 + draw(extents))
    # full-precision coordinates, where a change of operation order shows
    rnd = draw(st.randoms(use_true_random=False))
    x0, y0 = rnd.uniform(-4, 40), rnd.uniform(-4, 40)
    return BBox(x0, x0 + rnd.uniform(0.1, 20), y0, y0 + rnd.uniform(0.1, 20))


@st.composite
def box_picker(draw):
    """Per-frame boxes drawn from a small palette, so long tubes stay cheap."""
    palette = draw(st.lists(boxes(), min_size=1, max_size=4))
    rnd = draw(st.randoms(use_true_random=False))
    return lambda: rnd.choice(palette)


@st.composite
def tracks(draw, max_frame):
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True))
    out = []
    for track_id in ids:
        if draw(st.booleans()):
            start = draw(st.integers(0, max_frame))
            frames = range(start, draw(st.integers(start + 1, max_frame + 1)),
                           draw(st.integers(1, 8)))
        else:
            frames = draw(st.lists(st.integers(0, max_frame), min_size=1,
                                   max_size=12, unique=True))
        cls = draw(st.sampled_from(["person", "vehicle"]))
        pick = draw(box_picker())
        out.append(make_track(track_id, cls, {f: pick() for f in frames}))
    return out


# (d_prop, s_prop) pairs the config accepts
formats = st.sampled_from([(64, 16), (32, 8), (16, 16), (8, 4), (12, 4)])


def outcome(fn, *args):
    """Result of ``fn``, or the type of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


# removed when the interpreter exits
OUT_DIR = tempfile.TemporaryDirectory()


def written(records, kind):
    path = Path(OUT_DIR.name) / "out.jsonl"
    write_records(records, path, kind)
    return path.read_bytes()


@st.composite
def box_pairs(draw):
    """Two boxes, often in a named relation to each other."""
    a = draw(boxes())
    relation = draw(st.sampled_from(["any", "touch", "nested", "same", "apart"]))
    if relation == "any":
        return a, draw(boxes())
    w, h = a.x1 - a.x0, a.y1 - a.y0
    if relation == "touch":
        # shares an edge (or only a corner): zero-width overlap
        dy = draw(st.sampled_from([0.0, h]))
        return a, BBox(a.x1, a.x1 + draw(extents), a.y0 + dy, a.y1 + dy)
    if relation == "nested":
        return a, BBox(a.x0 + w / 4, a.x1 - w / 4, a.y0, a.y1 - h / 3)
    if relation == "same":
        return a, BBox(a.x0, a.x1, a.y0, a.y1)
    return a, BBox(a.x1 + 1, a.x1 + 1 + w, a.y1 + 2, a.y1 + 2 + h)


class TestBoxKernel:
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(box_pairs(), min_size=1, max_size=6))
    def test_equals_scalar_formulas(self, pairs):
        a = box_rows(p for p, _ in pairs)
        b = box_rows(q for _, q in pairs)
        assert box_areas(a).tolist() == [ref_box_area(p) for p, _ in pairs]
        # paired rows, and every pair in one broadcast block
        assert box_intersections(a, b).tolist() == [
            ref_intersection_area(p, q) for p, q in pairs]
        assert box_ious(a, b).tolist() == [ref_bbox_iou(p, q) for p, q in pairs]
        assert box_ious(a[:, None], b).tolist() == [
            [ref_bbox_iou(p, q) for _, q in pairs] for p, _ in pairs]
        assert box_ious(b[:, None], a).tolist() == [
            [ref_bbox_iou(q, p) for p, _ in pairs] for _, q in pairs]


# IoU with the first box: exactly IOU_GATE (3 / 10) for the next two, below
# it for the last
GATE_BOXES = (BBox(0, 10, 0, 1), BBox(0, 3, 0, 1), BBox(7, 10, 0, 1),
              BBox(7, 17, 0, 1))
# IoU 1 / 3 with the first box for the other two, whose x0 and y0 order
# them in opposite ways: the confidence rank's tie rule decides
RANK_BOXES = (BBox(0, 10, 0, 10), BBox(5, 15, 0, 10), BBox(0, 10, 5, 15))


@st.composite
def detection_sets(draw):
    """Detections of up to three videos, frames apart by 1, ``max_gap`` or
    ``max_gap + 1``, in an arbitrary input order, with confidence and IoU
    ties."""
    max_gap = draw(st.integers(1, 4))
    palette = draw(st.lists(st.one_of(st.sampled_from(GATE_BOXES + RANK_BOXES),
                                      boxes()), min_size=1, max_size=5))
    dets = []
    for video in draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                               max_size=3, unique=True)):
        frame = draw(st.integers(0, 3))
        for _ in range(draw(st.integers(1, 8))):
            for _ in range(draw(st.integers(1, 4))):
                dets.append(DetectionRecord(
                    video, frame, draw(st.sampled_from(["person", "vehicle"])),
                    draw(st.sampled_from(palette)),
                    draw(st.sampled_from([0.5, 0.9, 1.0])),
                    draw(st.one_of(st.none(), st.integers(1, 9)))))
            frame += draw(st.sampled_from([1, max_gap, max_gap + 1]))
    if draw(st.booleans()):
        dets = draw(st.permutations(dets))
    return dets, max_gap


class TestGreedyTracker:
    @settings(max_examples=300, deadline=None)
    @given(case=detection_sets())
    def test_matches_per_pair_reference(self, case):
        got, want = greedy_iou_track(*case), ref_greedy_iou_track(*case)
        assert list(got) == want
        assert written(got, "detections") == written(want, "detections")

    def test_gate_is_inclusive(self):
        first, at_gate = GATE_BOXES[0], GATE_BOXES[1]
        assert ref_bbox_iou(first, at_gate) == IOU_GATE
        dets = [DetectionRecord("v", 0, "person", first, 0.9),
                DetectionRecord("v", 1, "person", at_gate, 0.9),
                DetectionRecord("v", 2, "person", GATE_BOXES[3], 0.9)]
        got = greedy_iou_track(dets, max_gap=1)
        assert list(got) == ref_greedy_iou_track(dets, max_gap=1)
        assert [d.track_id for d in got] == [1, 1, 2]

    @pytest.mark.parametrize("conf, ids", [(0.9, [1, 2, 1]), (1.0, [1, 1, 2])])
    def test_rank_ties_break_by_x0_then_y0(self, conf, ids):
        # both later boxes overlap the first by 1 / 3: the more confident
        # takes the track, and at equal confidence the smaller x0
        track, right, below = RANK_BOXES
        dets = [DetectionRecord("v", 0, "person", track, 0.9),
                DetectionRecord("v", 1, "person", right, conf),
                DetectionRecord("v", 1, "person", below, 0.9)]
        got = greedy_iou_track(dets, max_gap=1)
        assert list(got) == ref_greedy_iou_track(dets, max_gap=1)
        assert [d.track_id for d in got] == ids


class TestProposals:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), video_len=st.integers(1, 200), fmt=formats,
           s_det=st.integers(1, 16), r_enl=st.sampled_from([0.0, 0.13]),
           classes=st.sampled_from([(), ("person",)]))
    def test_generate_video_proposals(self, data, video_len, fmt, s_det, r_enl,
                                      classes):
        # videos shorter than d_prop get one truncated window
        config = PipelineConfig(d_prop=fmt[0], s_prop=fmt[1], s_det=s_det,
                                r_enl=r_enl, object_classes=classes)
        ts = data.draw(tracks(max_frame=video_len + 8))
        args = ("v", ts, video_len, (48, 40), config)
        cubes = outcome(generate_video_proposals, *args)
        assert cubes == outcome(ref_generate_video_proposals, *args)
        if isinstance(cubes, list):
            assert written(cubes, "proposals") == written(
                ref_generate_video_proposals(*args), "proposals")


@st.composite
def annotations(draw):
    t0 = draw(st.integers(0, 50))
    t1 = t0 + draw(st.integers(1, 200))
    if draw(st.booleans()):
        frames = range(t0, t1)
    else:
        # sparse tubes leave windows empty and exercise the fallback
        frames = draw(st.lists(st.integers(t0, t1 - 1), min_size=1,
                               max_size=8, unique=True))
    pick = draw(box_picker())
    tube = tuple((f, pick()) for f in frames)
    return ActivityAnnotation(draw(st.sampled_from(["a", "b", "c"])),
                              draw(st.sampled_from(["walk", "ride"])), t0, t1,
                              tube)


class TestGtToCubes:
    @settings(max_examples=120, deadline=None)
    @given(ann=annotations(), fmt=formats)
    def test_matches_reference(self, ann, fmt):
        assert gt_to_cubes(ann, *fmt) == ref_gt_to_cubes(ann, *fmt)

    def test_fallback_tie_takes_earlier_frame(self):
        # window [16, 80) holds no tube frame; frames 8 and 88 are both 40
        # frames from its centre 48
        ann = ActivityAnnotation("v", "walk", 0, 160, ((8, BBox(0, 1, 0, 1)),
                                                       (88, BBox(5, 9, 5, 9))))
        cubes = gt_to_cubes(ann, 64, 16)
        assert cubes == ref_gt_to_cubes(ann, 64, 16)
        assert cubes[1].t0 == 16 and cubes[1].bbox == BBox(0, 1, 0, 1)

    def test_fallback_nearest_after_window(self):
        ann = ActivityAnnotation("v", "walk", 0, 160, ((8, BBox(0, 1, 0, 1)),
                                                       (86, BBox(5, 9, 5, 9))))
        cubes = gt_to_cubes(ann, 64, 16)
        assert cubes == ref_gt_to_cubes(ann, 64, 16)
        assert cubes[1].bbox == BBox(5, 9, 5, 9)


# windows whose temporal IoU with another is exactly 0.5: (0, 64) with
# (0, 32), and (16, 48) with (0, 64)
WINDOWS = ((0, 64), (16, 80), (32, 96), (0, 32), (16, 48), (64, 128))


@st.composite
def proposals(draw):
    out = []
    for seed in range(draw(st.integers(0, 14))):
        t0, t1 = draw(st.sampled_from(WINDOWS))
        out.append(Cube(draw(st.sampled_from(["a", "b"])), draw(boxes()), t0, t1,
                        seed_track=seed, object_class="person"))
    return out


@st.composite
def gt_cubes(draw):
    out = []
    for _ in range(draw(st.integers(0, 8))):
        t0, t1 = draw(st.sampled_from(WINDOWS))
        cls = draw(st.sampled_from(["walk", "ride", "sit"]))
        out.append(Cube(draw(st.sampled_from(["a", "b", "c"])), draw(boxes()),
                        t0, t1, labels={cls}))
    return out


thresholds = st.sampled_from([0.0, 0.2, 1 / 3, 0.5, 0.7])


class TestAssignLabels:
    @settings(max_examples=120, deadline=None)
    @given(props=proposals(), gts=gt_cubes(), a=thresholds, b=thresholds)
    def test_matches_reference(self, props, gts, a, b):
        s_low, s_high = min(a, b), max(a, b)
        got = assign_labels(props, gts, s_high, s_low)
        want = ref_assign_labels(props, gts, s_high, s_low)
        assert got == want
        assert written(got, "proposals") == written(want, "proposals")

    @pytest.mark.parametrize("s_low, s_high", [(0.5, 0.5), (0.0, 0.5)])
    def test_tie_and_equal_thresholds(self, s_low, s_high):
        # IoU with the GT box is 0.5 for the first two proposals, 1.0 for
        # the two identical ones and 0 for the last; the best GT match goes
        # to index 2
        gt = Cube("a", BBox(0, 1, 0, 1), 0, 64, labels={"walk"})
        props = [Cube("a", BBox(0, 2, 0, 1), 0, 64, seed_track=1),
                 Cube("a", BBox(0, 2, 0, 1), 0, 32, seed_track=2),
                 Cube("a", BBox(0, 1, 0, 1), 16, 48, seed_track=3),
                 Cube("a", BBox(0, 1, 0, 1), 0, 64, seed_track=4),
                 Cube("a", BBox(5, 6, 5, 6), 0, 64, seed_track=5)]
        got = assign_labels(props, [gt], s_high, s_low)
        assert got == ref_assign_labels(props, [gt], s_high, s_low)
        walk, negative = frozenset({"walk"}), frozenset()
        # s_low = 0: positive, negative and unassigned in one call
        assert [c.labels for c in got] == (
            [negative, negative, walk, walk, negative] if s_low == 0.5
            else [None, None, walk, walk, negative])
        assert [replace(c, labels=None) for c in got] == props

    @settings(max_examples=120, deadline=None)
    @given(props=proposals(), gts=gt_cubes())
    def test_blocks_pair_each_same_window_pair_once(self, props, gts):
        pairs = {}
        for p_idx, g_idx, iou, cov in same_window_blocks(props, gts):
            assert list(p_idx) == sorted(p_idx)
            for r, i in enumerate(p_idx.tolist()):
                for c, g in enumerate(g_idx.tolist()):
                    assert (i, g) not in pairs
                    pairs[(i, g)] = (iou[r, c], cov[r, c])
        want = {
            (i, g): (ref_bbox_iou(p.bbox, gt.bbox), ref_coverage(p.bbox, gt.bbox))
            for i, p in enumerate(props) for g, gt in enumerate(gts)
            if p.video_id == gt.video_id
            and temporal_iou((p.t0, p.t1), (gt.t0, gt.t1)) >= SAME_WINDOW_TIOU
        }
        assert pairs == want


label_sets = st.one_of(st.none(), st.frozensets(
    st.sampled_from(["walk", "ride", "sit", "carry", "talk"]), max_size=5))


class TestProposalStats:
    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(label_sets, max_size=30))
    def test_matches_reference(self, labels):
        cubes = [Cube("v", BBox(0, 1, 0, 1), 0, 8, labels=found) for found in labels]
        got, want = proposal_stats(cubes), ref_proposal_stats(cubes)
        assert list(got) == list(want)
        assert written([ReportRecord("proposal_stats", got)], "reports") == \
            written([ReportRecord("proposal_stats", want)], "reports")


@st.composite
def tube_maps(draw):
    """{frame: BBox} tubes: dense runs, sparse sets or one frame, some past
    frame 1024, where a set of frames no longer iterates in sorted order."""
    start = draw(st.sampled_from([0, 3, 40, 1000, 1024, 5000]))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        frames = range(start, start + draw(st.integers(1, 90)))
    elif kind == 1:
        frames = draw(st.lists(st.integers(start, start + 2100), min_size=1,
                               max_size=25, unique=True))
    else:
        frames = [start + draw(st.integers(0, 9))]
    pick = draw(box_picker())
    return {f: pick() for f in frames}


@st.composite
def tubeless_instances(draw):
    t0 = draw(st.sampled_from([0, 3, 40, 1000, 1024, 5000]))
    t1 = t0 + draw(st.integers(1, 90))
    return ActivityInstance("v", "walk", t0, t1, draw(boxes()), 0.5)


class TestTubeIou3d:
    @settings(max_examples=300, deadline=None)
    @given(a=tube_maps(), b=tube_maps())
    def test_matches_sorted_reference(self, a, b):
        assert block_tube_iou(tube_record(a), tube_record(b)) == \
            ref_tube_iou_3d(a, b)

    @settings(max_examples=150, deadline=None)
    @given(inst=tubeless_instances(), b=tube_maps())
    def test_tubeless_instance_matches_reference(self, inst, b):
        assert block_tube_iou(inst, tube_record(b)) == \
            ref_tube_iou_3d(ref_frame_boxes(inst), b)

    def test_high_frames_leave_set_order(self):
        box, other = BBox(0, 3.3, 0, 1.7), BBox(0.1, 2.9, 0.3, 1.9)
        a = {f: box for f in (5, 1024, 2049, 3000)}
        b = {f: other for f in (5, 1030, 2049)}
        # the case the sorted-order sum is for: set order is not frame order
        assert list(a.keys() | b.keys()) != sorted(a.keys() | b.keys())
        assert block_tube_iou(tube_record(a), tube_record(b)) == \
            ref_tube_iou_3d(a, b)


@st.composite
def map_corpora(draw):
    """Predictions and annotations over one to three videos and one or two
    classes, zero to four of each per (video, class): dense runs, runs with
    gaps and single frames, and static-box instances, all starting near
    each other so tubes touch, nest, overlap in part or miss."""
    pick = draw(box_picker())
    starts = st.sampled_from([0, 2, 5, 9, 30])

    def tube():
        start = draw(starts)
        kind = draw(st.integers(0, 2))
        if kind == 0:
            frames = range(start, start + draw(st.integers(1, 24)))
        elif kind == 1:
            frames = draw(st.sets(st.integers(start, start + 40), min_size=1,
                                  max_size=12))
        else:
            frames = [start]
        return sorted((f, pick()) for f in frames)

    predictions, annotations = [], []
    for video_id in ("v0", "v1", "v2")[:draw(st.integers(1, 3))]:
        for cls in ("walk", "ride")[:draw(st.integers(1, 2))]:
            for _ in range(draw(st.integers(0, 3))):
                pairs = tube()
                annotations.append(ActivityAnnotation(
                    video_id, cls, pairs[0][0], pairs[-1][0] + 1, pairs))
            for _ in range(draw(st.integers(0, 4))):
                score = draw(st.sampled_from([0.25, 0.5, 0.75]))
                if draw(st.booleans()):
                    t0 = draw(starts)
                    predictions.append(ActivityInstance(
                        video_id, cls, t0, t0 + draw(st.integers(1, 24)),
                        pick(), score))
                else:
                    pairs = tube()
                    predictions.append(ActivityInstance(
                        video_id, cls, pairs[0][0], pairs[-1][0] + 1, pick(),
                        score, tube=pairs))
    return predictions, annotations


class TestMap3dIou:
    @settings(max_examples=300, deadline=None)
    @given(corpus=map_corpora())
    def test_matches_per_pair_reference(self, corpus):
        predictions, annotations = corpus
        thresholds = (0.1, 0.25, 0.5, 1.0)
        got = evaluation.map_3diou(predictions, annotations, thresholds)
        want = ref_map_3diou(predictions, annotations, thresholds)
        assert got.ap == want.ap
        assert got.map_at == want.map_at
        assert got.mean == want.mean


@st.composite
def abutting_runs(draw):
    """One partition of abutting high-scoring instances, some with sparse
    tubes and some with only a box."""
    pick = draw(box_picker())
    t = draw(st.sampled_from([0, 7, 1020]))
    run = []
    for _ in range(draw(st.integers(1, 4))):
        t0, t1 = t, t + draw(st.integers(1, 70))
        tube = None
        if draw(st.booleans()):
            frames = draw(st.lists(st.integers(t0, t1 - 1), min_size=1,
                                   max_size=8, unique=True))
            tube = [(f, pick()) for f in frames]
        run.append(ActivityInstance("v", "walk", t0, t1, pick(),
                                    draw(st.sampled_from([0.6, 0.75, 0.9])),
                                    seed_track=3, tube=tube))
        t = t1
    return run


@st.composite
def merge_cases(draw):
    """Shuffled instances of a few (video, class, track) partitions, the
    score bar and the length bar. Each partition mixes runs that abut or
    gap, members above, at and below the bar, members exactly ``l_merg``
    long and, now and then, one overlapping its predecessor."""
    s_merg = draw(st.sampled_from([0.0, 0.5, 0.75]))
    l_merg = draw(st.sampled_from([0, 16, 40]))
    pick = draw(box_picker())
    scores = st.sampled_from([s_merg, s_merg, 0.0, 0.25, 0.3, 0.5, 0.75, 0.8, 0.9, 1.0])
    lengths = st.one_of(st.sampled_from([l_merg or 1, l_merg + 1]), st.integers(1, 50))
    steps = st.sampled_from([0, 0, 0, 1, 9, -1] if draw(st.booleans()) else [0, 0, 3])
    keys = st.tuples(st.sampled_from("vw"), st.sampled_from(["walk", "ride"]),
                     st.sampled_from([None, 0, 2, -1]))
    instances = []
    for video, activity, track in draw(st.lists(keys, min_size=1, max_size=4,
                                                unique=True)):
        t = draw(st.sampled_from([0, 7, 1020]))
        for i in range(draw(st.integers(1, 7))):
            t0 = t + draw(steps) if i else t
            t1 = t0 + draw(lengths)
            frames, boxes = draw(tubes(t0, t1))
            instances.append(ActivityInstance(video, activity, t0, t1, pick(),
                                              draw(scores), seed_track=track,
                                              frames=frames, boxes=boxes))
            t = t1
    return draw(st.permutations(instances)), s_merg, l_merg


def outcome_text(fn, *args):
    """Result of ``fn``, or the type and text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestMergeAdjacent:
    @settings(max_examples=150, deadline=None)
    @given(run=abutting_runs())
    def test_tube_matches_per_frame_reference(self, run):
        (merged,) = merge_adjacent(run, s_merg=0.5, l_merg=0)
        pairs = [p for m in run for p in sorted(ref_frame_boxes(m).items())]
        expected = ActivityInstance("v", "walk", run[0].t0, run[-1].t1,
                                    merged.bbox, merged.score, seed_track=3,
                                    tube=pairs)
        assert merged == expected
        assert written([merged], "instances") == written([expected], "instances")

    @settings(max_examples=300, deadline=None)
    @given(case=merge_cases())
    def test_matches_state_machine_reference(self, case):
        instances, s_merg, l_merg = case
        got, want = (outcome_text(fn, instances, s_merg, l_merg)
                     for fn in (merge_adjacent, ref_merge_adjacent))
        assert got == want  # instance equality compares the tube arrays
        if isinstance(want, list):
            assert written(got, "instances") == written(want, "instances")


DEDUP_CLASSES = ("walk", "ride", "sit")
# mostly zeros; repeated values make score ties across groups likely
dedup_scores = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 0.3])


@st.composite
def scored_partitions(draw):
    """Config plus scored cubes: overlapping runs (with the end-anchored
    off-grid window when the video length is off the grid), non-overlapping
    runs and scattered windows, tracked or seedless, with all-zero classes
    and classes scoring in only one cube."""
    d_prop, s_prop = draw(formats)
    config = PipelineConfig(d_prop=d_prop, s_prop=s_prop,
                            activity_classes=DEDUP_CLASSES)
    windows = sample_windows(draw(st.integers(1, 5 * d_prop)), d_prop, s_prop)
    cubes = []
    for video in draw(st.lists(st.sampled_from(["a", "b"]), min_size=1,
                               max_size=2, unique=True)):
        for _ in range(draw(st.integers(0, 4))):
            track = draw(st.sampled_from([None, None, 0, 1, 2, 7]))
            kind = draw(st.integers(0, 2))
            if kind == 0:
                picked = windows
            elif kind == 1:
                picked = windows[::d_prop // s_prop]
            else:
                picked = draw(st.lists(st.sampled_from(windows), min_size=1,
                                       max_size=6, unique=True))
            pick = draw(box_picker())
            zero = draw(st.sets(st.integers(0, 2), max_size=3))
            lone_class = draw(st.integers(-1, 2))
            lone_at = draw(st.integers(0, len(picked) - 1))
            for k, (t0, t1) in enumerate(picked):
                scores = [0.0 if c in zero else draw(dedup_scores)
                          for c in range(3)]
                if lone_class >= 0:
                    scores[lone_class] = 0.5 if k == lone_at else 0.0
                cubes.append(ScoredCube(
                    Cube(video, pick(), t0, t1, seed_track=track,
                         object_class="person"), scores))
    return config, draw(st.permutations(cubes))


def dedup_case(t0s, scores, d_prop=64, s_prop=16, track=1, boxes=None):
    """One partition, one cube per start frame; "walk" scores 0 on every
    cube and "ride" scores ``scores``."""
    config = PipelineConfig(d_prop=d_prop, s_prop=s_prop,
                            activity_classes=("walk", "ride"))
    boxes = boxes or [BBox(0, 10, 0, 10)] * len(t0s)
    return config, [ScoredCube(Cube("v", box, t0, t0 + d_prop,
                                    seed_track=track), (0.0, s))
                    for t0, s, box in zip(t0s, scores, boxes)]


P, Q = BBox(0, 10, 0, 10), BBox(20, 30, 20, 30)  # disjoint boxes


def batch_case(*parts):
    """Partitions of (video, track, windows, "ride" scores[, boxes]) cubes
    on the 64/16 grid; "walk" scores 0 on every cube."""
    config = PipelineConfig(d_prop=64, s_prop=16, activity_classes=("walk", "ride"))
    cubes = []
    for video, track, windows, scores, *boxes in parts:
        boxes = boxes[0] if boxes else [P] * len(windows)
        cubes += [ScoredCube(Cube(video, box, t0, t1, seed_track=track), (0.0, score))
                  for (t0, t1), score, box in zip(windows, scores, boxes)]
    return config, cubes


# FIRST covers grid segments 0-5 and NEXT segments 6-9: one run if not cut
FIRST = ((0, 64), (16, 80), (32, 96))
NEXT = ((96, 160), (112, 176))
BATCH_CASES = {
    "segments_continue_in_next_partition": batch_case(
        ("v", 1, FIRST, (0.3, 0.6, 0.9)), ("v", 2, NEXT, (0.8, 0.2))),
    "same_track_in_two_videos": batch_case(
        ("a", 1, FIRST, (0.3, 0.6, 0.9)), ("b", 1, NEXT, (0.8, 0.2))),
    "all_zero_partition_between": batch_case(
        ("v", 1, FIRST, (0.3, 0.6, 0.9)), ("v", 2, ((200, 264), (216, 280)), (0.0, 0.0)),
        ("v", 3, NEXT, (0.8, 0.2))),
    # the last segment of partition 1 (64-80) has disjoint boxes; falls back
    "empty_intersection_at_partition_edge": batch_case(
        ("v", 1, ((0, 64), (16, 80), (37, 80)), (0.5, 0.7, 0.9), (P, Q, P)),
        ("v", 2, ((80, 144), (96, 160)), (0.6, 0.4))),
}


class TestDeduplicate:
    @settings(max_examples=300, deadline=None)
    @given(case=scored_partitions())
    def test_matches_every_class_reference(self, case):
        config, cubes = case
        got = deduplicate(cubes, config)
        want = ref_deduplicate(cubes, config)
        assert got == want
        assert written(got, "instances") == written(want, "instances")

    @pytest.mark.parametrize("case", [
        # all-zero class next to a class scoring in one later cube only
        dedup_case([0, 16, 32, 48], [0.0, 0.0, 0.7, 0.0]),
        # the two phase groups tie on their best score
        dedup_case([0, 16, 32, 48], [0.5, 0.5, 0.5, 0.5]),
        # disjoint boxes: empty intersections fall back to the nearest cube
        dedup_case([0, 16], [0.3, 0.6],
                   boxes=[BBox(0, 5, 0, 5), BBox(20, 30, 20, 30)]),
        # non-overlapping partition: passes through unchanged
        dedup_case([0, 64, 128], [0.0, 0.4, 0.9]),
        # seedless cubes chained by IoU
        dedup_case([0, 16, 32], [0.0, 0.2, 0.0], track=None),
        # an off-grid end-anchored window
        dedup_case([0, 16, 37], [0.0, 0.0, 0.8]),
    ])
    def test_named_cases(self, case):
        config, cubes = case
        got = deduplicate(cubes, config)
        want = ref_deduplicate(cubes, config)
        assert got and got == want
        assert {a.activity_class for a in got} == {"ride"}
        assert written(got, "instances") == written(want, "instances")

    @pytest.mark.parametrize("case", BATCH_CASES.values(), ids=BATCH_CASES.keys())
    def test_batch_boundary_cases(self, case):
        # partitions meet in one array pass: runs end where a partition ends
        config, cubes = case
        got = deduplicate(cubes, config)
        want = ref_deduplicate(cubes, config)
        assert len({(a.video_id, a.seed_track) for a in got}) >= 2 and got == want
        assert written(got, "instances") == written(want, "instances")


@st.composite
def subset_cases(draw):
    """Scored cubes plus subsets of them: nested by a drawn level per cube,
    disjoint by a drawn group, arbitrary, repeated and empty, in any order."""
    config, cubes = draw(scored_partitions())
    n = len(cubes)
    levels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    groups = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    nested = [[i for i in range(n) if levels[i] >= k] for k in range(4)]
    disjoint = [[i for i in range(n) if groups[i] == g] for g in range(3)]
    arbitrary = draw(st.lists(st.sets(st.integers(0, max(n - 1, 0)))
                              .map(lambda s: sorted(i for i in s if i < n)),
                              max_size=3))
    subsets = nested + disjoint + arbitrary + [[], nested[1]]
    return config, cubes, draw(st.permutations(subsets))


def seedless_shift_case():
    """Seedless cube A sorts first and takes chain -1 while present; without
    it, B, unchanged, becomes chain -1 instead of -2."""
    config, cubes = dedup_case([0, 16], [0.4, 0.8], track=None,
                               boxes=[BBox(0, 10, 0, 10), BBox(40, 50, 0, 10)])
    return config, cubes, [[0, 1], [1], [0], [], [0, 1]]


def off_grid_case():
    """Nested subsets of a partition whose last window is end-anchored off
    the grid, so it folds onto its contained segments."""
    config, cubes = dedup_case([0, 16, 32, 37], [0.2, 0.9, 0.5, 0.7])
    return config, cubes, [[0, 1, 2, 3], [1, 2, 3], [2, 3], [3], [0, 3]]


class TestDeduplicateSubsets:
    def check(self, config, cubes, subsets):
        got = deduplicate_subsets(cubes, subsets, config)
        assert len(got) == len(subsets)
        for subset, instances in zip(subsets, got):
            want = ref_deduplicate([cubes[i] for i in subset], config)
            assert instances == want
            assert written(instances, "instances") == written(want, "instances")

    @settings(max_examples=300, deadline=None)
    @given(case=subset_cases())
    def test_each_subset_matches_reference(self, case):
        self.check(*case)

    @pytest.mark.parametrize("case", [seedless_shift_case(), off_grid_case()])
    def test_named_cases(self, case):
        self.check(*case)

    @pytest.mark.parametrize("case", BATCH_CASES.values(), ids=BATCH_CASES.keys())
    def test_batch_boundary_cases(self, case):
        config, cubes = case
        n = len(cubes)
        self.check(config, cubes, [range(n), range(1, n), range(n - 1), range(0, n, 2)])


QUALITY_CLASSES = ("walk", "ride")
GT_BOX = BBox(100, 160, 100, 160)
# shifts spread each proposal's IoU with GT_BOX over the quality levels
shifts = st.sampled_from([-70, -30, -12, -4, 0, 0, 4, 12, 30, 70])


@st.composite
def quality_inputs(draw):
    """Labeled proposals, tracked or seedless, whose IoU and coverage with
    the GT cubes vary, so partitions lose members from level to level."""
    annotations = []
    for video in ("a", "b"):
        for _ in range(draw(st.integers(0, 2))):
            t0 = draw(st.sampled_from([0, 16, 40]))
            t1 = min(192, t0 + draw(st.sampled_from([64, 100, 150])))
            annotations.append(ActivityAnnotation(
                video, draw(st.sampled_from(QUALITY_CLASSES)), t0, t1,
                ((t0, GT_BOX), (t1 - 1, GT_BOX))))
    proposals = []
    for _ in range(draw(st.integers(0, 24))):
        t0, t1 = draw(st.sampled_from(sample_windows(192, 64, 16)))
        dx, dy, grow = draw(shifts), draw(shifts), draw(st.sampled_from([0, 20]))
        box = BBox(GT_BOX.x0 + dx, GT_BOX.x1 + dx + grow, GT_BOX.y0 + dy,
                   GT_BOX.y1 + dy)
        labels = draw(st.sampled_from([(), (), ("walk",), ("ride",),
                                       ("walk", "ride")]))
        proposals.append(Cube(draw(st.sampled_from(["a", "b"])), box, t0, t1,
                              seed_track=draw(st.sampled_from([None, None, 1, 2])),
                              labels=frozenset(labels)))
    return proposals, annotations


def round_trip(report):
    return json.loads(json.dumps(report))


class TestProposalQuality:
    config = PipelineConfig(d_prop=64, s_prop=16,
                            activity_classes=QUALITY_CLASSES)
    lengths = {"a": 192, "b": 192}

    def check(self, proposals, annotations, monkeypatch):
        """Equal reports, and equal instances at every level."""
        seen = []
        det_curve = evaluation.det_curve

        def recording_det_curve(predictions, *args):
            seen.append(written(predictions, "instances"))
            return det_curve(predictions, *args)

        monkeypatch.setattr(evaluation, "det_curve", recording_det_curve)
        got = proposal_quality(proposals, annotations, self.config,
                               self.lengths)
        monkeypatch.undo()
        expected = []
        want = ref_proposal_quality(proposals, annotations, self.config,
                                    self.lengths, level_instances=expected)
        assert round_trip(got) == round_trip(want)
        assert seen == [written(i, "instances") for i in expected]

    @settings(max_examples=80, deadline=None)
    @given(case=quality_inputs())
    def test_matches_per_level_reference(self, case):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(*case, monkeypatch)

    def test_chain_ids_shift_between_levels(self, monkeypatch):
        # seedless A sorts before B and takes chain -1 until its low IoU
        # drops it; then B, unchanged, becomes chain -1 instead of -2
        gt = ActivityAnnotation("a", "walk", 0, 64,
                                ((0, GT_BOX), (63, GT_BOX)))
        far = BBox(GT_BOX.x0 - 40, GT_BOX.x1 - 40, GT_BOX.y0, GT_BOX.y1)
        proposals = [Cube("a", box, 0, 64, seed_track=None,
                          labels=frozenset({"walk"}))
                     for box in (far, GT_BOX)]
        self.check(proposals, [gt], monkeypatch)

    def test_partition_loses_members(self, monkeypatch):
        # one track whose off-centre cubes drop out at higher levels
        gt = ActivityAnnotation("a", "walk", 0, 128,
                                ((0, GT_BOX), (127, GT_BOX)))
        proposals = [Cube("a", BBox(GT_BOX.x0 + dx, GT_BOX.x1 + dx, GT_BOX.y0,
                                    GT_BOX.y1), t0, t0 + 64, seed_track=3,
                          labels=frozenset({"walk"}))
                     for t0, dx in zip(range(0, 80, 16), (0, 30, 0, 12, 40))]
        self.check(proposals, [gt], monkeypatch)


# a few scores so ties between predictions are common
SCORES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                   st.floats(0, 1))
DET_BOX = BBox(0, 10, 0, 10)


@st.composite
def det_inputs(draw):
    """Videos of different lengths with short windows that nest, overlap and
    share ends; "sit" is only predicted, and videos may lack a class's
    ground truth or be wholly positive."""
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    video_lengths = {f"v{i}": n for i, n in enumerate(lengths)}

    def window(video):
        t0 = draw(st.integers(0, video_lengths[video] - 1))
        return t0, draw(st.integers(t0 + 1, video_lengths[video]))

    videos = st.sampled_from(sorted(video_lengths))
    annotations = []
    for _ in range(draw(st.integers(0, 5))):
        video = draw(videos)
        annotations.append(ActivityAnnotation.with_static_box(
            video, draw(st.sampled_from(["walk", "ride"])), *window(video),
            DET_BOX))
    if draw(st.booleans()):
        # every frame of every video positive: no negative frames
        annotations += [ActivityAnnotation.with_static_box(v, "walk", 0, n, DET_BOX)
                        for v, n in video_lengths.items()]
    predictions = []
    for _ in range(draw(st.integers(0, 10))):
        if annotations and draw(st.booleans()):
            # on a ground-truth window, maybe of another class
            gt = draw(st.sampled_from(annotations))
            video, t0, t1 = gt.video_id, gt.t0, gt.t1
        else:
            video = draw(videos)
            t0, t1 = window(video)
        predictions.append(ActivityInstance(
            video, draw(st.sampled_from(["walk", "ride", "sit"])), t0, t1,
            DET_BOX, draw(SCORES), seed_track=1))
    # "jump" is configured but neither annotated nor predicted
    classes = draw(st.sampled_from([None, ("ride",),
                                    ("jump", "ride", "sit", "walk")]))
    return (predictions, annotations, video_lengths,
            draw(st.integers(0, 30)), classes)


class TestDetCurve:
    @settings(max_examples=300, deadline=None)
    @given(case=det_inputs())
    def test_matches_coverage_sweep_reference(self, case):
        got, want = det_curve(*case), ref_det_curve(*case)
        assert list(got) == list(want)
        assert got == want
        assert written([got[c] for c in got], "det-curves") == \
            written([want[c] for c in want], "det-curves")


# ---------------------------------------------------------------------------
# record lines: each kind's template against its dict through json.dumps

# floats whose shortest repr takes each form json.dumps writes, and ints
# past 2**63
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-7, 1e16, 1e22, 0.1, 1 / 3, 2.5, 123456789.125]
numbers = st.one_of(st.sampled_from(EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**70, 2**70))
unit_numbers = st.one_of(st.sampled_from([0, 1, 0.0, -0.0, 5e-324, 1e-7, 0.5, 1.0]),
                         st.floats(0, 1))
counts = st.one_of(st.integers(0, 2**70), st.sampled_from([0.0, 3.0, 1e16, 1e22]))
optional_counts = st.none() | st.integers(0, 2**70)
# quotes, backslashes, control characters, non-ASCII text and U+2028
names = st.one_of(st.sampled_from(["", "v", 'a"b', "c\\d", "\x00\x1f\n\t\x7f",
                                   "caf\u00e9 \u6f22", "\u2028\u2029", "\U0001f600"]),
                  st.text(max_size=8))
labels = st.none() | st.frozensets(names, max_size=3)


@st.composite
def record_boxes(draw):
    """Box coordinates of any numeric form, ints among them (written ``1``)."""
    x0, x1 = sorted(draw(st.lists(numbers, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(numbers, min_size=2, max_size=2, unique=True)))
    return BBox(x0, x1, y0, y1)


# tube rows: 0.0 and -0.0 are equal values but different row texts
TUBE_ROWS = [(0.0, 1.0, 0.0, 1.0), (-0.0, 1.0, 0.0, 1.0), (1, 2, 3, 4),
             (1e-7, 1e16, 5e-324, 1e22), (0.1, 1 / 3, 2.5, 7.75)]


@st.composite
def tubes(draw, t0, t1, optional=True):
    """``frames``/``boxes`` arrays in ``[t0, t1)``, or ``(None, None)`` when
    ``optional``: a single frame, all-distinct rows, one long run, or runs
    from a small palette, with run boundaries at the first and last frames."""
    shape = draw(st.sampled_from(["none"] * optional + [
        "single", "distinct", "one run", "first differs", "last differs", "runs"]))
    if shape == "none":
        return None, None
    n = 1 if shape == "single" else draw(st.integers(min(2, t1 - t0), min(40, t1 - t0)))
    frames = sorted(draw(st.lists(st.integers(t0, t1 - 1), min_size=n, max_size=n,
                                  unique=True)))
    if shape == "distinct":
        rows = [(f + 0.5, f + draw(st.sampled_from([1, 1.25, 3.75])), -0.0, 1 / 3)
                for f in frames]
        return np.array(frames), np.array(rows, dtype=np.float64)
    # runs of palette rows with random lengths; the palette's first two rows
    # differ only in the sign of zero
    runs = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 8)), min_size=1))
    pick = {"single": [0], "one run": [0] * n, "first differs": [1] + [0] * (n - 1),
            "last differs": [0] * (n - 1) + [1],
            "runs": ([i for i, length in runs for _ in range(length)] * n)[:n]}[shape]
    palette = TUBE_ROWS[:2] + draw(st.permutations(TUBE_ROWS[2:]))
    return np.array(frames), np.array([palette[i] for i in pick], dtype=np.float64)


@st.composite
def windows(draw):
    t0 = draw(st.integers(0, 2**40))
    return t0, t0 + draw(st.integers(1, 60))


@st.composite
def records_of(draw, kind):
    if kind == "detections":
        return DetectionRecord(draw(names), draw(counts), draw(names),
                               draw(record_boxes()), draw(unit_numbers),
                               draw(optional_counts))
    if kind == "annotations":
        t0, t1 = draw(windows())
        frames, rows = draw(tubes(t0, t1, optional=False))
        return ActivityAnnotation(draw(names), draw(names), t0, t1,
                                  frames=frames, boxes=rows)
    if kind == "masks":
        width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        raster = np.array(draw(st.lists(st.booleans(), min_size=width * height,
                                        max_size=width * height)), dtype=np.uint8)
        return MaskFrame.from_array(draw(names), draw(counts),
                                    raster.reshape(height, width))
    if kind in ("proposals", "scored-proposals"):
        t0, t1 = draw(windows())
        cube = Cube(draw(names), draw(record_boxes()), t0, t1, draw(optional_counts),
                    draw(names), draw(st.none() | unit_numbers), draw(labels))
        if kind == "proposals":
            return cube
        return ScoredCube(cube, tuple(draw(st.lists(unit_numbers, max_size=6))))
    if kind == "instances":
        t0, t1 = draw(windows())
        frames, rows = draw(tubes(t0, t1))
        return ActivityInstance(draw(names), draw(names), t0, t1, draw(record_boxes()),
                                draw(numbers), draw(st.none() | st.integers(-2**70, 2**70)),
                                frames=frames, boxes=rows)
    if kind == "det-curves":
        points = draw(st.lists(st.tuples(numbers, unit_numbers, unit_numbers), max_size=4))
        return DetCurve(draw(names), tuple(DetPoint(*p) for p in points),
                        draw(st.booleans()))
    values = st.none() | st.booleans() | numbers | names
    data = draw(st.dictionaries(names, values | st.lists(values, max_size=3)
                                | st.dictionaries(names, values, max_size=3), max_size=4))
    return ReportRecord(draw(names), data)


def _number_swaps(value):
    """(kind, record) pairs with one number field of a kind set to ``value``,
    which stands for 1; list entries and report data included."""
    box = BBox(0.5, 2.5, 0.5, 2.5)
    boxes = [replace(box, **{name: value}) for name in ("x0", "x1", "y0", "y1")]
    detection = DetectionRecord("v", 2, "person", box, 0.5, 3)
    for name in ("frame", "confidence", "track_id"):
        yield "detections", replace(detection, **{name: value})
    yield from (("detections", replace(detection, bbox=b)) for b in boxes)
    cube = Cube("v", box, 0, 4, 3, "person", 0.5, frozenset({"walk"}))
    cubes = [replace(cube, **{name: value}) for name in ("t0", "t1", "seed_track",
                                                        "fg_score")]
    cubes += [replace(cube, bbox=b) for b in boxes]
    yield from (("proposals", c) for c in cubes)
    # two scores each: a file's score vectors all have one length
    yield from (("scored-proposals", ScoredCube(c, (0.5, 0.5))) for c in cubes)
    yield "scored-proposals", ScoredCube(cube, (0.5, value))
    instance = ActivityInstance("v", "walk", 0, 4, box, 0.5, 3)
    for name in ("t0", "t1", "score", "seed_track"):
        yield "instances", replace(instance, **{name: value})
    yield from (("instances", replace(instance, bbox=b)) for b in boxes)
    for name, frame in (("t0", 1), ("t1", 0)):
        yield "annotations", ActivityAnnotation(
            **{"video_id": "v", "activity_class": "walk", "t0": 0, "t1": 4, name: value},
            tube=((frame, box),))
    # each mask on a frame of its own: a video's mask frames never repeat
    for frame, name in ((0, "frame"), (2, "width"), (3, "height")):
        yield "masks", replace(MaskFrame("v", frame, 1, 1, (0, 1)), **{name: value})
    yield "masks", MaskFrame("v", 4, 1, 1, (0, value))
    for name in ("threshold", "tfa", "pmiss"):
        yield "det-curves", DetCurve("walk", (DetPoint(**{"threshold": 0.5, "tfa": 0.5,
                                                          "pmiss": 0.5, name: value}),),
                                     False)
    yield "reports", ReportRecord("s", {"x": value})


class TestRecordLines:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(RECORD_KINDS)))
    def test_line_matches_json_dumps_reference(self, data, kind):
        record = data.draw(records_of(kind))
        assert _formatter(kind)(record) == ref_record_line(kind, record)

    @pytest.mark.parametrize("kind", sorted(RECORD_KINDS))
    def test_file_is_header_and_reference_lines(self, kind):
        # frame order holds for detections and masks: all in one video
        records = sorted((record for k, record in _number_swaps(1) if k == kind),
                         key=lambda record: getattr(record, "frame", 0))
        assert written(records, kind).decode("ascii").splitlines(True)[1:] == \
            [ref_record_line(kind, record) for record in records]

    @pytest.mark.parametrize("value", [np.float64(1.0), np.int64(1), True, 1, 1.0],
                             ids=repr)
    def test_foreign_numbers_raise_or_write_the_reference(self, value):
        """A formatter writes exactly the reference's bytes or raises
        TypeError/ValueError: never ``np.float64(1.0)`` or ``True``."""
        raised = set()
        for kind, record in _number_swaps(value):
            try:
                line = _formatter(kind)(record)
            except (TypeError, ValueError):
                raised.add(kind)
                continue
            assert line == ref_record_line(kind, record), kind
        # the templated kinds take no number but an int or a float
        templated = set(RECORD_KINDS) - {"det-curves", "reports"}
        assert raised >= templated if type(value) not in (int, float) else not raised

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["proposals", "scored-proposals"]))
    def test_table_lines_match_json_dumps_reference(self, data, kind):
        # a table's lines, and again once its kept heads meet new labels
        width = data.draw(st.integers(0, 4))
        records = data.draw(st.lists(records_of(kind), min_size=1, max_size=6))
        records = [replace(r, scores=r.scores[:width] + (0.5,) * (width - len(r.scores)))
                   if kind == "scored-proposals" else r for r in records]
        table = CubeTable.from_records(records)
        assert written(table, kind).decode("ascii").splitlines(True)[1:] == \
            [ref_record_line(kind, r) for r in records]
        found = data.draw(st.lists(labels, min_size=len(records), max_size=len(records)))
        relabeled = replace(table, labels=found)
        assert written(relabeled, kind) == written(list(relabeled), kind)
        assert list(relabeled) == [replace(r, labels=f) if kind == "proposals" else
                                   replace(r, cube=replace(r.cube, labels=f))
                                   for r, f in zip(records, found)]

    def test_a_rejected_record_writes_no_line(self, tmp_path):
        good = DetectionRecord("v", 2, "person", BBox(0.5, 2.5, 0.5, 2.5), 0.5)
        path = tmp_path / "d.jsonl"
        with pytest.raises(TypeError):
            write_records([good, replace(good, frame=np.int64(3))], path, "detections")
        assert path.read_text().splitlines(True)[1:] == [ref_record_line("detections", good)]


# ---------------------------------------------------------------------------
# detections as column batches: the batch reader against the record parser

# (field, value) pairs that break a detection line; DEGENERATE copies the
# lower edge onto the upper one
DEGENERATE = object()
BROKEN_FIELDS = [
    ("video_id", 5), ("video_id", None), ("video_id", ["v"]), ("object_class", 3),
    ("frame", -1), ("frame", 2.5), ("frame", "4"), ("frame", True), ("frame", None),
    ("frame", float("nan")), ("frame", float("inf")),
    ("x0", "1"), ("x0", True), ("x0", float("nan")), ("y1", float("-inf")),
    ("y0", None), ("x1", 10**400), ("x1", DEGENERATE), ("y1", DEGENERATE),
    ("confidence", 1.5), ("confidence", -0.5), ("confidence", "0.5"),
    ("confidence", True), ("confidence", float("nan")), ("confidence", float("inf")),
    ("track_id", -1), ("track_id", 2.5), ("track_id", "1"), ("track_id", True)]
NOT_OBJECTS = ["[1,2]", "5", '"v"', "null", "true", "{", '{"video_id":"v"']
# each broken field, then each other way to break a file
BREAKS = [("field", field) for field in BROKEN_FIELDS] + [
    (how, None) for how in ("missing", "not an object", "int64", "out of order",
                            "reappears")]
# a video id no drawn name takes (names have at most eight characters)
FRESH_VIDEO = "a fresh video"


@st.composite
def detection_objects(draw):
    """The objects of a valid detections file: up to three videos of frames
    from 1 on that may repeat, int and float box coordinates, confidences
    among 0, 1, -0.0 and 5e-324, and null or int track ids. In half of the
    files, which the batch reader then leaves to the record parser, frames
    and track ids are sometimes integral floats and a track id left out."""
    irregular = draw(st.booleans())
    tracks = ["int", "null"] + (["float", "missing"] if irregular else [])
    objs = []
    for video in draw(st.lists(names, min_size=1, max_size=3, unique=True)):
        frame = draw(st.integers(1, 3))
        for _ in range(draw(st.integers(1, 5))):
            frame += draw(st.integers(0, 2))
            b = draw(record_boxes())
            obj = {"video_id": video,
                   "frame": float(frame) if irregular and draw(st.booleans()) else frame,
                   "object_class": draw(names), "x0": b.x0, "x1": b.x1, "y0": b.y0,
                   "y1": b.y1, "confidence": draw(unit_numbers)}
            track = draw(st.sampled_from(tracks))
            if track != "missing":
                tid = draw(st.integers(0, 2**63 - 1 if track == "int" else 2**40))
                obj["track_id"] = {"int": tid, "float": float(tid), "null": None}[track]
            objs.append(obj)
    return objs


def detection_file(draw, lines):
    """Write ``lines`` with blank lines drawn in between; their line numbers."""
    path = Path(OUT_DIR.name) / "detections.jsonl"
    text, numbers = ["#actpipe/detections/v1"], []
    for line in lines:
        text += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2))
        numbers.append(len(text) + 1)
        text.append(line)
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    return path, numbers


class TestDetectionColumns:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_valid_lines_read_and_write_as_records(self, data):
        path, numbers = detection_file(data.draw, map(json.dumps, data.draw(
            detection_objects())))
        want = list(read_records(path, "detections"))
        got = read_detections(path)
        assert len(got) == len(want) and list(got) == want
        assert np.concatenate([b.lines for b in got.videos]).tolist() == numbers
        assert written(got, "detections") == written(want, "detections")

    def test_int_coordinates_past_float_precision_keep_their_order(self):
        # -2**70 - 1 < -2**70 as ints, though both are -2**70 as float64
        obj = {"video_id": "v", "frame": 1, "object_class": "p", "x0": 0, "x1": 1,
               "y0": -2**70 - 1, "y1": -2**70, "confidence": 0.5, "track_id": 1}
        path, _ = detection_file(lambda strategy: [], [json.dumps(obj)])
        want = list(read_records(path, "detections"))
        assert list(read_detections(path)) == want
        assert written(read_detections(path), "detections") == written(want, "detections")

    @pytest.mark.parametrize("how, field", BREAKS, ids=[
        how if field is None else f"{how}-{field[0]}-{i}"
        for i, (how, field) in enumerate(BREAKS)])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_broken_line_raises_on_the_record_parsers_line(self, data, how, field):
        objs = data.draw(detection_objects())
        lines = [json.dumps(obj) for obj in objs]
        k = data.draw(st.integers(0, len(objs) - 1))
        obj = objs[k]
        if how == "field":
            name, value = field
            lines[k] = json.dumps({**obj, name: obj[name.replace("1", "0")]
                                   if value is DEGENERATE else value})
        elif how == "missing":
            name = data.draw(st.sampled_from(sorted(set(obj) - {"track_id"})))
            lines[k] = json.dumps({key: v for key, v in obj.items() if key != name})
        elif how == "not an object":
            lines[k] = data.draw(st.sampled_from(NOT_OBJECTS))
        elif how == "int64":
            name = data.draw(st.sampled_from(["frame", "track_id"]))
            lines[k] = json.dumps({**obj, name: data.draw(st.sampled_from(
                [2**63, 2**64 + 1, float(2**63)]))})
        elif how == "out of order":
            k += 1
            lines.insert(k, json.dumps({**obj, "frame": int(obj["frame"]) - 1}))
        else:
            k = len(lines) + 1
            lines += [json.dumps({**objs[0], "video_id": FRESH_VIDEO}), lines[0]]
        path, numbers = detection_file(data.draw, lines)
        with pytest.raises(RecordError) as got:
            read_detections(path)
        assert str(got.value).startswith(f"{path}:{numbers[k]}: ")
        if how != "int64":  # the record parser takes ints past int64
            with pytest.raises(RecordError) as want:
                list(read_records(path, "detections"))
            assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# proposals as one table: the table reader against the record parser

PROPOSAL_KINDS = ["proposals", "scored-proposals"]
# (field, value) pairs that break a proposal line; DEGENERATE copies the
# lower edge onto the upper one
BROKEN_CUBE_FIELDS = [
    ("video_id", 5), ("video_id", None), ("object_class", ["p"]), ("t0", -1),
    ("t0", 2.5), ("t0", "4"), ("t0", True), ("t1", None), ("t1", 0),
    ("x0", "1"), ("x0", True), ("x0", float("nan")), ("y1", float("-inf")),
    ("x1", 10**400), ("x1", DEGENERATE), ("y1", DEGENERATE), ("seed_track", -2),
    ("seed_track", 1.5), ("seed_track", True), ("fg_score", 1.5), ("fg_score", -0.5),
    ("fg_score", "0.5"), ("fg_score", float("nan")), ("labels", "walk"),
    ("labels", [1]), ("labels", {"walk": 1}), ("scores", [1.5]), ("scores", ["0.5"]),
    ("scores", [True]), ("scores", 0.5), ("scores", [[0.5]]), ("scores", [10**400])]
CUBE_BREAKS = [("field", field) for field in BROKEN_CUBE_FIELDS] + [
    (how, None) for how in ("missing", "not an object", "two values")]


@st.composite
def proposal_objects(draw, kind):
    """The objects of a valid proposal file: int and float coordinates,
    null or int seed tracks, null, [] or listed labels, null or float
    foreground scores and non-ASCII names, with one score width. In half of
    the files, which the table reader then leaves to the record parser, a
    window edge may be an integral float, a foreground score an int, and an
    optional field left out."""
    irregular = draw(st.booleans())
    width = draw(st.integers(0, 3))
    objs = []
    for _ in range(draw(st.integers(1, 6))):
        t0, t1 = draw(windows())
        b = draw(record_boxes())
        fg = draw(st.none() | (unit_numbers if irregular else st.floats(0, 1)))
        obj = {"video_id": draw(names),
               "t0": float(t0) if irregular and draw(st.booleans()) else t0, "t1": t1,
               "x0": b.x0, "x1": b.x1, "y0": b.y0, "y1": b.y1,
               "seed_track": draw(optional_counts), "object_class": draw(names),
               "fg_score": fg, "labels": draw(st.none() | st.lists(names, max_size=3))}
        if kind == "scored-proposals":
            obj["scores"] = draw(st.lists(unit_numbers, min_size=width, max_size=width))
        if irregular and draw(st.booleans()):
            del obj[draw(st.sampled_from(["seed_track", "object_class", "fg_score",
                                          "labels"]))]
        objs.append(obj)
    return objs


def proposal_file(draw, kind, lines):
    """Write ``lines`` with blank lines drawn in between; their line numbers."""
    path = Path(OUT_DIR.name) / "proposals.jsonl"
    text, numbers = [f"#actpipe/{kind}/v1"], []
    for line in lines:
        text += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2))
        numbers.append(len(text) + 1)
        text.append(line)
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    return path, numbers


def dumps(draw, obj):
    return json.dumps(obj, ensure_ascii=draw(st.booleans()))


class TestProposalColumns:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(PROPOSAL_KINDS))
    def test_valid_lines_read_and_write_as_records(self, data, kind):
        objs = data.draw(proposal_objects(kind))
        path, numbers = proposal_file(data.draw, kind, [dumps(data.draw, o) for o in objs])
        want = list(read_records(path, kind))
        got = read_proposals(path, kind)
        assert len(got) == len(want) and list(got) == want
        assert got.lines == numbers and got.source == str(path)
        assert written(got, kind) == written(want, kind)

    @pytest.mark.parametrize("kind", PROPOSAL_KINDS)
    def test_empty_and_header_only_files(self, tmp_path, kind):
        path = tmp_path / "p.jsonl"
        for text in ("", f"#actpipe/{kind}/v1\n"):
            path.write_text(text)
            assert len(read_proposals(path, kind)) == 0
            assert written(read_proposals(path, kind), kind) == f"#actpipe/{kind}/v1\n".encode()

    @pytest.mark.parametrize("how, field", CUBE_BREAKS, ids=[
        how if field is None else f"{how}-{field[0]}-{i}"
        for i, (how, field) in enumerate(CUBE_BREAKS)])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(PROPOSAL_KINDS))
    def test_broken_line_raises_on_the_record_parsers_line(self, data, how, field,
                                                          kind):
        objs = data.draw(proposal_objects(kind))
        lines = [json.dumps(obj) for obj in objs]
        k = data.draw(st.integers(0, len(objs) - 1))
        obj = objs[k]
        if how == "field":
            name, value = field
            if name == "scores" and kind == "proposals":
                name, value = "fg_score", 2.0  # proposals hold no scores
            lines[k] = json.dumps({**obj, name: obj[name.replace("1", "0")]
                                   if value is DEGENERATE else value})
        elif how == "missing":
            name = data.draw(st.sampled_from(sorted(set(obj) & {
                "video_id", "t0", "t1", "x0", "x1", "y0", "y1", "scores"})))
            lines[k] = json.dumps({key: v for key, v in obj.items() if key != name})
        elif how == "not an object":
            lines[k] = data.draw(st.sampled_from(NOT_OBJECTS))
        else:
            lines[k] = lines[k] + " " + lines[k]
        path, numbers = proposal_file(data.draw, kind, lines)
        with pytest.raises(RecordError) as want:
            list(read_records(path, kind))
        assert str(want.value).startswith(f"{path}:{numbers[k]}: ")
        with pytest.raises(RecordError) as got:
            read_proposals(path, kind)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# scores as matrices: the one-hot and fused matrices against per-cube vectors

SCORE_CLASSES = ["walk", "carry", "ride", "load"]
WEIGHTS = [0.0, 0.1, 0.2, 1 / 3, 0.5, 0.7, 1.5, -0.25]


class TestScoreMatrix:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_hot_and_fused_match_per_cube_reference(self, data):
        classes = data.draw(st.permutations(SCORE_CLASSES))[:data.draw(st.integers(1, 4))]
        cubes = [Cube("v", data.draw(record_boxes()), t, t + 8, data.draw(optional_counts),
                      "person", None,
                      data.draw(st.none() | st.frozensets(st.sampled_from(classes))))
                 for t in range(data.draw(st.integers(1, 5)))]
        got, want = oracle_scores(cubes, classes), ref_oracle_scores(cubes, classes)
        assert list(got) == want
        assert written(got, "scored-proposals") == written(want, "scored-proposals")
        # 1-4 sets over the same cubes, each class weighted unevenly
        m = data.draw(st.integers(1, 4))
        sets = [[ScoredCube(c, tuple(data.draw(st.lists(
            unit_numbers, min_size=len(classes), max_size=len(classes)))))
            for c in cubes] for _ in range(m)]
        weights = np.array([data.draw(st.lists(st.sampled_from(WEIGHTS), min_size=m - 1,
                                               max_size=m - 1)) for _ in classes]).T
        weights = np.vstack([weights.reshape(m - 1, len(classes)),
                             1.0 - weights.sum(axis=0)])
        got = outcome(fuse_scores, sets, weights)
        want = outcome(ref_fuse_scores, sets, weights)
        if isinstance(want, type):
            assert got is want
        else:
            assert list(got) == want
            assert written(got, "scored-proposals") == written(want, "scored-proposals")
