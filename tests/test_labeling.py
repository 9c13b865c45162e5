from dataclasses import replace

import pytest

from actpipe.geometry import BBox, Cube
from actpipe.labeling import (assign_labels, gt_to_cubes, proposal_stats,
                              temporal_iou)
from actpipe.records import ActivityAnnotation


def annotation(t0, t1, box=BBox(10, 50, 10, 50), cls="walk", video="v"):
    return ActivityAnnotation.with_static_box(video, cls, t0, t1, box)


def prop(box, t0=0, t1=64, video="v", seed=1):
    return Cube(video, box, t0, t1, seed_track=seed, object_class="person")


def gt(box, t0=0, t1=64, cls="walk", video="v"):
    return Cube(video, box, t0, t1, labels={cls})


def labeled(labels):
    return Cube("v", BBox(0, 1, 0, 1), 0, 8, labels=labels)


class TestGtToCubes:
    def test_exact_duration_single_cube(self):
        cubes = gt_to_cubes(annotation(32, 96), 64, 16)
        assert [(c.t0, c.t1) for c in cubes] == [(32, 96)]
        assert cubes[0] == Cube("v", BBox(10, 50, 10, 50), 32, 96,
                                labels=frozenset({"walk"}))

    def test_long_instance_seven_cubes(self):
        cubes = gt_to_cubes(annotation(0, 160), 64, 16)
        assert len(cubes) == 7
        assert [c.t0 for c in cubes] == [0, 16, 32, 48, 64, 80, 96]
        # one label set per annotation, shared by its cubes
        assert all(c.labels is cubes[0].labels for c in cubes)

    def test_short_instance_truncated(self):
        cubes = gt_to_cubes(annotation(10, 50), 64, 16)
        assert [(c.t0, c.t1) for c in cubes] == [(10, 50)]

    def test_moving_tube_union(self):
        tube = tuple((f, BBox(f, f + 10, 0, 10)) for f in range(0, 64))
        ann = ActivityAnnotation("v", "walk", 0, 64, tube)
        (cube,) = gt_to_cubes(ann, 64, 16)
        assert cube.bbox == BBox(0, 73, 0, 10)

    def test_offsets_follow_instance_start(self):
        cubes = gt_to_cubes(annotation(10, 170), 64, 16)
        assert [c.t0 for c in cubes] == [10 + k * 16 for k in range(7)]


class TestTemporalIou:
    def test_values(self):
        assert temporal_iou((0, 64), (0, 64)) == 1.0
        assert temporal_iou((0, 64), (16, 80)) == pytest.approx(48 / 80)
        assert temporal_iou((0, 64), (64, 128)) == 0.0


class TestAssignLabels:
    def test_identical_proposal_positive(self):
        box = BBox(10, 50, 10, 50)
        (a,) = assign_labels([prop(box)], [gt(box)], s_high=0.5, s_low=0.0)
        assert a == Cube("v", box, 0, 64, seed_track=1, object_class="person",
                         labels=frozenset({"walk"}))

    def test_zero_iou_negative(self):
        (a,) = assign_labels([prop(BBox(100, 120, 100, 120))],
                             [gt(BBox(10, 50, 10, 50))], 0.5, 0.0)
        assert a.labels == frozenset()

    def test_no_gt_at_all_negative(self):
        (a,) = assign_labels([prop(BBox(0, 10, 0, 10))], [], 0.5, 0.0)
        assert a.labels == frozenset()

    def test_best_match_rule_and_unassigned(self):
        # IoU(a)=1/3 is between the thresholds; IoU(b)=1/5 is lower
        gt_box = BBox(0, 2, 0, 2)
        a = prop(BBox(1, 3, 0, 2), seed=1)
        b = prop(BBox(0, 2, 1.2, 3.2), seed=2)
        ia, ib = assign_labels([a, b], [gt(gt_box)], s_high=0.5, s_low=0.0)
        assert ia.labels == frozenset({"walk"})
        assert ib.labels is None

    def test_tie_breaks_to_lower_index(self):
        gt_box = BBox(0, 2, 0, 2)
        same = BBox(1, 3, 0, 2)
        a, b = prop(same, seed=1), prop(same, seed=2)
        ia, ib = assign_labels([a, b], [gt(gt_box)], s_high=0.5, s_low=0.0)
        assert ia.labels == frozenset({"walk"}) and ib.labels is None

    def test_multi_label(self):
        box = BBox(10, 50, 10, 50)
        a, = assign_labels([prop(box)],
                           [gt(box, cls="walk"), gt(box, cls="carry")],
                           0.5, 0.0)
        assert a.labels == frozenset({"walk", "carry"})

    def test_different_videos_never_match(self):
        box = BBox(10, 50, 10, 50)
        (a,) = assign_labels([prop(box, video="a")], [gt(box, video="b")],
                             0.5, 0.0)
        assert a.labels == frozenset()

    def test_temporal_window_gate(self):
        box = BBox(10, 50, 10, 50)
        # offset 16 of 64: tIoU 0.6, same window; offset 48: tIoU 0.143, not
        near = assign_labels([prop(box, t0=16, t1=80)], [gt(box)], 0.5, 0.0)
        far = assign_labels([prop(box, t0=48, t1=112)], [gt(box)], 0.5, 0.0)
        assert near[0].labels == frozenset({"walk"})
        assert far[0].labels == frozenset()

    def test_outcomes_partition(self):
        import random
        rng = random.Random(5)
        proposals = []
        for i in range(40):
            x = rng.uniform(0, 80)
            proposals.append(prop(BBox(x, x + 20, 0, 20), seed=i + 1))
        gts = [gt(BBox(0, 20, 0, 20)), gt(BBox(50, 70, 0, 20), cls="carry")]
        labeled = assign_labels(proposals, gts, 0.5, 0.0)
        # the proposals come back in order, changed only in their labels
        assert [replace(c, labels=None) for c in labeled] == proposals
        stats = proposal_stats(labeled)
        assert stats["positive"] + stats["negative"] + stats["unassigned"] == \
            len(proposals)

    def test_every_reachable_gt_assigned_somewhere(self):
        box = BBox(10, 50, 10, 50)
        weak = prop(BBox(15, 55, 15, 55))  # IoU < 0.5 but > 0
        (a,) = assign_labels([weak], [gt(box)], s_high=0.5, s_low=0.0)
        assert a.labels == frozenset({"walk"})

    def test_raising_s_high_never_adds_positives(self):
        import random
        rng = random.Random(9)
        proposals = [prop(BBox(x, x + 30, 0, 30), seed=i + 1)
                     for i, x in enumerate(rng.uniform(0, 60) for _ in range(30))]
        gts = [gt(BBox(20, 50, 0, 30))]
        previous = None
        for s_high in (0.3, 0.5, 0.7, 0.9):
            n = sum(1 for a in assign_labels(proposals, gts, s_high, 0.0)
                    if a.labels)
            if previous is not None:
                assert n <= previous
            previous = n


class TestProposalStats:
    def test_all_negative(self):
        stats = proposal_stats([labeled(()) for _ in range(4)])
        assert stats["positive_rate"] == 0.0
        assert stats["negative"] == 4

    def test_label_histogram(self):
        stats = proposal_stats([labeled({"a"}), labeled({"a", "b"}),
                                labeled(()), labeled(None)])
        assert stats["positive_rate"] == 0.5
        assert stats["single_label_rate"] == 0.5
        assert stats["two_label_rate"] == 0.5
        assert stats["many_label_rate"] == 0.0
        assert stats["unassigned"] == 1
