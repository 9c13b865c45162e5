import random

import pytest

from actpipe.config import PipelineConfig
from actpipe.dedup import (SegmentCube, deduplicate, merge_adjacent,
                           merge_groups, select_group, split_segments)
from actpipe.geometry import BBox, Cube
from actpipe.records import ActivityInstance, ScoredCube
from helpers import tube_pairs

BOX = BBox(0, 10, 0, 10)


def oracle_split_merge_select(cubes, d_prop, s_prop):
    """Frame-level enumeration oracle over all group phases.

    Independent of the implementation: segment scores come from per-frame
    covering sets, groups are enumerated directly, and the selected group is
    the first (lowest phase) holding the global maximum.
    """
    r = d_prop // s_prop
    frames = {}
    for c in cubes:
        for f in range(c.t0, c.t1):
            frames.setdefault(f, []).append(c)
    segments = {}
    for m in sorted({f // s_prop for f in frames}):
        covers = frames[m * s_prop]
        for f in range(m * s_prop, (m + 1) * s_prop):
            assert frames.get(f, []) == covers, "off-grid input"
        score = sum(c.score for c in covers) / len(covers)
        x0 = max(c.bbox.x0 for c in covers)
        x1 = min(c.bbox.x1 for c in covers)
        y0 = max(c.bbox.y0 for c in covers)
        y1 = min(c.bbox.y1 for c in covers)
        if x0 >= x1 or y0 >= y1:
            center = (m + 0.5) * s_prop
            near = min(covers,
                       key=lambda c: (abs((c.t0 + c.t1) / 2 - center), c.t0))
            box = (near.bbox.x0, near.bbox.x1, near.bbox.y0, near.bbox.y1)
        else:
            box = (x0, x1, y0, y1)
        segments[m] = (score, box)

    candidates = []
    for g in range(r):
        chunks = []
        chunk = []
        for m in sorted(segments):
            if m < g:
                continue
            if chunk and (m != chunk[-1] + 1
                          or (m - g) // r != (chunk[-1] - g) // r):
                chunks.append(chunk)
                chunk = []
            chunk.append(m)
        if chunk:
            chunks.append(chunk)
        merged = []
        for part in chunks:
            score = sum(segments[m][0] for m in part) / len(part)
            x0 = min(segments[m][1][0] for m in part)
            x1 = max(segments[m][1][1] for m in part)
            y0 = min(segments[m][1][2] for m in part)
            y1 = max(segments[m][1][3] for m in part)
            merged.append((part[0] * s_prop, (part[-1] + 1) * s_prop, score,
                           (x0, x1, y0, y1)))
        candidates.append(merged)

    scores = [c[2] for group in candidates for c in group]
    if not scores:
        return []
    best = max(scores)
    for group in candidates:
        if any(c[2] == best for c in group):
            return group
    raise AssertionError


def random_run(rng, max_cubes=6):
    starts = rng.sample(range(9), rng.randint(1, max_cubes))
    cubes = []
    for k in sorted(starts):
        if rng.random() < 0.25:
            x = rng.uniform(0, 50)
            box = BBox(x, x + rng.uniform(5, 30), 0, 10)
        else:
            box = BOX
        cubes.append(SegmentCube(16 * k, 16 * k + 64, rng.random(), box))
    return cubes


def assert_matches_oracle(got, expect):
    assert len(got) == len(expect), (got, expect)
    for cube, (t0, t1, score, box) in zip(got, expect):
        assert (cube.t0, cube.t1) == (t0, t1)
        assert cube.score == pytest.approx(score, abs=1e-12)
        assert (cube.bbox.x0, cube.bbox.x1, cube.bbox.y0, cube.bbox.y1) == \
            pytest.approx(box, abs=1e-12)


class TestSplitSegments:
    def test_single_cube_four_segments(self):
        segs = split_segments([SegmentCube(0, 64, 0.8, BOX)], 64, 16)
        assert [(s.t0, s.t1, s.score) for s in segs] == [
            (0, 16, 0.8), (16, 32, 0.8), (32, 48, 0.8), (48, 64, 0.8)]
        assert all(s.bbox == BOX for s in segs)

    def test_two_cube_worked_example(self):
        cubes = [SegmentCube(0, 64, 0.8, BOX), SegmentCube(16, 80, 0.4, BOX)]
        segs = split_segments(cubes, 64, 16)
        assert [(s.t0, s.score) for s in segs] == [
            (0, 0.8), (16, 0.6000000000000001), (32, 0.6000000000000001),
            (48, 0.6000000000000001), (64, 0.4)]

    def test_intersected_bbox(self):
        cubes = [SegmentCube(0, 64, 0.5, BBox(0, 10, 0, 10)),
                 SegmentCube(16, 80, 0.5, BBox(5, 15, 0, 10))]
        segs = split_segments(cubes, 64, 16)
        assert segs[0].bbox == BBox(0, 10, 0, 10)
        assert segs[1].bbox == BBox(5, 10, 0, 10)

    def test_disjoint_bbox_fallback_to_nearest(self):
        near = SegmentCube(0, 64, 0.5, BBox(0, 10, 0, 10))
        far = SegmentCube(16, 80, 0.5, BBox(100, 110, 0, 10))
        segs = split_segments([near, far], 64, 16)
        # segment [16,32): centers are 32 vs 48, the first cube is nearer
        assert segs[1].t0 == 16
        assert segs[1].bbox == near.bbox

    def test_off_grid_snap_keeps_contained_segments(self):
        segs = split_segments([SegmentCube(8, 72, 0.5, BOX)], 64, 16)
        assert [(s.t0, s.t1) for s in segs] == [(16, 32), (32, 48), (48, 64)]

    def test_snapped_misaligned_full_duration_vanishes(self):
        segs = split_segments([SegmentCube(8, 72, 0.5, BOX)], 64, 64)
        assert segs == []


class TestMergeGroups:
    def test_worked_example_groups(self):
        cubes = [SegmentCube(0, 64, 0.8, BOX), SegmentCube(16, 80, 0.4, BOX)]
        groups = merge_groups(split_segments(cubes, 64, 16), 64, 16)
        shape = [[(c.t0, c.t1, round(c.score, 4)) for c in g] for g in groups]
        assert shape == [
            [(0, 64, 0.65), (64, 80, 0.4)],
            [(16, 80, 0.55)],
            [(32, 80, 0.5333)],
            [(48, 80, 0.5)],
        ]

    def test_single_segment_every_group(self):
        segs = [SegmentCube(0, 16, 0.7, BOX)]
        groups = merge_groups(segs, 64, 16)
        assert groups[0] == [SegmentCube(0, 16, 0.7, BOX)]
        # later phases drop the leading segment
        assert groups[1] == groups[2] == groups[3] == []

    def test_r_equal_one_identity(self):
        segs = [SegmentCube(0, 64, 0.3, BOX), SegmentCube(64, 128, 0.9, BOX)]
        groups = merge_groups(segs, 64, 64)
        assert groups == [segs]

    def test_union_bbox(self):
        segs = [SegmentCube(0, 16, 0.5, BBox(0, 10, 0, 10)),
                SegmentCube(16, 32, 0.5, BBox(5, 15, 5, 15))]
        groups = merge_groups(segs, 32, 16)
        assert groups[0][0].bbox == BBox(0, 15, 0, 15)


class TestSelectGroup:
    def test_worked_example_selection(self):
        cubes = [SegmentCube(0, 64, 0.8, BOX), SegmentCube(16, 80, 0.4, BOX)]
        groups = merge_groups(split_segments(cubes, 64, 16), 64, 16)
        selected = select_group(groups)
        assert [(c.t0, c.t1, round(c.score, 4)) for c in selected] == [
            (0, 64, 0.65), (64, 80, 0.4)]

    def test_tie_selects_lowest_offset(self):
        cubes = [SegmentCube(0, 64, 0.5, BOX), SegmentCube(16, 80, 0.5, BOX)]
        groups = merge_groups(split_segments(cubes, 64, 16), 64, 16)
        assert select_group(groups) == groups[0]

    def test_single_group(self):
        group = [SegmentCube(0, 64, 0.4, BOX)]
        assert select_group([group]) == group


class TestOracleEquivalence:
    def test_small_seeded_sample(self):
        rng = random.Random(20240601)
        for _ in range(100):
            cubes = random_run(rng)
            got = select_group(merge_groups(split_segments(cubes, 64, 16),
                                            64, 16))
            assert_matches_oracle(got, oracle_split_merge_select(cubes, 64, 16))


def scored(video, track, t0, t1, scores, box=BOX):
    cube = Cube(video, box, t0, t1, seed_track=track, object_class="person")
    return ScoredCube(cube, scores)


class TestDeduplicate:
    config = PipelineConfig(activity_classes=("walk",))

    def test_non_overlapping_input_is_identity(self):
        cubes = [scored("v", 1, 0, 64, (0.7,)), scored("v", 1, 64, 128, (0.4,))]
        out = deduplicate(cubes, self.config)
        assert [(i.t0, i.t1, i.score) for i in out] == [(0, 64, 0.7),
                                                        (64, 128, 0.4)]

    def test_two_cube_example_end_to_end(self):
        cubes = [scored("v", 1, 0, 64, (0.8,)), scored("v", 1, 16, 80, (0.4,))]
        out = deduplicate(cubes, self.config)
        assert [(i.t0, i.t1, round(i.score, 4)) for i in out] == [
            (0, 64, 0.65), (64, 80, 0.4)]

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            run = random_run(rng)
            cubes = [scored("v", 1, c.t0, c.t1, (c.score,), c.bbox)
                     for c in run]
            once = deduplicate(cubes, self.config)
            again = deduplicate(
                [scored("v", 1, i.t0, i.t1, (i.score,), i.bbox) for i in once],
                self.config,
            )
            assert [(i.t0, i.t1, i.score) for i in again] == \
                [(i.t0, i.t1, i.score) for i in once]

    def test_output_non_overlapping_per_partition(self):
        rng = random.Random(13)
        for _ in range(50):
            run = random_run(rng)
            cubes = [scored("v", 1, c.t0, c.t1, (c.score,), c.bbox)
                     for c in run]
            out = deduplicate(cubes, self.config)
            ordered = sorted(out, key=lambda i: i.t0)
            assert all(a.t1 <= b.t0 for a, b in zip(ordered, ordered[1:]))

    def test_classes_independent(self):
        config = PipelineConfig(activity_classes=("walk", "carry"))
        cubes = [scored("v", 1, 0, 64, (0.8, 0.1)),
                 scored("v", 1, 16, 80, (0.4, 0.9))]
        both = deduplicate(cubes, config)
        walk_only = deduplicate(
            [scored("v", 1, 0, 64, (0.8,)), scored("v", 1, 16, 80, (0.4,))],
            self.config)
        walk_from_both = [i for i in both if i.activity_class == "walk"]
        assert [(i.t0, i.t1, i.score) for i in walk_from_both] == \
            [(i.t0, i.t1, i.score) for i in walk_only]

    def test_zero_scores_not_emitted(self):
        cubes = [scored("v", 1, 0, 64, (0.0,))]
        assert deduplicate(cubes, self.config) == []

    def test_tracks_partition_separately(self):
        cubes = [scored("v", 1, 0, 64, (0.8,)),
                 scored("v", 2, 0, 64, (0.6,), BBox(100, 110, 0, 10))]
        out = deduplicate(cubes, self.config)
        assert len(out) == 2
        assert {i.seed_track for i in out} == {1, 2}

    def test_untracked_cubes_chain_by_iou(self):
        near = BBox(0, 10, 0, 10)
        far = BBox(200, 210, 0, 10)
        cubes = [scored("v", None, 0, 64, (0.8,), near),
                 scored("v", None, 16, 80, (0.4,), near),
                 scored("v", None, 0, 64, (0.9,), far)]
        out = deduplicate(cubes, self.config)
        chains = {i.seed_track for i in out}
        assert all(tid < 0 for tid in chains)
        assert len(chains) == 2

    def test_seed_tracks_cannot_take_chain_ids(self):
        # seedless cubes chain under ids -1, -2, ...; a seed track of -1
        # would share, and overwrite, the first chain's partition
        with pytest.raises(ValueError, match="negative seed_track -1"):
            scored("v", -1, 0, 64, (0.9,))
        cubes = [scored("v", 0, 0, 64, (0.9,)), scored("v", None, 0, 64, (0.8,))]
        assert sorted((i.seed_track, i.score)
                      for i in deduplicate(cubes, self.config)) == [(-1, 0.8),
                                                                   (0, 0.9)]

    def test_vector_length_checked(self):
        with pytest.raises(ValueError, match="score vector"):
            deduplicate([scored("v", 1, 0, 64, (0.1, 0.2))], self.config)


def instance(t0, t1, score, cls="walk", track=1, box=BOX, video="v"):
    return ActivityInstance(video, cls, t0, t1, box, score, seed_track=track)


class TestMergeAdjacent:
    def test_merges_abutting_high_confidence(self):
        out = merge_adjacent([instance(0, 64, 0.7), instance(64, 128, 0.6)],
                             s_merg=0.5, l_merg=32)
        assert [(i.t0, i.t1) for i in out] == [(0, 128)]
        assert out[0].score == pytest.approx(0.65)

    def test_duration_weighted_score(self):
        out = merge_adjacent([instance(0, 64, 0.9), instance(64, 80, 0.5001)],
                             s_merg=0.5, l_merg=32)
        (merged,) = out
        assert merged.score == pytest.approx((64 * 0.9 + 16 * 0.5001) / 80)

    def test_low_score_breaks_chain(self):
        instances = [instance(0, 64, 0.7), instance(64, 128, 0.3),
                     instance(128, 192, 0.8)]
        out = merge_adjacent(instances, s_merg=0.5, l_merg=32)
        assert [(i.t0, i.t1) for i in out] == [(0, 64), (128, 192)]

    def test_short_merged_instance_dropped(self):
        out = merge_adjacent([instance(0, 16, 0.9)], s_merg=0.5, l_merg=32)
        assert out == []

    def test_boundary_duration_dropped(self):
        assert merge_adjacent([instance(0, 32, 0.9)], 0.5, 32) == []
        assert len(merge_adjacent([instance(0, 33, 0.9)], 0.5, 32)) == 1

    def test_gap_breaks_run(self):
        out = merge_adjacent([instance(0, 64, 0.7), instance(80, 144, 0.7)],
                             s_merg=0.5, l_merg=32)
        assert [(i.t0, i.t1) for i in out] == [(0, 64), (80, 144)]

    def test_union_bbox_and_tube(self):
        a = instance(0, 64, 0.7, box=BBox(0, 10, 0, 10))
        b = instance(64, 128, 0.7, box=BBox(5, 15, 0, 10))
        (merged,) = merge_adjacent([a, b], 0.5, 32)
        assert merged.bbox == BBox(0, 15, 0, 10)
        tube = dict(tube_pairs(merged.frames, merged.boxes))
        assert tube[0] == BBox(0, 10, 0, 10)
        assert tube[100] == BBox(5, 15, 0, 10)
        assert len(tube) == 128

    def test_partitions_do_not_mix(self):
        out = merge_adjacent(
            [instance(0, 64, 0.7, track=1), instance(64, 128, 0.7, track=2)],
            0.5, 32)
        assert [(i.t0, i.t1) for i in out] == [(0, 64), (64, 128)]

    def test_overlapping_input_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            merge_adjacent([instance(0, 64, 0.7), instance(32, 96, 0.7)],
                           0.5, 32)

    def test_score_at_threshold_excluded(self):
        out = merge_adjacent([instance(0, 64, 0.5)], s_merg=0.5, l_merg=32)
        assert out == []
