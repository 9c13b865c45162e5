import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actpipe.filtering import (SENTINEL_THRESHOLD, calibrate_threshold,
                               collect_positive_scores, filter_proposals,
                               score_foreground)
from actpipe.geometry import BBox, Cube
from actpipe.records import MaskFrame, RecordError

from helpers import ref_foreground_score


def mask(frame, raster, video="v"):
    return MaskFrame.from_array(video, frame, np.asarray(raster, dtype=np.uint8))


def cube(t0=0, t1=64, box=BBox(0, 10, 0, 10), video="v", cls="person",
         fg=None, labels=None, seed=1):
    return Cube(video, box, t0, t1, seed_track=seed, object_class=cls,
                fg_score=fg, labels=labels)


def score(c, masks):
    return score_foreground([c], masks)[0].fg_score


@st.composite
def scoring_inputs(draw):
    """Cubes and a frame-ordered mask stream over 1-3 videos.

    Each video has its own mask size, which may change once mid-stream under
    a cube whose window spans the change. Box edges are fractional and may
    lie partly or wholly outside the frame or be thinner than one cell; mask
    frames reach past the windows, so some masks fall in none of them.
    """
    cubes, masks = [], []
    for v in range(draw(st.integers(1, 3))):
        video = f"v{v}"
        sizes = [(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
                 for _ in range(2)]
        frames = sorted(draw(st.lists(st.integers(0, 100), min_size=1,
                                      max_size=6, unique=True)))
        # masks from frames[cut] on take the second size; none when cut is last
        cut = draw(st.integers(1, len(frames)))
        for k, f in enumerate(frames):
            w, h = sizes[k >= cut]
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            density = draw(st.sampled_from([0.1, 0.5, 0.9]))
            masks.append(mask(f, rng.random((h, w)) < density, video))
        side = max(max(size) for size in sizes)
        edge = st.floats(-side / 2, side + 2, allow_nan=False)
        extent = st.floats(0.01, side, allow_nan=False)
        # every window holds at least one mask frame
        windows = [(a, a + 1) for a in draw(st.lists(st.sampled_from(frames),
                                                    max_size=4))]
        if cut < len(frames):
            windows.append((frames[cut - 1], frames[cut] + 1))
        for first, last in windows:
            t0 = draw(st.integers(max(0, first - 30), first))
            t1 = draw(st.integers(last, last + 30))
            x0, y0 = draw(edge), draw(edge)
            box = BBox(x0, x0 + draw(extent), y0, y0 + draw(extent))
            cubes.append(cube(t0, t1, box, video=video, seed=len(cubes)))
    return cubes, masks


class TestForegroundScore:
    def test_all_foreground(self):
        masks = [mask(f, np.ones((20, 20))) for f in (0, 8, 16)]
        assert score(cube(0, 24), masks) == 1.0

    def test_all_background(self):
        masks = [mask(f, np.zeros((20, 20))) for f in (0, 8, 16)]
        assert score(cube(0, 24), masks) == 0.0

    def test_half_covered(self):
        raster = np.zeros((20, 20))
        raster[:, :5] = 1  # left half of a (0,10,0,10) box
        masks = [mask(f, raster) for f in (0, 8)]
        assert score(cube(0, 16), masks) == 0.5

    def test_masks_outside_window_ignored(self):
        inside = [mask(0, np.ones((20, 20)))]
        outside = [mask(100, np.zeros((20, 20)))]
        assert score(cube(0, 64), inside + outside) == 1.0

    def test_no_masks_in_window_rejected(self):
        with pytest.raises(ValueError, match="no masks"):
            score(cube(0, 64), [mask(100, np.zeros((4, 4)))])

    def test_fractional_box_uses_interior_cells(self):
        raster = np.zeros((10, 10))
        raster[2:5, 2:5] = 1
        masks = [mask(0, raster)]
        # cells fully inside (1.5, 5.5) are 2..4 per axis: exactly the ones set
        assert score(cube(0, 8, BBox(1.5, 5.5, 1.5, 5.5)), masks) == 1.0

    def test_batched_matches_single(self):
        rng = np.random.default_rng(4)
        rasters = {f: (rng.random((30, 40)) > 0.6).astype(np.uint8)
                   for f in range(0, 64, 8)}
        masks = [mask(f, r) for f, r in sorted(rasters.items())]
        cubes = [cube(0, 32, BBox(3.2, 17.8, 5.1, 22.9)),
                 cube(16, 64, BBox(0, 40, 0, 30)),
                 cube(32, 64, BBox(10, 11.5, 10, 11.5))]
        batched = score_foreground(cubes, masks)
        for original, scored in zip(cubes, batched):
            assert scored.fg_score == ref_foreground_score(original, masks)

    @given(scoring_inputs())
    @settings(max_examples=200, deadline=None)
    def test_batched_equals_single_on_random_inputs(self, inputs):
        cubes, masks = inputs
        batched = score_foreground(cubes, masks)
        assert [c.fg_score for c in batched] == \
            [ref_foreground_score(c, masks) for c in cubes]

    def test_batched_missing_masks_rejected(self):
        with pytest.raises(ValueError, match="no masks"):
            score_foreground([cube(0, 8)], [mask(0, np.ones((4, 4)), video="w")])

    def test_batched_rejects_revisited_video(self):
        masks = [mask(0, np.ones((4, 4))), mask(0, np.ones((4, 4)), video="w"),
                 mask(8, np.ones((4, 4)))]
        with pytest.raises(ValueError, match="video 'v' reappears out of order"):
            score_foreground([cube(0, 16)], masks)

    def test_batched_rejects_frames_out_of_order(self):
        masks = [mask(8, np.ones((4, 4))), mask(0, np.ones((4, 4)))]
        with pytest.raises(ValueError, match="frame 0 out of order in video 'v'"):
            score_foreground([cube(0, 16)], masks)

    def test_window_past_int64_holds_no_mask(self):
        with pytest.raises(ValueError, match=re.escape(
                f"no masks inside [{2**70}, {2**70 + 4}) for video 'v'")):
            score_foreground([cube(2**70, 2**70 + 4)], [mask(0, np.ones((4, 4)))])

    def test_frames_past_int64_meet_their_windows(self):
        cubes = [cube(5, 2**70), cube(2**64, 2**64 + 1, seed=2), cube(2**65, 2**66, seed=3)]
        masks = [mask(2**64, np.ones((20, 20))), mask(2**65 + 1, np.zeros((20, 20)))]
        assert [c.fg_score for c in score_foreground(cubes, masks)] == \
            [ref_foreground_score(c, masks) for c in cubes] == [0.5, 1.0, 0.0]

    def test_batched_rejects_a_repeated_frame(self):
        # a second mask on frame 1 would weigh that frame twice: 1/3, not 1/2
        masks = [mask(0, np.ones((4, 4))), mask(1, np.zeros((4, 4)))]
        assert score(cube(0, 8), masks) == 0.5
        with pytest.raises(RecordError, match=r"^mask stream:3: frame 1 repeated "
                                              r"in video 'v' \(previous 1\)$"):
            score(cube(0, 8), masks + [mask(1, np.zeros((4, 4)))])


class TestCalibration:
    def test_order_statistic(self):
        scores = {"person": [0.05 * i for i in range(1, 21)]}
        thresholds = calibrate_threshold(scores, p_pos=0.05)
        assert thresholds["person"] == pytest.approx(0.05)

    def test_zero_tolerance_gives_sentinel(self):
        thresholds = calibrate_threshold({"person": [0.4, 0.6]}, p_pos=0.0)
        assert thresholds["person"] == SENTINEL_THRESHOLD

    def test_tie_safety_floor(self):
        thresholds = calibrate_threshold({"person": [0.7] * 10}, p_pos=0.05)
        assert thresholds["person"] == SENTINEL_THRESHOLD

    def test_empty_class_gives_sentinel(self):
        assert calibrate_threshold({"person": []}, 0.05)["person"] == \
            SENTINEL_THRESHOLD

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=60,
                    unique=True),
           st.floats(0, 1, allow_nan=False))
    @settings(max_examples=120)
    def test_guarantee_under_distinct_scores(self, scores, p_pos):
        threshold = calibrate_threshold({"c": scores}, p_pos)["c"]
        filtered = sum(1 for s in scores if s <= threshold)
        assert filtered <= p_pos * len(scores)


class TestFilterProposals:
    def test_sentinel_is_identity(self):
        cubes = [cube(fg=0.0), cube(fg=0.9, seed=2)]
        out = filter_proposals(cubes, {"person": SENTINEL_THRESHOLD})
        assert out == cubes

    def test_boundary_is_inclusive_removal(self):
        c = cube(fg=0.05)
        assert filter_proposals([c], {"person": 0.05}) == []
        assert filter_proposals([c], {"person": 0.04999}) == [c]

    def test_median_threshold_keeps_at_most_half(self):
        scores = [0.1 * i for i in range(1, 11)]
        cubes = [cube(fg=s, seed=i) for i, s in enumerate(scores, 1)]
        median = float(np.median(scores))
        kept = filter_proposals(cubes, {"person": median})
        brute = [c for c in cubes if c.fg_score > median]
        assert kept == brute
        assert len(kept) <= 5

    def test_subset_order_idempotent(self):
        cubes = [cube(fg=0.1 * i, seed=i) for i in range(1, 8)]
        thresholds = {"person": 0.35}
        once = filter_proposals(cubes, thresholds)
        assert [c for c in cubes if c in once] == once
        assert filter_proposals(once, thresholds) == once

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            filter_proposals([cube(fg=0.5)], {"vehicle": 0.1})

    def test_missing_score_rejected(self):
        with pytest.raises(ValueError, match="foreground score"):
            filter_proposals([cube()], {"person": 0.1})


class TestCollectPositives:
    def test_groups_by_object_class(self):
        cubes = [
            cube(fg=0.8, labels=frozenset({"walk"}), cls="person"),
            cube(fg=0.6, labels=frozenset({"walk"}), cls="vehicle", seed=2),
            cube(fg=0.4, labels=frozenset(), cls="person", seed=3),
            cube(fg=0.2, labels=None, cls="person", seed=4),
        ]
        scores = collect_positive_scores(cubes)
        assert scores == {"person": [0.8], "vehicle": [0.6]}
