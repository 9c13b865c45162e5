import pytest
from hypothesis import given, strategies as st

from actpipe.geometry import (BBox, Cube, bbox_intersection, box_enlarge,
                              bbox_union, box_areas, box_intersections, box_ious,
                              box_rows)
from helpers import block_tube_iou, ref_coverage, tube_record


def boxes():
    coord = st.floats(0, 500, allow_nan=False, allow_infinity=False)
    size = st.floats(0.5, 300, allow_nan=False, allow_infinity=False)
    return st.builds(
        lambda x, y, w, h: BBox(x, x + w, y, y + h), coord, coord, size, size
    )


def rows(*bs):
    return box_rows(bs)


def iou(a, b):
    return float(box_ious(rows(a), rows(b))[0])


class TestBBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(5, 3, 0, 10)

    def test_area(self):
        assert box_areas(rows(BBox(0, 4, 0, 3))).tolist() == [12.0]


class TestIou:
    def test_identity(self):
        b = BBox(0, 10, 0, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 10, 0, 10), BBox(20, 30, 0, 10)) == 0.0

    def test_partial_overlap(self):
        assert iou(BBox(0, 2, 0, 2), BBox(1, 3, 0, 2)) == pytest.approx(1 / 3)

    def test_broadcasts_to_a_block(self):
        a = rows(BBox(0, 2, 0, 2), BBox(1, 3, 0, 2))
        b = rows(BBox(0, 2, 0, 2), BBox(20, 30, 0, 10), BBox(1, 3, 0, 2))
        block = box_ious(a[:, None], b)
        assert block.shape == (2, 3)
        assert block[:, 1].tolist() == [0.0, 0.0]
        assert block[0, 0] == block[1, 2] == 1.0

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0

    @given(boxes(), boxes())
    def test_area_identity(self, a, b):
        # area(a) + area(b) equals intersection plus the IoU denominator
        inter_area = float(box_intersections(rows(a), rows(b))[0])
        area_a, area_b = box_areas(rows(a, b)).tolist()
        denominator = area_a + area_b - inter_area
        assert area_a + area_b == pytest.approx(inter_area + denominator)
        if inter_area > 0:
            assert iou(a, b) == pytest.approx(inter_area / denominator)


class TestUnionIntersection:
    def test_union_self(self):
        b = BBox(1, 2, 3, 4)
        assert bbox_union(b, b) == b

    def test_union_hull(self):
        assert bbox_union(BBox(0, 1, 0, 1), BBox(2, 3, 2, 3)) == BBox(0, 3, 0, 3)
        assert bbox_union(BBox(0, 2, 0, 2), BBox(1, 3, 1, 3)) == BBox(0, 3, 0, 3)

    def test_intersection_self(self):
        b = BBox(1, 2, 3, 4)
        assert bbox_intersection(b, b) == b

    def test_intersection_disjoint(self):
        assert bbox_intersection(BBox(0, 1, 0, 1), BBox(2, 3, 2, 3)) is None

    def test_intersection_partial(self):
        assert bbox_intersection(BBox(0, 2, 0, 2), BBox(1, 3, 1, 3)) == BBox(1, 2, 1, 2)


class TestEnlarge:
    def enlarge(self, b, rate, frame):
        return BBox(*box_enlarge(rows(b), rate, frame)[0].tolist())

    def test_rate_zero_identity(self):
        b = BBox(10, 20, 30, 40)
        assert self.enlarge(b, 0.0, (1920, 1080)) == b

    def test_published_rate(self):
        out = self.enlarge(BBox(100, 200, 100, 200), 0.13, (1920, 1080))
        assert out == BBox(93.5, 206.5, 93.5, 206.5)

    def test_clamped_at_frame_edge(self):
        out = self.enlarge(BBox(0, 100, 0, 100), 0.5, (1920, 1080))
        assert out == BBox(0, 125, 0, 125)

    @given(boxes(), st.floats(0, 2, allow_nan=False))
    def test_never_shrinks_before_clamp(self, b, rate):
        out = self.enlarge(b, rate, (10_000, 10_000))
        assert out.x0 <= b.x0 and out.x1 >= b.x1
        assert out.y0 <= b.y0 and out.y1 >= b.y1


class TestCoverage:
    def test_superset(self):
        assert ref_coverage(BBox(0, 10, 0, 10), BBox(2, 5, 2, 5)) == 1.0

    def test_disjoint(self):
        assert ref_coverage(BBox(0, 1, 0, 1), BBox(5, 6, 5, 6)) == 0.0

    def test_half(self):
        assert ref_coverage(BBox(0, 1, 0, 2), BBox(0, 2, 0, 2)) == 0.5


class TestTubeIou:
    """Tube IoU of one pair through ``map_3diou``'s block."""

    def test_identical(self):
        tube = tube_record({0: BBox(0, 2, 0, 2), 1: BBox(1, 3, 1, 3)})
        assert block_tube_iou(tube, tube) == 1.0

    def test_temporally_disjoint(self):
        a = tube_record({0: BBox(0, 2, 0, 2)})
        b = tube_record({5: BBox(0, 2, 0, 2)})
        assert block_tube_iou(a, b) == 0.0

    def test_partial_frames(self):
        box = BBox(0, 2, 0, 2)
        a = tube_record({0: box, 1: box})
        b = tube_record({1: box, 2: box})
        assert block_tube_iou(a, b) == pytest.approx(1 / 3)

    def test_both_empty_error(self):
        with pytest.raises(ValueError):
            block_tube_iou(tube_record({}), tube_record({}))

    @given(st.dictionaries(st.integers(0, 5), boxes(), min_size=1),
           st.dictionaries(st.integers(0, 5), boxes(), min_size=1))
    def test_symmetric_and_bounded(self, a, b):
        v = block_tube_iou(tube_record(a), tube_record(b))
        assert v == pytest.approx(block_tube_iou(tube_record(b), tube_record(a)))
        assert 0.0 <= v <= 1.0


class TestCube:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            Cube("v", BBox(0, 1, 0, 1), 5, 5)
        with pytest.raises(ValueError):
            Cube("v", BBox(0, 1, 0, 1), -1, 4)

    def test_rejects_bad_fg_score(self):
        with pytest.raises(ValueError):
            Cube("v", BBox(0, 1, 0, 1), 0, 4, fg_score=1.5)

    def test_rejects_negative_seed_track(self):
        with pytest.raises(ValueError, match="negative seed_track -2"):
            Cube("v", BBox(0, 1, 0, 1), 0, 4, seed_track=-2)

    def test_labels_normalized(self):
        c = Cube("v", BBox(0, 1, 0, 1), 0, 4, labels={"a", "b"})
        assert isinstance(c.labels, frozenset)
