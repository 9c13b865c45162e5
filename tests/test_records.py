import numpy as np
import pytest

from actpipe.geometry import BBox, Cube
from actpipe.records import (ActivityAnnotation, ActivityInstance,
                             DetectionRecord, MaskFrame, RecordError,
                             ReportRecord, ScoredCube, read_records,
                             rle_decode, rle_encode, write_records)


def make_detections(n=100, video_id="v0"):
    out = []
    for i in range(n):
        out.append(
            DetectionRecord(
                video_id, i // 2, "person",
                BBox(1.25 * i, 1.25 * i + 10.5, 3.0, 17.125),
                confidence=(i % 97) / 96,
                track_id=i % 3 if i % 5 else None,
            )
        )
    return out


class TestRle:
    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        raster = (rng.random((13, 17)) > 0.5).astype(np.uint8)
        assert (rle_decode(rle_encode(raster), 17, 13) == raster).all()

    def test_starts_with_zero_run(self):
        raster = np.ones((2, 3), dtype=np.uint8)
        assert rle_encode(raster) == [0, 6]

    def test_length_validated(self):
        with pytest.raises(ValueError):
            rle_decode([3, 2], 4, 4)


class TestRoundTrips:
    def test_detections_round_trip(self, tmp_path):
        records = make_detections()
        path = tmp_path / "d.jsonl"
        write_records(records, path, "detections")
        assert list(read_records(path, "detections")) == records

    def test_detections_byte_identical_reparse(self, tmp_path):
        records = make_detections()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(records, p1, "detections")
        write_records(read_records(p1, "detections"), p2, "detections")
        assert p1.read_bytes() == p2.read_bytes()

    def test_scored_cubes_full_precision(self, tmp_path):
        scores = (0.1234567890123456789, 1 / 3, 0.9999999999999999)
        cube = Cube("v", BBox(0.1, 10.7, 0.2, 9.3), 0, 64, seed_track=4,
                    object_class="person", fg_score=0.25,
                    labels=frozenset({"walk"}))
        record = ScoredCube(cube, scores)
        path = tmp_path / "s.jsonl"
        write_records([record], path, "scored-proposals")
        (back,) = read_records(path, "scored-proposals")
        assert back == record
        assert back.scores == tuple(float(s) for s in scores)

    def test_annotations_round_trip(self, tmp_path):
        ann = ActivityAnnotation(
            "v", "walk", 3, 10,
            tuple((f, BBox(f, f + 5.5, 0, 4)) for f in range(3, 10)),
        )
        path = tmp_path / "a.jsonl"
        write_records([ann], path, "annotations")
        assert list(read_records(path, "annotations")) == [ann]

    def test_masks_round_trip(self, tmp_path):
        raster = np.zeros((5, 8), dtype=np.uint8)
        raster[1:3, 2:6] = 1
        masks = [MaskFrame.from_array("v", f, raster) for f in (0, 8)]
        path = tmp_path / "m.jsonl"
        write_records(masks, path, "masks")
        back = list(read_records(path, "masks"))
        assert back == masks
        assert (back[0].decode() == raster).all()

    def test_instances_round_trip(self, tmp_path):
        inst = ActivityInstance("v", "walk", 0, 64, BBox(0, 4, 0, 4), 0.75,
                                seed_track=-1,
                                tube=((0, BBox(0, 4, 0, 4)),))
        path = tmp_path / "i.jsonl"
        write_records([inst], path, "instances")
        assert list(read_records(path, "instances")) == [inst]

    def test_reports_round_trip(self, tmp_path):
        rec = ReportRecord("stats", {"a": 1, "b": [1.5, None]})
        path = tmp_path / "r.jsonl"
        write_records([rec], path, "reports")
        assert list(read_records(path, "reports")) == [rec]


class TestReaderErrors:
    def test_empty_file_is_empty_stream(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        assert list(read_records(path, "detections")) == []

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("#actpipe/detections/v1\n")
        assert list(read_records(path, "detections")) == []

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text("#actpipe/masks/v1\n")
        with pytest.raises(RecordError, match="header"):
            list(read_records(path, "detections"))

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_records(make_detections(3, "v"), path, "detections")
        with path.open("a") as fh:
            fh.write("{not json\n")
        with pytest.raises(RecordError, match=r":5"):
            list(read_records(path, "detections"))

    def test_invariant_violation_names_line(self, tmp_path):
        path = tmp_path / "inv.jsonl"
        path.write_text(
            "#actpipe/detections/v1\n"
            '{"video_id":"v","frame":0,"object_class":"p",'
            '"x0":5,"x1":5,"y0":0,"y1":2,"confidence":0.5,"track_id":null}\n'
        )
        with pytest.raises(RecordError, match=r":2"):
            list(read_records(path, "detections"))

    def test_negative_mask_run_names_line(self, tmp_path):
        # the runs total 16 cells, as a 4x4 mask needs, but one is negative
        path = tmp_path / "neg.jsonl"
        path.write_text(
            "#actpipe/masks/v1\n"
            '{"video_id":"v","frame":0,"width":4,"height":4,"rle":[16]}\n'
            '{"video_id":"v","frame":8,"width":4,"height":4,"rle":[18,-2]}\n'
        )
        with pytest.raises(RecordError,
                           match=r"neg\.jsonl:3: negative run length"):
            list(read_records(path, "masks"))

    @pytest.mark.parametrize("tube, message", [
        ("[[4,0,1,0,1],[5,0,1,0]]", "tube entries must be"),
        ("[[4,0,1,0,1],[5,0,1]]", "tube entries must be"),
        ("[[4.5,0,1,0,1]]", "non-integer tube frame"),
        ('[["4",0,1,0,1],[5,null,1,0,1]]', "tube entries|non-finite"),
        ("[[4,0,1,0,1],[5,2,2,0,1]]", "degenerate box"),
        ("[[4,0,1,0,1],[6,0,1,0,1],[4,0,2,0,2]]", "duplicate frame 4"),
        ('[[4,0,1,0,"x"]]', "tube entries must be"),
        ("[[1,0,1,0,1]]", "tube frames outside the annotation window"),
    ])
    def test_malformed_tube_names_line(self, tmp_path, tube, message):
        path = tmp_path / "tube.jsonl"
        path.write_text(
            "#actpipe/annotations/v1\n"
            '{"video_id":"v","activity_class":"walk","t0":2,"t1":9,'
            '"tube":[[2,0,1,0,1]]}\n'
            '{"video_id":"v","activity_class":"walk","t0":2,"t1":9,'
            f'"tube":{tube}}}\n'
        )
        with pytest.raises(RecordError, match=rf"tube\.jsonl:3: ({message})"):
            list(read_records(path, "annotations"))

    def test_malformed_instance_tube_names_line(self, tmp_path):
        path = tmp_path / "inst.jsonl"
        path.write_text(
            "#actpipe/instances/v1\n"
            '{"video_id":"v","activity_class":"walk","t0":0,"t1":4,"x0":0,'
            '"x1":1,"y0":0,"y1":1,"score":0.5,"seed_track":1,'
            '"tube":[[0,0,1,0,1],[0,0,1,0,1]]}\n'
        )
        with pytest.raises(RecordError, match=r"inst\.jsonl:2: duplicate frame 0"):
            list(read_records(path, "instances"))

    def test_out_of_order_frames_rejected(self, tmp_path):
        b = BBox(0, 1, 0, 1)
        records = [DetectionRecord("v", 5, "p", b, 0.5),
                   DetectionRecord("v", 3, "p", b, 0.5)]
        path = tmp_path / "o.jsonl"
        with pytest.raises(RecordError, match="out of order"):
            write_records(records, path, "detections")
        path.write_text(
            "#actpipe/detections/v1\n"
            '{"video_id":"v","frame":5,"object_class":"p",'
            '"x0":0,"x1":1,"y0":0,"y1":1,"confidence":0.5,"track_id":null}\n'
            '{"video_id":"v","frame":3,"object_class":"p",'
            '"x0":0,"x1":1,"y0":0,"y1":1,"confidence":0.5,"track_id":null}\n'
        )
        with pytest.raises(RecordError, match="out of order"):
            list(read_records(path, "detections"))

    def test_video_blocks_must_be_contiguous(self, tmp_path):
        b = BBox(0, 1, 0, 1)
        records = [DetectionRecord("a", 0, "p", b, 0.5),
                   DetectionRecord("b", 0, "p", b, 0.5),
                   DetectionRecord("a", 1, "p", b, 0.5)]
        with pytest.raises(RecordError, match="reappears"):
            write_records(records, tmp_path / "c.jsonl", "detections")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_records([], tmp_path / "missing" / "x.jsonl", "detections")

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown record kind"):
            write_records([], tmp_path / "x.jsonl", "nope")


class TestAnnotationType:
    def test_static_box_expands(self):
        ann = ActivityAnnotation.with_static_box("v", "walk", 2, 6,
                                                 BBox(0, 4, 0, 4))
        assert [f for f, _ in ann.tube] == [2, 3, 4, 5]

    def test_tube_outside_window_rejected(self):
        with pytest.raises(ValueError):
            ActivityAnnotation("v", "walk", 2, 6, ((7, BBox(0, 1, 0, 1)),))

    def test_tube_held_as_sorted_arrays(self):
        ann = ActivityAnnotation("v", "walk", 0, 9, ((7, BBox(2, 3, 0, 1)),
                                                     (1, BBox(0, 1, 0, 1))))
        assert ann.frames.dtype == np.int64 and ann.frames.tolist() == [1, 7]
        assert ann.boxes.dtype == np.float64
        assert ann.boxes.tolist() == [[0, 1, 0, 1], [2, 3, 0, 1]]
        assert ann.tube == ((1, BBox(0, 1, 0, 1)), (7, BBox(2, 3, 0, 1)))

    def test_equality_compares_tubes(self):
        box = BBox(0, 4, 0, 4)
        ann = ActivityAnnotation.with_static_box("v", "walk", 2, 6, box)
        assert ann == ActivityAnnotation("v", "walk", 2, 6,
                                         tuple((f, box) for f in range(2, 6)))
        assert ann != ActivityAnnotation.with_static_box("v", "walk", 2, 6,
                                                         BBox(0, 4, 0, 5))
        assert ann != ActivityAnnotation.with_static_box("v", "walk", 2, 7, box)
        assert ann != "not an annotation"

    def test_int_coordinates_round_trip_as_floats(self, tmp_path):
        ann = ActivityAnnotation("v", "walk", 0, 2, ((0, BBox(1, 2, -0.0, 3)),))
        path = tmp_path / "a.jsonl"
        write_records([ann], path, "annotations")
        assert path.read_text().splitlines()[1].endswith(
            '"tube":[[0,1.0,2.0,-0.0,3.0]]}')
        assert list(read_records(path, "annotations")) == [ann]

    def test_needs_one_box(self):
        with pytest.raises(ValueError):
            ActivityAnnotation("v", "walk", 2, 6, ())
