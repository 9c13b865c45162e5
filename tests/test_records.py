import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actpipe.geometry import BBox, Cube
from actpipe.records import (ActivityAnnotation, ActivityInstance, CubeTable,
                             DetectionRecord, MaskFrame, RecordError,
                             ReportRecord, ScoredCube, read_detections,
                             read_proposals, read_records, rle_decode, rle_encode,
                             write_records)
from helpers import tube_pairs


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


class TestMaskFrameOrder:
    """A video's mask frames strictly increase; detection frames may repeat."""

    MASK = '{"video_id":"v","frame":%d,"width":1,"height":1,"rle":[0,1]}\n'

    def test_reader_names_a_repeated_mask_frame(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("#actpipe/masks/v1\n" + self.MASK % 0 + self.MASK % 1
                        + self.MASK % 1)
        with pytest.raises(RecordError, match=rf"^{re.escape(str(path))}:4: "
                                              r"frame 1 repeated in video 'v'"):
            list(read_records(path, "masks"))

    def test_writer_rejects_a_repeated_mask_frame(self, tmp_path):
        masks = [MaskFrame("v", f, 1, 1, (0, 1)) for f in (0, 1, 1)]
        with pytest.raises(RecordError, match="frame 1 repeated in video 'v'"):
            write_records(masks, tmp_path / "m.jsonl", "masks")

    def test_detection_frames_may_repeat(self, tmp_path):
        b = BBox(0, 1, 0, 1)
        records = [DetectionRecord("v", f, "p", b, 0.5) for f in (0, 1, 1)]
        path = tmp_path / "d.jsonl"
        write_records(records, path, "detections")
        assert list(read_records(path, "detections")) == records
        assert list(read_detections(path)) == records


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

    @pytest.mark.parametrize("kind, read", [
        ("detections", lambda path, kind: list(read_records(path, kind))),
        ("detections", lambda path, kind: read_detections(path)),
        ("proposals", read_proposals), ("scored-proposals", read_proposals),
    ], ids=["records", "detections", "proposals", "scored"])
    def test_bytes_not_utf8_name_line(self, tmp_path, kind, read):
        path = tmp_path / "bad.jsonl"
        cube = Cube("v", BBox(0, 2, 0, 2), 0, 8, 1, "person")
        stream = {"detections": make_detections(3, "v"),
                  "proposals": [replace(cube, t0=t, t1=t + 8) for t in range(3)],
                  "scored-proposals": [ScoredCube(replace(cube, t0=t, t1=t + 8), (0.5,))
                                       for t in range(3)]}[kind]
        write_records(stream, path, kind)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"v"', b'"v\xff"')
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(RecordError, match=re.escape(
                "bad.jsonl:3: not UTF-8 (invalid start byte)")):
            read(path, kind)

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

    @pytest.mark.parametrize("runs, shown", [
        ('12,"4"', "'4'"), ("15,true", "True"), ("11.5,4.5", "11.5"),
        ("16,Infinity", "inf"), ("16,NaN", "nan"),
    ], ids=["string", "bool", "fraction", "infinite", "nan"])
    def test_mask_runs_are_integers(self, tmp_path, runs, shown):
        path = tmp_path / "runs.jsonl"
        path.write_text(
            "#actpipe/masks/v1\n"
            f'{{"video_id":"v","frame":0,"width":4,"height":4,"rle":[{runs}]}}\n'
        )
        with pytest.raises(RecordError, match=rf"runs\.jsonl:2: rle run must be "
                                              rf"an integer, got {shown}"):
            list(read_records(path, "masks"))

    def test_integral_float_mask_run_reads_as_int(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(
            "#actpipe/masks/v1\n"
            '{"video_id":"v","frame":0,"width":4,"height":4,"rle":[12,4.0]}\n'
        )
        (mask,) = read_records(path, "masks")
        assert mask.rle == (12, 4) and type(mask.rle[1]) is int

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

    DETECTION = ('"video_id":"v","object_class":"p","confidence":0.5,'
                 '"x0":0,"x1":1,"y0":0,"y1":1')
    INSTANCE = ('"video_id":"v","activity_class":"walk","x0":0,"x1":1,'
                '"y0":0,"y1":1,"score":0.5,"seed_track":1')
    PROPOSAL = '"video_id":"v","x0":0,"x1":1,"y0":0,"y1":1,"seed_track":1'

    @pytest.mark.parametrize("kind, fields, message", [
        ("detections", DETECTION + ',"frame":4.5,"track_id":1',
         "frame must be an integer, got 4.5"),
        ("detections", DETECTION + ',"frame":4,"track_id":2.9',
         "track_id must be an integer, got 2.9"),
        ("detections", DETECTION + ',"frame":Infinity,"track_id":1',
         "frame must be an integer, got inf"),
        ("detections", DETECTION + ',"frame":"4","track_id":1',
         "frame must be an integer, got '4'"),
        ("detections", DETECTION + ',"frame":true,"track_id":1',
         "frame must be an integer, got True"),
        ("instances", INSTANCE + ',"t0":0.7,"t1":10.2,"tube":null',
         "t0 must be an integer, got 0.7"),
        ("instances", INSTANCE + ',"t0":0,"t1":4,"tube":[[5,0,1,0,1]]',
         "tube frames outside the instance window"),
        ("instances", INSTANCE + ',"t0":0,"t1":4,"tube":[]',
         "instance tube needs at least one box"),
        ("proposals", PROPOSAL + ',"t0":0,"t1":true', "t1 must be an integer"),
        ("proposals", '"video_id":"v","t0":0,"t1":4,"x0":0,"x1":Infinity,'
         '"y0":0,"y1":1', "box coordinates must be finite numbers"),
        ("annotations", '"video_id":"v","activity_class":"walk","t0":0,'
         '"t1":4,"box":{"x0":0,"x1":1,"y0":NaN,"y1":1}',
         "box coordinates must be finite numbers"),
        ("masks", '"video_id":"v","frame":0,"width":4.5,"height":4,"rle":[18]',
         "width must be an integer"),
    ], ids=["frame-fraction", "track-id-fraction", "frame-infinite",
            "frame-string", "frame-bool", "instance-window-fraction",
            "instance-tube-outside-window", "instance-tube-empty",
            "proposal-t1-bool", "proposal-box-infinite", "annotation-box-nan",
            "mask-width-fraction"])
    def test_strict_fields_name_line(self, tmp_path, kind, fields, message):
        path = tmp_path / "strict.jsonl"
        path.write_text(f"#actpipe/{kind}/v1\n{{{fields}}}\n")
        with pytest.raises(RecordError, match=rf"strict\.jsonl:2: {re.escape(message)}"):
            list(read_records(path, kind))

    SCORED = PROPOSAL + ',"t0":0,"t1":4'

    @pytest.mark.parametrize("kind, fields, message", [
        ("detections", DETECTION.replace("0.5", '"0.5"') + ',"frame":4',
         "confidence must be a finite number, got '0.5'"),
        ("detections", DETECTION.replace("0.5", "true") + ',"frame":4',
         "confidence must be a finite number, got True"),
        ("detections", DETECTION.replace("0.5", "NaN") + ',"frame":4',
         "confidence must be a finite number, got nan"),
        ("proposals", PROPOSAL + ',"t0":0,"t1":4,"fg_score":"0.1"',
         "fg_score must be a finite number, got '0.1'"),
        ("proposals", PROPOSAL + ',"t0":0,"t1":4,"fg_score":Infinity',
         "fg_score must be a finite number, got inf"),
        ("instances", INSTANCE.replace("0.5", '"0.9"') + ',"t0":0,"t1":4',
         "score must be a finite number, got '0.9'"),
        ("instances", INSTANCE.replace("0.5", "true") + ',"t0":0,"t1":4',
         "score must be a finite number, got True"),
        ("scored-proposals", SCORED + ',"scores":[0.5,"0.5"]',
         "scores entry must be a finite number, got '0.5'"),
        ("scored-proposals", SCORED + ',"scores":[true]',
         "scores entry must be a finite number, got True"),
        ("scored-proposals", SCORED + ',"scores":[NaN]',
         "scores entry must be a finite number, got nan"),
        ("annotations", '"video_id":"v","activity_class":"walk","t0":2,"t1":9,'
         '"tube":[["4",0,1,0,1]]', "tube entries must be"),
        ("annotations", '"video_id":"v","activity_class":"walk","t0":0,"t1":9,'
         '"tube":[[true,0,1,0,1]]', "tube entries must be"),
        ("annotations", '"video_id":"v","activity_class":"walk","t0":2,"t1":9,'
         '"tube":[[4,0,"1",0,1]]', "tube entries must be"),
        ("instances", INSTANCE + ',"t0":0,"t1":4,"tube":[[1,0,1,false,1]]',
         "tube entries must be"),
    ], ids=["confidence-string", "confidence-bool", "confidence-nan",
            "fg-score-string", "fg-score-infinite", "score-string", "score-bool",
            "scores-string", "scores-bool", "scores-nan",
            "annotation-tube-frame-string", "annotation-tube-frame-bool",
            "annotation-tube-coordinate-string", "instance-tube-bool"])
    def test_numbers_must_be_json_numbers(self, tmp_path, kind, fields, message):
        path = tmp_path / "num.jsonl"
        path.write_text(f"#actpipe/{kind}/v1\n{{{fields}}}\n")
        with pytest.raises(RecordError, match=rf"num\.jsonl:2: {re.escape(message)}"):
            list(read_records(path, kind))

    @pytest.mark.parametrize("kind, fields, message", [
        ("proposals", PROPOSAL + ',"t0":0,"t1":4,"labels":"walk"',
         "labels must be a list, got 'walk'"),
        ("proposals", PROPOSAL + ',"t0":0,"t1":4,"labels":[1]',
         "labels must be strings, got [1]"),
        ("detections", DETECTION.replace('"v"', "5") + ',"frame":4',
         "video_id must be a string, got 5"),
        ("detections", DETECTION.replace('"p"', '["a"]') + ',"frame":4',
         "object_class must be a string, got ['a']"),
        ("reports", '"section":"evaluation","data":[1]',
         "report data must be an object, got [1]"),
    ], ids=["labels-string", "labels-number", "video-id-number",
            "object-class-list", "report-data-list"])
    def test_strings_and_labels_have_their_types(self, tmp_path, kind, fields,
                                                 message):
        path = tmp_path / "types.jsonl"
        path.write_text(f"#actpipe/{kind}/v1\n{{{fields}}}\n")
        with pytest.raises(RecordError,
                           match=rf"types\.jsonl:2: {re.escape(message)}"):
            list(read_records(path, kind))

    @pytest.mark.parametrize("kind, fields, message", [
        ("detections", DETECTION + ',"frame":4,"track_id":-1',
         "negative track_id -1"),
        ("proposals", PROPOSAL.replace('"seed_track":1', '"seed_track":-1')
         + ',"t0":0,"t1":4',
         "negative seed_track -1"),
        ("scored-proposals", SCORED.replace('"seed_track":1', '"seed_track":-3')
         + ',"scores":[0.5]', "negative seed_track -3"),
    ], ids=["detection-track-id", "proposal-seed-track", "scored-seed-track"])
    def test_negative_track_ids_name_line(self, tmp_path, kind, fields, message):
        # dedup numbers seedless chains -1, -2, ..., so input ids must not
        path = tmp_path / "ids.jsonl"
        path.write_text(f"#actpipe/{kind}/v1\n{{{fields}}}\n")
        with pytest.raises(RecordError,
                           match=rf"ids\.jsonl:2: {re.escape(message)}"):
            list(read_records(path, kind))

    CURVE = '"activity_class":"walk","no_reference":false,"points":[[0.5,0.1,0.2]]'

    @pytest.mark.parametrize("fields, message", [
        (CURVE.replace("false", '"false"'),
         "no_reference must be true or false, got 'false'"),
        ('"activity_class":3,"no_reference":false,"points":[["x",1,2]]',
         "activity_class must be a string, got 3"),
        (CURVE.replace("[0.5,", '["x",'),
         "threshold must be a finite number, got 'x'"),
        (CURVE.replace("0.2]", "NaN]"), "pmiss must be a finite number, got nan"),
        (CURVE.replace("[[0.5,0.1,0.2]]", "[[0.5,0.1]]"),
         "points entry must be [threshold, tfa, pmiss], got [0.5, 0.1]"),
        (CURVE.replace("[[0.5,0.1,0.2]]", '"none"'),
         "points must be a list, got 'none'"),
    ], ids=["no-reference-string", "class-number", "threshold-string",
            "pmiss-nan", "point-short", "points-string"])
    def test_det_curve_fields_have_their_types(self, tmp_path, fields, message):
        path = tmp_path / "curves.jsonl"
        path.write_text(f"#actpipe/det-curves/v1\n{{{fields}}}\n")
        with pytest.raises(RecordError,
                           match=rf"curves\.jsonl:2: {re.escape(message)}"):
            list(read_records(path, "det-curves"))

    def test_deep_nesting_names_line(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text("#actpipe/detections/v1\n" + "[" * 200_000 + "\n")
        with pytest.raises(RecordError, match=r"deep\.jsonl:2: maximum recursion"):
            list(read_records(path, "detections"))

    def test_integral_floats_read_as_ints(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("#actpipe/detections/v1\n{" + self.DETECTION
                        + ',"frame":4.0,"track_id":2.0}\n')
        (det,) = read_records(path, "detections")
        assert (det.frame, det.track_id) == (4, 2)
        assert type(det.frame) is int and type(det.track_id) is int

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


class TestCubeStreams:
    """A Cube or ScoredCube stream is written as one table."""

    CUBE = Cube("v", BBox(0, 2, 0, 2), 0, 8, 1, "person")

    def test_ragged_scores_raise_naming_the_key(self, tmp_path):
        stream = [ScoredCube(self.CUBE, (0.5,)),
                  ScoredCube(replace(self.CUBE, t0=4, t1=12), (0.5, 0.25))]
        with pytest.raises(ValueError, match=re.escape(
                "score vector of length 2 for ('v', 4, 12, 1), expected 1")):
            write_records(stream, tmp_path / "s.jsonl", "scored-proposals")

    def test_a_cube_in_a_scored_stream_raises_naming_its_row(self, tmp_path):
        stream = [ScoredCube(self.CUBE, (0.5,)), replace(self.CUBE, t0=4, t1=12)]
        with pytest.raises(ValueError, match=re.escape(
                "no scores for ('v', 4, 12, 1), expected 1")):
            write_records(stream, tmp_path / "s.jsonl", "scored-proposals")
        with pytest.raises(ValueError, match=re.escape(
                "s.jsonl:7: no scores for ('v', 4, 12, 1), expected 1")):
            CubeTable.from_records(stream, [3, 7], "s.jsonl")

    def test_scores_after_a_cube_raise_rather_than_drop(self, tmp_path):
        stream = [self.CUBE, ScoredCube(replace(self.CUBE, t0=4, t1=12), (0.5,))]
        with pytest.raises(ValueError, match=re.escape(
                "score vector of length 1 for ('v', 4, 12, 1), expected no scores")):
            write_records(stream, tmp_path / "p.jsonl", "proposals")

    @pytest.mark.parametrize("table", [False, True], ids=["cubes", "table"])
    def test_scored_kind_needs_scores(self, tmp_path, table):
        records = CubeTable.from_records([self.CUBE]) if table else [self.CUBE]
        with pytest.raises(ValueError, match=re.escape(
                "no scores for ('v', 0, 8, 1) in a scored-proposals stream")):
            write_records(records, tmp_path / "s.jsonl", "scored-proposals")
        assert write_records([], tmp_path / "s.jsonl", "scored-proposals") == 0


class TestWriterNumbers:
    """No file holds NaN or Infinity: a record with a non-finite number
    raises ValueError before its line is written."""

    BOX = BBox(0.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("kind,record", [
        ("detections", DetectionRecord("v", 0, "person",
                                       BBox(0.0, float("inf"), 0.0, 1.0), 0.5)),
        ("detections", DetectionRecord("v", float("inf"), "person", BOX, 0.5)),
        ("proposals", Cube("v", BBox(-float("inf"), 1.0, 0.0, 1.0), 0, 4)),
        ("instances", ActivityInstance("v", "walk", 0, 4, BOX, float("nan"))),
        ("instances", ActivityInstance("v", "walk", 0, 4, BOX, -float("inf"))),
        ("reports", ReportRecord("s", {"rate": float("inf")})),
        ("reports", ReportRecord("s", {"rates": [0.5, float("nan")]})),
    ], ids=lambda value: value if isinstance(value, str) else "")
    def test_non_finite_numbers_raise(self, tmp_path, kind, record):
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValueError):
            write_records([record], path, kind)
        assert path.read_text() == f"#actpipe/{kind}/v1\n"


class TestAnnotationType:
    def test_static_box_expands(self):
        ann = ActivityAnnotation.with_static_box("v", "walk", 2, 6,
                                                 BBox(0, 4, 0, 4))
        assert ann.frames.tolist() == [2, 3, 4, 5]

    def test_tube_outside_window_rejected(self):
        with pytest.raises(ValueError):
            ActivityAnnotation("v", "walk", 2, 6, ((7, BBox(0, 1, 0, 1)),))

    def test_tube_held_as_sorted_arrays(self):
        ann = ActivityAnnotation("v", "walk", 0, 9, ((7, BBox(2, 3, 0, 1)),
                                                     (1, BBox(0, 1, 0, 1))))
        assert ann.frames.dtype == np.int64 and ann.frames.tolist() == [1, 7]
        assert ann.boxes.dtype == np.float64
        assert ann.boxes.tolist() == [[0, 1, 0, 1], [2, 3, 0, 1]]
        assert tube_pairs(ann.frames, ann.boxes) == [(1, BBox(0, 1, 0, 1)),
                                                     (7, BBox(2, 3, 0, 1))]

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


FUZZ_DIR = tempfile.TemporaryDirectory()

# per kind a valid record, then per field whether it is required and the
# JSON types its schema allows ("float" stands for a non-integral number)
NUMBER = {"int", "float"}
BOX = {k: (True, NUMBER) for k in ("x0", "x1", "y0", "y1")}
CUBE_FIELDS = {"video_id": (True, {"str"}), "t0": (True, {"int"}),
               "t1": (True, {"int"}), **BOX,
               "seed_track": (False, {"int", "null"}),
               "object_class": (False, {"str"}),
               "fg_score": (False, NUMBER | {"null"}),
               "labels": (False, {"list", "null"})}
CUBE = {"video_id": "v", "t0": 0, "t1": 4, "x0": 0, "x1": 1, "y0": 0, "y1": 1,
        "seed_track": 1, "object_class": "person", "fg_score": 0.5,
        "labels": ["walk"]}
SCHEMAS = {
    "detections": (
        {"video_id": "v", "frame": 4, "object_class": "person", "x0": 0,
         "x1": 1, "y0": 0, "y1": 1, "confidence": 0.5, "track_id": 1},
        {"video_id": (True, {"str"}), "frame": (True, {"int"}),
         "object_class": (True, {"str"}), **BOX,
         "confidence": (True, NUMBER), "track_id": (False, {"int", "null"})}),
    "annotations": (
        {"video_id": "v", "activity_class": "walk", "t0": 0, "t1": 4,
         "tube": [[1, 0, 1, 0, 1]]},
        # without a tube the reader takes the "box" shorthand, absent here
        {"video_id": (True, {"str"}), "activity_class": (True, {"str"}),
         "t0": (True, {"int"}), "t1": (True, {"int"}), "tube": (True, {"list"})}),
    "masks": (
        {"video_id": "v", "frame": 0, "width": 3, "height": 2,
         "rle": [2, 3, 1]},
        {"video_id": (True, {"str"}), "frame": (True, {"int"}),
         "width": (True, {"int"}), "height": (True, {"int"}),
         "rle": (True, {"list"})}),
    "proposals": (CUBE, CUBE_FIELDS),
    "scored-proposals": ({**CUBE, "scores": [0.5]},
                         {**CUBE_FIELDS, "scores": (True, {"list"})}),
    "instances": (
        {"video_id": "v", "activity_class": "walk", "t0": 0, "t1": 4, "x0": 0,
         "x1": 1, "y0": 0, "y1": 1, "score": 0.5, "seed_track": 1,
         "tube": [[1, 0, 1, 0, 1]]},
        {"video_id": (True, {"str"}), "activity_class": (True, {"str"}),
         "t0": (True, {"int"}), "t1": (True, {"int"}), **BOX,
         "score": (True, NUMBER), "seed_track": (False, {"int", "null"}),
         "tube": (False, {"list", "null"})}),
    "reports": ({"section": "evaluation", "data": {"mean_naudc": 0.5}},
                {"section": (True, {"str"}), "data": (True, {"object"})}),
}
SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=4)
# empty strings, lists and objects iterate like empty lists of runs or scores
JSON_TYPES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-2**40, 2**40),
    "float": st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: not x.is_integer()),
    "str": st.just("") | st.text(max_size=8),
    "list": st.just([]) | st.lists(SCALARS, max_size=3),
    "object": st.just({}) | st.dictionaries(st.text(max_size=4), SCALARS,
                                             max_size=3),
}
FIELDS = [(kind, name) for kind in sorted(SCHEMAS) for name in SCHEMAS[kind][1]]
# the kinds read into a CubeTable
TABLE_KINDS = ("proposals", "scored-proposals")


class TestReaderFuzz:
    """Every field of every kind, present, left out or of a forbidden type;
    the table reader of the proposal kinds takes and rejects what the record
    parser does, with its error text."""

    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_valid_records_read(self, tmp_path, kind):
        path = tmp_path / "valid.jsonl"
        path.write_text(f"#actpipe/{kind}/v1\n{json.dumps(SCHEMAS[kind][0])}\n")
        assert len(list(read_records(path, kind))) == 1
        if kind in TABLE_KINDS:
            assert list(read_proposals(path, kind)) == list(read_records(path, kind))

    @pytest.mark.parametrize("kind, name", FIELDS,
                             ids=[f"{kind}-{name}" for kind, name in FIELDS])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_broken_field_names_path_and_line(self, kind, name, data):
        # the field goes missing (when required) or takes each forbidden type
        record, fields = SCHEMAS[kind]
        needed, allowed = fields[name]
        broken = [{**record, name: data.draw(JSON_TYPES[t], label=t)}
                  for t in sorted(set(JSON_TYPES) - allowed)]
        if needed:
            broken.append({k: v for k, v in record.items() if k != name})
        path = Path(FUZZ_DIR.name) / "broken.jsonl"
        for line in map(json.dumps, broken):
            path.write_text(f"#actpipe/{kind}/v1\n\n{line}\n", encoding="utf-8")
            with pytest.raises(RecordError, match=rf"^{re.escape(str(path))}:3: ") as want:
                list(read_records(path, kind))
            if kind in TABLE_KINDS:
                with pytest.raises(RecordError) as got:
                    read_proposals(path, kind)
                assert str(got.value) == str(want.value)
