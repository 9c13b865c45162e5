import ast
import inspect
import tracemalloc

import pytest

from actpipe import dedup, evaluation
from actpipe.config import PipelineConfig
from actpipe.evaluation import (QUALITY_LEVELS, DetCurve, DetPoint,
                                det_curve, evaluation_report, map_3diou,
                                naudc, oracle_lower_bound, pmiss_at_tfa,
                                proposal_quality)
from actpipe.geometry import BBox
from actpipe.labeling import gt_to_cubes, label_stage
from actpipe.proposals import generate_proposals
from actpipe.records import ActivityAnnotation, ActivityInstance
from actpipe.scoring import oracle_scores
from actpipe.synth import generate_corpus
from actpipe.tracking import tracks_from_records
from helpers import misaligned_scenes

BOX = BBox(0, 10, 0, 10)


def ann(t0, t1, cls="walk", video="v", box=BOX):
    return ActivityAnnotation.with_static_box(video, cls, t0, t1, box)


def pred(t0, t1, score, cls="walk", video="v", box=BOX, tube=None):
    return ActivityInstance(video, cls, t0, t1, box, score, seed_track=1,
                            tube=tube)


class TestDetCurve:
    def test_hand_worked_example(self):
        gts = [ann(0, 100)]
        preds = [pred(0, 100, 0.7), pred(500, 600, 0.8)]
        curve = det_curve(preds, gts, {"v": 1000}, 30)["walk"]
        assert [(p.threshold, p.pmiss) for p in curve.points] == [
            (0.8, 1.0), (0.7, 0.0)]
        assert curve.points[0].tfa == pytest.approx(1 / 9)
        assert curve.points[1].tfa == pytest.approx(1 / 9)

    def test_perfect_predictions_pinned_at_origin(self):
        gts = [ann(0, 100), ann(300, 500)]
        preds = [pred(0, 100, 0.9), pred(300, 500, 0.9)]
        curve = det_curve(preds, gts, {"v": 1000}, 30)["walk"]
        assert [(p.tfa, p.pmiss) for p in curve.points] == [(0.0, 0.0)]

    def test_no_predictions(self):
        curve = det_curve([], [ann(0, 100)], {"v": 1000}, 30)["walk"]
        assert curve.points == ()
        assert pmiss_at_tfa(curve, 0.0) == 1.0
        assert naudc(curve) == 1.0

    def test_class_without_reference_flagged(self):
        curves = det_curve([pred(0, 64, 0.5, cls="carry")], [ann(0, 100)],
                           {"v": 1000}, 30)
        assert curves["carry"].no_reference
        assert not curves["walk"].no_reference

    def test_overlap_below_tolerance_is_a_miss(self):
        gts = [ann(0, 100)]
        preds = [pred(80, 200, 0.9)]  # 20 overlapping frames
        curve = det_curve(preds, gts, {"v": 1000}, 30)["walk"]
        assert curve.points[0].pmiss == 1.0
        curve = det_curve(preds, gts, {"v": 1000}, 20)["walk"]
        assert curve.points[0].pmiss == 0.0

    def test_multiple_fragments_may_detect_one_gt(self):
        gts = [ann(0, 200)]
        preds = [pred(0, 64, 0.9), pred(64, 128, 0.8), pred(128, 200, 0.7)]
        curve = det_curve(preds, gts, {"v": 1000}, 30)["walk"]
        assert all(p.pmiss == 0.0 for p in curve.points)
        assert all(p.tfa == 0.0 for p in curve.points)

    def test_fa_frames_counted_once(self):
        gts = [ann(0, 100)]
        preds = [pred(500, 600, 0.8), pred(500, 600, 0.6)]
        curve = det_curve(preds, gts, {"v": 1000}, 30)["walk"]
        assert curve.points[-1].tfa == pytest.approx(100 / 900)

    def test_zero_negative_frames_reads_as_zero_tfa(self):
        gts = [ann(0, 100)]
        preds = [pred(0, 100, 0.9)]
        curve = det_curve(preds, gts, {"v": 100}, 30)["walk"]
        assert curve.points[0].tfa == 0.0

    def test_monotone_transform_invariance(self):
        gts = [ann(0, 100), ann(300, 400)]
        preds = [pred(0, 100, 0.2), pred(500, 600, 0.5), pred(300, 400, 0.8)]
        base = det_curve(preds, gts, {"v": 1000}, 30)["walk"]
        squashed = [
            ActivityInstance(p.video_id, p.activity_class, p.t0, p.t1, p.bbox,
                             p.score ** 3, seed_track=p.seed_track)
            for p in preds
        ]
        other = det_curve(squashed, gts, {"v": 1000}, 30)["walk"]
        assert [(p.tfa, p.pmiss) for p in base.points] == \
            [(p.tfa, p.pmiss) for p in other.points]

    def test_adding_correct_prediction_never_hurts(self):
        gts = [ann(0, 100), ann(300, 400)]
        preds = [pred(0, 100, 0.7)]
        better = preds + [pred(300, 400, 0.6)]
        for budget in (0.0, 0.05, 0.2):
            a = pmiss_at_tfa(det_curve(preds, gts, {"v": 1000}, 30)["walk"],
                             budget)
            b = pmiss_at_tfa(det_curve(better, gts, {"v": 1000}, 30)["walk"],
                             budget)
            assert b <= a

    def test_unknown_video_rejected(self):
        with pytest.raises(ValueError, match="video length"):
            det_curve([pred(0, 64, 0.5, video="w")], [ann(0, 100)],
                      {"v": 1000}, 30)

    @pytest.mark.parametrize("preds, gts, kind", [
        ([pred(0, 100, 0.5)], [ann(0, 40)], "predicted"),
        ([pred(0, 40, 0.5)], [ann(0, 100)], "annotated"),
    ])
    def test_window_past_video_end_rejected(self, preds, gts, kind):
        with pytest.raises(ValueError, match=rf"{kind} window \[0, 100\) ends "
                                             r"past the 50 frames of video 'v'"):
            det_curve(preds, gts, {"v": 50}, 30)


class TestPmissAndNaudc:
    curve = DetCurve("walk", (DetPoint(0.8, 1 / 9, 1.0),
                              DetPoint(0.7, 1 / 9, 0.0)))

    def test_budget_below_first_point(self):
        assert pmiss_at_tfa(self.curve, 0.02) == 1.0

    def test_budget_covers_points(self):
        assert pmiss_at_tfa(self.curve, 0.2) == 0.0

    def test_perfect_curve_at_zero_budget(self):
        perfect = DetCurve("walk", (DetPoint(0.9, 0.0, 0.0),))
        assert pmiss_at_tfa(perfect, 0.0) == 0.0

    def test_naudc_hand_value(self):
        assert naudc(self.curve, 0.2) == pytest.approx(5 / 9, abs=1e-9)

    def test_naudc_bounds(self):
        perfect = DetCurve("walk", (DetPoint(0.9, 0.0, 0.0),))
        assert naudc(perfect, 0.2) == 0.0
        assert naudc(DetCurve("walk", ()), 0.2) == 1.0

    def test_naudc_points_beyond_limit_ignored(self):
        curve = DetCurve("walk", (DetPoint(0.9, 0.5, 0.0),))
        assert naudc(curve, 0.2) == 1.0


def tube_of(box, frames):
    return tuple((f, box) for f in frames)


class TestMap3dIou:
    def test_identical_predictions_ap_one(self):
        gts = [ann(0, 64), ann(100, 164, video="w")]
        preds = [pred(0, 64, 0.9), pred(100, 164, 0.8, video="w")]
        result = map_3diou(preds, gts)
        assert result.mean == 1.0
        assert all(v == 1.0 for v in result.map_at.values())

    def test_partial_iou_threshold_gate(self):
        # one gt frame, boxes overlapping with IoU 0.3 exactly: 30/(70+30)
        gt_box = BBox(0, 70, 0, 1)
        pr_box = BBox(40, 100, 0, 1)
        gts = [ActivityAnnotation("v", "walk", 0, 1, ((0, gt_box),))]
        preds = [pred(0, 1, 0.9, box=pr_box, tube=((0, pr_box),))]
        result = map_3diou(preds, gts, thresholds=(0.1, 0.2, 0.5))
        assert result.ap[0.1]["walk"] == 1.0
        assert result.ap[0.2]["walk"] == 1.0
        assert result.ap[0.5]["walk"] == 0.0
        assert result.mean == pytest.approx(2 / 3)

    def test_duplicate_prediction_is_false_positive(self):
        gts = [ann(0, 64)]
        preds = [pred(0, 64, 0.9), pred(0, 64, 0.8)]
        result = map_3diou(preds, gts, thresholds=(0.5,))
        # the duplicate cannot claim the matched gt again
        assert result.ap[0.5]["walk"] == 1.0
        gts2 = [ann(0, 64), ann(0, 64, video="w")]
        preds2 = [pred(0, 64, 0.9), pred(0, 64, 0.8)]
        result2 = map_3diou(preds2, gts2, thresholds=(0.5,))
        # second gt (other video) unmatched: recall stuck at 0.5
        assert result2.ap[0.5]["walk"] == pytest.approx(0.5)

    def test_lower_threshold_never_worse(self):
        gt_box = BBox(0, 70, 0, 1)
        pr_box = BBox(40, 100, 0, 1)
        gts = [ActivityAnnotation("v", "walk", 0, 1, ((0, gt_box),))]
        preds = [pred(0, 1, 0.9, box=pr_box, tube=((0, pr_box),))]
        result = map_3diou(preds, gts, thresholds=(0.1, 0.2, 0.5))
        values = [result.map_at[t] for t in (0.1, 0.2, 0.5)]
        assert values == sorted(values, reverse=True)

    def test_bbox_fallback_tube(self):
        gts = [ann(0, 64)]
        preds = [pred(0, 64, 0.9)]  # no explicit tube: box on every frame
        result = map_3diou(preds, gts, thresholds=(0.5,))
        assert result.ap[0.5]["walk"] == 1.0


    def test_ties_claim_the_first_ground_truth(self):
        # the first prediction overlaps both GTs at IoU 1/3; claiming the
        # second would leave the first free for the exact second prediction
        gts = [ann(0, 10, box=BBox(0, 10, 0, 10)),
               ann(0, 10, box=BBox(10, 20, 0, 10))]
        preds = [pred(0, 10, 0.9, box=BBox(5, 15, 0, 10)),
                 pred(0, 10, 0.8, box=BBox(0, 10, 0, 10))]
        assert map_3diou(preds, gts, thresholds=(0.1,)).ap[0.1]["walk"] == 0.5

    def test_long_video_blocks_stay_bounded(self):
        # 40 x 40 tubes on a 20,000-frame span: one unchunked block would
        # hold 256 MB per (prediction x GT x frame) float64 array
        gts = [ann(500 * g, 500 * g + 500, box=BBox(g, g + 10, 0, 10))
               for g in range(40)]
        preds = [pred(a.t0, a.t1, 0.5, box=BBox(*a.boxes[0])) for a in gts]
        tracemalloc.start()
        try:
            result = map_3diou(preds, gts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.mean == 1.0
        assert peak < 64 * 2**20


class TestProposalQuality:
    config = PipelineConfig(activity_classes=("walk",))

    def test_gt_cubes_as_proposals_near_zero(self):
        gts = [ann(0, 192, video="v"), ann(64, 256, video="w")]
        lengths = {"v": 512, "w": 512}
        bound = oracle_lower_bound(gts, self.config, lengths)
        assert bound < 0.05

    def test_empty_proposals_full_miss(self):
        gts = [ann(0, 192)]
        report = proposal_quality([], gts, self.config, {"v": 512})
        assert report["iou"]["levels"][0.0] == 1.0
        assert report["coverage"]["average"] == 1.0

    def test_gt_cube_proposals_are_labeled(self):
        cubes = gt_to_cubes(ann(0, 128), self.config.d_prop, self.config.s_prop)
        assert len(cubes) == 5
        assert all(c.labels == frozenset({"walk"}) for c in cubes)

    def test_levels_monotone_marginally(self):
        gts = [ann(0, 192)]
        proposals = gt_to_cubes(gts[0], self.config.d_prop, self.config.s_prop)
        report = proposal_quality(proposals, gts, self.config, {"v": 512})
        levels = report["iou"]["levels"]
        assert list(levels) == list(QUALITY_LEVELS)
        assert list(report["coverage"]["levels"]) == list(QUALITY_LEVELS)
        # perfect proposals survive every level up to 1.0 IoU
        assert levels[0.0] == levels[0.9]
        assert report["n_proposals"] == len(proposals)


def misaligned_quality_inputs(n_scenes):
    """Labeled proposals, annotations and lengths of the misaligned scenes."""
    config = PipelineConfig(d_prop=64, s_prop=16)
    specs = misaligned_scenes(n_scenes)
    scenes = generate_corpus(specs, config)
    lengths = {s.video_id: s.video_len for s in specs}
    tracks = tracks_from_records(d for s in scenes for d in s.detections)
    proposals = generate_proposals(tracks, lengths,
                                   {s.video_id: s.frame_size for s in specs},
                                   config)
    annotations = [a for s in scenes for a in s.annotations]
    labeled, _ = label_stage(proposals, annotations, config)
    return labeled, annotations, config, lengths


class TestProposalQualityWork:
    def test_scores_once_and_dedups_each_partition_once(self, monkeypatch):
        proposals, annotations, config, lengths = misaligned_quality_inputs(8)
        scored_calls = []
        partitions_seen = []
        keys = []
        iter_partitions = dedup._iter_partitions
        dedup_partitions = dedup._dedup_partitions

        def counting_oracle_scores(cubes, classes):
            scored_calls.append(oracle_scores(cubes, classes))
            return scored_calls[-1]

        def counting_iter_partitions(scored_cubes, ids):
            for part in iter_partitions(scored_cubes, ids):
                partitions_seen.append(part)
                yield part

        def counting_dedup_partitions(table, parts, cfg):
            assert table is scored_calls[0]
            keys.extend((video, pid, tuple(members)) for video, pid, members in parts)
            return dedup_partitions(table, parts, cfg)

        monkeypatch.setattr(evaluation, "oracle_scores", counting_oracle_scores)
        monkeypatch.setattr(dedup, "_iter_partitions", counting_iter_partitions)
        monkeypatch.setattr(dedup, "_dedup_partitions", counting_dedup_partitions)
        proposal_quality(proposals, annotations, config, lengths)

        assert len(scored_calls) == 1
        assert len(keys) == len(set(keys))
        assert set(keys) == set(partitions_seen)
        # 20 nested level subsets: most partitions recur unchanged
        assert len(partitions_seen) > 2 * len(keys), \
            (len(partitions_seen), len(keys))

    def test_evaluation_imports_only_the_dedup_entry_points(self):
        tree = ast.parse(inspect.getsource(evaluation))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.module or "").endswith("dedup")
                    for alias in node.names}
        assert imported == {"deduplicate", "deduplicate_subsets"}
        assert not any(alias.name.endswith("dedup")
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       for alias in node.names)


class TestEvaluationReport:
    def test_summary_fields(self):
        config = PipelineConfig(activity_classes=("walk", "carry"))
        gts = [ann(0, 100)]
        preds = [pred(0, 100, 0.9)]
        curves, summary = evaluation_report(preds, gts, config, {"v": 1000})
        assert summary["mean_naudc"] == 0.0
        assert summary["mean_pmiss@0.02"] == 0.0
        assert summary["classes"]["walk"]["naudc"] == 0.0
        assert summary["classes"]["carry"] == {"no_reference": True}
        assert "map_3d_iou" not in summary

    def test_strict_adds_map(self):
        config = PipelineConfig(activity_classes=("walk",))
        gts = [ann(0, 100)]
        preds = [pred(0, 100, 0.9)]
        _, summary = evaluation_report(preds, gts, config, {"v": 1000},
                                       strict=True)
        assert summary["map_3d_iou"]["mean"] == 1.0
