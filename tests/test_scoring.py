import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actpipe.geometry import BBox, Cube
from actpipe.records import ScoredCube, write_records
from actpipe.scoring import (WeightVectors, fuse_scores, load_external_scores,
                             oracle_scores, sample_frames, wbce_loss,
                             wbce_weights)


def cube(seed=1, labels=None, t0=0, t1=64):
    return Cube("v", BBox(0, 10, 0, 10), t0, t1, seed_track=seed,
                object_class="person", labels=labels)


class TestSampleFrames:
    def test_center_midpoints(self):
        assert sample_frames(0, 64, 4, "center") == [8, 24, 40, 56]

    def test_every_frame_when_t_equals_length(self):
        assert sample_frames(0, 8, 8, "center") == list(range(8))

    def test_random_deterministic(self):
        a = sample_frames(0, 64, 4, "random", seed=42)
        b = sample_frames(0, 64, 4, "random", seed=42)
        assert a == b

    def test_window_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            sample_frames(0, 3, 4)

    @given(st.integers(0, 100), st.integers(1, 200), st.integers(1, 16),
           st.integers(0, 5))
    @settings(max_examples=80)
    def test_strictly_increasing_in_range(self, t0, length, t, seed):
        if length < t:
            return
        for mode in ("center", "random"):
            frames = sample_frames(t0, t0 + length, t, mode, seed=seed)
            assert all(a < b for a, b in zip(frames, frames[1:]))
            assert all(t0 <= f < t0 + length for f in frames)


class TestWbceWeights:
    def test_hand_fixture(self):
        y = np.array([[1, 0], [1, 0], [0, 1], [0, 0]])
        w = wbce_weights(y)
        assert w.w_a == pytest.approx([2 / 3, 4 / 3], abs=1e-12)
        assert w.w_p == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_balanced_classes_unit_weights(self):
        y = np.array([[1, 0], [0, 1], [1, 0], [0, 1]])
        w = wbce_weights(y)
        assert w.w_a == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_zero_positive_class_rejected(self):
        y = np.array([[1, 0], [1, 0]])
        with pytest.raises(ValueError, match="no positive"):
            wbce_weights(y, class_names=["a", "b"])

    def test_all_positive_class(self):
        y = np.array([[1, 1], [1, 0]])
        with pytest.raises(ValueError, match="all-positive"):
            wbce_weights(y)
        w = wbce_weights(y, lenient=True)
        assert w.w_p[0] == 1.0

    @given(st.integers(1, 30), st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_activity_weights_sum_to_class_count(self, n_inst, n_cls, seed):
        rng = np.random.default_rng(seed)
        y = (rng.random((n_inst, n_cls)) > 0.5).astype(int)
        y[rng.integers(0, n_inst), :] = 1  # at least one positive per class
        zero_neg = (n_inst - y.sum(axis=0)) == 0
        w = wbce_weights(y, lenient=bool(zero_neg.any()))
        assert abs(float(w.w_a.sum()) - n_cls) < 1e-12


class TestWbceLoss:
    def test_uniform_half_scores_log2(self):
        y = np.array([[1, 0], [0, 1], [1, 1]])
        p = np.full((3, 2), 0.5)
        w = WeightVectors(np.ones(2), np.ones(2))
        assert wbce_loss(p, y, w) == pytest.approx(math.log(2))

    def test_perfect_scores_near_zero(self):
        y = np.array([[1, 0], [0, 1]])
        p = np.where(y == 1, 1.0, 0.0)
        w = WeightVectors(np.ones(2), np.ones(2))
        assert wbce_loss(p, y, w) < 1e-6

    def test_doubling_positive_weight_doubles_positive_term(self):
        rng = np.random.default_rng(3)
        y = (rng.random((6, 3)) > 0.5).astype(float)
        p = rng.uniform(0.1, 0.9, (6, 3))
        w_a = np.array([1.0, 2.0, 0.5])
        w1 = WeightVectors(w_a, np.array([1.0, 1.0, 1.0]))
        w2 = WeightVectors(w_a, np.array([2.0, 1.0, 1.0]))
        delta = wbce_loss(p, y, w2) - wbce_loss(p, y, w1)
        positive_term = np.mean(w_a[0] * y[:, 0] * -np.log(p[:, 0])) / 3
        assert delta == pytest.approx(positive_term)

    def test_nonnegative_and_monotone_in_positive_score(self):
        y = np.array([[1.0]])
        w = WeightVectors(np.ones(1), np.ones(1))
        losses = [wbce_loss(np.array([[p]]), y, w) for p in (0.2, 0.5, 0.9)]
        assert all(v >= 0 for v in losses)
        assert losses[0] > losses[1] > losses[2]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wbce_loss(np.zeros((2, 2)), np.zeros((2, 3)),
                      WeightVectors(np.ones(3), np.ones(3)))


class TestOracleScores:
    classes = ("carry", "walk")

    def test_single_positive(self):
        (sc,) = oracle_scores([cube(labels=frozenset({"walk"}))], self.classes)
        assert sc.scores == (0.0, 1.0)

    def test_negative_zero_vector(self):
        (sc,) = oracle_scores([cube(labels=frozenset())], self.classes)
        assert sc.scores == (0.0, 0.0)

    def test_unassigned_zero_vector(self):
        (sc,) = oracle_scores([cube(labels=None)], self.classes)
        assert sc.scores == (0.0, 0.0)

    def test_multi_label(self):
        (sc,) = oracle_scores([cube(labels=frozenset({"walk", "carry"}))],
                              self.classes)
        assert sc.scores == (1.0, 1.0)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="not in activity_classes"):
            oracle_scores([cube(labels=frozenset({"fly"}))], self.classes)


class TestExternalScores:
    classes = ("carry", "walk")

    def write_scores(self, path, scored):
        write_records(scored, path, "scored-proposals")

    def test_exact_join(self, tmp_path):
        proposals = [cube(seed=i) for i in range(1, 11)]
        scored = [ScoredCube(c, (0.1, 0.2)) for c in proposals]
        path = tmp_path / "s.jsonl"
        self.write_scores(path, scored)
        out = load_external_scores(path, proposals, self.classes)
        assert len(out) == 10
        assert all(sc.scores == (0.1, 0.2) for sc in out)

    def test_missing_key_rejected(self, tmp_path):
        proposals = [cube(seed=i) for i in (1, 2)]
        path = tmp_path / "s.jsonl"
        self.write_scores(path, [ScoredCube(proposals[0], (0.1, 0.2))])
        with pytest.raises(ValueError, match="missing scores"):
            load_external_scores(path, proposals, self.classes)

    def test_extra_keys_ignored(self, tmp_path, caplog):
        proposals = [cube(seed=1)]
        extra = [ScoredCube(cube(seed=9), (0.3, 0.4))]
        path = tmp_path / "s.jsonl"
        self.write_scores(path, [ScoredCube(proposals[0], (0.1, 0.2))] + extra)
        import logging
        with caplog.at_level(logging.WARNING):
            out = load_external_scores(path, proposals, self.classes)
        assert len(out) == 1
        assert "extra" in caplog.text

    def test_wrong_vector_length_rejected(self, tmp_path):
        proposals = [cube(seed=1)]
        path = tmp_path / "s.jsonl"
        self.write_scores(path, [ScoredCube(proposals[0], (0.1, 0.2, 0.3))])
        with pytest.raises(ValueError, match="length"):
            load_external_scores(path, proposals, self.classes)

    def test_duplicate_key_rejected(self, tmp_path):
        proposals = [cube(seed=1), cube(seed=2)]
        path = tmp_path / "dup.jsonl"
        self.write_scores(path, [ScoredCube(proposals[0], (0.1, 0.2)),
                                 ScoredCube(proposals[1], (0.3, 0.4)),
                                 ScoredCube(proposals[0], (0.9, 0.9))])
        with pytest.raises(ValueError,
                           match=r"dup\.jsonl: duplicate score key \('v', 0, 64, 1\)"):
            load_external_scores(path, proposals, self.classes)


class TestFusion:
    def scored(self, values):
        return [ScoredCube(cube(seed=i + 1), v) for i, v in enumerate(values)]

    def test_single_model_identity(self):
        a = self.scored([(0.2, 0.6), (0.1, 0.9)])
        out = fuse_scores([a], np.ones((1, 2)))
        assert [sc.scores for sc in out] == [(0.2, 0.6), (0.1, 0.9)]

    def test_uniform_average(self):
        a = self.scored([(0.2, 0.2)])
        b = self.scored([(0.6, 0.6)])
        (out,) = fuse_scores([a, b])
        assert out.scores == pytest.approx((0.4, 0.4))

    def test_per_class_selection(self):
        a = self.scored([(0.2, 0.3)])
        b = self.scored([(0.8, 0.9)])
        weights = np.array([[1.0, 0.0], [0.0, 1.0]])
        (out,) = fuse_scores([a, b], weights)
        assert out.scores == pytest.approx((0.2, 0.9))

    def test_uniform_fusion_permutation_invariant(self):
        a = self.scored([(0.2, 0.4)])
        b = self.scored([(0.6, 0.8)])
        c = self.scored([(0.1, 0.0)])
        first = fuse_scores([a, b, c])[0].scores
        second = fuse_scores([c, a, b])[0].scores
        assert first == pytest.approx(second)

    def test_weights_must_sum_to_one(self):
        a = self.scored([(0.2, 0.4)])
        b = self.scored([(0.6, 0.8)])
        with pytest.raises(ValueError, match="sum to 1"):
            fuse_scores([a, b], np.array([[0.7, 0.5], [0.7, 0.5]]))

    def test_coverage_mismatch_rejected(self):
        a = self.scored([(0.2, 0.4)])
        b = [ScoredCube(cube(seed=99), (0.6, 0.8))]
        with pytest.raises(ValueError, match="different proposals"):
            fuse_scores([a, b])
