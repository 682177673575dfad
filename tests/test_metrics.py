"""Tests for classification metrics and the exact signed-rank test."""

import math

import numpy as np
import pytest
from scipy import stats

from urgentbayes.encoder import aggregate_logit_samples
from urgentbayes.errors import (
    DomainError,
    InsufficientDataError,
    ShapeError,
    UsageError,
)
from urgentbayes.metrics import (
    build_report,
    confusion_matrix,
    mean_and_variance,
    per_class_metrics,
    predictive_entropy,
    signed_rank_null_distribution,
    wilcoxon_signed_rank,
)


class TestEntropy:
    def test_uniform_is_ln2(self):
        assert predictive_entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert predictive_entropy([1.0, 0.0]) == 0.0

    def test_point_nine(self):
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert predictive_entropy([0.9, 0.1]) == pytest.approx(expected, abs=1e-12)
        assert predictive_entropy([0.9, 0.1]) == pytest.approx(0.325083, abs=1e-6)

    def test_bounded_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            p1 = rng.uniform(0, 1)
            h = predictive_entropy([p1, 1.0 - p1])
            assert 0.0 <= h <= math.log(2.0) + 1e-12

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            predictive_entropy([-0.1, 1.1])

    def test_not_normalized_rejected(self):
        with pytest.raises(DomainError):
            predictive_entropy([0.4, 0.4])

    def test_rows_scored_as_vectors(self):
        rng = np.random.default_rng(1)
        p1 = np.concatenate([[0.0, 1.0, 0.5, 0.9], rng.uniform(0, 1, 200)])
        probs = np.stack([p1, 1.0 - p1], axis=1)
        rows = predictive_entropy(probs)
        assert rows.shape == (len(p1),)
        assert [repr(h) for h in rows.tolist()] == [repr(predictive_entropy(p)) for p in probs]

    def test_rows_checked(self):
        with pytest.raises(DomainError):
            predictive_entropy([[0.5, 0.5], [0.4, 0.4]])
        with pytest.raises(DomainError):
            predictive_entropy([[0.5, 0.5], [-0.1, 1.1]])

    def test_aggregation_scores_as_the_checked_function(self):
        # aggregate_logit_samples scores its own softmax output unchecked;
        # the last posts saturate to probabilities of exactly 1 and 0
        gen = np.random.default_rng(2)
        block = gen.normal(0.0, 3.0, (10, 40, 2))
        block[:, -3:] = [[800.0, -800.0], [-800.0, 800.0], [0.0, 0.0]]
        dists = aggregate_logit_samples(block)
        probs = np.stack([d.mean_probs for d in dists])
        assert probs[-3:].tolist() == [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
        want = predictive_entropy(probs).tolist()
        assert [repr(d.entropy) for d in dists] == [repr(h) for h in want]


class TestConfusionAndReport:
    def test_confusion_layout(self):
        counts = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 0])
        np.testing.assert_array_equal(counts, [[1, 1], [1, 1]])

    def test_hand_case(self):
        # TP=3, FP=1, FN=1, TN=5 for the urgent class
        y_true = [1] * 4 + [0] * 6
        y_pred = [1, 1, 1, 0] + [0] * 5 + [1]
        counts = confusion_matrix(y_true, y_pred)
        m1 = per_class_metrics(counts, 1)
        assert m1.precision == pytest.approx(0.75)
        assert m1.recall == pytest.approx(0.75)
        assert m1.f1 == pytest.approx(0.75)
        report = build_report(y_true, y_pred, np.zeros(10))
        assert report.accuracy == pytest.approx(0.8)

    def test_perfect_classifier(self):
        y = [0, 1, 0, 1]
        report = build_report(y, y, np.zeros(4))
        assert report.accuracy == 1.0
        assert report.per_class[0].f1 == 1.0
        assert report.per_class[1].f1 == 1.0

    def test_all_predict_majority(self):
        y_true = [0] * 8 + [1] * 2
        y_pred = [0] * 10
        report = build_report(y_true, y_pred, np.zeros(10))
        assert report.accuracy == pytest.approx(0.8)
        assert report.per_class[1].recall == 0.0
        assert report.per_class[1].precision == 0.0
        assert report.per_class[1].f1 == 0.0

    def test_accuracy_is_prevalence_weighted_recall(self):
        rng = np.random.default_rng(4)
        y_true = rng.integers(0, 2, size=60)
        y_true[:2] = [0, 1]
        y_pred = rng.integers(0, 2, size=60)
        report = build_report(y_true, y_pred, np.zeros(60))
        weighted = sum(
            report.per_class[c].recall * (y_true == c).mean() for c in (0, 1)
        )
        assert report.accuracy == pytest.approx(weighted)

    def test_confusion_total_is_n(self):
        rng = np.random.default_rng(5)
        y_true = rng.integers(0, 2, size=33)
        y_pred = rng.integers(0, 2, size=33)
        counts = confusion_matrix(y_true, y_pred)
        assert counts.sum() == 33

    def test_empty_test_set_rejected(self):
        with pytest.raises(UsageError):
            build_report([], [], [])

    def test_report_dict_field_order(self):
        report = build_report([0, 1], [0, 1], [0.1, 0.2])
        keys = list(report.to_dict().keys())
        assert keys[:2] == ["accuracy", "mean_entropy"]
        assert keys[2:4] == ["class_0", "class_1"]


class TestWilcoxon:
    def test_all_positive_n5_one_sided(self):
        res = wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 0, 0, 0, 0], "greater")
        assert res.p_value == 1.0 / 32.0
        assert res.statistic == 15.0

    def test_identical_inputs_insufficient(self):
        with pytest.raises(InsufficientDataError):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_negation_swaps_one_sided(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=9)
        b = rng.normal(size=9)
        fwd = wilcoxon_signed_rank(a, b, "greater")
        rev = wilcoxon_signed_rank(b, a, "less")
        assert fwd.p_value == rev.p_value

    def test_distribution_sums_to_one(self):
        for n in range(1, 13):
            _, probs = signed_rank_null_distribution(n)
            assert abs(math.fsum(probs) - 1.0) < 1e-12

    def test_distribution_symmetric(self):
        values, probs = signed_rank_null_distribution(8)
        np.testing.assert_allclose(probs, probs[::-1], atol=0)
        assert values[-1] == 8 * 9 / 2

    def test_matches_scipy_exact(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(5, 13))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            for alt, scipy_alt in (
                ("two_sided", "two-sided"),
                ("greater", "greater"),
                ("less", "less"),
            ):
                ours = wilcoxon_signed_rank(a, b, alt)
                ref = stats.wilcoxon(a, b, alternative=scipy_alt, mode="exact")
                assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-12), (
                    trial,
                    alt,
                )

    def test_ties_get_averaged_ranks(self):
        # |d| = [1, 1, 2, 2, 3]: ranks (1.5, 1.5, 3.5, 3.5, 5)
        a = np.array([1.0, -1.0, 2.0, 2.0, 3.0])
        b = np.zeros(5)
        res = wilcoxon_signed_rank(a, b, "greater")
        assert res.statistic == pytest.approx(1.5 + 3.5 + 3.5 + 5.0)

    def test_zero_differences_discarded(self):
        a = np.array([5.0, 1, 2, 3, 4, 5])
        b = np.array([5.0, 0, 0, 0, 0, 0])
        res = wilcoxon_signed_rank(a, b, "greater")
        assert res.n == 5
        assert res.p_value == 1.0 / 32.0

    def test_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            wilcoxon_signed_rank([1, 2, 3], [1, 2])

    def test_unknown_alternative(self):
        with pytest.raises(UsageError):
            wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 0, 0, 0, 0], "sideways")


class TestMeanVariance:
    def test_hand_case(self):
        mean, var = mean_and_variance([0.8, 0.9])
        assert mean == pytest.approx(0.85)
        assert var == pytest.approx(0.0025)

    def test_single_value(self):
        mean, var = mean_and_variance([0.7])
        assert mean == 0.7 and var == 0.0
