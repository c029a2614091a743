import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import brute_force_matcher, prediction_table

from dualrel.metrics import (
    EvalReport,
    TripleTable,
    compute_report,
    group_mean_recall,
    mean_at_k,
    mean_recall_at_k,
    recall_at_k,
)


def brute_force_hits(preds, gts, k):
    """Independent matcher over (image, subject, object, predicate[, score])
    tuples: walk each image's ranked list, letting every prediction consume
    at most one unmatched ground truth."""
    images = sorted({g[0] for g in gts} | {p[0] for p in preds})
    total_hits = 0
    hits_by_class = {}
    for image_id in images:
        ranked = sorted(
            [p for p in preds if p[0] == image_id],
            key=lambda p: (-p[4], p[3], p[1], p[2]),
        )[:k]
        remaining = [g for g in gts if g[0] == image_id]
        for _, subject, obj, predicate, _ in ranked:
            for g in remaining:
                if g[1:] == (subject, obj, predicate):
                    remaining.remove(g)
                    total_hits += 1
                    hits_by_class[predicate] = hits_by_class.get(predicate, 0) + 1
                    break
    return total_hits, hits_by_class


def random_instance(rng, max_images=3, max_classes=4, max_preds=10):
    """(prediction table, ground-truth table, class count, prediction tuples,
    ground-truth tuples) of a random tiny instance."""
    n_images = int(rng.integers(1, max_images + 1))
    n_classes = int(rng.integers(2, max_classes + 1))
    gts, preds = [], []
    for image_id in range(n_images):
        for _ in range(int(rng.integers(1, 4))):
            gts.append((
                image_id,
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, n_classes + 1)),
            ))
        for _ in range(int(rng.integers(0, max_preds + 1))):
            preds.append((
                image_id,
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, n_classes + 1)),
                float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9])),
            ))
    return prediction_table(preds), TripleTable.from_rows(gts), n_classes, preds, gts


class TestRecallAtK:
    def test_perfect_ranking(self):
        gts = TripleTable.from_rows([(0, 1, 2, 3), (1, 2, 1, 1)])
        preds = prediction_table([(0, 1, 2, 3, 0.9), (1, 2, 1, 1, 0.8)])
        assert recall_at_k(preds, gts, 1) == 1.0

    def test_no_overlap(self):
        gts = TripleTable.from_rows([(0, 1, 2, 3)])
        preds = prediction_table([(0, 1, 2, 2, 0.9)])
        assert recall_at_k(preds, gts, 5) == 0.0

    def test_partial_hits_small_instance(self):
        gts = TripleTable.from_rows([(0, 1, 2, 1), (0, 2, 3, 2), (0, 3, 1, 3)])
        preds = prediction_table(
            [(0, 1, 2, 1, 0.9), (0, 2, 3, 2, 0.8), (0, 3, 1, 3, 0.7)]
        )
        assert recall_at_k(preds, gts, 2) == pytest.approx(2.0 / 3.0)

    def test_duplicate_predictions_consume_one_gt_each(self):
        preds = prediction_table([(0, 1, 2, 1, 0.9), (0, 1, 2, 1, 0.8)])
        assert recall_at_k(preds, TripleTable.from_rows([(0, 1, 2, 1)]), 2) == 1.0
        gts2 = TripleTable.from_rows([(0, 1, 2, 1)] * 2)
        assert recall_at_k(preds, gts2, 2) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            recall_at_k(prediction_table([]), TripleTable.from_rows([(0, 1, 1, 1)]), 0)
        with pytest.raises(ValueError):
            recall_at_k(prediction_table([]), TripleTable.from_rows([]), 5)


class TestMeanRecall:
    def test_single_class_equals_recall(self):
        gts = TripleTable.from_rows([(0, 1, 2, 1), (0, 2, 2, 1)])
        preds = prediction_table([(0, 1, 2, 1, 0.9)])
        mr, per_class = mean_recall_at_k(preds, gts, 5, 3)
        assert mr == recall_at_k(preds, gts, 5)
        assert np.isnan(per_class[2])

    def test_two_class_average(self):
        gts = TripleTable.from_rows([(0, 1, 2, 1), (0, 2, 2, 2)])
        preds = prediction_table([(0, 1, 2, 1, 0.9)])
        mr, per_class = mean_recall_at_k(preds, gts, 5, 2)
        assert mr == pytest.approx(0.5)
        assert per_class[1] == 1.0 and per_class[2] == 0.0

    def test_mr_is_mean_of_per_class(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            preds, gts, n_classes, _, _ = random_instance(rng)
            mr, per_class = mean_recall_at_k(preds, gts, 4, n_classes)
            evaluated = ~np.isnan(per_class[1:])
            assert mr == pytest.approx(
                float(np.mean(per_class[1:][evaluated])), abs=1e-12
            )


class TestMeanAtK:
    def test_ablation_table_spot_check(self):
        assert mean_at_k(0.490, 0.404) == pytest.approx(0.447)

    def test_idempotent(self):
        assert mean_at_k(0.3, 0.3) == 0.3

    def test_endpoints(self):
        assert mean_at_k(1.0, 0.0) == 0.5

    def test_range_checked(self):
        with pytest.raises(ValueError):
            mean_at_k(1.5, 0.0)


class TestGroupMeanRecall:
    def test_constant_recalls(self):
        per_class = np.array([np.nan, 0.4, 0.4, 0.4, 0.4])
        assert group_mean_recall(per_class, ([1, 2], [3], [4])) == (0.4, 0.4, 0.4)

    def test_blockwise(self):
        per_class = np.array([np.nan, 1.0, 1.0, 0.5, 0.5, 0.0, 0.0])
        groups = ([1, 2], [3, 4], [5, 6])
        assert group_mean_recall(per_class, groups) == (1.0, 0.5, 0.0)

    def test_empty_group_absent(self):
        per_class = np.array([np.nan, 1.0, np.nan])
        assert group_mean_recall(per_class, ([1], [2], []))[1:] == (None, None)

    def test_random_partitions_match_direct_average(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            per_class = np.concatenate([[np.nan], rng.random(n)])
            order = rng.permutation(np.arange(1, n + 1))
            cuts = sorted(rng.choice(np.arange(1, n), size=2, replace=False))
            groups = (
                list(order[: cuts[0]]),
                list(order[cuts[0] : cuts[1]]),
                list(order[cuts[1] :]),
            )
            result = group_mean_recall(per_class, groups)
            for value, group in zip(result, groups):
                assert value == pytest.approx(
                    float(np.mean([per_class[i] for i in group])), abs=1e-12
                )


class TestOracleAgreement:
    def test_random_tiny_instances_match_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            preds, gts, n_classes, pred_rows, gt_rows = random_instance(rng)
            for k in (1, 2, 4, 8):
                hits, by_class = brute_force_hits(pred_rows, gt_rows, k)
                assert recall_at_k(preds, gts, k) == pytest.approx(
                    hits / len(gts), abs=1e-12
                )
                _, per_class = mean_recall_at_k(preds, gts, k, n_classes)
                gt_counts = {}
                for *_, predicate in gt_rows:
                    gt_counts[predicate] = gt_counts.get(predicate, 0) + 1
                for c in range(1, n_classes + 1):
                    if c in gt_counts:
                        assert per_class[c] == pytest.approx(
                            by_class.get(c, 0) / gt_counts[c], abs=1e-12
                        )
                    else:
                        assert np.isnan(per_class[c])


class TestProperties:
    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            preds, gts, n_classes, _, _ = random_instance(rng, max_preds=10)
            values = [recall_at_k(preds, gts, k) for k in (1, 3, 5, 10)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_promoting_a_correct_prediction_never_hurts(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            preds, gts, n_classes, pred_rows, gt_rows = random_instance(rng, max_preds=8)
            correct = [i for i, p in enumerate(pred_rows) if p[:4] in gt_rows]
            if not correct:
                continue
            boosted_score = preds.score.copy()
            boosted_score[correct[0]] = 1.0
            boosted = dataclasses.replace(preds, score=boosted_score)
            for k in (1, 2, 4):
                assert recall_at_k(boosted, gts, k) >= recall_at_k(preds, gts, k) - 1e-12

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(6)
        _, gts, n_classes, pred_rows, _ = random_instance(rng, max_preds=10)
        preds = prediction_table(pred_rows)
        shuffled = prediction_table([pred_rows[i] for i in rng.permutation(len(pred_rows))])
        for k in (1, 3, 7):
            assert recall_at_k(preds, gts, k) == recall_at_k(shuffled, gts, k)
            assert mean_recall_at_k(preds, gts, k, n_classes)[0] == mean_recall_at_k(
                shuffled, gts, k, n_classes
            )[0]


def test_compute_report_identity_and_monotonicity():
    rng = np.random.default_rng(7)
    preds, gts, n_classes, _, _ = random_instance(rng, max_images=3, max_preds=10)
    groups = ([1], [2], list(range(3, n_classes + 1)))
    report = compute_report(preds, gts, n_classes, groups, ks=(1, 3, 9))
    assert isinstance(report, EvalReport)
    for k in report.ks:
        assert report.m_at_k[k] == pytest.approx(
            (report.r_at_k[k] + report.mr_at_k[k]) / 2, abs=1e-12
        )
    assert report.r_at_k[1] <= report.r_at_k[3] <= report.r_at_k[9]
    assert report.mr_at_k[1] <= report.mr_at_k[3] <= report.mr_at_k[9]


@st.composite
def tied_instances(draw):
    """Several images whose predictions take one of two scores and repeat
    triples; some images have predictions and no ground truth, or the
    reverse."""
    n_classes = draw(st.integers(1, 4))
    triple = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, n_classes))
    gts, preds = [], []
    for image_id in range(draw(st.integers(1, 4))):
        for s, o, p in draw(st.lists(triple, max_size=4)):
            gts.append((image_id, s, o, p))
        for (s, o, p), score in draw(
            st.lists(st.tuples(triple, st.sampled_from([0.25, 0.75])), max_size=14)
        ):
            preds.append((image_id, s, o, p, score))
    if not gts:
        gts.append((0, *draw(triple)))
    return preds, gts, n_classes


@settings(max_examples=300, deadline=None)
@given(tied_instances(), st.lists(st.integers(1, 16), min_size=1, max_size=4))
def test_array_ranking_matches_brute_force_matcher(instance, ks):
    pred_rows, gt_rows, n_classes = instance
    gt_counts = {}
    for *_, predicate in gt_rows:
        gt_counts[predicate] = gt_counts.get(predicate, 0) + 1
    groups = ([1], list(range(2, n_classes + 1)), [])
    preds, gts = prediction_table(pred_rows), TripleTable.from_rows(gt_rows)
    report = compute_report(preds, gts, n_classes, groups, ks)
    for k in ks:
        by_class = brute_force_matcher(pred_rows, gt_rows, k)
        recall = sum(by_class.values()) / len(gts)
        assert recall_at_k(preds, gts, k) == recall
        assert report.r_at_k[k] == recall
        mr, per_class = mean_recall_at_k(preds, gts, k, n_classes)
        expected = [by_class.get(c, 0) / gt_counts[c] for c in sorted(gt_counts)]
        assert mr == report.mr_at_k[k] == float(np.mean(expected))
        np.testing.assert_array_equal(per_class, report.per_predicate[k])
        for c in range(n_classes + 1):
            if c in gt_counts:
                assert per_class[c] == by_class.get(c, 0) / gt_counts[c]
            else:
                assert np.isnan(per_class[c])

