"""Ranking metrics for relation prediction.

Per image, predictions are sorted by descending score (ties broken by lower
predicate index, then subject and object class) and the top K are matched
against the image's ground-truth triples, each prediction consuming at most
one ground truth. Recall@K is micro-averaged over the whole test set (total
hits / total ground truths); mean recall averages the per-predicate
recalls; Mean@K is the arithmetic mean of the two.

Predictions and ground truths are ``TripleTable`` columns, never one object
per row. ``compute_report`` counts every K from one ranking; the library
calls only it. ``recall_at_k`` and ``mean_recall_at_k`` rank once per call
and remain because the benchmark in ``bench/`` traces them by name.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_KS = (20, 50, 100)
TRIPLE_FIELDS = ("image_id", "subject_class", "object_class", "predicate")


@dataclass(frozen=True)
class TripleTable:
    """Predictions or ground truths as columns, one row each.

    The four id columns are integer arrays; ``score`` is the predictions'
    float column and None for ground truths. ``len`` is the row count.
    """

    image_id: np.ndarray
    subject_class: np.ndarray
    object_class: np.ndarray
    predicate: np.ndarray
    score: np.ndarray = None

    def __len__(self):
        return len(self.predicate)

    @classmethod
    def from_rows(cls, rows, score=None):
        """Table of (image, subject, object, predicate) rows."""
        ids = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
        return cls(*ids.T, score)


def _hits(preds, gts, ks, num_classes):
    """Matched ground truths per predicate class among each image's top K.

    Returns an int64 array of shape (len(ks), num_classes + 1), one row per
    K, all from one sort. One lexsort ranks every image's predictions (by
    descending score, ties broken by lower predicate, then subject and
    object class). Each (image, subject, object, predicate) is one integer
    key, and a key matches min(its count among the top K, its ground-truth
    count) ground truths: each prediction consumes at most one.
    """
    order = np.lexsort((preds.object_class, preds.subject_class, preds.predicate,
                        -preds.score, preds.image_id))
    image = preds.image_id[order]
    starts = np.flatnonzero(np.r_[True, image[1:] != image[:-1]])
    rank = np.arange(len(order)) - np.repeat(starts, np.diff(np.r_[starts, len(order)]))

    dims = tuple(
        1 + max(int(getattr(t, name).max(initial=0)) for t in (preds, gts))
        for name in TRIPLE_FIELDS
    )

    def keys(table):
        return np.ravel_multi_index(
            tuple(getattr(table, name) for name in TRIPLE_FIELDS), dims
        )

    truth_keys, truth_counts = np.unique(keys(gts), return_counts=True)
    truth_class = np.unravel_index(truth_keys, dims)[-1]
    ranked_keys = keys(preds)[order]
    slot = np.minimum(np.searchsorted(truth_keys, ranked_keys), len(truth_keys) - 1)
    matched = truth_keys[slot] == ranked_keys
    hits = np.zeros((len(ks), num_classes + 1), dtype=np.int64)
    for row, k in enumerate(ks):
        in_top = np.bincount(slot[matched & (rank < k)], minlength=len(truth_keys))
        per_key = np.minimum(in_top, truth_counts)
        hits[row] = np.bincount(np.repeat(truth_class, per_key),
                                minlength=num_classes + 1)
    return hits


def _check_ks(ks, gts, what):
    if any(k <= 0 for k in ks):
        raise ValueError("K must be positive")
    if not len(gts):
        raise ValueError(f"{what} needs at least one ground truth")


def _recall(hits, num_gts):
    return float(hits.sum()) / num_gts


def _mean_recall(hits, totals):
    per_class = np.full(totals.shape[0], np.nan)
    present = totals > 0
    per_class[present] = hits[present] / totals[present]
    evaluated = present.copy()
    evaluated[0] = False
    if not evaluated.any():
        raise ValueError("no non-background predicate has ground truths")
    return float(per_class[evaluated].mean()), per_class


def recall_at_k(preds, gts, k):
    """Micro recall: matched ground truths over all ground truths."""
    _check_ks((k,), gts, "recall")
    num_classes = int(gts.predicate.max())
    hits = _hits(preds, gts, (k,), num_classes)
    return _recall(hits[0], len(gts))


def mean_recall_at_k(preds, gts, k, num_predicates):
    """Unweighted mean of per-predicate recalls.

    Returns (mean, per-predicate vector of length num_predicates + 1);
    classes without ground truths hold NaN and are excluded from the mean.
    """
    _check_ks((k,), gts, "mean recall")
    hits = _hits(preds, gts, (k,), num_predicates)
    totals = np.bincount(gts.predicate, minlength=num_predicates + 1)
    return _mean_recall(hits[0], totals)


def mean_at_k(r, mr):
    """Comprehensive score: the arithmetic mean of recall and mean recall."""
    if not (0.0 <= r <= 1.0 and 0.0 <= mr <= 1.0):
        raise ValueError("recalls must lie in [0, 1]")
    return (r + mr) / 2.0


def group_mean_recall(per_predicate_recalls, groups):
    """Mean per-class recall within each frequency group.

    groups is an iterable of predicate-index collections (many, medium,
    few). A group whose classes were all absent from the ground truths is
    reported as None, not zero.
    """
    results = []
    for group in groups:
        values = [
            per_predicate_recalls[i]
            for i in group
            if not np.isnan(per_predicate_recalls[i])
        ]
        results.append(float(np.mean(values)) if values else None)
    return tuple(results)


@dataclass
class EvalReport:
    """Per-K metrics plus per-predicate and frequency-group recalls."""

    ks: tuple
    r_at_k: dict
    mr_at_k: dict
    m_at_k: dict
    per_predicate: dict
    group_recalls: dict


def compute_report(preds, gts, num_predicates, groups, ks=DEFAULT_KS):
    """R@K, mR@K, Mean@K, per-predicate and group recalls for every K.

    preds is a scored TripleTable and gts an unscored one; every K comes
    from one ranking.
    """
    _check_ks(ks, gts, "recall")
    totals = np.bincount(gts.predicate, minlength=num_predicates + 1)
    hits = _hits(preds, gts, ks, num_predicates)
    report = EvalReport(tuple(ks), {}, {}, {}, {}, {})
    for k, hits_k in zip(ks, hits):
        r = _recall(hits_k, len(gts))
        mr, per_class = _mean_recall(hits_k, totals)
        report.r_at_k[k] = r
        report.mr_at_k[k] = mr
        report.m_at_k[k] = mean_at_k(r, mr)
        report.per_predicate[k] = per_class
        report.group_recalls[k] = group_mean_recall(per_class, groups)
    return report


def format_report(report, vocab):
    """Text tables: (metric, K, value) rows, then per-predicate recalls
    sorted by descending training frequency."""
    lines = ["metric\tK\tvalue"]
    group_names = ("many", "medium", "few")
    for k in report.ks:
        lines.append(f"r_at_k\t{k}\t{report.r_at_k[k]:.6f}")
        lines.append(f"mr_at_k\t{k}\t{report.mr_at_k[k]:.6f}")
        lines.append(f"m_at_k\t{k}\t{report.m_at_k[k]:.6f}")
        for name, value in zip(group_names, report.group_recalls[k]):
            shown = "absent" if value is None else f"{value:.6f}"
            lines.append(f"{name}_recall\t{k}\t{shown}")
    lines.append("")
    header = "predicate\ttrain_count" + "".join(f"\trecall@{k}" for k in report.ks)
    lines.append(header)
    order = sorted(
        range(1, vocab.num_predicates + 1),
        key=lambda i: (-int(vocab.train_counts[i]), i),
    )
    for i in order:
        row = f"{vocab.names[i]}\t{int(vocab.train_counts[i])}"
        for k in report.ks:
            value = report.per_predicate[k][i]
            row += "\tabsent" if np.isnan(value) else f"\t{value:.6f}"
        lines.append(row)
    return "\n".join(lines) + "\n"
