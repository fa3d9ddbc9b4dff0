"""Ranking metrics: AUC (Mann-Whitney, ties at half credit), the
Kolmogorov-Smirnov statistic over the class-conditional score CDFs, and the
ROC curve, all read off one descending sweep of the scores.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, UndefinedMetric


def _sweep(scores, labels):
    """Validate once and sort once; returns the int64 counts (tp, fp).

    tp[i] and fp[i] count the positives (label 1) and the negatives (any
    other label) scoring at or above the i-th distinct score, descending;
    both start with 0, the threshold above every score, and end at n_pos and
    n_neg. Every metric below is exact integer arithmetic on these counts
    followed by one division, so it does not depend on the order of the sum.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise InvalidArgument(f"length mismatch: {scores.shape} vs {labels.shape}")
    if not np.all(np.isfinite(scores)):
        raise InvalidArgument("scores contain non-finite values")
    pos = labels == 1
    if pos.all() or not pos.any():
        raise UndefinedMetric("both classes must be present")
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    group_end = np.r_[np.flatnonzero(np.diff(s)), s.size - 1]
    tp = np.r_[0, np.cumsum(pos[order])[group_end]]
    return tp, np.r_[0, group_end + 1] - tp


def _auc(tp, fp):
    # a group's positives beat every negative below it and tie its own at
    # half credit: 2U = sum over groups of pos * (2 n_neg - fp - fp_prev)
    u2 = np.diff(tp) @ (2 * fp[-1] - fp[1:] - fp[:-1])
    return float(u2 / 2 / (int(tp[-1]) * int(fp[-1])))


def _ks(tp, fp):
    # a class CDF at a distinct score: the class size minus its count above
    # that score, over the class size
    cdf_pos = (tp[-1] - tp[:-1]) / int(tp[-1])
    cdf_neg = (fp[-1] - fp[:-1]) / int(fp[-1])
    return float(np.max(np.abs(cdf_pos - cdf_neg)))


def auc(scores, labels):
    """P(score of random positive > score of random negative), ties count 0.5.

    The Mann-Whitney U from one sort, O(n log n); identical to the pairwise
    count.
    """
    return _auc(*_sweep(scores, labels))


def ks(scores, labels):
    """Max gap between the positive and negative empirical score CDFs.

    Both CDFs are step functions, so the maximum occurs at a sample point;
    evaluating at every distinct score is exact.
    """
    return _ks(*_sweep(scores, labels))


def roc_points(scores, labels):
    """(fpr, tpr) pairs swept over descending distinct thresholds.

    Starts at (0, 0) and ends at (1, 1); ready for plotting or the TSV dump.
    """
    tp, fp = _sweep(scores, labels)
    return np.column_stack([fp / int(fp[-1]), tp / int(tp[-1])])


@dataclass
class EvalReport:
    """AUC and KS for one task split, with class counts."""

    auc: float
    ks: float
    split: str
    num_pos: int
    num_neg: int

    @classmethod
    def from_scores(cls, scores, labels, split):
        tp, fp = _sweep(scores, labels)
        return cls(auc=_auc(tp, fp), ks=_ks(tp, fp), split=split, num_pos=int(tp[-1]), num_neg=int(fp[-1]))

    def to_dict(self):
        return {
            "split": self.split,
            "auc": self.auc,
            "ks": self.ks,
            "num_pos": self.num_pos,
            "num_neg": self.num_neg,
        }
