import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainrisk.errors import UndefinedMetric
from chainrisk.metrics import EvalReport, auc, ks, roc_points


def auc_pairwise_oracle(scores, labels):
    """O(n^2) pairwise count, ties worth half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def ks_sweep_oracle(scores, labels):
    """Dense threshold sweep over every distinct score."""
    pos = np.asarray([s for s, y in zip(scores, labels) if y == 1])
    neg = np.asarray([s for s, y in zip(scores, labels) if y == 0])
    best = 0.0
    for t in sorted(set(scores)):
        gap = abs(np.mean(pos <= t) - np.mean(neg <= t))
        best = max(best, gap)
    return best


def auc_rank_sum_reference(scores, labels):
    """Midrank sum of the positives minus its minimum, over n_pos * n_neg."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int(labels.size - pos.sum())
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    starts = np.r_[0, np.flatnonzero(np.diff(s)) + 1]
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def ks_ascending_reference(scores, labels):
    """Class CDFs by ascending cumulative counts, read at each tie group's end."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    order = np.argsort(scores, kind="mergesort")
    y, s = labels[order] == 1, scores[order]
    group_end = np.r_[np.flatnonzero(np.diff(s)), s.size - 1]
    cdf_pos = np.cumsum(y) / int(y.sum())
    cdf_neg = np.cumsum(~y) / int((~y).sum())
    return float(np.max(np.abs(cdf_pos[group_end] - cdf_neg[group_end])))


def roc_descending_reference(scores, labels):
    """(fpr, tpr) by descending cumulative counts at each tie group's end."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    order = np.argsort(-scores, kind="mergesort")
    y, s = labels[order] == 1, scores[order]
    group_end = np.r_[np.flatnonzero(np.diff(s)), s.size - 1]
    tp, fp = np.cumsum(y)[group_end], np.cumsum(~y)[group_end]
    return np.column_stack([np.r_[0.0, fp / int(fp[-1])], np.r_[0.0, tp / int(tp[-1])]])


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_matches_pairwise_oracle_on_random_data(self, rng):
        for trial in range(20):
            scores = rng.normal(size=200)
            labels = rng.integers(0, 2, size=200)
            if labels.min() == labels.max():
                continue
            assert abs(auc(scores, labels) - auc_pairwise_oracle(scores.tolist(), labels.tolist())) < 1e-12

    def test_matches_pairwise_oracle_with_heavy_ties(self, rng):
        for trial in range(20):
            scores = rng.integers(0, 5, size=200).astype(float) / 4.0
            labels = rng.integers(0, 2, size=200)
            if labels.min() == labels.max():
                continue
            assert abs(auc(scores, labels) - auc_pairwise_oracle(scores.tolist(), labels.tolist())) < 1e-12

    def test_label_flip_complements_exactly(self, rng):
        scores = rng.normal(size=50)
        labels = np.r_[np.ones(25, dtype=int), np.zeros(25, dtype=int)]
        assert auc(scores, labels) + auc(scores, 1 - labels) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetric):
            auc([0.1, 0.9], [1, 1])


class TestKs:
    def test_perfect_separation(self):
        assert ks([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_identical_distributions_give_zero(self):
        scores = [0.1, 0.4, 0.9, 0.1, 0.4, 0.9]
        labels = [1, 1, 1, 0, 0, 0]
        assert ks(scores, labels) == 0.0

    def test_matches_sweep_oracle_on_random_data(self, rng):
        for trial in range(20):
            scores = rng.normal(size=200)
            labels = rng.integers(0, 2, size=200)
            if labels.min() == labels.max():
                continue
            assert abs(ks(scores, labels) - ks_sweep_oracle(scores.tolist(), labels.tolist())) < 1e-12

    def test_matches_sweep_oracle_with_heavy_ties(self, rng):
        for trial in range(20):
            scores = rng.integers(0, 4, size=200).astype(float)
            labels = rng.integers(0, 2, size=200)
            if labels.min() == labels.max():
                continue
            assert abs(ks(scores, labels) - ks_sweep_oracle(scores.tolist(), labels.tolist())) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetric):
            ks([0.1, 0.9], [0, 0])


@settings(max_examples=50, derandomize=True)
@given(
    data=st.lists(
        st.tuples(
            # coarse grid so the float transform below stays strictly monotone
            st.floats(-100, 100, allow_nan=False).map(lambda v: round(v, 3)),
            st.integers(0, 1),
        ),
        min_size=4,
        max_size=60,
    )
)
def test_metrics_invariant_under_increasing_transform(data):
    scores = np.array([s for s, _ in data])
    labels = np.array([y for _, y in data])
    if labels.min() == labels.max():
        return
    transformed = np.exp(scores / 50.0) + 3.0
    assert abs(auc(scores, labels) - auc(transformed, labels)) < 1e-12
    assert abs(ks(scores, labels) - ks(transformed, labels)) < 1e-12


@settings(max_examples=50, derandomize=True)
@given(
    multiset=st.lists(st.integers(0, 6), min_size=1, max_size=20),
)
def test_ks_zero_when_class_multisets_match(multiset):
    scores = np.array(multiset + multiset, dtype=float)
    labels = np.array([1] * len(multiset) + [0] * len(multiset))
    assert ks(scores, labels) == 0.0


class TestRocPoints:
    def test_endpoints_and_monotonicity(self, rng):
        scores = rng.normal(size=60)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        pts = roc_points(scores, labels)
        assert pts[0].tolist() == [0.0, 0.0]
        assert pts[-1].tolist() == [1.0, 1.0]
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)

    def test_trapezoid_area_equals_rank_sum_auc(self, rng):
        # ROC trapezoids with tie-grouped points integrate to the tie-aware AUC
        scores = rng.integers(0, 6, size=120).astype(float)
        labels = rng.integers(0, 2, size=120)
        labels[0], labels[1] = 0, 1
        pts = roc_points(scores, labels)
        area = np.trapezoid(pts[:, 1], pts[:, 0])
        assert abs(area - auc(scores, labels)) < 1e-12


class TestEvalReport:
    def test_from_scores_counts_classes(self):
        rep = EvalReport.from_scores([0.2, 0.8, 0.7], [0, 1, 1], split="test")
        assert rep.num_pos == 2 and rep.num_neg == 1
        assert rep.split == "test"
        assert 0.0 <= rep.auc <= 1.0 and 0.0 <= rep.ks <= 1.0
        assert rep.to_dict()["auc"] == rep.auc


@settings(max_examples=200, derandomize=True)
@given(
    data=st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),  # heavy ties, both zeros
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            st.integers(0, 1),
        ),
        min_size=2,
        max_size=80,
    )
)
@example(data=[(0.5, 0), (0.5, 1), (0.5, 1), (0.5, 0), (0.5, 1)])  # all tied: one group
@example(data=[(0.3, 0), (0.3, 0), (0.7, 1), (0.7, 1), (0.7, 1)])  # one group per class
@example(data=[(0.7, 0), (0.7, 0), (0.3, 1)])  # one group per class, reversed
@example(data=[(0.0, 1), (-0.0, 0)])  # equal zeros of either sign tie
def test_sweep_equals_the_separate_references_exactly(data):
    scores = np.array([s for s, _ in data])
    labels = np.array([y for _, y in data])
    if labels.min() == labels.max():
        return
    expected_auc = auc_rank_sum_reference(scores, labels)
    expected_ks = ks_ascending_reference(scores, labels)
    assert auc(scores, labels) == expected_auc
    assert ks(scores, labels) == expected_ks
    assert roc_points(scores, labels).tobytes() == roc_descending_reference(scores, labels).tobytes()
    rep = EvalReport.from_scores(scores, labels, "test")
    assert (rep.auc, rep.ks) == (expected_auc, expected_ks)
    assert (rep.num_pos, rep.num_neg) == (int(labels.sum()), int((labels == 0).sum()))
