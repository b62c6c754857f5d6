"""Detection metrics, score post-processing, cosine-distance analysis."""

import math
import tracemalloc

import numpy as np
import pytest

from ulre.data import DataError, class_means
from ulre.metrics import (
    BinnedAnalysis,
    binned_csv,
    extrapolation_analysis,
    pooled_ap_and_fpr95,
    postprocess_scores,
)


def flat_ap_and_fpr95(scores, labels):
    """`pooled_ap_and_fpr95` of one part: flat scores and 0/1 labels."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    pos = np.asarray(labels).ravel() == 1
    neg = s[~pos]
    neg.sort()  # in place: no second copy of the negatives
    return pooled_ap_and_fpr95([(s[pos], neg)])


def brute_force_curve(scores, labels):
    """Confusion counts at every distinct threshold by direct counting."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).ravel()
    out = []
    for tau in sorted(set(scores.tolist()), reverse=True):
        tp = int(((scores >= tau) & (labels == 1)).sum())
        fp = int(((scores >= tau) & (labels == 0)).sum())
        out.append((tau, tp, fp))
    return out


def brute_force_ap(scores, labels):
    n_pos = int(np.sum(np.asarray(labels) == 1))
    ap = 0.0
    prev_recall = 0.0
    for _, tp, fp in brute_force_curve(scores, labels):
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap

def brute_force_fpr95(scores, labels):
    labels = np.asarray(labels).ravel()
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    best = 1.0
    for _, tp, fp in brute_force_curve(scores, labels):
        if tp / n_pos >= 0.95:
            best = min(best, fp / n_neg)
    return best


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert flat_ap_and_fpr95([4.0, 3.0, 2.0, 1.0], [1, 1, 0, 0])[0] == 1.0

    def test_four_score_example_matches_oracle(self):
        scores = [0.9, 0.8, 0.7, 0.6]
        labels = [1, 0, 1, 0]
        want = brute_force_ap(scores, labels)
        got = flat_ap_and_fpr95(scores, labels)[0]
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(5.0 / 6.0, abs=1e-12)  # frozen oracle value

    def test_random_scores_near_prevalence(self):
        rng = np.random.default_rng(0)
        n = 10_000
        labels = np.concatenate([np.ones(n // 2, dtype=int), np.zeros(n // 2, dtype=int)])
        scores = rng.uniform(size=n)
        assert flat_ap_and_fpr95(scores, labels)[0] == pytest.approx(0.5, abs=0.02)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = 1000
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # tie-heavy: scores drawn from a small discrete set
            scores = rng.integers(0, 12, n) / 4.0
            assert flat_ap_and_fpr95(scores, labels)[0] == pytest.approx(
                brute_force_ap(scores, labels), abs=1e-9
            )

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0.1, 10.0, 500)
        labels = rng.integers(0, 2, 500)
        base = flat_ap_and_fpr95(scores, labels)[0]
        assert flat_ap_and_fpr95(np.log(scores), labels)[0] == pytest.approx(base)
        assert flat_ap_and_fpr95(5.0 * scores + 3.0, labels)[0] == pytest.approx(base)

    def test_all_one_class_rejected(self):
        with pytest.raises(ValueError):
            flat_ap_and_fpr95([1.0, 2.0], [1, 1])
        with pytest.raises(ValueError):
            flat_ap_and_fpr95([1.0, 2.0], [0, 0])


class TestFprAt95Tpr:
    def test_perfect_separation(self):
        assert flat_ap_and_fpr95([5.0, 4.0, 1.0, 0.5], [1, 1, 0, 0])[1] == 0.0

    def test_all_tied(self):
        assert flat_ap_and_fpr95([2.0, 2.0, 2.0, 2.0], [1, 0, 1, 0])[1] == 1.0

    def test_tie_example_from_sweep_oracle(self):
        scores = [2.0] * 20 + [1.0] * 19 + [3.0]
        labels = [1] * 20 + [0] * 20
        assert flat_ap_and_fpr95(scores, labels)[1] == pytest.approx(0.05)
        assert flat_ap_and_fpr95(scores, labels)[1] == pytest.approx(
            brute_force_fpr95(scores, labels)
        )

    def test_recall_exactly_at_target_counts(self):
        # 19 of 20 positives above both negatives: recall 0.95 at FPR 0
        scores = [1.0, *range(3, 22), 2.0, 0.0]
        labels = [1] * 20 + [0, 0]
        assert flat_ap_and_fpr95(scores, labels)[1] == 0.0
        assert flat_ap_and_fpr95(scores, labels)[1] == brute_force_fpr95(scores, labels)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = 1000
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = rng.integers(0, 15, n) / 3.0
            assert flat_ap_and_fpr95(scores, labels)[1] == pytest.approx(
                brute_force_fpr95(scores, labels), abs=1e-9
            )

    def test_monotone_in_negative_scores(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0, 1, 200)
        labels = rng.integers(0, 2, 200)
        if labels.sum() in (0, 200):
            labels[0] = 1 - labels[0]
        base = flat_ap_and_fpr95(scores, labels)[1]
        neg_idx = np.flatnonzero(labels == 0)[:20]
        lowered = scores.copy()
        lowered[neg_idx] -= 0.5
        assert flat_ap_and_fpr95(lowered, labels)[1] <= base


def test_ap_and_fpr95_on_ties_match_oracles():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 2, 500)
    scores = rng.integers(0, 7, 500) / 3.0
    ap, fpr95 = flat_ap_and_fpr95(scores, labels)
    assert ap == pytest.approx(brute_force_ap(scores, labels), abs=1e-12)
    assert fpr95 == pytest.approx(brute_force_fpr95(scores, labels), abs=1e-12)


def reference_threshold_counts(s, y):
    """Cumulative TP/FP at each distinct score threshold, descending, from one
    stable argsort: how AP and FPR@95 were counted before value sorts."""
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    # last index of each tie group
    cut = np.nonzero(np.diff(s_sorted))[0]
    cut = np.concatenate([cut, [len(s_sorted) - 1]])
    tp = np.cumsum(y_sorted)[cut]
    fp = np.cumsum(1 - y_sorted)[cut]
    return s_sorted[cut], tp, fp


def reference_ap_and_fpr95(scores, labels):
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel().astype(np.int64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    _, tp, fp = reference_threshold_counts(s, y)
    precision = tp / (tp + fp)
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    ap = math.fsum((recall - prev_recall) * precision)
    fpr = fp / n_neg
    return ap, float(fpr[recall >= 0.95].min())


class TestApAndFpr95MatchesArgsortReference:
    """The positive-score thresholds give the argsort form's FPR@95 bit for
    bit, and its AP when the reference sums its terms correctly rounded."""

    @pytest.mark.parametrize("ties", [False, True])
    def test_random_inputs(self, ties):
        rng = np.random.default_rng(6 + ties)
        for _ in range(50):
            n = int(rng.integers(2, 2000))
            labels = rng.integers(0, 2, n).astype(np.uint8)
            labels[:2] = (0, 1)
            if ties:
                scores = rng.integers(0, int(rng.integers(1, 40)), n) / 7.0
            else:
                scores = rng.normal(size=n)
            want = reference_ap_and_fpr95(scores, labels)
            for y in (labels, labels.astype(bool), labels.astype(np.float64)):
                assert flat_ap_and_fpr95(scores, y) == want
            # every positive above every negative, every one below, all equal
            span = np.ptp(scores) + 1.0
            above = scores + span * labels
            below = scores - span * labels
            equal = np.full(n, scores[0])
            for edge in (above, below, equal):
                want = reference_ap_and_fpr95(edge, labels)
                assert flat_ap_and_fpr95(edge, labels) == want
            assert flat_ap_and_fpr95(above, labels) == (1.0, 0.0)
            assert flat_ap_and_fpr95(below, labels)[1] == 1.0
            assert flat_ap_and_fpr95(equal, labels) == (int(labels.sum()) / n, 1.0)
            # one positive at the top and one at the bottom
            ends = np.zeros(n, dtype=np.uint8)
            ends[[np.argmax(scores), np.argmin(scores)]] = 1
            if ends.sum() < n:
                assert flat_ap_and_fpr95(scores, ends) == reference_ap_and_fpr95(
                    scores, ends
                )

    def test_signed_zeros_tie(self):
        scores = np.array([0.0, -0.0, 0.0, 1.0, -0.0, -1.0])
        labels = np.array([1, 0, 0, 1, 1, 0])
        want = reference_ap_and_fpr95(scores, labels)
        assert flat_ap_and_fpr95(scores, labels) == want

    def test_all_tied(self):
        labels = np.array([1, 0, 0, 1, 0, 0, 0])
        scores = np.full(7, 2.5)
        want = reference_ap_and_fpr95(scores, labels)
        assert flat_ap_and_fpr95(scores, labels) == want

    @pytest.mark.parametrize("minority", [0, 1])
    def test_single_example_of_one_class(self, minority):
        rng = np.random.default_rng(8)
        for position in (0, 5, 99):
            labels = np.full(100, 1 - minority)
            labels[position] = minority
            normal = rng.normal(size=100)
            top, bottom = normal.copy(), normal.copy()
            top[position] = normal.max() + 1.0
            bottom[position] = normal.min() - 1.0
            for scores in (normal, rng.integers(0, 4, 100) / 2.0, top, bottom):
                got = flat_ap_and_fpr95(scores, labels)
                assert got == reference_ap_and_fpr95(scores, labels)

    @pytest.mark.parametrize(
        "scores,labels,message",
        [
            ([1.0, 2.0], [True, True], "one positive and one negative"),
            ([1.0, 2.0], [0, 0], "one positive and one negative"),
        ],
    )
    def test_validation_messages(self, scores, labels, message):
        with pytest.raises(ValueError, match=message):
            flat_ap_and_fpr95(scores, labels)

    def test_peak_memory_per_pixel(self):
        # the argsort form peaked near 89 bytes per pixel, and a sort of every
        # score near 33; the threshold arrays now scale with the positives
        n = 1_000_000
        rng = np.random.default_rng(9)
        scores = rng.permutation(n) / n
        for share, bound in ((0.5, 48), (0.01, 12)):
            labels = (rng.random(n) < share).astype(np.uint8)
            tracemalloc.start()
            try:
                flat_ap_and_fpr95(scores, labels)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * n, share


class TestPostprocess:
    def test_constant_preserved_at_new_size(self):
        out = postprocess_scores(np.full((4, 4), 2.0), 9, 13)
        assert out.shape == (9, 13)
        np.testing.assert_allclose(out, 2.0, rtol=1e-12)

    def test_impulse_composes_documented_kernels(self):
        rng = np.random.default_rng(5)
        raw = np.exp(rng.normal(size=(6, 8)))
        got = postprocess_scores(raw, 12, 16)
        # independent composition: hand-rolled bilinear gather, then scipy blur
        from scipy import ndimage

        def bilinear(img, oh, ow):
            out = np.empty((oh, ow))
            ih, iw = img.shape
            for r in range(oh):
                for c in range(ow):
                    sy = min(max((r + 0.5) * ih / oh - 0.5, 0.0), ih - 1.0)
                    sx = min(max((c + 0.5) * iw / ow - 0.5, 0.0), iw - 1.0)
                    y0, x0 = int(np.floor(sy)), int(np.floor(sx))
                    y1, x1 = min(y0 + 1, ih - 1), min(x0 + 1, iw - 1)
                    fy, fx = sy - y0, sx - x0
                    out[r, c] = (
                        img[y0, x0] * (1 - fy) * (1 - fx)
                        + img[y0, x1] * (1 - fy) * fx
                        + img[y1, x0] * fy * (1 - fx)
                        + img[y1, x1] * fy * fx
                    )
            return out

        want = ndimage.gaussian_filter(
            bilinear(raw, 12, 16), 1.0, truncate=3.0, mode="reflect"
        )
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_preserves_positivity(self):
        rng = np.random.default_rng(6)
        raw = np.exp(rng.normal(size=(10, 10)) * 3)
        out = postprocess_scores(raw, 20, 20)
        assert np.all(out > 0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            postprocess_scores(np.zeros((3, 3)), 6, 6)


class TestExtrapolationAnalysis:
    def _means(self):
        x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        return class_means(x, np.array([0, 1]))

    def test_single_bin_at_zero(self):
        means = self._means()
        feats = np.tile(np.array([2.0, 0.0, 0.0]), (5, 1))
        analysis = extrapolation_analysis(feats, means, np.full(5, 0.3))
        assert analysis.counts.sum() == 5
        assert analysis.counts[0] == 5
        assert analysis.mean_prob[0] == pytest.approx(0.3)

    def test_empty_bins_flagged(self):
        means = self._means()
        feats = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])  # distances 0 and 1
        analysis = extrapolation_analysis(feats, means, np.array([0.1, 0.9]), 0.25)
        assert analysis.counts.sum() == 2
        empty = analysis.counts == 0
        assert empty.any()
        assert np.all(np.isnan(analysis.mean_prob[empty]))
        assert not np.any(np.isnan(analysis.mean_prob[~empty]))

    def test_counts_partition(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(200, 3))
        means = self._means()
        analysis = extrapolation_analysis(feats, means, rng.uniform(size=200))
        assert analysis.counts.sum() == 200
        assert len(analysis.bin_edges) == len(analysis.counts) + 1
        np.testing.assert_allclose(np.diff(analysis.bin_edges), 0.05, rtol=1e-9)

    def test_min_distance_used(self):
        means = self._means()
        feats = np.array([[0.0, 5.0, 0.0]])  # exactly on the second mean
        analysis = extrapolation_analysis(feats, means, np.array([1.0]))
        assert analysis.counts[0] == 1  # distance 0, not 1

    def test_validation(self):
        means = self._means()
        with pytest.raises(ValueError, match="no class means"):
            extrapolation_analysis(np.ones((2, 3)), means[:0], np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            extrapolation_analysis(np.zeros((2, 3)), means, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            extrapolation_analysis(
                np.ones((2, 3)), means, np.array([0.5, 1.5])
            )

    def test_csv_format(self):
        analysis = BinnedAnalysis(
            np.array([0.0, 0.05, 0.1]),
            np.array([3, 0]),
            np.array([0.25, np.nan]),
        )
        text = binned_csv(analysis)
        lines = text.strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count,mean_prob"
        assert lines[1] == "0,0.05,3,0.25"
        assert lines[2].endswith("nan")
