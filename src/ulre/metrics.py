"""Score-map post-processing, detection metrics (average precision and the
false positive rate at 95% true positive rate), and the binned
cosine-distance extrapolation analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataError
from .numkernel import gaussian_blur, upsample_bilinear

__all__ = [
    "BLUR_SIGMA",
    "BinnedAnalysis",
    "postprocess_scores",
    "pooled_ap_and_fpr95",
    "extrapolation_analysis",
    "binned_csv",
]

BLUR_SIGMA = 1.0  # the score maps' Gaussian blur, in output pixels


def postprocess_scores(raw, out_h: int, out_w: int) -> np.ndarray:
    """Full-resolution score map: bilinear upscale, then a Gaussian blur of
    standard deviation BLUR_SIGMA.

    Both stages preserve constants and strict positivity.
    """
    scores = np.asarray(raw, dtype=np.float64)
    if scores.ndim != 2 or scores.size == 0:
        raise ValueError("postprocess_scores: expected a nonempty 2-D map")
    if not np.all(np.isfinite(scores)) or np.any(scores <= 0.0):
        raise ValueError("postprocess_scores: scores must be finite and positive")
    return gaussian_blur(upsample_bilinear(scores, out_h, out_w), BLUR_SIGMA)


def pooled_ap_and_fpr95(parts) -> tuple[float, float]:
    """Non-interpolated average precision and the lowest false positive rate
    among thresholds reaching 95% TPR, of the pooled scores of parts given as
    (positive scores, negative scores sorted ascending).

    A score is positive when >= the threshold, and the thresholds run down
    through the distinct score values, so ties share a threshold.
    AP = sum_n (R_n - R_{n-1}) * P_n, summed with `math.fsum`: the correctly
    rounded sum of its terms. A threshold at the minimum score reaches
    TPR = 1, so the FPR operating set is never empty. The negatives at or
    above a threshold are summed over the parts: no pooled array is made.
    """
    # recall changes only at a positive's score, so any other threshold adds
    # a zero AP term and has no fewer false positives than the next positive
    # score above it: the distinct positive scores are the only thresholds
    v, hits = np.unique(np.concatenate([p for p, _ in parts]), return_counts=True)
    n_pos, n_neg = int(hits.sum()), sum(len(neg) for _, neg in parts)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative label")
    fp = n_neg - sum(np.searchsorted(neg, v[::-1], "left") for _, neg in parts)
    tp = np.cumsum(hits[::-1])
    recall = tp / n_pos
    precision = tp / (tp + fp)
    fpr95 = float((fp / n_neg)[recall >= 0.95].min())
    return math.fsum(np.diff(recall, prepend=0.0) * precision), fpr95


@dataclass(frozen=True)
class BinnedAnalysis:
    """Mean predicted probability binned by distance to the nearest class mean.

    Bins partition [0, n_bins * bin_width); counts sum to the number of rows.
    mean_prob is NaN for empty bins.
    """

    bin_edges: np.ndarray  # (n_bins + 1,)
    counts: np.ndarray  # (n_bins,)
    mean_prob: np.ndarray  # (n_bins,), NaN where count == 0


def extrapolation_analysis(
    features, unit_means, probs, bin_width: float = 0.05
) -> BinnedAnalysis:
    """Group rows by minimum cosine distance to the class means, given as
    (K, D) unit-norm rows, and average the predicted probabilities per bin.

    Each feature row is unit-normalized before the distance computation.
    """
    x = np.asarray(features, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != p.shape[0]:
        raise ValueError("extrapolation_analysis: need (N, D) features, N probs")
    if len(unit_means) == 0:
        raise ValueError("extrapolation_analysis: no class means")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("extrapolation_analysis: probs must lie in [0, 1]")
    if not bin_width > 0.0:
        raise ValueError("extrapolation_analysis: bin_width must be positive")
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise DataError("extrapolation_analysis: zero feature vector")
    unit = x / norms[:, None]
    dist = 1.0 - (unit @ unit_means.T).max(axis=1)
    dist = np.clip(dist, 0.0, 2.0)
    n_bins = max(1, math.ceil(dist.max() / bin_width)) if dist.max() > 0 else 1
    idx = np.minimum((dist / bin_width).astype(np.intp), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=p, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        mean_prob = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    edges = np.arange(n_bins + 1, dtype=np.float64) * bin_width
    return BinnedAnalysis(edges, counts, mean_prob)


def binned_csv(analysis: BinnedAnalysis) -> str:
    """CSV rendering: header bin_lo,bin_hi,count,mean_prob; NaN for empty bins."""
    lines = ["bin_lo,bin_hi,count,mean_prob"]
    for i, count in enumerate(analysis.counts):
        lo = analysis.bin_edges[i]
        hi = analysis.bin_edges[i + 1]
        lines.append(f"{lo:.6g},{hi:.6g},{int(count)},{analysis.mean_prob[i]:.10g}")
    return "\n".join(lines) + "\n"
