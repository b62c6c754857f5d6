"""Dirichlet evidence arithmetic for the binary in/out-of-distribution task:
belief parameters, uncertainty, likelihood-ratio scores, the training loss and
its analytic gradient, plus the sigmoid/cross-entropy baseline.

Class index 0 is in-distribution, index 1 is out-of-distribution, everywhere
in this package; a row's label is its class index. All functions are
vectorized over leading axes; the class axis is last and always has length 2.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LOGIT_CLAMP",
    "PROB_EPS",
    "evidence_from_logits",
    "dirichlet_from_evidence",
    "strength",
    "vacuity",
    "expected_prob",
    "lr_score",
    "lr_from_sigmoid",
    "lambda_schedule",
    "edl_loss_and_grad",
    "sigmoid",
    "bce_loss_from_logit",
    "bce_grad_from_logit",
    "binary_entropy",
]

LOGIT_CLAMP = 30.0  # exp(30) ~ 1.07e13: evidence stays finite, range untouched
PROB_EPS = 1e-12  # probability clamp for the sigmoid/odds path


def evidence_from_logits(o, out=None) -> np.ndarray:
    """Per-class evidence exp(o) with logits clamped to +-LOGIT_CLAMP, in a
    new array, or in `out` (which may be `o` itself) when given."""
    o = np.asarray(o, dtype=np.float64)
    if np.isnan(o).any():
        raise ValueError("evidence_from_logits: logits contain NaN")
    e = np.clip(o, -LOGIT_CLAMP, LOGIT_CLAMP, out=out)
    return np.exp(e, out=e)


def dirichlet_from_evidence(e, out=None) -> np.ndarray:
    """Concentration parameters alpha = evidence + 1 (non-degenerate), in a
    new array, or in `out` (which may be `e` itself) when given."""
    return np.add(np.asarray(e, dtype=np.float64), 1.0, out=out)


def strength(alpha) -> np.ndarray:
    return np.asarray(alpha, dtype=np.float64).sum(axis=-1)


def vacuity(alpha) -> np.ndarray:
    """Uncertainty from lack of evidence: 2/S, in (0, 1]; 1 iff alpha=(1,1)."""
    return 2.0 / strength(alpha)


def expected_prob(alpha) -> np.ndarray:
    """Mean of the Dirichlet: alpha / S. Rows sum to one."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return alpha / alpha.sum(axis=-1, keepdims=True)


def lr_score(alpha) -> np.ndarray:
    """Likelihood-ratio score alpha_1 / alpha_0 (== p1/p0; S cancels)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return alpha[..., 1] / alpha[..., 0]


def lr_from_sigmoid(p1) -> np.ndarray:
    """Odds p/(1-p) for the sigmoid baseline, with p clamped away from 0/1."""
    p = np.clip(np.asarray(p1, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    return p / (1.0 - p)


def lambda_schedule(epoch: int) -> float:
    """Annealing coefficient min(1, t/10), 0-based epoch counter."""
    if epoch < 0:
        raise ValueError("lambda_schedule: epoch must be >= 0")
    return min(1.0, epoch / 10.0)


def edl_loss_and_grad(o, y, epoch: int):
    """Annealed total loss per row and its gradient d(total)/d(logits), from
    one pass over (..., 2) logit rows and their labels y: one 0 or 1 per row,
    of shape o.shape[:-1].

    With a the correct class's concentration, b the other's and S = a + b,
    the total is the log loss ln S - ln a plus min(1, epoch/10) times the
    KL regulariser KL(Beta(1, b) || U) = ln b - 1 + 1/b (Sensoy et al.,
    2018), which is zero exactly when b = 1. Through e = exp(clamp(o)) and
    alpha = e + 1, the gradient is e (1/S - 1/a) on the correct class and
    e (1/S + lam (b - 1)/b^2) on the other, and zero outside the clamp
    range. Labels of another shape or value raise ValueError.
    """
    o = np.asarray(o, dtype=np.float64)
    y = np.asarray(y)
    ood = y == 1
    if y.shape != o.shape[:-1] or not (ood | (y == 0)).all():
        raise ValueError(
            f"edl_loss_and_grad: labels must be 0 or 1, one per row of the "
            f"{o.shape} logits, got {y.dtype} {y.shape}"
        )
    lam = lambda_schedule(epoch)
    e = evidence_from_logits(o)
    alpha = e + 1.0
    s = alpha[..., 0] + alpha[..., 1]
    a = np.where(ood, alpha[..., 1], alpha[..., 0])
    b = np.where(ood, alpha[..., 0], alpha[..., 1])
    total = (np.log(s) - np.log(a)) + lam * np.maximum(np.log(b) - 1.0 + 1.0 / b, 0.0)
    inv_s = 1.0 / s
    right = inv_s - 1.0 / a
    wrong = inv_s + lam * ((b - 1.0) / (b * b))
    grad = np.empty_like(alpha)
    grad[..., 0] = np.where(ood, wrong, right)
    grad[..., 1] = np.where(ood, right, wrong)
    grad *= e
    grad *= np.abs(o) <= LOGIT_CLAMP
    return total, grad


def sigmoid(z) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_loss_from_logit(z, y1) -> np.ndarray:
    """BCE evaluated from the raw logit (softplus form, overflow-safe)."""
    z = np.asarray(z, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    return np.maximum(z, 0.0) - z * y1 + np.log1p(np.exp(-np.abs(z)))


def bce_grad_from_logit(z, y1) -> np.ndarray:
    """d BCE / d logit = sigmoid(z) - y1."""
    return sigmoid(z) - np.asarray(y1, dtype=np.float64)


def binary_entropy(p1) -> np.ndarray:
    """Entropy of a Bernoulli(p) in nats, the baseline uncertainty measure."""
    p = np.clip(np.asarray(p1, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    return -(p * np.log(p) + (1.0 - p) * np.log1p(-p))
