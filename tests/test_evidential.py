"""Dirichlet evidence arithmetic, losses, and their analytic gradients."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from ulre import evidential as ev

Y0 = 0  # in-distribution label
Y1 = 1  # out-of-distribution label


def logits_of(alpha):
    """Logit rows of concentrations alpha: alpha = 1 maps to -inf, which the
    clamp takes to 1 + exp(-30)."""
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(alpha, dtype=np.float64) - 1.0)


def log_loss(alpha, y):
    """The log loss at concentrations alpha: the total at epoch 0."""
    return ev.edl_loss_and_grad(logits_of(alpha), y, 0)[0]


def kl_term(o, y):
    """The KL regulariser at logits o: the total at full weight (epoch 10)
    less the total at epoch 0."""
    return ev.edl_loss_and_grad(o, y, 10)[0] - ev.edl_loss_and_grad(o, y, 0)[0]


def kl_reg(alpha, y):
    """The KL regulariser at concentrations alpha."""
    return kl_term(logits_of(alpha), y)


def dirichlet_kl_quad(a0: float, a1: float) -> float:
    """Adaptive quadrature of KL(Dir(a) || Dir(1,1)), independent oracle."""

    def integrand(p):
        logpdf = (
            (a1 - 1.0) * math.log(p)
            + (a0 - 1.0) * math.log1p(-p)
            - special.betaln(a1, a0)
        )
        return math.exp(logpdf) * logpdf

    val, err = integrate.quad(integrand, 0.0, 1.0, limit=200)
    assert err < 1e-7  # two orders below the 1e-6 comparison tolerance
    return val


class TestEvidence:
    def test_zero_logits(self):
        np.testing.assert_array_equal(ev.evidence_from_logits([0.0, 0.0]), [1.0, 1.0])

    def test_log_identity(self):
        np.testing.assert_allclose(
            ev.evidence_from_logits([np.log(2.0), np.log(3.0)]), [2.0, 3.0]
        )

    def test_clamp(self):
        e = ev.evidence_from_logits([100.0, 0.0])
        assert e[0] == pytest.approx(np.exp(30.0))
        assert np.all(np.isfinite(e))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ev.evidence_from_logits([np.nan, 0.0])

    def test_inputs_are_left_unwritten(self):
        o = np.array([[45.0, -0.5], [np.log(2.0), -45.0]])
        before = o.copy()
        e = ev.evidence_from_logits(o)
        alpha = ev.dirichlet_from_evidence(e)
        assert o.tobytes() == before.tobytes()
        np.testing.assert_array_equal(alpha, e + 1.0)
        assert not np.shares_memory(e, o) and not np.shares_memory(alpha, e)

    def test_out_gives_the_same_bits(self):
        o = np.random.default_rng(8).normal(scale=20.0, size=(64, 2))
        want = np.exp(np.clip(o, -ev.LOGIT_CLAMP, ev.LOGIT_CLAMP)) + 1.0
        e = ev.evidence_from_logits(o, out=o)
        alpha = ev.dirichlet_from_evidence(e, out=e)
        assert alpha is o and alpha.tobytes() == want.tobytes()

    def test_dirichlet_from_evidence(self):
        np.testing.assert_array_equal(
            ev.dirichlet_from_evidence([1.0, 1.0]), [2.0, 2.0]
        )
        np.testing.assert_array_equal(
            ev.dirichlet_from_evidence([2.0, 3.0]), [3.0, 4.0]
        )
        # zero-evidence limit is the uniform Dirichlet
        np.testing.assert_allclose(
            ev.dirichlet_from_evidence([1e-300, 1e-300]), [1.0, 1.0]
        )


class TestBeliefSummaries:
    def test_vacuity_values(self):
        assert ev.vacuity(np.array([1.0, 1.0])) == 1.0
        assert ev.vacuity(np.array([9.0, 1.0])) == pytest.approx(0.2)

    def test_vacuity_monotone_and_bounded(self):
        rng = np.random.default_rng(0)
        alpha = 1.0 + rng.uniform(0, 50, size=(500, 2))
        v = ev.vacuity(alpha)
        assert np.all(v > 0) and np.all(v <= 1)
        # strictly decreasing as either component grows
        bumped = alpha.copy()
        bumped[:, 0] += 0.5
        assert np.all(ev.vacuity(bumped) < v)
        assert ev.vacuity(np.array([1.0, 1.0])) == 1.0

    def test_expected_prob(self):
        np.testing.assert_allclose(ev.expected_prob(np.array([2.0, 2.0])), [0.5, 0.5])
        np.testing.assert_allclose(
            ev.expected_prob(np.array([1.0, 3.0])), [0.25, 0.75]
        )
        np.testing.assert_allclose(
            ev.expected_prob(np.array([3.0, 1.0])), [0.75, 0.25]
        )

    def test_lr_score_values(self):
        assert ev.lr_score(np.array([2.0, 2.0])) == 1.0
        assert ev.lr_score(np.array([2.0, 4.0])) == 2.0
        assert ev.lr_score(np.array([4.0, 2.0])) == 0.5

    def test_lr_score_equals_prob_ratio(self):
        rng = np.random.default_rng(1)
        alpha = 1.0 + rng.uniform(0, 100, size=(1000, 2))
        p = ev.expected_prob(alpha)
        np.testing.assert_allclose(
            ev.lr_score(alpha), p[:, 1] / p[:, 0], rtol=1e-12, atol=0
        )

    def test_lr_reciprocal_symmetry(self):
        rng = np.random.default_rng(2)
        alpha = 1.0 + rng.uniform(0, 10, size=(100, 2))
        swapped = alpha[:, ::-1]
        np.testing.assert_allclose(
            ev.lr_score(alpha) * ev.lr_score(swapped), 1.0, rtol=1e-12
        )

    def test_lr_from_sigmoid(self):
        assert ev.lr_from_sigmoid(0.5) == pytest.approx(1.0)
        assert ev.lr_from_sigmoid(0.75) == pytest.approx(3.0)
        assert ev.lr_from_sigmoid(0.9) == pytest.approx(9.0)
        # clamped rather than infinite/zero
        assert np.isfinite(ev.lr_from_sigmoid(1.0))
        assert ev.lr_from_sigmoid(0.0) > 0.0


class TestLogLoss:
    def test_uniform(self):
        for y in (Y0, Y1):
            assert log_loss(np.array([1.0, 1.0]), y) == pytest.approx(math.log(2.0))

    def test_against_marginal_likelihood_quadrature(self):
        # oracle: -log integral p_c Dir(p | alpha) dp
        alpha = np.array([3.0, 1.0])

        def marginal(c):
            def f(p):
                pdf = math.exp(
                    (alpha[1] - 1.0) * math.log(p)
                    + (alpha[0] - 1.0) * math.log1p(-p)
                    - special.betaln(alpha[1], alpha[0])
                )
                return (p if c == 1 else 1.0 - p) * pdf

            val, _ = integrate.quad(f, 0.0, 1.0)
            return val

        assert log_loss(alpha, Y0) == pytest.approx(-math.log(marginal(0)), abs=1e-9)
        assert log_loss(alpha, Y1) == pytest.approx(-math.log(marginal(1)), abs=1e-9)
        # frozen values from the oracle
        assert log_loss(alpha, Y0) == pytest.approx(0.2876821, abs=1e-7)
        assert log_loss(alpha, Y1) == pytest.approx(1.3862944, abs=1e-7)

    def test_equals_neg_log_expected_prob(self):
        rng = np.random.default_rng(3)
        o = np.log(rng.uniform(0, 20, size=(200, 2)))
        alpha = ev.dirichlet_from_evidence(ev.evidence_from_logits(o))
        labels = rng.integers(0, 2, 200)
        want = -np.log(ev.expected_prob(alpha)[np.arange(200), labels])
        total = ev.edl_loss_and_grad(o, labels, 0)[0]
        np.testing.assert_allclose(total, want, rtol=1e-12)

    def test_strictly_positive(self):
        rng = np.random.default_rng(4)
        alpha = 1.0 + rng.uniform(0, 100, size=(500, 2))
        assert np.all(log_loss(alpha, rng.integers(0, 2, 500)) > 0.0)


class TestKlRegularizer:
    def test_zero_when_only_correct_evidence(self):
        assert kl_reg(np.array([5.0, 1.0]), Y0) == pytest.approx(0.0, abs=1e-12)
        assert kl_reg(np.array([1.0, 5.0]), Y1) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_hand_case(self):
        # KL(Dir(1,2) || Dir(1,1)) = integral 2p ln(2p) dp = ln 2 - 1/2
        want = math.log(2.0) - 0.5
        assert kl_reg(np.array([1.0, 2.0]), Y0) == pytest.approx(want, abs=1e-9)

    def test_against_quadrature(self):
        assert kl_reg(np.array([1.0, 5.0]), Y0) == pytest.approx(
            dirichlet_kl_quad(1.0, 5.0), abs=1e-6
        )
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = 1.0 + rng.uniform(0, 9, 2)
            got = kl_reg(a, Y0)  # alpha_tilde = (1, a1)
            assert got == pytest.approx(dirichlet_kl_quad(1.0, a[1]), abs=1e-6)

    def test_nonnegative_and_zero_only_without_incorrect_evidence(self):
        rng = np.random.default_rng(6)
        o = np.log(rng.uniform(0, 50, size=(500, 2)))
        alpha = ev.dirichlet_from_evidence(ev.evidence_from_logits(o))
        labels = rng.integers(0, 2, 500)
        kl = kl_term(o, labels)
        assert np.all(kl >= 0.0)
        # strictly positive whenever the incorrect class kept real evidence
        incorrect = alpha[np.arange(500), 1 - labels]
        assert np.all(kl[incorrect > 1.001] > 0.0)


class TestTotalLoss:
    def test_lambda_schedule(self):
        assert ev.lambda_schedule(0) == 0.0
        assert ev.lambda_schedule(5) == 0.5
        assert ev.lambda_schedule(10) == 1.0
        assert ev.lambda_schedule(20) == 1.0
        with pytest.raises(ValueError):
            ev.lambda_schedule(-1)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(7)
        o = np.log(rng.uniform(0, 10, size=(50, 2)))
        alpha = ev.dirichlet_from_evidence(ev.evidence_from_logits(o))
        labels = rng.integers(0, 2, 50)
        y = np.eye(2)[labels]
        nll = -np.log(ev.expected_prob(alpha)[np.arange(50), labels])
        kl = general_kl_to_uniform(y + (1.0 - y) * alpha)
        for epoch in (0, 3, 7, 15):
            total, _ = ev.edl_loss_and_grad(o, labels, epoch)
            lam = ev.lambda_schedule(epoch)
            np.testing.assert_allclose(total, nll + lam * kl)

    def test_epoch_zero_is_pure_log_loss(self):
        o = np.log([3.0, 1.0])  # alpha = (4, 2)
        total, _ = ev.edl_loss_and_grad(o, Y0, 0)
        assert total == pytest.approx(math.log(6.0 / 4.0))


class TestBce:
    def test_values(self):
        # sigmoid(+-ln 9) = 0.9 and 0.1
        z = math.log(9.0)
        assert ev.bce_loss_from_logit(0.0, 0.0) == pytest.approx(math.log(2.0))
        assert ev.bce_loss_from_logit(0.0, 1.0) == pytest.approx(math.log(2.0))
        assert ev.bce_loss_from_logit(z, 1.0) == pytest.approx(0.1053605, abs=1e-7)
        assert ev.bce_loss_from_logit(z, 0.0) == pytest.approx(2.3025851, abs=1e-7)
        assert ev.bce_loss_from_logit(-z, 0.0) == pytest.approx(0.1053605, abs=1e-7)
        assert ev.bce_loss_from_logit(-z, 1.0) == pytest.approx(2.3025851, abs=1e-7)

    def test_logit_form_matches(self):
        rng = np.random.default_rng(8)
        z = rng.uniform(-10, 10, 200)
        y1 = rng.integers(0, 2, 200).astype(float)
        y = np.stack([1.0 - y1, y1], axis=-1)
        # the probability form, with p clamped away from 0 and 1
        p = np.clip(ev.sigmoid(z), ev.PROB_EPS, 1.0 - ev.PROB_EPS)
        want = -(y[..., 1] * np.log(p) + y[..., 0] * np.log1p(-p))
        np.testing.assert_allclose(
            ev.bce_loss_from_logit(z, y1), want, rtol=1e-9, atol=1e-12
        )

    def test_logit_grad(self):
        z = np.array([-3.0, 0.0, 2.0])
        y1 = np.array([1.0, 0.0, 1.0])
        h = 1e-6
        fd = (ev.bce_loss_from_logit(z + h, y1) - ev.bce_loss_from_logit(z - h, y1)) / (
            2 * h
        )
        np.testing.assert_allclose(ev.bce_grad_from_logit(z, y1), fd, atol=1e-8)


class TestLossGradient:
    def test_hand_case(self):
        # chain rule at o=(0,0): e=(1,1), alpha=(2,2), S=4
        # d/do0 = e0 * (1/S - 1/alpha0) = -0.25; d/do1 = e1/S = +0.25
        got = ev.edl_loss_and_grad(np.array([0.0, 0.0]), Y0, 0)[1]
        np.testing.assert_allclose(got, [-0.25, 0.25], atol=1e-12)

    def test_label_swap_symmetry(self):
        o = np.array([0.7, 0.7])
        g0 = ev.edl_loss_and_grad(o, Y0, 4)[1]
        g1 = ev.edl_loss_and_grad(o, Y1, 4)[1]
        np.testing.assert_allclose(g0, g1[::-1], atol=1e-12)

    def test_epoch_linearity_in_lambda(self):
        rng = np.random.default_rng(9)
        o = rng.uniform(-4, 4, size=(30, 2))
        y = rng.integers(0, 2, 30)
        g0 = ev.edl_loss_and_grad(o, y, 0)[1]
        g20 = ev.edl_loss_and_grad(o, y, 20)[1]
        g5 = ev.edl_loss_and_grad(o, y, 5)[1]
        np.testing.assert_allclose(g5, g0 + 0.5 * (g20 - g0), rtol=1e-10, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        step = 1e-4
        worst = 0.0
        for _ in range(100):
            o = rng.uniform(-5, 5, 2)
            y = int(rng.integers(0, 2))
            epoch = int(rng.integers(0, 21))
            grad = ev.edl_loss_and_grad(o, y, epoch)[1]
            for k in range(2):
                op, om = o.copy(), o.copy()
                op[k] += step
                om[k] -= step
                lp = ev.edl_loss_and_grad(op, y, epoch)[0]
                lm = ev.edl_loss_and_grad(om, y, epoch)[0]
                fd = (lp - lm) / (2 * step)
                worst = max(worst, abs(grad[k] - fd) / max(abs(fd), 1e-8))
        assert worst <= 1e-6

    def test_zero_beyond_clamp(self):
        g = ev.edl_loss_and_grad(np.array([40.0, 0.0]), Y0, 0)[1]
        assert g[0] == 0.0


# The annealed loss and its gradient as two passes over one-hot label rows
# y, as they were before `edl_loss_and_grad` fused them and took one label
# per row: the loss from alpha (the KL regulariser in its one-hot closed
# form), the gradient rebuilt from the logits.
def reference_total_loss(alpha, y, epoch):
    lam = ev.lambda_schedule(epoch)
    s = alpha.sum(axis=-1, keepdims=True)
    log_loss = (y * (np.log(s) - np.log(alpha))).sum(axis=-1)
    b = ((1.0 - y) * alpha).sum(axis=-1, keepdims=True)[..., 0]
    kl = np.maximum(np.log(b) - 1.0 + 1.0 / b, 0.0)
    return log_loss + lam * kl


def reference_loss_grad(o, y, epoch):
    lam = ev.lambda_schedule(epoch)
    e = ev.evidence_from_logits(o)
    alpha = e + 1.0
    s = alpha.sum(axis=-1, keepdims=True)
    dlog = 1.0 / s - y / alpha
    b = ((1.0 - y) * alpha).sum(axis=-1, keepdims=True)
    dkl = (1.0 - y) * ((b - 1.0) / (b * b))
    passthrough = (np.abs(o) <= ev.LOGIT_CLAMP).astype(np.float64)
    return e * (dlog + lam * dkl) * passthrough


class TestFusedLossAndGrad:
    def test_matches_two_pass_form_bit_for_bit(self):
        rng = np.random.default_rng(41)
        labels = rng.integers(0, 2, 600)
        assert 0 < labels.sum() < len(labels)  # both label classes
        y = np.eye(2)[labels]  # the references' one-hot rows
        # inside and past the clamp, and on its edges
        o = rng.uniform(-40.0, 40.0, size=(600, 2))
        o[:8] = [[30.0, -30.0], [-30.0, 30.0], [40.0, -40.0], [-40.0, 40.0]] * 2
        assert (np.abs(o) > ev.LOGIT_CLAMP).any() and (np.abs(o) < ev.LOGIT_CLAMP).any()
        alpha = ev.dirichlet_from_evidence(ev.evidence_from_logits(o))
        for epoch in (0, 5, 10, 20):
            total, grad = ev.edl_loss_and_grad(o, labels, epoch)
            assert np.array_equal(total, reference_total_loss(alpha, y, epoch))
            assert np.array_equal(grad, reference_loss_grad(o, y, epoch))


def old_edl_loss_grad(o, y, epoch):
    """The loss gradient in its general trigamma form, as it was before the
    one-hot closed form replaced it."""
    lam = ev.lambda_schedule(epoch)
    e = ev.evidence_from_logits(o)
    alpha = e + 1.0
    s = alpha.sum(axis=-1, keepdims=True)
    dlog = 1.0 / s - y / alpha
    alpha_tilde = y + (1.0 - y) * alpha
    s_tilde = alpha_tilde.sum(axis=-1, keepdims=True)
    dkl_datilde = (alpha_tilde - 1.0) * special.polygamma(
        1, alpha_tilde
    ) - special.polygamma(1, s_tilde) * (s_tilde - 2.0)
    passthrough = (np.abs(o) <= ev.LOGIT_CLAMP).astype(np.float64)
    return e * (dlog + lam * (1.0 - y) * dkl_datilde) * passthrough


def general_kl_to_uniform(alpha_tilde):
    """KL(Dir(a) || Dir(1,1)) for any concentrations; log Gamma(2) = 0."""
    s = alpha_tilde.sum(axis=-1)
    term = (alpha_tilde - 1.0) * (special.psi(alpha_tilde) - special.psi(s)[..., None])
    head = special.gammaln(s) - special.gammaln(alpha_tilde).sum(axis=-1)
    return head + term.sum(axis=-1)


def logit_rows(wrong_hi, n=400, seed=40):
    """Logit rows and their labels: the correct-class logit anywhere in
    [-30, 30], the incorrect-class logit on a grid of [-30, wrong_hi]."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    o = np.empty((n, 2))
    o[np.arange(n), labels] = rng.uniform(-30.0, 30.0, n)
    o[np.arange(n), 1 - labels] = np.linspace(-30.0, wrong_hi, n)
    return o, labels


class TestOneHotClosedForms:
    # In float64 the general forms cancel once the incorrect-class logit
    # passes about 12.8 (gammaln differences in the KL) and 15.2 (trigamma
    # differences in the gradient), so they are compared below 12 here and
    # over the whole range in 50-digit arithmetic below.
    def test_kl_matches_general_form(self):
        o, labels = logit_rows(12.0)
        alpha = ev.dirichlet_from_evidence(ev.evidence_from_logits(o))
        y = np.eye(2)[labels]
        general = general_kl_to_uniform(y + (1.0 - y) * alpha)
        np.testing.assert_allclose(kl_term(o, labels), general, rtol=0, atol=1e-9)

    def test_grad_matches_trigamma_form(self):
        o, labels = logit_rows(12.0)
        for epoch in (0, 5, 20):
            np.testing.assert_allclose(
                ev.edl_loss_and_grad(o, labels, epoch)[1],
                old_edl_loss_grad(o, np.eye(2)[labels], epoch),
                rtol=0,
                atol=1e-9,
            )

    def test_match_general_forms_in_high_precision(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        o, labels = logit_rows(30.0, n=200)
        # the clamp edges and beyond, for both classes
        edges = np.array([[30.0, -30.0], [-30.0, 30.0], [40.0, -40.0], [-40.0, 40.0]])
        o = np.concatenate([o, edges, edges])
        labels = np.concatenate([labels, [Y0] * 4, [Y1] * 4])
        y = np.eye(2)[labels]
        e = ev.evidence_from_logits(o)
        alpha = e + 1.0
        b = ((1.0 - y) * alpha).sum(axis=-1)
        kl, dkl_db = [], []
        for bk in map(mp.mpf, b):
            kl.append(
                mp.loggamma(bk + 1)
                - mp.loggamma(bk)
                + (bk - 1) * (mp.psi(0, bk) - mp.psi(0, bk + 1))
            )
            dkl_db.append((bk - 1) * (mp.psi(1, bk) - mp.psi(1, bk + 1)))
        kl = np.array(kl, dtype=np.float64)
        dkl = (1.0 - y) * np.array(dkl_db, dtype=np.float64)[:, None]
        np.testing.assert_allclose(kl_term(o, labels), kl, rtol=0, atol=1e-9)
        dlog = 1.0 / alpha.sum(axis=-1, keepdims=True) - y / alpha
        passthrough = np.abs(o) <= ev.LOGIT_CLAMP
        for epoch in (0, 5, 20):
            want = e * (dlog + ev.lambda_schedule(epoch) * dkl) * passthrough
            np.testing.assert_allclose(
                ev.edl_loss_and_grad(o, labels, epoch)[1], want, rtol=0, atol=1e-9
            )

    # a label is the class index of a one-hot row: one 0 or 1 per logit row.
    # Rejected: 0.5, 2, -1, NaN, one label too many, and one-hot rows.
    @pytest.mark.parametrize(
        "y",
        [
            [0.0, 0.5],
            [2, 1],
            [1, -1],
            [np.nan, 1.0],
            [1, 0, 0],
            [[1.0, 0.0], [0.0, 1.0]],
        ],
    )
    def test_reject_labels_that_are_not_one_hot(self, y):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            ev.edl_loss_and_grad(np.zeros((2, 2)), np.array(y), 5)

    def test_nan_logits_still_rejected(self):
        with pytest.raises(ValueError):
            ev.edl_loss_and_grad(np.array([np.nan, 0.0]), Y0, 5)


class TestEntropy:
    def test_symmetric_peak(self):
        assert ev.binary_entropy(0.5) == pytest.approx(math.log(2.0))
        assert ev.binary_entropy(0.1) == pytest.approx(ev.binary_entropy(0.9))
        assert ev.binary_entropy(0.999) < ev.binary_entropy(0.6)
