"""Estimator network: init, forward, backprop, Adam, training, inference."""

import json
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ulre import evidential as ev
from ulre import model as mdl
from ulre.data import sample_unit_directions
from ulre.numkernel import Rng

from test_evidential import reference_total_loss


def make_blobs(n=600, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2)) + [separation, 0.0]
    b = rng.normal(size=(n, 2)) - [separation, 0.0]
    x = np.concatenate([a, b])
    y = np.concatenate([np.ones(n, dtype=int), np.zeros(n, dtype=int)])
    return x, y


def reference_forward_rows(model, x, dtype=np.float32):
    """float64 logits of all rows of x in one pass computed in `dtype` (that
    of `forward` by default), one layer's activations at a time."""
    h = x.astype(dtype)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.astype(dtype)
        z += b.astype(dtype)
        if i < last:
            np.maximum(z, 0.01 * z, out=z)
        h = z
    return h.astype(np.float64)


def reference_forward_blocks(model, x, dtype=np.float32):
    """Logits of x one `forward` block at a time, each block in one pass."""
    bounds = mdl._cuts(x.shape[0], mdl._BLOCK_ROWS)
    return np.concatenate(
        [
            reference_forward_rows(model, x[lo:hi], dtype)
            for lo, hi in zip(bounds, bounds[1:])
        ]
    )


class TestInit:
    def test_deterministic(self):
        m1 = mdl.init_model([4, 8, 2], seed=42)
        m2 = mdl.init_model([4, 8, 2], seed=42)
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            np.testing.assert_array_equal(a, b)

    def test_biases_zero(self):
        m = mdl.init_model([3, 5, 2], seed=1)
        for b in m.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_zero_input_gives_uniform_belief(self):
        m = mdl.init_model([3, 16, 2], seed=2)
        logits = mdl.forward(m, np.zeros((4, 3)))
        np.testing.assert_array_equal(logits, 0.0)
        alpha = ev.dirichlet_from_evidence(ev.evidence_from_logits(logits))
        np.testing.assert_array_equal(alpha, 2.0)
        np.testing.assert_allclose(ev.expected_prob(alpha), 0.5)

    def test_fan_in_bound(self):
        m = mdl.init_model([16, 8, 2], seed=3)
        bound = np.sqrt(6.0 / 16.0)
        assert np.abs(m.weights[0]).max() <= bound

    def test_head_width_validation(self):
        with pytest.raises(ValueError):
            mdl.init_model([4, 8, 1], seed=0, head="evidential")
        with pytest.raises(ValueError):
            mdl.init_model([4, 8, 2], seed=0, head="sigmoid")
        with pytest.raises(ValueError):
            mdl.init_model([4], seed=0)
        with pytest.raises(ValueError):
            mdl.init_model([4, 0, 2], seed=0)
        with pytest.raises(ValueError, match=r"invalid layer dims: \[4, -1, 2\]"):
            mdl.init_model([4, -1, 2], seed=0)  # a negative parameter count
        with pytest.raises(ValueError):
            mdl.init_model([4, 8, 2], seed=0, head="softmax")


class TestForward:
    def test_row_permutation_equivariance(self):
        m = mdl.init_model([5, 7, 2], seed=4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 5))
        perm = rng.permutation(20)
        np.testing.assert_array_equal(mdl.forward(m, x)[perm], mdl.forward(m, x[perm]))

    def test_row_subset_independence(self):
        # dropping rows never changes the outputs of the remaining rows
        m = mdl.init_model([5, 7, 2], seed=4)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 5))
        keep = rng.permutation(20)[:7]
        np.testing.assert_array_equal(mdl.forward(m, x)[keep], mdl.forward(m, x[keep]))

    def test_single_layer_is_affine(self):
        m = mdl.init_model([3, 2], seed=6)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 3))
        f32 = np.float32
        want = x.astype(f32) @ m.weights[0].astype(f32) + m.biases[0].astype(f32)
        np.testing.assert_allclose(mdl.forward(m, x), want)

    def test_leaky_relu_slope(self):
        # w0 = [[1]], w1 = [[1, 0]], then the biases b0 = [0], b1 = [0, 0]
        m = mdl.Estimator([1, 1, 2], np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
        out = mdl.forward(m, np.array([[-3.0]]))
        assert out[0, 0] == pytest.approx(-0.03)

    def test_shape_mismatch(self):
        m = mdl.init_model([4, 8, 2], seed=8)
        with pytest.raises(ValueError):
            mdl.forward(m, np.zeros((3, 5)))

    # `forward` must give the bits of one pass over each of its blocks, for
    # every net and row count: running every layer block by block, in
    # runs on several workers, moves no bit of a block. Narrow layers
    # (16-12-2, 64-4-1) and one-column last layers are among the nets,
    # because their products change kernels with the row count (README).
    @pytest.mark.parametrize(
        "dims,head,extra_rows",
        [
            ([16, 256, 64, 2], "evidential", 100),
            ([16, 256, 64, 1], "sigmoid", 128),
            ([64, 2], "evidential", 100),
            ([64, 1], "sigmoid", 128),
            ([16, 64, 2], "evidential", 100),
            ([8, 64, 32, 64, 2], "evidential", 100),
            ([16, 12, 2], "evidential", 100),
            ([64, 4, 1], "sigmoid", 128),
        ],
    )
    def test_split_forward_matches_single_pass(self, dims, head, extra_rows):
        m = mdl.init_model(dims, seed=12, head=head)
        for rows in (0, 1, 63, 64, 65, 255, 257, 4_097, 16_384, 16_385,
                     32_768 + extra_rows, 49_216):
            x = np.random.default_rng(13).normal(size=(rows, dims[0]))
            want = reference_forward_blocks(m, x)
            np.testing.assert_array_equal(mdl.forward(m, x), want)

    def test_float32_scores_stay_near_float64(self):
        # 16-256-64 nets of both heads, trained on clusters as in the
        # acceptance tests' paired study, scored on their training rows and
        # on rows far from them (|logit| up to about 70). Against the float64
        # pass over the same blocks, the largest relative change measured
        # 1.3e-5 (evidential LR) and 8.6e-6 (sigmoid P(OOD)) here, and at
        # most 1.7e-5 over seeds 0-5; the bound leaves 2.9x headroom.
        d = 16
        rng = Rng(0)
        dirs = sample_unit_directions(d, 4, rng)

        def around(center, sigma, n):
            return center + sigma * rng.standard_normal(n * d).reshape(n, d)

        x = np.concatenate(
            [around(dirs[k], 0.1, 1_000) for k in range(3)]
            + [around(dirs[3], 0.8, 3_000)]
        )
        y = np.repeat([0, 1], [3_000, 3_000])
        rows = np.concatenate([x, around(0.0, 4.0, 4_096)])
        cfg = mdl.TrainConfig(epochs=5, learning_rate=1e-3, batch_size=1_024, seed=1)
        for head, kind in mdl.HEADS.items():
            net = mdl.init_model([d, 256, 64, kind.width], 3, head)
            m, _ = mdl.train(net, x, y, cfg)
            got, want = (
                kind.score(kind.output(z)) if head == "evidential" else kind.prob(z)
                for z in (
                    mdl.forward(m, rows),
                    reference_forward_blocks(m, rows, np.float64),
                )
            )
            assert np.max(np.abs(got - want) / want) < 5e-5

    @pytest.mark.parametrize("slope", [0.01])  # the one leaky-ReLU slope
    def test_activation_kernels_match_where_forms(self, slope):
        # the layer kernel and the step's gradient mask in float32 (`forward`
        # and `train`) and float64 (the step of the gradient tests); `small`
        # is a subnormal
        for dtype, uint, small, big in (
            (np.float32, np.uint32, 1e-40, 1e38),
            (np.float64, np.uint64, 1e-310, 1e308),
        ):
            tiny = np.finfo(dtype).smallest_subnormal
            z = np.array(
                [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
                 3 * tiny, -3 * tiny, small, -small, 1.5, -2.5, big, -big],
                dtype,
            )
            # one hidden unit whose pre-activation is z: x @ [[1]] + (-0.0)
            # keeps every value, though the matmul turns -0.0 into 0.0; the
            # last layer copies it, so that no product overflows
            weights = [np.ones((1, 1), dtype), np.ones((1, 2), dtype)]
            biases = [np.full(1, -0.0, dtype), np.zeros(2, dtype)]
            x = z[:, None]
            pre = x @ weights[0] + biases[0]
            assert np.array_equal(pre, x, equal_nan=True)
            h, logits = np.empty_like(x), np.empty((len(z), 2), dtype)
            mdl._logit_rows(weights, biases, x, [h], np.empty(len(z), dtype), logits)
            want = np.where(pre > 0.0, pre, slope * pre)
            np.testing.assert_array_equal(h.view(uint), want.view(uint))
            act = np.maximum(z, slope * z)
            grad = np.where(z > 0.0, 1.0, slope).astype(dtype)
            got = mdl._leaky_grad(act)  # in place
            assert got is act and got.dtype == dtype
            np.testing.assert_array_equal(got.view(uint), grad.view(uint))


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TestForwardWorkers:
    """`forward` shares its blocks between threads."""

    @pytest.mark.parametrize(
        "env,want",
        [
            ({}, 1),  # OpenBLAS takes every core
            ({"OPENBLAS_NUM_THREADS": "1"}, 2),
            ({"OMP_NUM_THREADS": "2"}, 1),
            ({"OPENBLAS_NUM_THREADS": "4"}, 1),
            ({"OPENBLAS_NUM_THREADS": "two", "OMP_NUM_THREADS": "1"}, 2),
            ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 2),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        ],
    )
    def test_worker_count_is_the_cores_blas_leaves(self, monkeypatch, env, want):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert mdl._workers() == want

    def test_worker_count_without_affinity_counts_cpus(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert mdl._workers() == 2

    def test_workers_keep_the_callers_float_error_state(self, monkeypatch):
        # only the rows past the caller's own block overflow
        monkeypatch.setattr(mdl, "_workers", lambda: 2)
        m = mdl.init_model([2, 4, 2], seed=0)
        x = np.zeros((1_024, 2))
        x[512:] = 1e308
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            mdl.forward(m, x)

    def test_more_workers_than_cores_give_the_bits_of_one(self, monkeypatch):
        calls = []  # the thread of each _logit_rows call in one forward
        logit_rows = mdl._logit_rows

        def recorded(*args):
            calls.append(threading.get_ident())
            logit_rows(*args)

        monkeypatch.setattr(mdl, "_logit_rows", recorded)
        many = (os.cpu_count() or 1) + 2
        most_threads = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for dims, head in (
                ([16, 256, 64, 2], "evidential"),
                ([16, 256, 64, 1], "sigmoid"),
            ):
                m = mdl.init_model(dims, seed=14, head=head)
                for rows in (1, 257, 4_097, 16_385, 49_216):
                    x = np.random.default_rng(rows).normal(size=(rows, dims[0]))
                    monkeypatch.setattr(mdl, "_workers", lambda: 1)
                    want = mdl.forward(m, x)
                    monkeypatch.setattr(mdl, "_workers", lambda: many)
                    calls.clear()
                    np.testing.assert_array_equal(mdl.forward(m, x), want)
                    # the work done, not the time taken, which other load
                    # on the host stretches: each block ran exactly once,
                    # on at most one thread per worker
                    blocks = len(mdl._cuts(rows, mdl._BLOCK_ROWS)) - 1
                    assert len(calls) == blocks
                    assert len(set(calls)) <= min(many, blocks)
                    most_threads = max(most_threads, len(set(calls)))
        finally:
            sys.setswitchinterval(interval)
        assert most_threads > 1  # the pool ran some blocks

    # _BLOCK_ROWS is chosen for speed: the shipped nets of both heads give
    # the bits of 256-row blocks on blocks of _BLOCK_ROWS rows, on one worker
    # and on two. The last block of all but 147,456 rows, at either size, is
    # one row past a multiple of 4, the one-column kernel's step.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dims,head", [([16, 256, 64, 2], "evidential"),
                                           ([16, 256, 64, 1], "sigmoid")])
    def test_block_size_moves_no_bit(self, monkeypatch, workers, dims, head):
        monkeypatch.setattr(mdl, "_workers", lambda: workers)
        m = mdl.init_model(dims, seed=16, head=head)
        x = np.random.default_rng(17).normal(size=(147_456, dims[0]))
        for rows in (257, 4_097, 16_385, 16_389, 147_456):
            got = mdl.forward(m, x[:rows])
            with monkeypatch.context() as patch:
                patch.setattr(mdl, "_BLOCK_ROWS", 256)
                want = mdl.forward(m, x[:rows])
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_exception_propagates_and_threads_end(self, monkeypatch, failing):
        logit_rows = mdl._logit_rows
        caller = threading.get_ident()

        def fail_on_one_thread(*args):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise RuntimeError(f"{failing} failed")
            logit_rows(*args)

        monkeypatch.setattr(mdl, "_logit_rows", fail_on_one_thread)
        monkeypatch.setattr(mdl, "_workers", lambda: 3)
        m = mdl.init_model([16, 256, 64, 2], seed=15)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            mdl.forward(m, np.zeros((4_096, 16)))
        assert threading.active_count() == before


class TestBackprop:
    @pytest.mark.parametrize("head,dims", [("evidential", [4, 8, 2]), ("sigmoid", [4, 8, 1])])
    def test_matches_finite_differences(self, head, dims):
        m = mdl.init_model(dims, seed=9, head=head)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(16, 4))
        y = rng.integers(0, 2, 16)
        step = 1e-3
        for epoch in (0, 20):
            _, gw, gb = mdl._Step(m, len(x), np.float64)(x, y, epoch)
            worst = 0.0
            for params, grads in ((m.weights, gw), (m.biases, gb)):
                for p, g in zip(params, grads):
                    flat_p, flat_g = p.ravel(), g.ravel()
                    for k in range(flat_p.size):
                        orig = flat_p[k]
                        flat_p[k] = orig + step
                        lp = mdl._Step(m, len(x), np.float64)(x, y, epoch)[0]
                        flat_p[k] = orig - step
                        lm = mdl._Step(m, len(x), np.float64)(x, y, epoch)[0]
                        flat_p[k] = orig
                        fd = (lp - lm) / (2 * step)
                        rel = abs(flat_g[k] - fd) / max(
                            1e-12, abs(flat_g[k]) + abs(fd)
                        )
                        worst = max(worst, rel)
            assert worst <= 1e-4

    def test_float32_step_stays_near_float64(self):
        # `train`'s float32 step against the float64 one on the same batch,
        # at epochs 0 and 20: A1's net and data, and 16-256-64 nets at 1,024
        # rows, both heads. Here the largest relative loss change measured
        # 1.6e-8 and the largest gradient change 6.5e-7 of the largest |g|;
        # over ten seeds of nets and data, at most 3.9e-8 and 1.03e-6. The
        # bounds leave 2.6x and 2.9x headroom.
        for dims, rows in (([4, 8], 16), ([16, 256, 64], 1_024)):
            for head, kind in mdl.HEADS.items():
                m = mdl.init_model([*dims, kind.width], 101, head)
                rng = np.random.default_rng(202)
                x = rng.normal(size=(rows, dims[0]))
                y = rng.integers(0, 2, rows)
                for epoch in (0, 20):
                    want, got = (
                        mdl._Step(m, rows, dtype) for dtype in (np.float64, np.float32)
                    )
                    want_loss, got_loss = want(x, y, epoch)[0], got(x, y, epoch)[0]
                    assert abs(got_loss - want_loss) < 1e-7 * abs(want_loss)
                    worst = np.max(np.abs(got.grad - want.grad))
                    assert worst < 3e-6 * np.max(np.abs(want.grad))


# The training step as it was before the buffered step and in-place Adam:
# fresh activation, delta, gradient and Adam arrays for every batch, with
# the activation kernels in their np.where forms. The network and its
# backward pass run in `dtype`, the head in float64, over the batch and its
# logit gradient zero-padded to the step's row count. The buffered step must
# reproduce it bit for bit. Its evidential loss is the two-pass form over
# one-hot label rows.
def _reference_forward_cached(weights, biases, x):
    acts = [x]
    pres = []
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        pres.append(z)
        h = np.where(z > 0.0, z, 0.01 * z) if i < last else z
        acts.append(h)
    return acts, pres


def _reference_backward(weights, acts, pres, dlogits):
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    delta = dlogits
    for i in range(len(weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * np.where(
                pres[i - 1] > 0.0, 1.0, 0.01
            ).astype(delta.dtype)
    return grads_w, grads_b


def _reference_batch(model, xb, yb, epoch, dtype, rows):
    weights = [w.astype(dtype) for w in model.weights]
    biases = [b.astype(dtype) for b in model.biases]
    n = xb.shape[0]
    x = np.zeros((rows, xb.shape[1]), dtype)
    x[:n] = xb
    acts, pres = _reference_forward_cached(weights, biases, x)
    logits = acts[-1][:n].astype(np.float64)
    if model.head == "evidential":
        alpha = ev.dirichlet_from_evidence(ev.evidence_from_logits(logits))
        loss = float(np.mean(reference_total_loss(alpha, np.eye(2)[yb], epoch)))
        dlogits = ev.edl_loss_and_grad(logits, yb, epoch)[1] / n
    else:
        z, y1 = logits[:, 0], yb
        loss = float(np.mean(ev.bce_loss_from_logit(z, y1)))
        dlogits = (ev.bce_grad_from_logit(z, y1) / n)[:, None]
    padded = np.zeros((rows, dlogits.shape[1]), dtype)
    padded[:n] = dlogits
    grads = _reference_backward(weights, acts, pres, padded)
    return (loss, *([g.astype(np.float64) for g in gs] for gs in grads))


def _reference_train(model, x, y, cfg):
    """Returns (weights, biases, train losses, val losses)."""
    rng = Rng(cfg.seed)
    n = x.shape[0]
    if cfg.early_stopping:
        split = rng.permutation(n)
        n_val = max(1, int(round(n * mdl._VAL_FRACTION)))
        val_idx, train_idx = split[:n_val], split[n_val:]
    else:
        val_idx, train_idx = np.empty(0, dtype=np.intp), np.arange(n)
    x_train, y_train = x[train_idx], y[train_idx]
    rows = -(-cfg.batch_size // mdl._FORWARD_ALIGN) * mdl._FORWARD_ALIGN
    params = model.weights + model.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0
    beta1, beta2, eps = mdl._ADAM_BETA1, mdl._ADAM_BETA2, mdl._ADAM_EPS
    train_loss, val_loss = [], []
    best, best_params, since_best = np.inf, None, 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(x_train.shape[0])
        total = 0.0
        for start in range(0, x_train.shape[0], cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            xb, yb = x_train[batch], y_train[batch]
            loss, gw, gb = _reference_batch(model, xb, yb, epoch, np.float32, rows)
            t += 1
            bc1 = 1.0 - beta1**t
            bc2 = 1.0 - beta2**t
            for p, g, mp, vp in zip(params, gw + gb, m, v):
                mp *= beta1
                mp += (1.0 - beta1) * g
                vp *= beta2
                vp += (1.0 - beta2) * g * g
                p -= cfg.learning_rate * (mp / bc1) / (np.sqrt(vp / bc2) + eps)
            total += loss * len(batch)
        train_loss.append(total / x_train.shape[0])
        if cfg.early_stopping:
            val = mdl._fit_loss(model, x[val_idx], y[val_idx])
            val_loss.append(val)
            if val < best:
                best, best_params, since_best = val, [p.copy() for p in params], 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break
    if best_params is not None:
        params = best_params
    k = len(model.weights)
    return params[:k], params[k:], train_loss, val_loss


class TestBufferedStep:
    # 600 rows: batches of 128 leave a ragged last batch with and without
    # the validation split. With early stopping both heads stop at epoch 5
    # and restore epoch 3; without it they run past the lambda ramp.
    @pytest.mark.parametrize("early_stopping", [False, True])
    @pytest.mark.parametrize(
        "head,dims", [("evidential", [2, 16, 8, 2]), ("sigmoid", [2, 16, 8, 1])]
    )
    def test_train_matches_reference_bit_for_bit(self, head, dims, early_stopping):
        x, y = make_blobs(n=300, separation=0.5, seed=35)
        cfg = mdl.TrainConfig(
            epochs=14,
            learning_rate=3e-2,
            batch_size=128,
            seed=36,
            early_stopping=early_stopping,
            patience=2,
        )
        got, report = mdl.train(mdl.init_model(dims, 37, head), x, y, cfg)
        weights, biases, train_loss, val_loss = _reference_train(
            mdl.init_model(dims, 37, head), x, y, cfg
        )
        assert report.n_train % cfg.batch_size != 0
        if early_stopping:
            assert report.best_epoch < report.stopped_epoch
        assert report.train_loss == train_loss
        assert report.val_loss == val_loss
        for a, b in zip(got.weights + got.biases, weights + biases):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("slope", [0.01])  # the one the references use
    @pytest.mark.parametrize(
        "head,dims",
        [
            ("evidential", [3, 2]),
            ("evidential", [3, 32, 2]),
            ("evidential", [3, 32, 16, 2]),
            ("sigmoid", [3, 32, 16, 1]),
        ],
    )
    def test_batch_loss_grads_matches_reference(self, head, dims, slope):
        # the reference's masks come from pre-activations, the step's from
        # activations; one step serves batches of 1 and 50 of its 64 rows
        assert mdl._SLOPE == slope
        m = mdl.init_model(dims, seed=38, head=head)
        step = mdl._Step(m, 64, np.float64)
        rng = np.random.default_rng(39)
        for rows in (1, 50):
            x = rng.normal(size=(rows, 3))
            y = rng.integers(0, 2, rows)
            for epoch in (0, 4, 12):
                loss, gw, gb = step(x, y, epoch)
                want_loss, want_w, want_b = _reference_batch(
                    m, x, y, epoch, np.float64, 64
                )
                assert loss == want_loss
                for a, b in zip(gw + gb, want_w + want_b):
                    assert np.array_equal(a, b)

    def test_step_buffers_are_bounded(self):
        # the parameters, the batch, one activation per hidden layer, the
        # logits, a scratch of the widest layer and the gradient: 4.96 MiB in
        # float64 and 2.64 MiB in float32, which adds a float64 gradient; a
        # pre-activation per layer would add 2.5 and 1.25 MiB
        m = mdl.init_model([16, 256, 64, 2], seed=40)
        for dtype, bound in ((np.float64, 5 * 2**20), (np.float32, 3 * 2**20)):
            tracemalloc.start()
            try:
                step = mdl._Step(m, 1024, dtype)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert step.grad.nbytes < held < bound


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = np.random.default_rng(11).normal(size=26)
        before = p.copy()
        opt = mdl._Adam(p.size, learning_rate=0.1)
        for _ in range(3):
            opt.step(p, np.zeros_like(p))
        np.testing.assert_array_equal(p, before)


class TestTrain:
    def test_parameters_become_views_of_one_vector(self, tmp_path):
        # from init_model and load_model on, every weight and bias is a view
        # of the model's float64 `params`; train updates that vector in place
        x, y = make_blobs(n=100, seed=2)
        cfg = mdl.TrainConfig(epochs=1, batch_size=64)
        m = mdl.init_model([2, 5, 3, 2], 3)
        mdl.save_model(tmp_path / "m.ulre", m)
        back = mdl.load_model(tmp_path / "m.ulre")
        assert back.params.tobytes() == m.params.tobytes()
        params, before = m.params, m.params.copy()
        trained, _ = mdl.train(m, x, y, cfg)
        assert trained is m and m.params is params
        assert not np.array_equal(params, before)
        for model in (m, back):
            parts = model.weights + model.biases
            assert model.params.dtype == np.float64
            assert all(p.base is model.params for p in parts)
            # every weight in layer order, then every bias, each exactly once
            size = 2 * 5 + 5 * 3 + 3 * 2 + 5 + 3 + 2
            assert model.params.shape == (size,)
            model.params[...] = np.arange(size)
            flat = np.concatenate([p.ravel() for p in parts])
            np.testing.assert_array_equal(flat, np.arange(size))

    @pytest.mark.parametrize(
        "params",
        [np.zeros(10), np.zeros(5), np.zeros(6, np.float32), np.zeros((2, 3)), [0.0] * 6],
        ids=["too-long", "too-short", "float32", "2-d", "list"],
    )
    def test_parameter_vector_must_fit_the_layers(self, params):
        # a [2, 2] net has 4 weights and 2 biases; a longer vector gave one
        # bias of 6 entries, and a float32 one float32 master parameters
        with pytest.raises(ValueError, match=r"1-D float64 vector of 6 values"):
            mdl.Estimator([2, 2], params)
        assert mdl.Estimator([2, 2], np.zeros(6)).biases[0].shape == (2,)

    def test_estimator_checks_its_architecture(self):
        # every Estimator is valid by construction: a 3-wide last layer fits
        # no head, whatever its parameter vector
        size = mdl._size([4, 8, 3])
        with pytest.raises(ValueError, match="final width 3 incompatible"):
            mdl.Estimator([4, 8, 3], np.zeros(size), head="evidential")
        with pytest.raises(ValueError, match="unknown head kind"):
            mdl.Estimator([4, 8, 2], np.zeros(mdl._size([4, 8, 2])), head="softmax")

    def test_early_stopping_holds_no_copy_of_its_rows(self, monkeypatch):
        # the split is by index: the batches and the validation loss read
        # the caller's rows. 81,920 x 16 rows (10 MiB): the peak of one
        # 1-epoch 16-256-64-2 call on two workers read 20.9 MiB when the held-out and the
        # training rows were copied, 10.6 MiB indexed. A smaller call runs
        # first, so that first-call imports fall outside the traced region.
        monkeypatch.setattr(mdl, "_workers", lambda: 2)
        rng = np.random.default_rng(41)
        x = rng.normal(size=(81_920, 16))
        y = rng.integers(0, 2, len(x))
        cfg = mdl.TrainConfig(epochs=1, batch_size=1024, seed=42, early_stopping=True)
        dims = [16, 256, 64, 2]
        mdl.train(mdl.init_model(dims, 43), x[:10_240], y[:10_240], cfg)
        m = mdl.init_model(dims, 43)
        tracemalloc.start()
        try:
            mdl.train(m, x, y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20

    def test_separable_blobs_high_accuracy(self):
        x, y = make_blobs()
        cfg = mdl.TrainConfig(
            epochs=30, learning_rate=3e-3, batch_size=256, seed=12
        )
        m, report = mdl.train(mdl.init_model([2, 8, 2], 13), x, y, cfg)
        alpha = ev.dirichlet_from_evidence(ev.evidence_from_logits(mdl.forward(m, x)))
        pred = (ev.expected_prob(alpha)[:, 1] > 0.5).astype(int)
        assert (pred == y).mean() >= 0.99
        assert all(np.isfinite(loss) for loss in report.train_loss)

    def test_sigmoid_head_blobs(self):
        x, y = make_blobs(seed=1)
        cfg = mdl.TrainConfig(
            epochs=30, learning_rate=3e-3, batch_size=256, seed=14
        )
        m, _ = mdl.train(mdl.init_model([2, 8, 1], 15, "sigmoid"), x, y, cfg)
        pred = (ev.sigmoid(mdl.forward(m, x)[:, 0]) > 0.5).astype(int)
        assert (pred == y).mean() >= 0.99

    def test_end_to_end_determinism(self):
        x, y = make_blobs(seed=2)
        cfg = mdl.TrainConfig(
            epochs=5,
            learning_rate=1e-3,
            batch_size=128,
            seed=16,
            early_stopping=True,
            patience=3,
        )
        m1, r1 = mdl.train(mdl.init_model([2, 8, 2], 17), x, y, cfg)
        m2, r2 = mdl.train(mdl.init_model([2, 8, 2], 17), x, y, cfg)
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            np.testing.assert_array_equal(a, b)
        assert r1.train_loss == r2.train_loss
        assert r1.val_loss == r2.val_loss

    def test_early_stopping_restores_best(self):
        x, y = make_blobs(seed=3, separation=0.3)  # noisy task: val loss wobbles
        cfg = mdl.TrainConfig(
            epochs=40,
            learning_rate=5e-3,
            batch_size=128,
            seed=18,
            early_stopping=True,
            patience=2,
        )
        m, report = mdl.train(mdl.init_model([2, 8, 2], 19), x, y, cfg)
        assert report.best_epoch is not None
        best = min(report.val_loss)
        assert report.val_loss[report.best_epoch] == best
        # restored parameters reproduce the recorded best validation loss
        rng = np.random.default_rng(0)  # rebuild the same split
        from ulre.numkernel import Rng

        split = Rng(cfg.seed).permutation(len(x))
        n_val = max(1, int(round(len(x) * mdl._VAL_FRACTION)))
        val_idx = split[:n_val]
        val = mdl._fit_loss(m, x[val_idx], y[val_idx])
        assert val == pytest.approx(best, rel=1e-12)
        if report.stopped_epoch is not None:
            assert report.epochs_run < cfg.epochs

    def test_lambda_schedule_recorded(self):
        x, y = make_blobs(seed=4)
        cfg = mdl.TrainConfig(epochs=12, learning_rate=1e-3, batch_size=256, seed=20)
        _, report = mdl.train(mdl.init_model([2, 4, 2], 21), x, y, cfg)
        assert report.lambdas == [min(1.0, t / 10.0) for t in range(12)]

    @staticmethod
    def _train_on_overflowing_features(dims, head):
        x = np.full((300, 2), 1e308)
        y = np.concatenate([np.zeros(150, dtype=int), np.ones(150, dtype=int)])
        cfg = mdl.TrainConfig(
            epochs=2, learning_rate=1e-3, batch_size=128, seed=22
        )
        mdl.train(mdl.init_model(dims, 23, head), x, y, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_diagnostic(self):
        with pytest.raises(mdl.TrainingDivergedError, match="epoch 0"):
            self._train_on_overflowing_features([2, 4, 1], "sigmoid")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_logits_abort_evidential_training(self):
        with pytest.raises(mdl.TrainingDivergedError, match="NaN logits at epoch 0"):
            self._train_on_overflowing_features([2, 4, 2], "evidential")

    def test_requires_batch_of_rows(self):
        x, y = make_blobs(n=10)
        cfg = mdl.TrainConfig(batch_size=1024)
        with pytest.raises(ValueError):
            mdl.train(mdl.init_model([2, 4, 2], 24), x, y, cfg)

    @pytest.mark.parametrize("bad", [2, 0.5])
    @pytest.mark.parametrize("head,dims", [("evidential", [2, 4, 2]), ("sigmoid", [2, 4, 1])])
    def test_rejects_labels_other_than_0_or_1(self, head, dims, bad):
        # the sigmoid head's loss would take 0.5 as a soft label
        x, y = make_blobs(n=64)
        y = y.astype(np.float64)
        y[7] = bad
        cfg = mdl.TrainConfig(epochs=1, batch_size=32)
        with pytest.raises(ValueError, match="train: labels must be 0 or 1"):
            mdl.train(mdl.init_model(dims, 24, head), x, y, cfg)


class TestPredictMap:
    def test_evidential_map(self):
        m = mdl.init_model([3, 6, 2], seed=26)
        rng = np.random.default_rng(27)
        fmap = rng.normal(size=(5, 7, 3))
        alpha = mdl.predict_map(m, fmap)
        assert alpha.shape == (5, 7, 2)
        assert np.all(alpha >= 1.0)
        flat = mdl.forward(m, fmap.reshape(-1, 3))
        want = ev.dirichlet_from_evidence(ev.evidence_from_logits(flat))
        np.testing.assert_array_equal(alpha, want.reshape(5, 7, 2))

    def test_sigmoid_map(self):
        m = mdl.init_model([3, 6, 1], seed=28, head="sigmoid")
        rng = np.random.default_rng(29)
        fmap = rng.normal(size=(4, 4, 3))
        p = mdl.predict_map(m, fmap)
        assert p.shape == (4, 4)
        assert np.all((p > 0) & (p < 1))

    def test_dim_mismatch(self):
        m = mdl.init_model([3, 6, 2], seed=30)
        with pytest.raises(ValueError):
            mdl.predict_map(m, np.zeros((4, 4, 5)))

    def test_peak_memory_is_bounded(self, monkeypatch):
        # On each of two workers `forward` holds float32 768-row blocks of
        # every layer and a scratch block, 1.74 MiB per worker, besides the
        # 1 MiB of logits, in which the head computes its output. The peak
        # reads 4.64 MiB alone and within the suite (near 400 MiB in one
        # pass over all rows). A small 2-worker `forward` runs first, as the
        # first one in a process imports the thread pool (5.21 MiB cold).
        monkeypatch.setattr(mdl, "_workers", lambda: 2)
        m = mdl.init_model([16, 256, 64, 2], seed=33)
        mdl.forward(m, np.zeros((2000, 16)))
        fmap = np.random.default_rng(34).normal(size=(256, 256, 16))
        tracemalloc.start()
        try:
            mdl.predict_map(m, fmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_evidential_output_is_computed_in_the_logits(self):
        # on a narrow net the logits set the peak: the head clips,
        # exponentiates and adds 1 in their array (3.1x their size when each
        # step made an array of its own)
        m = mdl.init_model([2, 4, 2], seed=35)
        fmap = np.random.default_rng(36).normal(scale=30.0, size=(512, 512, 2))
        logits = mdl.forward(m, fmap.reshape(-1, 2))
        want = np.exp(np.clip(logits, -ev.LOGIT_CLAMP, ev.LOGIT_CLAMP)) + 1.0
        tracemalloc.start()
        try:
            alpha = mdl.predict_map(m, fmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alpha.shape == (512, 512, 2)
        assert alpha.tobytes() == want.tobytes()
        assert peak < 2 * logits.nbytes


class TestCheckpointIo:
    def test_roundtrip_bitwise(self, tmp_path):
        from ulre.data import read_tensor_file

        m = mdl.init_model([4, 8, 3, 2], seed=31)
        path = tmp_path / "model.ulre"
        mdl.save_model(path, m)
        # the header and the parameter vector in the `_views` layout
        assert list(read_tensor_file(path)) == ["header", "params"]
        back = mdl.load_model(path)
        assert back.layer_dims == m.layer_dims
        assert back.head == m.head
        assert back.params.tobytes() == m.params.tobytes()
        for a, b in zip(back.weights + back.biases, m.weights + m.biases):
            np.testing.assert_array_equal(a, b)

    def test_missing_header(self, tmp_path):
        from ulre.data import DataError, write_tensor_file

        path = tmp_path / "bad.ulre"
        write_tensor_file(path, {"params": np.zeros(6)})
        with pytest.raises(DataError, match="missing its 'header' record"):
            mdl.load_model(path)

    def test_missing_parameter_record(self, tmp_path):
        from ulre.data import DataError, read_tensor_file, write_tensor_file

        m = mdl.init_model([4, 8, 2], seed=32)
        path = tmp_path / "model.ulre"
        mdl.save_model(path, m)
        records = read_tensor_file(path)
        del records["params"]
        write_tensor_file(path, records)
        with pytest.raises(DataError, match="missing its 'params' record"):
            mdl.load_model(path)

    @pytest.mark.parametrize("key,value", [("w0", np.inf), ("b1", -np.inf), ("w1", np.nan)])
    def test_nonfinite_parameter_rejected(self, tmp_path, key, value):
        from ulre.data import DataError, read_tensor_file, write_tensor_file

        path = tmp_path / "model.ulre"
        mdl.save_model(path, mdl.init_model([4, 8, 2], seed=32))
        records = read_tensor_file(path)
        # the entry of `params` that holds the layer's second weight or bias
        weights, biases = mdl._views(np.arange(58), [4, 8, 2])
        layer = {"w0": weights[0], "b1": biases[1], "w1": weights[1]}[key]
        records["params"][layer.flat[1]] = value
        write_tensor_file(path, records)
        with pytest.raises(DataError, match="'params' holds NaN or infinite values"):
            mdl.load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [lambda p: p[:-1], lambda p: np.append(p, 0.0), lambda p: p.reshape(2, -1),
         lambda p: p.astype(np.uint8)],
        ids=["short", "long", "2-d", "u8"],
    )
    def test_parameter_vector_that_does_not_fit_rejected(self, tmp_path, edit):
        from ulre.data import DataError, read_tensor_file, write_tensor_file

        path = tmp_path / "model.ulre"
        mdl.save_model(path, mdl.init_model([4, 8, 2], seed=32))  # 58 parameters
        records = read_tensor_file(path)
        records["params"] = edit(np.zeros(58))
        write_tensor_file(path, records)
        message = f"^{re.escape(str(path))}: .*1-D float64 vector of 58 values"
        with pytest.raises(DataError, match=message):
            mdl.load_model(path)

    def test_version_1_checkpoint_rejected(self, tmp_path):
        # the per-layer records of format 1 (w0, b0, ...) are not read
        from ulre.data import DataError, write_tensor_file

        m = mdl.init_model([4, 8, 2], seed=32)
        header = {"format_version": 1, "layer_dims": [4, 8, 2], "slope": 0.01,
                  "head": "evidential"}
        records = {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)}
        for i, (w, b) in enumerate(zip(m.weights, m.biases)):
            records[f"w{i}"], records[f"b{i}"] = w, b
        path = tmp_path / "model.ulre"
        write_tensor_file(path, records)
        with pytest.raises(DataError, match="unsupported checkpoint format version 1$"):
            mdl.load_model(path)
