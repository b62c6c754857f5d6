"""Estimator network: init, forward, backprop, Adam, training, inference."""

import tracemalloc

import numpy as np
import pytest

from ulre import evidential as ev
from ulre import model as mdl


def make_blobs(n=600, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2)) + [separation, 0.0]
    b = rng.normal(size=(n, 2)) - [separation, 0.0]
    x = np.concatenate([a, b])
    y = np.concatenate([np.ones(n, dtype=int), np.zeros(n, dtype=int)])
    return x, y


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
        with pytest.raises(ValueError):
            mdl.init_model([4, 8, 2], seed=0, head="softmax")
        with pytest.raises(ValueError, match="slope"):
            mdl.init_model([4, 8, 2], seed=0, slope=1.5)


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
        np.testing.assert_allclose(mdl.forward(m, x), x @ m.weights[0] + m.biases[0])

    def test_leaky_relu_slope(self):
        m = mdl.Estimator(
            [1, 1, 2],
            [np.array([[1.0]]), np.array([[1.0, 0.0]])],
            [np.zeros(1), np.zeros(2)],
            slope=0.01,
        )
        out = mdl.forward(m, np.array([[-3.0]]))
        assert out[0, 0] == pytest.approx(-0.03)

    def test_shape_mismatch(self):
        m = mdl.init_model([4, 8, 2], seed=8)
        with pytest.raises(ValueError):
            mdl.forward(m, np.zeros((3, 5)))

    # The sigmoid head's one-column last layer computes the rows past the
    # last multiple of 4 with another kernel, so part boundaries must be
    # aligned; its row count also keeps a two-thread single pass aligned.
    @pytest.mark.parametrize(
        "dims,head,extra_rows",
        [([16, 256, 64, 2], "evidential", 100), ([16, 256, 64, 1], "sigmoid", 128)],
    )
    def test_split_forward_matches_single_pass(self, dims, head, extra_rows):
        m = mdl.init_model(dims, seed=12, head=head)
        n = 2 * mdl._FORWARD_ROWS + extra_rows
        x = np.random.default_rng(13).normal(size=(n, 16))
        np.testing.assert_array_equal(
            mdl.forward(m, x), mdl._forward_cached(m, x)[0][-1]
        )

    def test_activation_kernels_match_where_forms(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        z = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
             3 * tiny, -3 * tiny, 1e-310, -1e-310, 1.5, -2.5, 1e308, -1e308]
        )
        slope = 0.01
        for got, want in (
            (mdl._leaky(z, slope), np.where(z > 0.0, z, slope * z)),
            (mdl._leaky_grad(z, slope), np.where(z > 0.0, 1.0, slope)),
        ):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBackprop:
    @pytest.mark.parametrize("head,dims", [("evidential", [4, 8, 2]), ("sigmoid", [4, 8, 1])])
    def test_matches_finite_differences(self, head, dims):
        m = mdl.init_model(dims, seed=9, head=head)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(16, 4))
        y = ev.one_hot(rng.integers(0, 2, 16))
        step = 1e-3
        for epoch in (0, 20):
            _, _, gw, gb = mdl._batch_loss_grads(m, x, y, epoch)
            worst = 0.0
            for params, grads in ((m.weights, gw), (m.biases, gb)):
                for p, g in zip(params, grads):
                    flat_p, flat_g = p.ravel(), g.ravel()
                    for k in range(flat_p.size):
                        orig = flat_p[k]
                        flat_p[k] = orig + step
                        lp = mdl._batch_loss_grads(m, x, y, epoch)[0]
                        flat_p[k] = orig - step
                        lm = mdl._batch_loss_grads(m, x, y, epoch)[0]
                        flat_p[k] = orig
                        fd = (lp - lm) / (2 * step)
                        rel = abs(flat_g[k] - fd) / max(
                            1e-12, abs(flat_g[k]) + abs(fd)
                        )
                        worst = max(worst, rel)
            assert worst <= 1e-4


class TestAdam:
    def test_zero_gradient_is_identity(self):
        m = mdl.init_model([3, 4, 2], seed=11)
        before = [p.copy() for p in m.weights + m.biases]
        opt = mdl._Adam(m, mdl.TrainConfig(learning_rate=0.1))
        zeros_w = [np.zeros_like(w) for w in m.weights]
        zeros_b = [np.zeros_like(b) for b in m.biases]
        for _ in range(3):
            opt.step(m, zeros_w, zeros_b)
        for p, q in zip(m.weights + m.biases, before):
            np.testing.assert_array_equal(p, q)


class TestTrain:
    def test_separable_blobs_high_accuracy(self):
        x, y = make_blobs()
        cfg = mdl.TrainConfig(
            epochs=30, learning_rate=3e-3, batch_size=256, seed=12, head="evidential"
        )
        m, report = mdl.train(mdl.init_model([2, 8, 2], 13), x, y, cfg)
        alpha = ev.dirichlet_from_evidence(ev.evidence_from_logits(mdl.forward(m, x)))
        pred = (ev.expected_prob(alpha)[:, 1] > 0.5).astype(int)
        assert (pred == y).mean() >= 0.99
        assert all(np.isfinite(loss) for loss in report.train_loss)

    def test_sigmoid_head_blobs(self):
        x, y = make_blobs(seed=1)
        cfg = mdl.TrainConfig(
            epochs=30, learning_rate=3e-3, batch_size=256, seed=14, head="sigmoid"
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
            head="evidential",
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
            head="evidential",
            early_stopping=True,
            patience=2,
            val_fraction=0.2,
        )
        m, report = mdl.train(mdl.init_model([2, 8, 2], 19), x, y, cfg)
        assert report.best_epoch is not None
        best = min(report.val_loss)
        assert report.val_loss[report.best_epoch] == best
        # restored parameters reproduce the recorded best validation loss
        rng = np.random.default_rng(0)  # rebuild the same split
        from ulre.numkernel import Rng

        split = Rng(cfg.seed).permutation(len(x))
        n_val = max(1, int(round(len(x) * cfg.val_fraction)))
        val_idx = split[:n_val]
        val = mdl._fit_loss(m, x[val_idx], ev.one_hot(y[val_idx]))
        assert val == pytest.approx(best, rel=1e-12)
        if report.stopped_epoch is not None:
            assert report.epochs_run < cfg.epochs

    def test_lambda_schedule_recorded(self):
        x, y = make_blobs(seed=4)
        cfg = mdl.TrainConfig(epochs=12, learning_rate=1e-3, batch_size=256, seed=20)
        _, report = mdl.train(mdl.init_model([2, 4, 2], 21), x, y, cfg)
        assert report.lambdas == [min(1.0, t / 10.0) for t in range(12)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_diagnostic(self):
        x = np.full((300, 2), 1e308)
        y = np.concatenate([np.zeros(150, dtype=int), np.ones(150, dtype=int)])
        cfg = mdl.TrainConfig(
            epochs=2, learning_rate=1e-3, batch_size=128, seed=22, head="sigmoid"
        )
        with pytest.raises(mdl.TrainingDivergedError, match="epoch 0"):
            mdl.train(mdl.init_model([2, 4, 1], 23, "sigmoid"), x, y, cfg)

    def test_requires_batch_of_rows(self):
        x, y = make_blobs(n=10)
        cfg = mdl.TrainConfig(batch_size=1024)
        with pytest.raises(ValueError):
            mdl.train(mdl.init_model([2, 4, 2], 24), x, y, cfg)

    def test_head_mismatch(self):
        x, y = make_blobs()
        cfg = mdl.TrainConfig(batch_size=256, head="sigmoid")
        with pytest.raises(ValueError):
            mdl.train(mdl.init_model([2, 4, 2], 25), x, y, cfg)


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

    def test_peak_memory_is_bounded(self):
        # 16,384-row parts; one pass over all 65,536 rows peaks near 400 MiB
        m = mdl.init_model([16, 256, 64, 2], seed=33)
        fmap = np.random.default_rng(34).normal(size=(256, 256, 16))
        tracemalloc.start()
        try:
            mdl.predict_map(m, fmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20


class TestCheckpointIo:
    def test_roundtrip_bitwise(self, tmp_path):
        m = mdl.init_model([4, 8, 3, 2], seed=31)
        path = tmp_path / "model.ulre"
        mdl.save_model(path, m)
        back = mdl.load_model(path)
        assert back.layer_dims == m.layer_dims
        assert back.head == m.head
        assert back.slope == m.slope
        for a, b in zip(back.weights + back.biases, m.weights + m.biases):
            np.testing.assert_array_equal(a, b)

    def test_missing_header(self, tmp_path):
        from ulre.data import DataError, write_tensor_file

        path = tmp_path / "bad.ulre"
        write_tensor_file(path, {"w0": np.zeros((2, 2))})
        with pytest.raises(DataError):
            mdl.load_model(path)

    def test_missing_parameter_record(self, tmp_path):
        from ulre.data import DataError, read_tensor_file, write_tensor_file

        m = mdl.init_model([4, 8, 2], seed=32)
        path = tmp_path / "model.ulre"
        mdl.save_model(path, m)
        records = read_tensor_file(path)
        del records["w1"]
        write_tensor_file(path, records)
        with pytest.raises(DataError, match="w1"):
            mdl.load_model(path)
