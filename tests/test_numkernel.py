"""Numeric foundation: filters, resampling, RNG."""

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from ulre.numkernel import (
    Rng,
    gaussian_blur,
    resize_nearest,
    upsample_bilinear,
)


class TestGaussianBlur:
    def test_constant_preserved(self):
        for sigma in (0.5, 1.0, 2.7):
            out = gaussian_blur(np.full((9, 11), 3.25), sigma)
            np.testing.assert_allclose(out, 3.25, rtol=1e-13)

    def test_impulse_matches_kernel_outer_product(self):
        # oracle: explicitly normalized 7-tap kernel, squared at the centre
        impulse = np.zeros((7, 7))
        impulse[3, 3] = 1.0
        out = gaussian_blur(impulse, 1.0)
        k = np.exp(-0.5 * np.arange(-3, 4, dtype=float) ** 2)
        k /= k.sum()
        np.testing.assert_allclose(out, np.outer(k, k), rtol=0, atol=1e-15)
        assert out[3, 3] == pytest.approx(0.15924112569070245, abs=1e-10)

    def test_sigma_far_below_a_pixel_is_identity(self):
        img = np.random.default_rng(6).normal(size=(5, 4))
        np.testing.assert_array_equal(gaussian_blur(img, 1e-300), img)

    def test_interior_impulse_mass_preserved(self):
        impulse = np.zeros((11, 11))
        impulse[5, 5] = 2.5
        out = gaussian_blur(impulse, 1.0)
        assert out.sum() == pytest.approx(2.5, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(12, 8))
        b = rng.normal(size=(12, 8))
        lhs = gaussian_blur(2.0 * a + 3.0 * b, 1.3)
        rhs = 2.0 * gaussian_blur(a, 1.3) + 3.0 * gaussian_blur(b, 1.3)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5, 2.0])
    def test_against_scipy(self, sigma):
        # radius formulas agree at these sigmas (ceil(3s) == int(3s + 0.5))
        rng = np.random.default_rng(8)
        img = rng.normal(size=(20, 17))
        got = gaussian_blur(img, sigma)
        want = ndimage.gaussian_filter(img, sigma, truncate=3.0, mode="reflect")
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_peak_memory(self):
        # the result is the one full-size array; the rest is band scratch
        img = np.random.default_rng(12).random((768, 768))
        tracemalloc.start()
        try:
            gaussian_blur(img, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * img.nbytes

    def test_errors(self):
        with pytest.raises(ValueError):
            gaussian_blur(np.zeros((0, 3)), 1.0)
        with pytest.raises(ValueError):
            gaussian_blur(np.zeros((3, 3)), 0.0)
        with pytest.raises(ValueError):
            gaussian_blur(np.full((3, 3), np.nan), 1.0)


class TestUpsampleBilinear:
    def test_identity_same_shape(self):
        rng = np.random.default_rng(9)
        img = rng.normal(size=(5, 7))
        np.testing.assert_array_equal(upsample_bilinear(img, 5, 7), img)

    def test_half_pixel_example(self):
        out = upsample_bilinear(np.array([[0.0, 1.0]]), 1, 4)
        np.testing.assert_allclose(out, [[0.0, 0.25, 0.75, 1.0]])

    def test_constant_any_size(self):
        out = upsample_bilinear(np.full((3, 4), -1.5), 10, 9)
        assert out.shape == (10, 9)
        np.testing.assert_allclose(out, -1.5, rtol=1e-15)

    def test_against_opencv(self):
        cv2 = pytest.importorskip("cv2")
        rng = np.random.default_rng(10)
        img = rng.normal(size=(6, 9))
        got = upsample_bilinear(img, 13, 20)
        want = cv2.resize(img, (20, 13), interpolation=cv2.INTER_LINEAR)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("out_h,out_w", [(13, 20), (4, 3), (6, 9)])
    def test_channels_equal_per_channel_resize(self, out_h, out_w):
        img = np.random.default_rng(11).normal(size=(6, 9, 5))
        want = np.stack(
            [upsample_bilinear(img[:, :, c], out_h, out_w) for c in range(5)], axis=-1
        )
        got = upsample_bilinear(img, out_h, out_w)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_peak_memory(self):
        # one half-height pass across the rows, then the result and one
        # full-size product between rows
        img = np.random.default_rng(13).random((384, 384))
        tracemalloc.start()
        try:
            out = upsample_bilinear(img, 768, 768)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * out.nbytes

    def test_errors(self):
        with pytest.raises(ValueError):
            upsample_bilinear(np.zeros((0, 2)), 2, 2)
        with pytest.raises(ValueError):
            upsample_bilinear(np.zeros((2, 2)), 0, 2)
        for shape in ((4,), (2, 2, 2, 2)):
            with pytest.raises(ValueError):
                upsample_bilinear(np.zeros(shape), 2, 2)


class TestResizeNearest:
    def test_preserves_values(self):
        mask = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        out = resize_nearest(mask, 4, 4)
        assert set(np.unique(out)) <= {0, 1}
        assert out.dtype == np.uint8

    def test_downscale(self):
        mask = np.repeat(np.repeat(np.eye(3, dtype=np.uint8), 2, 0), 2, 1)
        np.testing.assert_array_equal(
            resize_nearest(mask, 3, 3), np.eye(3, dtype=np.uint8)
        )


class TestRng:
    def test_splitmix64_reference_vectors(self):
        # published SplitMix64 outputs for seed 0
        got = Rng(0).next_u64(3)
        want = np.array(
            [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
            dtype=np.uint64,
        )
        np.testing.assert_array_equal(got, want)

    def test_determinism(self):
        a = Rng(123456789).standard_normal(100)
        b = Rng(123456789).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_prefix_stability(self):
        full = Rng(7).standard_normal(1000)
        head = Rng(7).standard_normal(10)
        np.testing.assert_array_equal(full[:10], head)

    def test_normal_moments(self):
        z = Rng(99).standard_normal(10**6)
        assert abs(z.mean()) < 0.005
        assert abs(z.var() - 1.0) < 0.01

    def test_uniform_range(self):
        u = Rng(5).uniform(10000)
        assert u.min() >= 0.0 and u.max() < 1.0
        v = Rng(5).uniform_range(10000, -2.0, 3.0)
        assert v.min() >= -2.0 and v.max() < 3.0

    def test_permutation(self):
        p = Rng(11).permutation(1000)
        assert sorted(p.tolist()) == list(range(1000))
        np.testing.assert_array_equal(p, Rng(11).permutation(1000))

    @pytest.mark.parametrize("seed", [0, 11, 2**63 + 5, 2**64 - 1])
    def test_permutation_needs_no_stable_sort(self, seed):
        # the keys of one call are distinct, so every correct sort of them
        # gives the same permutation as a stable one
        for n in (1, 2, 17, 1000, 65_537, 180_000):
            rng = Rng(seed)
            rng.next_u64(3)  # a stream part-way through
            keys = Rng(seed).next_u64(n + 3)[3:]
            assert len(np.unique(keys)) == n
            np.testing.assert_array_equal(np.argsort(keys), np.argsort(keys, kind="stable"))
            np.testing.assert_array_equal(rng.permutation(n), np.argsort(keys, kind="stable"))

    def test_integers(self):
        k = Rng(13).integers(10000, 7)
        assert k.min() >= 0 and k.max() <= 6
        assert len(set(k.tolist())) == 7

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)
