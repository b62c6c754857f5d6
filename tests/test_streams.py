"""The chunked random streams, generators and map filters against
whole-array reference copies: the same draws and the same arithmetic,
done in the same order, give the same bits."""

import math

import numpy as np
import pytest

from ulre.data import (
    _SCENE_NOISE,
    _nearest_anchor,
    gen_synthetic_scene,
    make_feature_object,
    sample_unit_directions,
)
from ulre.numkernel import CHUNK, Rng, _gaussian_kernel, gaussian_blur, upsample_bilinear

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class RefRng:
    """SplitMix64 and Box-Muller over whole arrays, one expression each."""

    def __init__(self, seed):
        self._seed = np.uint64(seed)
        self._counter = 0

    def next_u64(self, n):
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            z = self._seed + idx * _GAMMA
            z = (z ^ (z >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            return z ^ (z >> np.uint64(31))

    def uniform(self, n):
        return (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform_range(self, n, low, high):
        return low + (high - low) * self.uniform(n)

    def standard_normal(self, n):
        pairs = (n + 1) // 2
        u = self.uniform(2 * pairs)
        radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        angle = 2.0 * math.pi * u[1::2]
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]

    def permutation(self, n):
        return np.argsort(self.next_u64(n))


def reference_class_ids(h, w, anchor_y, anchor_x):
    yy, xx = np.mgrid[0:h, 0:w]
    dist2 = (yy[..., None] - anchor_y) ** 2 + (xx[..., None] - anchor_x) ** 2
    return dist2.argmin(axis=-1).astype(np.uint8)


def ref_scene(h, w, d, n_id_classes, seed, directions):
    rng = RefRng(seed)
    anchor_y = rng.uniform_range(n_id_classes, 0.0, float(h))
    anchor_x = rng.uniform_range(n_id_classes, 0.0, float(w))
    class_ids = reference_class_ids(h, w, anchor_y, anchor_x)
    noise = rng.standard_normal(h * w * d).reshape(h, w, d) * _SCENE_NOISE
    return directions[class_ids] + noise, class_ids


def ref_object(h, w, direction, rng, noise_sigma):
    d = direction.shape[0]
    noise = rng.standard_normal(h * w * d).reshape(h, w, d) * noise_sigma
    return direction[None, None, :] + noise


C = CHUNK
SIZES = [1, 2, 3, C - 1, C, C + 1, 3 * C + 5, 384 * 384 * 16]
SEEDS = [0, 7, 2**64 - 1]  # the last wraps seed + k * GAMMA from the first draw


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("method", ["next_u64", "uniform", "standard_normal"])
def test_stream_matches_whole_array_reference(method, n, seed):
    rng, ref = Rng(seed), RefRng(seed)
    np.testing.assert_array_equal(getattr(rng, method)(n), getattr(ref, method)(n))
    # the counter moved by the same number of draws
    np.testing.assert_array_equal(rng.next_u64(3), ref.next_u64(3))


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_calls_carry_the_counter(seed):
    rng, ref = Rng(seed), RefRng(seed)
    calls = [
        ("standard_normal", C + 3),
        ("uniform", 5),
        ("next_u64", 7),
        ("permutation", 11),
        ("standard_normal", 2 * C + 1),
        ("standard_normal", 1),
        ("uniform", C + 1),
        ("next_u64", 1),
    ]
    for method, n in calls:
        np.testing.assert_array_equal(getattr(rng, method)(n), getattr(ref, method)(n))


@pytest.mark.parametrize(
    "shape",
    [(384, 384, 16, 4), (97, 175, 8, 4), (5, 7, 3, 2), (33, 33, 3, 3), (31, 29, 16, 255)],
)
def test_scene_matches_whole_array_reference(shape):
    dirs = sample_unit_directions(*shape[2:], Rng(100))
    want_f, want_ids = ref_scene(*shape, 101, dirs)
    got_f, got_ids = gen_synthetic_scene(*shape, 101, dirs)
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got_f, want_f)


def test_single_class_scene_matches_reference():
    # one class: every pixel is class 0 and no anchors are drawn
    direction = sample_unit_directions(8, 1, Rng(2))
    got, ids = gen_synthetic_scene(64, 70, 8, 1, 3, direction)
    assert not ids.any()
    want = ref_object(64, 70, direction[0], RefRng(3), _SCENE_NOISE)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("hw", [(1, 1), (8, 9), (64, 65)])
def test_object_matches_whole_array_reference(hw):
    direction = np.linspace(-1.0, 1.0, 16)
    got = make_feature_object(*hw, direction, Rng(3), 0.8)
    want = ref_object(*hw, direction, RefRng(3), 0.8)
    np.testing.assert_array_equal(got, want)


def _convolve_rows(img, kernel):
    radius = len(kernel) // 2
    padded = np.pad(img, ((radius, radius), (0, 0)), mode="symmetric")
    out = np.zeros_like(img)
    for k, wk in enumerate(kernel):
        out += wk * padded[k : k + img.shape[0], :]
    return out


def reference_gaussian_blur(img, sigma):
    kernel = _gaussian_kernel(sigma)
    out = _convolve_rows(img, kernel)
    return np.ascontiguousarray(_convolve_rows(out.T, kernel).T)


def _source_coords(n_out, n_in):
    scale = n_in / n_out
    coords = (np.arange(n_out, dtype=np.float64) + 0.5) * scale - 0.5
    coords = np.clip(coords, 0.0, n_in - 1.0)
    lo = np.floor(coords).astype(np.intp)
    return lo, np.minimum(lo + 1, n_in - 1), coords - lo


def reference_upsample_bilinear(img, out_h, out_w):
    y0, y1, fy = _source_coords(out_h, img.shape[0])
    x0, x1, fx = _source_coords(out_w, img.shape[1])
    channels = (1,) * (img.ndim - 2)
    fy = fy.reshape((-1, 1, *channels))
    fx = fx.reshape((1, -1, *channels))
    top = img[np.ix_(y0, x0)] * (1.0 - fx) + img[np.ix_(y0, x1)] * fx
    bottom = img[np.ix_(y1, x0)] * (1.0 - fx) + img[np.ix_(y1, x1)] * fx
    return top * (1.0 - fy) + bottom * fy


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _map(*shape, seed=0):
    img = np.random.default_rng(seed).normal(size=shape)
    img.reshape(-1)[::7] = -0.0
    return img


@pytest.mark.parametrize(
    "shape,sigma",
    [
        ((1, 1), 1.0),
        ((1, 40), 1.0),
        ((40, 1), 1.0),
        ((37, 23), 0.4),
        ((97, 175), 2.5),
        ((5, 4), 3.0),  # radius 9, above both sides: reflected more than once
        ((1, 3), 10.0),
        ((700, 100), 1.0),  # bands of 309 rows: the last band is shorter
        ((3, C + 5), 1.0),  # a padded row above CHUNK: one-row bands
    ],
)
def test_blur_matches_reference(shape, sigma):
    img = _map(*shape)
    assert_same_bits(gaussian_blur(img, sigma), reference_gaussian_blur(img, sigma))


@pytest.mark.parametrize("channels", [(), (3,)])
@pytest.mark.parametrize(
    "shape,out",
    [
        ((6, 9), (13, 20)),  # up
        ((13, 20), (6, 9)),  # down
        ((6, 9), (3, 27)),  # down in one axis, up in the other
        ((6, 9), (6, 9)),  # identity
        ((1, 9), (4, 17)),
        ((9, 1), (17, 4)),
        ((1, 1), (5, 3)),
        ((30, 40), (1, 1)),
    ],
)
def test_upsample_matches_reference(shape, out, channels):
    img = _map(*shape, *channels, seed=1)
    assert_same_bits(upsample_bilinear(img, *out), reference_upsample_bilinear(img, *out))


@pytest.mark.parametrize("k", [1, 2, 255])
def test_nearest_anchor_matches_argmin_with_ties(k):
    rng = np.random.default_rng(k)
    h, w = 19, 23
    # anchors drawn from a few distinct points, the last a duplicate of the
    # first; two integer points give equal distances to distinct anchors too
    pool_y, pool_x = rng.uniform(0, h, 5), rng.uniform(0, w, 5)
    pool_y[:2], pool_x[:2] = (4.0, 14.0), (5.0, 5.0)
    pick = rng.integers(0, 5, k)
    pick[-1] = pick[0]
    anchor_y, anchor_x = pool_y[pick], pool_x[pick]
    want = reference_class_ids(h, w, anchor_y, anchor_x)
    got = _nearest_anchor(h, w, anchor_y, anchor_x)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, want)
    assert np.isin(got, np.unique(pick, return_index=True)[1]).all()  # first of each tie

