"""The chunked random streams and generators against whole-array reference
copies: the same draws, consumed in the same order, give the same bits."""

import math

import numpy as np
import pytest

from ulre.data import gen_synthetic_scene, make_feature_object, sample_unit_directions
from ulre.numkernel import NORMAL_CHUNK, Rng

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


def ref_scene(h, w, d, n_id_classes, seed, noise_sigma=0.1, mean_scale=1.0):
    rng = RefRng(seed)
    directions = sample_unit_directions(d, n_id_classes, 0.5, rng)
    anchor_y = rng.uniform_range(n_id_classes, 0.0, float(h))
    anchor_x = rng.uniform_range(n_id_classes, 0.0, float(w))
    yy, xx = np.mgrid[0:h, 0:w]
    dist2 = (yy[..., None] - anchor_y) ** 2 + (xx[..., None] - anchor_x) ** 2
    class_ids = dist2.argmin(axis=-1).astype(np.uint8)
    noise = rng.standard_normal(h * w * d).reshape(h, w, d) * noise_sigma
    return mean_scale * directions[class_ids] + noise, class_ids


def ref_object(h, w, direction, rng, noise_sigma, mean_scale):
    d = direction.shape[0]
    noise = rng.standard_normal(h * w * d).reshape(h, w, d) * noise_sigma
    return mean_scale * direction[None, None, :] + noise


C = NORMAL_CHUNK
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
    "shape", [(384, 384, 16, 4), (97, 175, 8, 4), (5, 7, 3, 2), (33, 33, 3, 3)]
)
def test_scene_matches_whole_array_reference(shape):
    want_f, want_ids = ref_scene(*shape, seed=101, noise_sigma=0.3, mean_scale=1.7)
    got_f, got_ids = gen_synthetic_scene(*shape, seed=101, noise_sigma=0.3, mean_scale=1.7)
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got_f, want_f)


def ref_single_class_scene(h, w, d, seed):
    # one class: every pixel is class 0 and no anchors are drawn
    rng = RefRng(seed)
    direction = sample_unit_directions(d, 1, 0.5, rng)[0]
    return ref_object(h, w, direction, rng, 0.1, 1.0)


def test_single_class_scene_matches_reference():
    got, ids = gen_synthetic_scene(64, 70, 8, 1, seed=3)
    assert not ids.any()
    np.testing.assert_array_equal(got, ref_single_class_scene(64, 70, 8, 3))


@pytest.mark.parametrize("hw", [(1, 1), (8, 9), (64, 65)])
def test_object_matches_whole_array_reference(hw):
    direction = np.linspace(-1.0, 1.0, 16)
    got = make_feature_object(*hw, direction, Rng(3), noise_sigma=0.8, mean_scale=1.3)
    want = ref_object(*hw, direction, RefRng(3), 0.8, 1.3)
    np.testing.assert_array_equal(got, want)
