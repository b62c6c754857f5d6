"""Deterministic numeric foundation: separable Gaussian blur,
bilinear/nearest resampling, and a seeded counter-based random stream.

All arithmetic here is 64-bit; only the network's layers run in float32,
in `ulre.model.forward` and in the training step. The random generator
is a fixed algorithm (SplitMix64) so identical seeds give identical
streams on every platform, independent of the numpy version in use.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gaussian_blur",
    "upsample_bilinear",
    "resize_nearest",
    "Rng",
]


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma)
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # a sigma far below a pixel: weights 0, 1, 0
        w = np.exp(-0.5 * (k / sigma) ** 2)
    return w / w.sum()  # renormalized after truncation: constants preserved


def gaussian_blur(map2d, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a 2-D map.

    Kernel radius is ceil(3*sigma), renormalized after truncation; borders
    use edge-inclusive reflection. Constant maps come back unchanged up to
    rounding. Bands of rows are blurred in turn, so the result is the one
    full-size array made.
    """
    img = np.asarray(map2d, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("gaussian_blur: expected a nonempty 2-D map")
    if not np.all(np.isfinite(img)):
        raise ValueError("gaussian_blur: map must be finite")
    if not sigma > 0.0:
        raise ValueError("gaussian_blur: sigma must be positive")
    kernel = _gaussian_kernel(sigma)
    r, (h, w) = len(kernel) // 2, img.shape
    rows, cols = (np.pad(np.arange(n), r, mode="symmetric") for n in (h, w))
    band = max(1, CHUNK // (w + 2 * r))  # scratch arrays of <= CHUNK elements
    out = np.zeros_like(img)
    for top in range(0, h, band):
        n = min(band, h - top)
        down, tmp = np.zeros((n, w)), np.empty((n, w))
        for k, wk in enumerate(kernel):
            down += np.multiply(img[rows[top + k : top + k + n]], wk, out=tmp)
        padded, dst = down[:, cols], out[top : top + n]
        for k, wk in enumerate(kernel):
            dst += np.multiply(padded[:, k : k + w], wk, out=tmp)
    return out


def _source_coords(n_out: int, n_in: int):
    # half-pixel-center mapping: src = (dst + 0.5) * scale - 0.5
    scale = n_in / n_out
    coords = (np.arange(n_out, dtype=np.float64) + 0.5) * scale - 0.5
    coords = np.clip(coords, 0.0, n_in - 1.0)
    lo = np.floor(coords).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = coords - lo
    return lo, hi, frac


def upsample_bilinear(map2d, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an (H, W) or (H, W, C) map with half-pixel-center
    coordinates, along the two leading axes.

    Exact identity when the output shape equals the input shape. Works for
    both up- and down-scaling. Each channel of a 3-D map gets the same bits
    as resizing it alone.
    """
    img = np.asarray(map2d, dtype=np.float64)
    if img.ndim not in (2, 3) or img.size == 0:
        raise ValueError("upsample_bilinear: expected a nonempty 2-D or 3-D map")
    if out_h < 1 or out_w < 1:
        raise ValueError("upsample_bilinear: output dims must be >= 1")
    y0, y1, fy = _source_coords(out_h, img.shape[0])
    x0, x1, fx = _source_coords(out_w, img.shape[1])
    channels = (1,) * (img.ndim - 2)
    fy = fy.reshape((-1, 1, *channels))
    fx = fx.reshape((1, -1, *channels))
    across = img[:, x0] * (1.0 - fx)  # each source row once, then between rows
    across += img[:, x1] * fx
    out = across[y0] * (1.0 - fy)
    below = across[y1]
    below *= fy
    out += below
    return out


def resize_nearest(map2d, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour resize (used for binary masks; preserves values)."""
    img = np.asarray(map2d)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("resize_nearest: expected a nonempty 2-D map")
    if out_h < 1 or out_w < 1:
        raise ValueError("resize_nearest: output dims must be >= 1")
    ys = np.minimum(
        ((np.arange(out_h) + 0.5) * (img.shape[0] / out_h)).astype(np.intp),
        img.shape[0] - 1,
    )
    xs = np.minimum(
        ((np.arange(out_w) + 0.5) * (img.shape[1] / out_w)).astype(np.intp),
        img.shape[1] - 1,
    )
    return img[np.ix_(ys, xs)]


# SplitMix64 constants (Steele/Lea/Flood; same mixing as java SplittableRandom)
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_TO_UNIT = 2.0**-53
# elements per piece of chunked work (Box-Muller draws, scene noise, blur
# bands): its temporaries stay in cache
CHUNK = 2**15


class Rng:
    """Seeded deterministic random stream (SplitMix64).

    Draw k of a stream seeded with s is mix64(s + k * GAMMA) where mix64 is
    the SplitMix64 finalizer, so arbitrary batches can be produced by pure
    counter arithmetic. Single-owner mutable stream: do not share across
    threads; use distinct seeds for independent streams.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("Rng: seed must be a 64-bit unsigned integer")
        self._seed = np.uint64(seed)
        self._counter = 0

    def next_u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit draws, mixed in place with one scratch array."""
        if n < 1:
            raise ValueError("Rng.next_u64: n must be >= 1")
        z = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        t = np.empty_like(z)  # uint64 arrays wrap silently, as mix64 needs
        z *= _SM64_GAMMA
        z += self._seed
        np.right_shift(z, np.uint64(30), out=t)
        z ^= t
        z *= _SM64_MIX1
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= _SM64_MIX2
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
        return z

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1) (top 53 bits of each draw)."""
        return (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * _U64_TO_UNIT

    def uniform_range(self, n: int, low: float, high: float) -> np.ndarray:
        return low + (high - low) * self.uniform(n)

    def standard_normal(self, n: int) -> np.ndarray:
        """n i.i.d. standard normals via Box-Muller over the uniform stream.

        Consumes 2*ceil(n/2) draws; pair i uses draws (2i, 2i+1), radius
        then angle, so streams are prefix-stable. The draws are made
        CHUNK at a time, never for the whole output at once.
        """
        if n < 1:
            raise ValueError("Rng.standard_normal: n must be >= 1")
        out = np.empty(2 * ((n + 1) // 2), dtype=np.float64)
        for start in range(0, len(out), CHUNK):
            block = out[start : start + CHUNK]
            u = self.uniform(len(block))
            radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))  # 1-u in (0,1], never log(0)
            angle = 2.0 * math.pi * u[1::2]
            block[0::2] = radius * np.cos(angle)
            block[1::2] = radius * np.sin(angle)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting random keys.

        The n keys are distinct (distinct counters times an odd gamma, then
        a bijective finalizer), so every correct sort gives this permutation.
        """
        if n < 1:
            raise ValueError("Rng.permutation: n must be >= 1")
        return np.argsort(self.next_u64(n))

    def integers(self, n: int, high: int) -> np.ndarray:
        """n integers uniform on [0, high). Negligible bias for high << 2^53."""
        if high < 1:
            raise ValueError("Rng.integers: high must be >= 1")
        return np.minimum((self.uniform(n) * high).astype(np.int64), high - 1)
