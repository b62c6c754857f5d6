"""Data plumbing: the bit-exact tensor container format, synthetic dataset
generators (1-D Gaussian pairs and clustered feature scenes), the
cut-resize-paste outlier compositor with its pseudo label maps, and per-class
mean-feature computation.
"""

from __future__ import annotations

import copy
import os
import struct

import numpy as np

from .numkernel import (
    CHUNK,
    Rng,
    _in_threads,
    _shares,
    cores,
    resize_nearest,
    upsample_bilinear,
)

__all__ = [
    "DataError",
    "TensorFileError",
    "write_tensor_file",
    "read_tensor_file",
    "check_finite",
    "gen_gaussian_1d",
    "analytic_gaussian_lr",
    "anomaly_mix",
    "sample_unit_directions",
    "gen_synthetic_scene",
    "ellipse_mask",
    "make_feature_object",
    "class_means",
]


class DataError(ValueError):
    """Invalid data contents (labels, shapes, degenerate inputs)."""


class TensorFileError(DataError):
    """Malformed, truncated, or unsupported tensor container file."""


TENSOR_MAGIC = b"ULRE"
TENSOR_FORMAT_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("u1")}
_CODE_FOR_KIND = {"f": 0, "u": 1}
# draws before anomaly_mix and sample_unit_directions give up
_MIX_TRIES, _DIRECTION_TRIES = 10, 1000
_MIN_ANGLE = 0.5  # radians between any two sampled directions
_SCENE_NOISE = 0.1  # standard deviation of a scene's feature noise


def write_tensor_file(path, records: dict[str, np.ndarray]) -> None:
    """Write named arrays to the binary container. Round trips are bitwise.

    Layout (all little-endian): magic "ULRE", version u16, record count u16,
    then per record: name length u16 + UTF-8 name, dtype code u8 (0 = f64,
    1 = u8), rank u8, dims as u64 each, raw row-major payload. Every record
    is checked before the file is opened; each payload is then written
    straight from its array's buffer.
    """
    if len(records) > 0xFFFF:
        raise TensorFileError(f"too many records ({len(records)})")
    chunks = [TENSOR_MAGIC, struct.pack("<HH", TENSOR_FORMAT_VERSION, len(records))]
    for name, arr in records.items():
        arr = np.asarray(arr)
        if arr.dtype.kind == "f":
            arr = np.ascontiguousarray(arr, dtype="<f8")
        elif arr.dtype.kind in "ui" and arr.dtype != np.dtype("u1"):
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise TensorFileError(
                    f"record {name!r}: integer values outside u8 range"
                )
            arr = np.ascontiguousarray(arr, dtype="u1")
        else:
            arr = np.ascontiguousarray(arr)
        if arr.dtype.kind not in _CODE_FOR_KIND:
            raise TensorFileError(
                f"record {name!r}: unsupported dtype {arr.dtype}"
            )
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise TensorFileError(f"record name too long ({len(name_bytes)} bytes)")
        if arr.ndim > 0xFF:
            raise TensorFileError(f"record {name!r}: rank {arr.ndim} too large")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<BB", _CODE_FOR_KIND[arr.dtype.kind], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.reshape(-1).view(np.uint8))
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


class _Reader:
    """Consecutive pieces of an open file, each checked against the file's
    size before anything is allocated for it."""

    def __init__(self, path, fh):
        self.path = path
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0

    def check(self, n: int, what: str) -> None:
        if self.pos + n > self.size:
            raise TensorFileError(
                f"{self.path}: truncated while reading {what} at byte {self.pos} "
                f"(need {n} bytes, have {self.size - self.pos})"
            )

    def _advance(self, n: int, got: int, what: str) -> None:
        if got < n:  # the file shrank after its size was read
            self.size = self.pos + got
            self.check(n, what)
        self.pos += n

    def take(self, n: int, what: str) -> bytes:
        self.check(n, what)
        out = self.fh.read(n)
        self._advance(n, len(out), what)
        return out

    def skip(self, n: int) -> None:
        """Move past the next n bytes, which the caller has checked."""
        self.fh.seek(n, os.SEEK_CUR)
        self.pos += n

    def fill(self, arr: np.ndarray, what: str) -> None:
        """Read the next arr.nbytes bytes of the file into arr's buffer; the
        caller checks them against the file's size before allocating arr."""
        self._advance(arr.nbytes, self.fh.readinto(arr.reshape(-1).view(np.uint8)), what)


def read_tensor_file(path, names=None) -> dict[str, np.ndarray]:
    """Read a container written by write_tensor_file, preserving order.

    Each payload is read straight into its record's array, so a read holds
    one copy of the payload, never the file's bytes beside it. Given
    `names`, only those records are returned and the other payloads are
    skipped; every header is still checked, so a file that a full read
    rejects is rejected with the same error.
    """
    with open(path, "rb") as fh:
        r = _Reader(path, fh)
        if r.take(4, "magic") != TENSOR_MAGIC:
            raise TensorFileError(f"{path}: bad magic (not a tensor container)")
        version, count = struct.unpack("<HH", r.take(4, "header"))
        if version != TENSOR_FORMAT_VERSION:
            raise TensorFileError(f"{path}: unsupported format version {version}")
        records: dict[str, np.ndarray] = {}
        seen = set()
        for i in range(count):
            where = f"record {i} header"
            (name_len,) = struct.unpack("<H", r.take(2, where))
            try:
                name = str(r.take(name_len, where), "utf-8")
            except UnicodeDecodeError as exc:
                raise TensorFileError(f"{path}: record {i} name is not UTF-8") from exc
            code, rank = struct.unpack("<BB", r.take(2, f"record {name!r} header"))
            if code not in _DTYPE_CODES:
                raise TensorFileError(f"{path}: record {name!r} has unknown dtype {code}")
            dims = struct.unpack(f"<{rank}Q", r.take(8 * rank, f"record {name!r} dims"))
            dtype = _DTYPE_CODES[code]
            n_elem = 1
            for d in dims:
                n_elem *= d
            what = f"record {name!r} payload"
            r.check(n_elem * dtype.itemsize, what)
            if name in seen:
                raise TensorFileError(f"{path}: duplicate record name {name!r}")
            seen.add(name)
            try:  # a zero-byte view checks the dims, of a skipped record too
                arr = np.broadcast_to(np.empty((), dtype=dtype), dims)
            except ValueError as exc:  # more dims, or more bytes, than numpy can hold
                raise TensorFileError(f"{path}: record {name!r}: {exc}") from exc
            if names is None or name in names:
                arr = np.empty(dims, dtype=dtype)
                r.fill(arr, what)
                records[name] = arr
            else:
                r.skip(arr.nbytes)
        if r.pos != r.size:
            raise TensorFileError(
                f"{path}: {r.size - r.pos} trailing bytes after last record"
            )
    return records


def check_finite(path, name: str, arr: np.ndarray) -> None:
    """Raise DataError, naming the file and the record, unless every value of
    a float record is finite. NaN propagates through min() and max() and an
    infinity shows in one of them, so no temporary of the record's size is
    made."""
    if arr.dtype.kind == "f" and arr.size:
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise DataError(f"{path}: {name!r} holds NaN or infinite values")


def gen_gaussian_1d(n_per_class: int, mu0: float, mu1: float, seed: int):
    """Balanced unit-variance Gaussian pair: n labelled 0 from N(mu0, 1) and
    n labelled 1 from N(mu1, 1), interleaved by a seeded shuffle.

    Returns (features (2n, 1), labels (2n,) uint8).
    """
    if n_per_class < 1:
        raise ValueError("gen_gaussian_1d: n_per_class must be >= 1")
    rng = Rng(seed)
    x0 = rng.standard_normal(n_per_class) + mu0
    x1 = rng.standard_normal(n_per_class) + mu1
    x = np.concatenate([x0, x1])
    y = np.concatenate(
        [np.zeros(n_per_class, dtype=np.uint8), np.ones(n_per_class, dtype=np.uint8)]
    )
    perm = rng.permutation(2 * n_per_class)
    return x[perm].reshape(-1, 1), y[perm]


def analytic_gaussian_lr(x, mu0: float, mu1: float):
    """Exact density ratio N(x; mu1, 1) / N(x; mu0, 1): the 1-D ground truth.

    Closed form exp((mu1 - mu0) * x + (mu0^2 - mu1^2) / 2).
    """
    x = np.asarray(x, dtype=np.float64)
    mu0, mu1 = np.float64(mu0), np.float64(mu1)  # overflow raises under errstate
    return np.exp((mu1 - mu0) * x + (mu0**2 - mu1**2) / 2.0)


def anomaly_mix(
    target,
    obj,
    mask,
    rng: Rng,
    scale_range: tuple[float, float] = (0.5, 2.0),
):
    """Cut-resize-paste compositing of an outlier object into a raster.

    The object and its binary mask are rescaled by a factor drawn uniformly
    from scale_range (bilinear for values, nearest for the mask) and pasted
    at a uniform random position fully inside the target. Returns the
    composited raster plus the pseudo label map, which is 1 exactly on the
    pasted mask pixels. A float64 target is pasted into in place and
    returned; any other target is left unchanged and pasted into a copy.
    """
    target = np.asarray(target, dtype=np.float64)
    obj = np.asarray(obj, dtype=np.float64)
    mask = np.asarray(mask)
    if target.ndim not in (2, 3):
        raise DataError(f"anomaly_mix: target must be 2-D or 3-D, got {target.ndim}-D")
    if obj.ndim != target.ndim or (
        target.ndim == 3 and obj.shape[2] != target.shape[2]
    ):
        raise DataError("anomaly_mix: object channels must match target")
    if mask.shape != obj.shape[:2]:
        raise DataError("anomaly_mix: mask shape must match object height/width")
    if not np.isin(mask, (0, 1)).all():
        raise DataError("anomaly_mix: mask must be binary")
    if mask.sum() == 0:
        raise DataError("anomaly_mix: mask is empty")
    lo, hi = scale_range
    if not 0.0 < lo <= hi:
        raise DataError(f"anomaly_mix: bad scale range {scale_range}")

    th, tw = target.shape[:2]
    oh, ow = obj.shape[:2]
    for _ in range(_MIX_TRIES):
        scale = float(rng.uniform_range(1, lo, hi)[0])
        new_h = max(1, int(round(oh * scale)))
        new_w = max(1, int(round(ow * scale)))
        if new_h > th or new_w > tw:
            continue
        mask_r = resize_nearest(mask, new_h, new_w)
        if mask_r.sum() == 0:
            continue
        obj_r = upsample_bilinear(obj, new_h, new_w)
        top = int(rng.integers(1, th - new_h + 1)[0])
        left = int(rng.integers(1, tw - new_w + 1)[0])
        region = target[top : top + new_h, left : left + new_w]
        sel = mask_r.astype(bool)
        region[sel] = obj_r[sel]
        label = np.zeros((th, tw), dtype=np.uint8)
        label[top : top + new_h, left : left + new_w][sel] = 1
        return target, label
    raise DataError(
        f"anomaly_mix: no admissible scale in {scale_range} after "
        f"{_MIX_TRIES} tries (object {oh}x{ow} into target {th}x{tw})"
    )


def sample_unit_directions(
    dim: int,
    count: int,
    rng: Rng,
    avoid: np.ndarray | None = None,
) -> np.ndarray:
    """Random unit vectors pairwise separated by at least _MIN_ANGLE radians.

    Vectors listed in `avoid` are kept at the same minimum angle without
    being part of the returned set.
    """
    if dim < 2:
        raise ValueError("sample_unit_directions: dim must be >= 2")
    cos_limit = np.cos(_MIN_ANGLE)
    chosen: list[np.ndarray] = (
        [] if avoid is None else list(np.asarray(avoid, dtype=np.float64))
    )
    n_avoid = len(chosen)
    for _ in range(_DIRECTION_TRIES):
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        v = v / norm
        if all(np.dot(v, u) <= cos_limit for u in chosen):
            chosen.append(v)
            if len(chosen) - n_avoid == count:
                return np.stack(chosen[n_avoid:])
    raise ValueError(
        f"sample_unit_directions: could not place {count} directions in "
        f"{dim}-D with min angle {_MIN_ANGLE} after {_DIRECTION_TRIES} draws"
    )


def _nearest_anchor(h: int, w: int, anchor_y, anchor_x) -> np.ndarray:
    """Index (u8) of each pixel's nearest anchor; a running minimum that
    moves only where `d < best` keeps the lowest index on ties, as argmin."""
    dy2 = (np.arange(h)[:, None] - anchor_y) ** 2
    dx2 = (np.arange(w)[:, None] - anchor_x) ** 2
    best = dy2[:, 0, None] + dx2[None, :, 0]
    ids, d = np.zeros((h, w), dtype=np.uint8), np.empty_like(best)
    for k in range(1, len(anchor_y)):
        np.add(dy2[:, k, None], dx2[None, :, k], out=d)
        ids[d < best] = k
        np.minimum(best, d, out=best)
    return ids


def gen_synthetic_scene(
    h: int,
    w: int,
    d: int,
    n_id_classes: int,
    seed: int,
    directions: np.ndarray,
):
    """Clustered stand-in for backbone feature maps.

    Pixels are partitioned into contiguous regions (nearest of one random
    anchor per class) and each pixel's feature is its class's unit direction
    (a row of `directions`, shared across scenes) plus isotropic Gaussian
    noise of standard deviation _SCENE_NOISE. Deterministic per seed. The
    noise is drawn on every core (`cores`), in near-equal runs of
    consecutive chunks, one run per thread; its bits do not depend on the
    thread count.
    """
    if d < 2:
        raise ValueError("gen_synthetic_scene: d must be >= 2")
    if h < 1 or w < 1:
        raise ValueError("gen_synthetic_scene: h and w must be >= 1")
    if n_id_classes < 1:
        raise ValueError("gen_synthetic_scene: n_id_classes must be >= 1")
    if n_id_classes > 255:
        raise ValueError("gen_synthetic_scene: at most 255 classes (u8 ids)")
    directions = np.asarray(directions, dtype=np.float64)
    if directions.shape != (n_id_classes, d):
        raise ValueError(
            f"gen_synthetic_scene: directions must be ({n_id_classes}, {d})"
        )
    rng = Rng(seed)
    if n_id_classes == 1:
        class_ids = np.zeros((h, w), dtype=np.uint8)
    else:
        anchor_y = rng.uniform_range(n_id_classes, 0.0, float(h))
        anchor_x = rng.uniform_range(n_id_classes, 0.0, float(w))
        class_ids = _nearest_anchor(h, w, anchor_y, anchor_x)

    features = directions[class_ids]
    # The noise is drawn CHUNK values at a time, never at full size. Every
    # chunk but the last is even, so chunk j starts at noise draw j * CHUNK:
    # each run of chunks draws from its own copy of the stream, moved there.
    flat = features.reshape(-1)
    ends = [j * CHUNK for j in _shares(-(-flat.size // CHUNK), cores())]
    calls = []
    for lo, hi in zip(ends[:-1], ends[1:]):
        stream = copy.copy(rng)
        stream.skip(lo)
        calls.append((stream, flat[lo:hi]))
    _in_threads(_add_noise, calls)
    return features, class_ids


def _add_noise(rng: Rng, part: np.ndarray) -> None:
    """Add _SCENE_NOISE times the next normals of `rng` to `part` in place,
    CHUNK values at a time. One chunk's normals are dropped before the next
    chunk's are drawn."""
    for start in range(0, part.size, CHUNK):
        chunk = part[start : start + CHUNK]
        chunk += _SCENE_NOISE * rng.standard_normal(chunk.size)


def ellipse_mask(h: int, w: int) -> np.ndarray:
    """Binary mask of the axis-aligned ellipse inscribed in an h x w box."""
    if h < 1 or w < 1:
        raise ValueError("ellipse_mask: dims must be >= 1")
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ry, rx = max(h / 2.0, 0.5), max(w / 2.0, 0.5)
    yy, xx = np.mgrid[0:h, 0:w]
    inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    return inside.astype(np.uint8)


def make_feature_object(
    h: int,
    w: int,
    direction: np.ndarray,
    rng: Rng,
    noise_sigma: float,
) -> np.ndarray:
    """Small feature-space raster clustered around one direction (an outlier
    object for the compositor)."""
    direction = np.asarray(direction, dtype=np.float64)
    d = direction.shape[0]
    obj = rng.standard_normal(h * w * d).reshape(h, w, d)
    obj *= noise_sigma
    obj += direction
    return obj


def class_means(features, class_ids) -> np.ndarray:
    """Unit-normalized arithmetic mean feature vector per observed class id,
    as (K, D) rows in ascending id order.

    A class whose raw mean has zero norm cannot be normalized and is a data
    error (it would make cosine distances undefined).
    """
    x = np.asarray(features, dtype=np.float64)
    ids = np.asarray(class_ids)
    if x.ndim != 2:
        raise DataError(f"class_means: features must be (N, D), got {x.shape}")
    if ids.shape != (x.shape[0],):
        raise DataError("class_means: one class id per feature row required")
    uniq, inverse, counts = np.unique(ids, return_inverse=True, return_counts=True)
    sums = np.zeros((len(uniq), x.shape[1]))
    np.add.at(sums, inverse, x)
    means = sums / counts[:, None]
    norms = np.linalg.norm(means, axis=1)
    if np.any(norms == 0.0):
        bad = uniq[norms == 0.0][0]
        raise DataError(f"class_means: class {bad} mean has zero norm")
    return means / norms[:, None]
