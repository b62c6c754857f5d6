"""Tensor container I/O, synthetic generators, compositor, class means."""

import io
import struct
import tracemalloc

import numpy as np
import pytest

from ulre import data
from ulre.data import (
    _MIN_ANGLE,
    _SCENE_NOISE,
    DataError,
    TensorFileError,
    analytic_gaussian_lr,
    anomaly_mix,
    check_finite,
    class_means,
    ellipse_mask,
    gen_gaussian_1d,
    gen_synthetic_scene,
    make_feature_object,
    read_tensor_file,
    sample_unit_directions,
    write_tensor_file,
)
from ulre.numkernel import Rng


def random_records(rng):
    records = {}
    for i in range(rng.integers(0, 6)):
        rank = int(rng.integers(0, 4))
        shape = tuple(int(rng.integers(0, 5)) for _ in range(rank))
        if rng.integers(0, 2):
            arr = rng.normal(size=shape)
        else:
            arr = rng.integers(0, 256, size=shape).astype(np.uint8)
        records[f"rec_{i}"] = arr
    return records


class TestTensorFile:
    def test_roundtrip_fuzz(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "fuzz.ulre"
        for _ in range(100):
            records = random_records(rng)
            write_tensor_file(path, records)
            back = read_tensor_file(path)
            assert list(back) == list(records)
            for name, arr in records.items():
                want = (
                    np.ascontiguousarray(arr, dtype="<f8")
                    if arr.dtype.kind == "f"
                    else np.ascontiguousarray(arr, dtype="u1")
                )
                assert back[name].dtype == want.dtype
                assert back[name].shape == want.shape
                assert back[name].tobytes() == want.tobytes()

    def test_empty_record_list(self, tmp_path):
        path = tmp_path / "empty.ulre"
        write_tensor_file(path, {})
        assert read_tensor_file(path) == {}

    def test_truncated_payload_names_record(self, tmp_path):
        path = tmp_path / "trunc.ulre"
        write_tensor_file(path, {"features": np.arange(100.0)})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(TensorFileError, match="features"):
            read_tensor_file(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc2.ulre"
        write_tensor_file(path, {"a": np.zeros(3)})
        path.write_bytes(path.read_bytes()[:5])
        with pytest.raises(TensorFileError, match="truncated"):
            read_tensor_file(path)

    def test_read_peak_memory(self, tmp_path):
        # each payload is read straight into its record's array: one copy
        payload = np.random.default_rng(1).normal(size=(2048, 1024))  # 16 MiB
        path = tmp_path / "big.ulre"
        write_tensor_file(path, {"features": payload, "ids": np.arange(7, dtype=np.uint8)})
        tracemalloc.start()
        try:
            back = read_tensor_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * payload.nbytes
        assert back["features"].tobytes() == payload.tobytes()
        assert back["features"].flags.aligned and back["features"].flags.writeable
        assert back["ids"].tolist() == list(range(7))

    def test_names_read_only_those_records(self, tmp_path):
        # the other payloads are skipped: a scene's labels without its features
        feats = np.random.default_rng(4).normal(size=(256, 256, 16))  # 8 MiB
        labels = np.random.default_rng(5).integers(0, 2, (256, 256)).astype(np.uint8)
        path = tmp_path / "scene.ulre"
        write_tensor_file(path, {"features": feats, "labels": labels, "ids": labels})
        tracemalloc.start()
        try:
            back = read_tensor_file(path, ["labels"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(back) == ["labels"]
        assert back["labels"].tobytes() == labels.tobytes()
        assert peak < 2 * labels.nbytes
        assert read_tensor_file(path, ["ids", "absent"]).keys() == {"ids"}
        assert read_tensor_file(path, []) == {}

    @pytest.mark.parametrize(
        "fault,match",
        [
            ("truncated", "truncated while reading record 'labelz' payload"),
            ("trailing", "3 trailing bytes"),
            ("duplicate", "duplicate record name 'labels'"),
        ],
    )
    def test_skipped_records_are_checked(self, tmp_path, fault, match):
        path = tmp_path / "scene.ulre"
        write_tensor_file(path, {"labels": np.ones(3), "labelz": np.zeros((4, 2))})
        blob = path.read_bytes()
        if fault == "truncated":
            blob = blob[:-8]
        elif fault == "trailing":
            blob += b"abc"
        else:
            blob = blob.replace(b"labelz", b"labels")
        path.write_bytes(blob)
        for names in (None, ["labels"], []):
            with pytest.raises(TensorFileError, match=match):
                read_tensor_file(path, names)

    def test_write_adds_no_copy(self, tmp_path):
        payload = np.random.default_rng(2).normal(size=(2048, 1024))  # 16 MiB
        path = tmp_path / "big.ulre"
        tracemalloc.start()
        try:
            write_tensor_file(path, {"features": payload})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert read_tensor_file(path)["features"].tobytes() == payload.tobytes()

    def test_huge_claimed_payload_allocates_nothing(self, tmp_path):
        path = tmp_path / "huge.ulre"
        path.write_bytes(
            b"ULRE"
            + struct.pack("<HHH", 1, 1, 1)
            + b"x"
            + struct.pack("<BBQ", 1, 1, 2**40)
            + b"\x00" * 64
        )
        tracemalloc.start()
        try:
            with pytest.raises(TensorFileError, match="truncated while reading record 'x' payload"):
                read_tensor_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_short_read_is_truncation(self, tmp_path, monkeypatch):
        # a file that shrinks after its size was read: readinto comes back short
        class ShortReader(io.BufferedReader):
            def readinto(self, buf):
                return super().readinto(memoryview(buf)[: len(buf) // 2])

        path = tmp_path / "short.ulre"
        write_tensor_file(path, {"a": np.arange(4.0), "b": np.arange(100.0)})
        monkeypatch.setattr(
            data, "open", lambda p, mode: ShortReader(io.FileIO(p, mode)), raising=False
        )
        with pytest.raises(
            TensorFileError, match=r"truncated while reading record 'a' payload .*have 16\)"
        ):
            read_tensor_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ulre"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(TensorFileError, match="magic"):
            read_tensor_file(path)

    def test_record_name_not_utf8(self, tmp_path):
        path = tmp_path / "name.ulre"
        path.write_bytes(
            b"ULRE" + struct.pack("<HHH", 1, 1, 2) + b"\xff\xfe" + struct.pack("<BB", 0, 0)
        )
        with pytest.raises(TensorFileError, match="record 0 name is not UTF-8"):
            read_tensor_file(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "ver.ulre"
        path.write_bytes(b"ULRE" + struct.pack("<HH", 99, 0))
        with pytest.raises(TensorFileError, match="version"):
            read_tensor_file(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "dtype.ulre"
        name = b"x"
        blob = (
            b"ULRE"
            + struct.pack("<HH", 1, 1)
            + struct.pack("<H", len(name))
            + name
            + struct.pack("<BB", 7, 0)
        )
        path.write_bytes(blob)
        with pytest.raises(TensorFileError, match="dtype"):
            read_tensor_file(path)

    @pytest.mark.parametrize(
        "dims,payload",
        [((1,) * 65, 8), ((0, 2**62, 2**62), 0)],
        ids=["rank_65", "zero_size_too_big"],
    )
    def test_dims_numpy_cannot_hold(self, tmp_path, dims, payload):
        # payloads of the declared size, so only the dims are at fault
        path = tmp_path / "dims.ulre"
        path.write_bytes(
            b"ULRE"
            + struct.pack("<HHH", 1, 1, 1)
            + b"x"
            + struct.pack(f"<BB{len(dims)}Q", 0, len(dims), *dims)
            + b"\x00" * payload
        )
        with pytest.raises(TensorFileError, match=f"^{path}: record 'x': "):
            read_tensor_file(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.ulre"
        write_tensor_file(path, {"a": np.zeros(2)})
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TensorFileError, match="trailing"):
            read_tensor_file(path)

    def test_rejects_unsupported_dtype(self, tmp_path):
        with pytest.raises(TensorFileError):
            write_tensor_file(tmp_path / "c.ulre", {"c": np.zeros(2, dtype=complex)})

    def test_int_values_outside_u8(self, tmp_path):
        with pytest.raises(TensorFileError):
            write_tensor_file(tmp_path / "i.ulre", {"i": np.array([300])})


class TestCheckFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_names_the_file_and_record_without_a_temporary(self, value):
        arr = np.zeros((512, 256))  # 1 MiB
        arr[7, 9] = value
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"^f\.ulre: 'x' holds NaN or infinite"):
                check_finite("f.ulre", "x", arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arr.nbytes / 64

    def test_passes_finite_empty_and_integer_records(self):
        check_finite("f", "x", np.array([1e308, -1e308, 0.0]))
        check_finite("f", "x", np.empty((0, 3)))
        check_finite("f", "x", np.full(3, 255, dtype=np.uint8))


class TestGaussian1d:
    def test_balanced_and_shaped(self):
        x, y = gen_gaussian_1d(500, -0.4, 0.4, seed=1)
        assert x.shape == (1000, 1)
        assert y.shape == (1000,)
        assert y.sum() == 500  # exactly balanced

    def test_class_means(self):
        x, y = gen_gaussian_1d(100_000, -0.4, 0.4, seed=2)
        x = x[:, 0]
        assert x[y == 0].mean() == pytest.approx(-0.4, abs=0.01)
        assert x[y == 1].mean() == pytest.approx(0.4, abs=0.01)
        assert x[y == 0].std() == pytest.approx(1.0, abs=0.01)

    def test_deterministic(self):
        a = gen_gaussian_1d(100, 0.0, 1.0, seed=3)
        b = gen_gaussian_1d(100, 0.0, 1.0, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_interleaved(self):
        _, y = gen_gaussian_1d(1000, -0.4, 0.4, seed=4)
        # a seeded shuffle should not leave the classes in two blocks
        assert y[:1000].sum() not in (0, 1000)


class TestAnalyticLr:
    def test_symmetry_point(self):
        assert analytic_gaussian_lr(0.0, -0.4, 0.4) == pytest.approx(1.0)

    @pytest.mark.parametrize("mu0,mu1", [(1e300, 0.4), (-0.4, 1e300)])
    def test_overflow_is_a_numpy_floating_point_error(self, mu0, mu1):
        # the CLI reports FloatingPointError, not Python's OverflowError
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            analytic_gaussian_lr(0.0, mu0, mu1)

    def test_closed_form_matches_density_ratio(self):
        def normal_pdf(x, mu):
            return np.exp(-0.5 * (x - mu) ** 2) / np.sqrt(2 * np.pi)

        for x in (-2.0, -1.0, 0.3, 1.0, 2.5):
            want = normal_pdf(x, 0.4) / normal_pdf(x, -0.4)
            assert analytic_gaussian_lr(x, -0.4, 0.4) == pytest.approx(want, rel=1e-12)
        assert analytic_gaussian_lr(1.0, -0.4, 0.4) == pytest.approx(
            2.2255409, abs=1e-7
        )
        assert analytic_gaussian_lr(-1.0, -0.4, 0.4) == pytest.approx(
            0.4493290, abs=1e-7
        )

    def test_reciprocal_symmetry_for_opposite_means(self):
        x = np.linspace(-3, 3, 25)
        prod = analytic_gaussian_lr(x, -0.4, 0.4) * analytic_gaussian_lr(-x, -0.4, 0.4)
        np.testing.assert_allclose(prod, 1.0, rtol=1e-12)


class TestAnomalyMix:
    def test_unit_scale_paste(self):
        target = np.zeros((16, 16, 3))
        obj = np.full((4, 5, 3), 7.0)
        mask = np.ones((4, 5), dtype=np.uint8)
        mask[0, 0] = 0
        out, label = anomaly_mix(target, obj, mask, Rng(5), scale_range=(1.0, 1.0))
        assert label.sum() == mask.sum()
        assert set(np.unique(label)) <= {0, 1}
        # pasted region carries the object, the rest is untouched
        np.testing.assert_array_equal(out[label == 0], 0.0)
        np.testing.assert_array_equal(out[label == 1], 7.0)

    def test_label_footprint_matches_mask(self):
        target = np.zeros((20, 20))
        obj = np.arange(30.0).reshape(5, 6)
        mask = ellipse_mask(5, 6)
        out, label = anomaly_mix(target, obj, mask, Rng(6), scale_range=(1.0, 1.0))
        assert label.sum() == mask.sum()
        changed = out != 0.0
        assert set(np.unique(label[changed])) <= {1}

    def test_float64_target_is_pasted_in_place(self):
        target = np.zeros((16, 16, 3))
        out, label = anomaly_mix(
            target, np.ones((4, 4, 3)), np.ones((4, 4), dtype=np.uint8), Rng(5)
        )
        assert out is target
        np.testing.assert_array_equal(target[label == 1], 1.0)
        np.testing.assert_array_equal(target[label == 0], 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_other_target_is_left_unchanged(self, dtype):
        target = np.zeros((16, 16), dtype=dtype)
        out, label = anomaly_mix(
            target, np.ones((4, 4)), np.ones((4, 4), dtype=np.uint8), Rng(5)
        )
        assert out.dtype == np.float64 and label.sum() > 0
        assert not target.any()
        np.testing.assert_array_equal(out[label == 1], 1.0)

    def test_empty_mask_rejected(self):
        with pytest.raises(DataError, match="empty"):
            anomaly_mix(
                np.zeros((8, 8)), np.ones((2, 2)), np.zeros((2, 2), dtype=int), Rng(7)
            )

    def test_different_seeds_different_offsets(self):
        target = np.zeros((32, 32))
        obj = np.ones((4, 4))
        mask = np.ones((4, 4), dtype=np.uint8)
        _, l1 = anomaly_mix(target.copy(), obj, mask, Rng(1), scale_range=(1.0, 1.0))
        _, l2 = anomaly_mix(target.copy(), obj, mask, Rng(2), scale_range=(1.0, 1.0))
        assert not np.array_equal(l1, l2)
        for lab in (l1, l2):
            assert set(np.unique(lab)) <= {0, 1}

    def test_oversized_object_errors_after_retries(self):
        with pytest.raises(DataError, match="admissible scale"):
            anomaly_mix(
                np.zeros((8, 8)),
                np.ones((20, 20)),
                np.ones((20, 20), dtype=np.uint8),
                Rng(8),
                scale_range=(1.0, 2.0),
            )

    def test_channel_mismatch(self):
        with pytest.raises(DataError):
            anomaly_mix(
                np.zeros((8, 8, 3)),
                np.ones((2, 2, 4)),
                np.ones((2, 2), dtype=np.uint8),
                Rng(9),
            )

    def test_deterministic(self):
        target = np.zeros((24, 24, 2))
        obj = np.ones((5, 5, 2))
        mask = ellipse_mask(5, 5)
        o1, l1 = anomaly_mix(target.copy(), obj, mask, Rng(10))
        o2, l2 = anomaly_mix(target.copy(), obj, mask, Rng(10))
        np.testing.assert_array_equal(o1, o2)
        np.testing.assert_array_equal(l1, l2)


class TestUnitDirections:
    def test_pairwise_separation(self):
        dirs = sample_unit_directions(8, 5, Rng(11))
        assert dirs.shape == (5, 8)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-12)
        gram = dirs @ dirs.T
        off = gram[~np.eye(5, dtype=bool)]
        assert np.all(off <= np.cos(_MIN_ANGLE) + 1e-12)

    def test_infeasible_separation(self):
        with pytest.raises(ValueError, match="could not place"):
            sample_unit_directions(2, 50, Rng(12))


class TestSyntheticScene:
    def test_deterministic(self):
        dirs = sample_unit_directions(4, 3, Rng(12))
        a = gen_synthetic_scene(8, 9, 4, 3, 13, dirs)
        b = gen_synthetic_scene(8, 9, 4, 3, 13, dirs)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_single_class(self):
        feats, ids = gen_synthetic_scene(6, 6, 4, 1, 14, np.eye(4)[:1])
        assert set(np.unique(ids)) == {0}
        assert feats.shape == (6, 6, 4)

    def test_class_conditional_means(self):
        dirs = sample_unit_directions(8, 2, Rng(15))
        feats, ids = gen_synthetic_scene(40, 40, 8, 2, 16, dirs)
        flat = feats.reshape(-1, 8)
        flat_ids = ids.reshape(-1)
        for k in range(2):
            rows = flat[flat_ids == k]
            tol = 3 * _SCENE_NOISE / np.sqrt(len(rows))
            np.testing.assert_allclose(rows.mean(axis=0), dirs[k], atol=tol)

    def test_shared_directions_give_same_clusters(self):
        dirs = sample_unit_directions(6, 3, Rng(17))
        f1, _ = gen_synthetic_scene(10, 10, 6, 3, 18, dirs)
        f2, _ = gen_synthetic_scene(10, 10, 6, 3, 19, dirs)
        assert not np.array_equal(f1, f2)  # different noise/layout

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic_scene(4, 4, 1, 2, 20, np.zeros((2, 1)))
        with pytest.raises(ValueError):
            gen_synthetic_scene(4, 4, 4, 0, 21, np.zeros((0, 4)))
        with pytest.raises(ValueError, match="directions"):
            gen_synthetic_scene(4, 4, 4, 2, 22, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="h and w"):
            gen_synthetic_scene(0, 4, 4, 2, 23, np.zeros((2, 4)))

    def test_peak_memory(self):
        # the noise is drawn in chunks, never beside the features at full size
        dirs = sample_unit_directions(16, 4, Rng(1))
        tracemalloc.start()
        try:
            feats, _ = gen_synthetic_scene(384, 384, 16, 4, 0, dirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * feats.nbytes


class TestObjectHelpers:
    def test_ellipse_mask(self):
        mask = ellipse_mask(5, 7)
        assert mask.dtype == np.uint8
        assert mask[2, 3] == 1
        assert mask[0, 0] == 0
        assert 0 < mask.sum() < 35

    def test_make_feature_object(self):
        direction = np.zeros(4)
        direction[0] = 1.0
        obj = make_feature_object(6, 5, direction, Rng(23), 0.01)
        assert obj.shape == (6, 5, 4)
        assert obj[..., 0].mean() == pytest.approx(1.0, abs=0.02)


class TestClassMeans:
    def test_single_row_per_class(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(class_means(x, np.array([0, 1])), np.eye(2))
        # rows in ascending id order, whatever the order the ids come in
        np.testing.assert_array_equal(
            class_means(x, np.array([7, 3])), [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_duplication_invariant(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(10, 3))
        ids = rng.integers(0, 2, 10)
        cm1 = class_means(x, ids)
        cm2 = class_means(np.tile(x, (3, 1)), np.tile(ids, 3))
        np.testing.assert_allclose(cm1, cm2, rtol=1e-12)
        for row, k in zip(cm1, np.unique(ids)):
            mean = x[ids == k].mean(axis=0)
            np.testing.assert_allclose(row, mean / np.linalg.norm(mean), rtol=1e-12)

    def test_zero_norm_mean_rejected(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DataError, match="zero norm"):
            class_means(x, np.array([0, 0]))

    def test_unit_norms(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(50, 4)) + 2.0
        cm = class_means(x, rng.integers(0, 3, 50))
        np.testing.assert_allclose(np.linalg.norm(cm, axis=1), 1.0, atol=1e-9)
