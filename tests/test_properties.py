"""Property tests: every reader either returns its result or raises its own
error type, whatever bytes it is given (random, truncated or mutated),
`eval`, `train`, `score` and `extrapolate` exit 0, or 2 or 3 with one error
line, on one fault in one input file, and every subcommand exits 0, 2, 3
or 4 on any one config value, with one error line or none."""

import contextlib
import io
import json
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ulre import cli
from ulre import model as mdl
from ulre.data import DataError, TensorFileError, read_tensor_file, write_tensor_file

# derandomized so that tier-1 runs the same examples every time; the file
# is rewritten per example, so one tmp_path serves them all
PROPERTY = settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def corruptions(valid: bytes):
    """Random bytes, a truncation of `valid`, or `valid` with a few bytes
    overwritten."""
    mutated = st.lists(
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)),
        min_size=1,
        max_size=6,
    ).map(lambda edits: _overwrite(valid, edits))
    return st.one_of(
        st.binary(max_size=2 * len(valid)),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        mutated,
    )


def _overwrite(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for pos, byte in edits:
        out[pos] = byte
    return bytes(out)


def _container_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("valid") / "scene.ulre"
    write_tensor_file(
        path,
        {
            "features": np.arange(12.0).reshape(2, 3, 2),
            "labels": np.array([[0, 1, 0], [1, 0, 0]], dtype=np.uint8),
            "empty": np.zeros((0, 3)),
        },
    )
    return path.read_bytes()


def _checkpoint_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("valid") / "model.ulre"
    mdl.save_model(path, mdl.init_model([2, 3, 2], seed=0))
    return path.read_bytes()


CONFIG = b"""# gen-synthetic
seed=3
n_scenes=2
height=12
paste_ood=true
scale_lo=0.5
"""


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    return {
        "container": _container_bytes(tmp_path_factory),
        "checkpoint": _checkpoint_bytes(tmp_path_factory),
    }


@pytest.mark.parametrize("kind", ["container", "checkpoint"])
@PROPERTY
@given(data=st.data())
def test_read_tensor_file_returns_records_or_raises_tensor_file_error(
    tmp_path, valid, kind, data
):
    path = tmp_path / "x.ulre"
    path.write_bytes(data.draw(corruptions(valid[kind])))
    # a read of some of the names returns those records of a full read, or
    # raises the same error
    names = data.draw(st.sets(st.sampled_from(["features", "labels", "empty", "header", "params"])))
    try:
        records = read_tensor_file(path)
    except TensorFileError as exc:
        assert str(exc).startswith(f"{path}: ")
        with pytest.raises(TensorFileError) as subset_exc:
            read_tensor_file(path, names)
        assert str(subset_exc.value) == str(exc)
    else:
        assert all(isinstance(a, np.ndarray) for a in records.values())
        subset = read_tensor_file(path, names)
        assert list(subset) == [name for name in records if name in names]
        for name, arr in subset.items():
            assert arr.dtype == records[name].dtype and arr.shape == records[name].shape
            assert arr.tobytes() == records[name].tobytes()


@PROPERTY
@given(data=st.data())
def test_load_model_returns_a_model_or_raises_data_error(tmp_path, valid, data):
    path = tmp_path / "model.ulre"
    path.write_bytes(data.draw(corruptions(valid["checkpoint"])))
    try:
        model = mdl.load_model(path)
    except DataError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert isinstance(model, mdl.Estimator)


@PROPERTY
@given(blob=corruptions(CONFIG))
def test_load_config_returns_a_dict_or_raises_config_error(tmp_path, blob):
    path = tmp_path / "c.cfg"
    path.write_bytes(blob)
    try:
        raw = cli.load_config(path)
    except cli.ConfigError as exc:
        assert str(exc).startswith(f"{path}")
    else:
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in raw.items())



# one fault per example, in one of the files; "one class" holds in all of them
EVAL_FAULTS = {
    "none": 0,
    "rank": 3,
    "shape": 3,
    "non-finite": 3,
    "non-binary": 3,
    "one class": 3,
    "lengths": 3,
    "no file": 2,
}


@pytest.mark.parametrize("fault", list(EVAL_FAULTS))
@settings(PROPERTY, max_examples=12)
@given(data=st.data())
def test_eval_exits_0_or_with_one_error_line(tmp_path, fault, data):
    n_files = data.draw(st.integers(1, 3))
    bad = data.draw(st.integers(0, n_files - 1))
    spaths, lpaths, pooled = [], [], []
    for i in range(n_files):
        shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2)))
        scores = data.draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
        labels = data.draw(arrays(np.uint8, shape, elements=st.integers(0, 1)))
        if fault == "one class":
            labels[:] = bad % 2
        elif i == bad and fault == "rank":
            scores = data.draw(st.sampled_from([scores[0, 0], scores[0], scores[None]]))
        elif i == bad and fault == "shape":
            labels = np.resize(labels, (shape[0] + 1, shape[1]))
        elif i == bad and fault == "non-finite":
            scores.flat[-1] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif i == bad and fault == "non-binary":
            labels = labels.astype(np.float64)
            labels.flat[0] = data.draw(st.sampled_from([2.0, 0.5, -1.0]))
        spath, lpath = tmp_path / f"s{i}.ulre", tmp_path / f"l{i}.ulre"
        write_tensor_file(spath, {"scores": scores})
        write_tensor_file(lpath, {"labels": labels})
        spaths.append(str(spath))
        lpaths.append(str(lpath))
        pooled.extend(labels.ravel().tolist())
    if fault == "lengths":
        lpaths = lpaths[:-1] if n_files > 1 else lpaths * 2
    elif fault == "no file":
        lpaths[bad] = str(tmp_path / "absent.ulre")
    config = tmp_path / "eval.cfg"
    config.write_text(f"scores={','.join(spaths)}\nlabels={','.join(lpaths)}\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--config", str(config), "--out", str(tmp_path / "o")])
    lines = err.getvalue().splitlines()
    one_class = sum(pooled) in (0, len(pooled))
    assert code == (3 if fault == "none" and one_class else EVAL_FAULTS[fault]), lines
    if code == 0:
        assert lines == [] and (tmp_path / "o" / "metrics.json").is_file()
    else:
        prefix = {2: "config error: ", 3: "data error: "}[code]
        assert len(lines) == 1 and lines[0].startswith(prefix), lines


# one fault per example, in one of the files, except "lengths"
TRAIN_FAULTS = {
    "none": 0,
    "missing record": 3,
    "rank": 3,
    "dtype": 3,
    "non-finite": 3,
    "label shape": 3,
    "non-binary": 3,
    "depth 0": 3,
    "no pixels": 3,
    "depths differ": 3,
    "lengths": 3,
    "no file": 2,
}


@pytest.mark.parametrize("fault", list(TRAIN_FAULTS))
@settings(PROPERTY, max_examples=8)
@given(data=st.data())
def test_train_exits_0_or_with_one_error_line_naming_the_file(tmp_path, fault, data):
    n_files = data.draw(st.integers(2 if fault == "depths differ" else 1, 3))
    # a map of another depth than the first map's is the one named
    bad = data.draw(st.integers(int(fault == "depths differ"), n_files - 1))
    one_file = data.draw(st.booleans())  # a scene's features and labels together
    depth = data.draw(st.integers(1, 3))
    fpaths, lpaths = [], []
    named = None  # the file that holds the fault
    for i in range(n_files):
        shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2)))
        feats = data.draw(
            arrays(np.float64, (*shape, depth), elements=st.floats(-1e3, 1e3))
        )
        labels = data.draw(arrays(np.uint8, shape, elements=st.integers(0, 1)))
        faulty = "labels"  # the record the fault is in
        if i == bad and fault == "missing record":
            faulty = data.draw(st.sampled_from(["features", "labels"]))
        elif i == bad and fault == "rank":
            faulty = "features"
            feats = data.draw(st.sampled_from([feats[..., 0], feats[None]]))
        elif i == bad and fault == "dtype":  # labels may be u8 or f64
            faulty, feats = "features", np.clip(feats, 0, 255).astype(np.uint8)
        elif i == bad and fault == "non-finite":
            faulty = data.draw(st.sampled_from(["features", "labels"]))
            value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            if faulty == "features":
                feats.flat[-1] = value
            else:
                labels = labels.astype(np.float64)
                labels.flat[0] = value
        elif i == bad and fault == "label shape":
            labels = data.draw(st.sampled_from([
                np.resize(labels, (shape[0] + 1, shape[1])),
                np.resize(labels, (shape[0], shape[1] + 1)),
                labels[0],
            ]))
        elif i == bad and fault == "non-binary":
            labels = labels.astype(np.float64)
            labels.flat[-1] = data.draw(st.sampled_from([2.0, 0.5, -1.0]))
        elif i == bad and fault == "depth 0":
            faulty, feats = "features", feats[..., :0]
        elif i == bad and fault == "no pixels":
            faulty = "features"
            feats, labels = data.draw(st.sampled_from([
                (feats[:0], labels[:0]), (feats[:, :0], labels[:, :0])
            ]))
        elif i == bad and fault == "depths differ":
            faulty, feats = "features", np.concatenate([feats, feats[..., :1]], axis=2)
        records = {"features": feats, "labels": labels}
        if i == bad and fault == "missing record":
            del records[faulty]
        fpath, lpath = tmp_path / f"f{i}.ulre", tmp_path / f"l{i}.ulre"
        if one_file:
            write_tensor_file(fpath, records)
            lpath = fpath
        else:
            write_tensor_file(fpath, {k: v for k, v in records.items() if k == "features"})
            write_tensor_file(lpath, {k: v for k, v in records.items() if k == "labels"})
        if i == bad:
            named = fpath if faulty == "features" else lpath
        fpaths.append(str(fpath))
        lpaths.append(str(lpath))
    if fault == "lengths":
        named = None
        lpaths = lpaths[:-1] if n_files > 1 else lpaths * 2
    elif fault == "no file":
        named = tmp_path / "absent.ulre"
        data.draw(st.sampled_from([fpaths, lpaths]))[bad] = str(named)
    config = tmp_path / "train.cfg"
    config.write_text(
        f"features={','.join(fpaths)}\nlabels={','.join(lpaths)}\n"
        "epochs=1\nbatch_size=1\nhidden_dims=2\n"
    )
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
    lines = err.getvalue().splitlines()
    assert code == TRAIN_FAULTS[fault], lines
    if code == 0:
        assert lines == [] and (tmp_path / "o" / "model.ulre").is_file()
    else:
        prefix = {2: "config error: ", 3: "data error: "}[code]
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
        if named is not None:
            assert str(named) in lines[0], lines


# one fault per example, in one input file of `score` or `extrapolate`
READ_FAULTS = {
    "score": [
        "none", "missing record", "rank", "dtype", "empty", "depths differ",
        "non-finite", "other head", "params", "version",
    ],
}
READ_FAULTS["extrapolate"] = READ_FAULTS["score"] + [
    "class ids shape", "class ids set", "zero norm",
]


def _checkpoint(path, dims, head) -> dict:
    """The records of a freshly initialised checkpoint, as saved."""
    mdl.save_model(path, mdl.init_model(dims, seed=0, head=head))
    return read_tensor_file(path)


def _edit_header(records, **changes) -> None:
    header = {**json.loads(bytes(records["header"])), **changes}
    records["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)


@pytest.mark.parametrize(
    "command,fault", [(c, f) for c, faults in READ_FAULTS.items() for f in faults]
)
@settings(PROPERTY, max_examples=8)
@given(data=st.data())
def test_score_and_extrapolate_exit_0_or_with_one_error_line_naming_the_file(
    tmp_path, command, fault, data
):
    depth = data.draw(st.integers(1, 3))

    def feature_map():
        shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2)))
        # positive: no row and no class mean of zero norm, a fault of its own
        return data.draw(
            arrays(np.float64, (*shape, depth), elements=st.floats(0.5, 1e3))
        )

    files = {}  # config key -> the records of its file
    if command == "score":
        heads = {"checkpoint": data.draw(st.sampled_from(list(mdl.HEADS)))}
        files["features"] = {"features": feature_map()}
    else:
        kinds = data.draw(st.sampled_from([["evidential"], ["sigmoid"], list(mdl.HEADS)]))
        heads = {f"checkpoint_{mdl.HEADS[k].tag}": k for k in kinds}
        feats = feature_map()
        n_px = feats.shape[0] * feats.shape[1]
        ids = np.arange(n_px) % data.draw(st.integers(1, n_px))  # every class present
        files["train_features"] = {
            "features": feats, "class_ids": ids.astype(np.uint8).reshape(feats.shape[:2])
        }
        files["eval_features"] = {"features": feature_map()}
    for key, head in heads.items():
        files[key] = _checkpoint(tmp_path / "c.ulre", [depth, 3, mdl.HEADS[head].width], head)

    maps, ckpts = [k for k in files if k not in heads], list(heads)
    where = {
        "rank": maps + ckpts, "empty": maps, "non-finite": maps + ckpts,
        "other head": ckpts, "params": ckpts, "version": ckpts,
        "class ids shape": ["train_features"], "class ids set": ["train_features"],
        "zero norm": ["train_features", "eval_features"],
    }
    bad = None if fault == "none" else data.draw(st.sampled_from(where.get(fault, list(files))))
    rec = files.get(bad)
    float_name = "params" if bad in heads else "features"  # the file's float record
    if fault == "missing record":
        del rec[data.draw(st.sampled_from(sorted(rec)))]
    elif fault == "rank":
        arr = rec[float_name]
        rec[float_name] = data.draw(st.sampled_from([arr[None], arr[..., 0]]))
    elif fault == "dtype":
        name = data.draw(st.sampled_from(sorted(rec)))
        arr = rec[name]
        rec[name] = (
            arr.astype(np.float64) if arr.dtype == np.uint8
            else np.clip(arr, 0, 255).astype(np.uint8)
        )
    elif fault == "empty":
        f = rec["features"]
        rec["features"] = data.draw(st.sampled_from([f[:0], f[:, :0], f[..., :0]]))
    elif fault == "depths differ" and bad in heads:
        width = mdl.HEADS[heads[bad]].width
        files[bad] = _checkpoint(tmp_path / "c.ulre", [depth + 1, 3, width], heads[bad])
    elif fault == "depths differ":
        f = rec["features"]
        rec["features"] = np.concatenate([f, f[..., :1]], axis=2)
    elif fault == "non-finite":
        arr = rec[float_name]
        arr.flat[data.draw(st.integers(0, arr.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
    elif fault == "other head":
        other = next(k for k in mdl.HEADS if k != heads[bad])
        # extrapolate reads each head's checkpoint from its own key; score
        # takes the head from the checkpoint, which must fit its last layer
        if command == "extrapolate" and data.draw(st.booleans()):
            width = mdl.HEADS[other].width
            files[bad] = _checkpoint(tmp_path / "c.ulre", [depth, 3, width], other)
        else:
            _edit_header(rec, head=other)
    elif fault == "params":
        p = rec.pop("params")
        how = data.draw(st.sampled_from(["missing", "short", "long", "non-finite"]))
        if how == "short":
            rec["params"] = p[: data.draw(st.integers(0, p.size - 1))]
        elif how == "long":
            rec["params"] = np.concatenate([p, np.zeros(data.draw(st.integers(1, 3)))])
        elif how == "non-finite":
            p[data.draw(st.integers(0, p.size - 1))] = np.nan
            rec["params"] = p
    elif fault == "version":
        _edit_header(rec, format_version=data.draw(st.sampled_from([1, True, 2.0])))
    elif fault == "class ids shape":
        ids = rec["class_ids"]
        h, w = ids.shape
        rec["class_ids"] = data.draw(st.sampled_from([
            ids[None], ids[0], np.resize(ids, (h + 1, w)), np.resize(ids, (h, w + 1))
        ]))
    elif fault == "class ids set":  # a class id past the last one present
        ids = rec["class_ids"]
        ids.flat[data.draw(st.integers(0, ids.size - 1))] = ids.max() + 2
    elif fault == "zero norm" and bad == "train_features":  # class 0's mean
        rec["features"][rec["class_ids"] == 0] = 0.0
    elif fault == "zero norm":  # one row of the map
        f = rec["features"]
        row, col = (data.draw(st.integers(0, n - 1)) for n in f.shape[:2])
        f[row, col] = 0.0

    paths = {key: tmp_path / f"{key}.ulre" for key in files}
    for key, records in files.items():
        write_tensor_file(paths[key], records)
    config = tmp_path / f"{command}.cfg"
    extra = "out_height=4\nout_width=4\n" if command == "score" else ""  # the blur fits
    config.write_text("".join(f"{k}={v}\n" for k, v in paths.items()) + extra)
    out = tmp_path / "o"
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(config), "--out", str(out)])
    lines = err.getvalue().splitlines()
    if fault == "none":
        assert code == 0 and lines == [], lines
        assert (out / "manifest.json").is_file()
    else:
        assert code == 3, lines
        assert len(lines) == 1 and lines[0].startswith("data error: "), lines
        assert str(paths[bad]) in lines[0], (bad, lines)


# Every config key takes these values, and those near its rule's edges below.
# Left out, as it passes its rule but asks for a slow run: grid_step at its
# edge (10**6 grid points).
VALUES = ["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "", "x"]
EDGES = {
    "seed": [2**64 - 5, 2**64 - 4],
    "scene_seed": [2**63 - 1, 2**63],  # n_scenes = 1
    "head": ["evidential", "sigmoid"],
    "hidden_dims": ["1", "4,0"],
    "grid_step": [4, 5],  # the grid [-6, 6]: two, one point in [-2, 2]
    "dim": [1, 2, 2**47],
    "n_classes": [1, 255, 256],
    "ood_index": [1, 2],  # cli._N_OOD_DIRECTIONS = 2
    "ood_max_size": [2, 3],  # ood_min_size = 3
    "scale_hi": [0.4, 0.5],  # scale_lo's default
    **dict.fromkeys(["epochs", "batch_size", "patience", "n_scenes", "ood_min_size"], [1]),
    # keys that each size one array: 2**47 entries fail at the first allocation
    # (loop counts such as n_scenes would run for hours instead)
    **dict.fromkeys(["hidden", "n_per_class", "height", "width"], [1, 2**47]),
    **dict.fromkeys(["out_height", "out_width"], [2**47]),
}
PREFIX = {2: "config error: ", 3: "data error: ", 4: "numerical failure: "}


def _check_exit_contract(tmp_path, command, config):
    """Run `command` on `config`: it exits 0 with nothing on stderr (a
    warning counts), or exits 2, 3 or 4 with one line of the matching kind."""
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 2, 3, 4), (code, lines)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith(PREFIX[code]), lines
    return code, lines


@pytest.mark.parametrize("command", list(cli.SCHEMAS))
@settings(PROPERTY, max_examples=50)
@given(data=st.data())
def test_every_command_exits_0_2_3_or_4_on_one_drawn_value(
    tmp_path, tiny_configs, command, data
):
    key = data.draw(st.sampled_from(list(cli.SCHEMAS[command])))
    value = data.draw(st.sampled_from(VALUES + [str(v) for v in EDGES.get(key, [])]))
    _check_exit_contract(tmp_path, command, {**tiny_configs[command], key: value})


# grids of [-6, 6] with one and no points in [-2, 2], where the summary fits
# its ln LR slope, which used to exit 1 or fit one point
@pytest.mark.parametrize("grid", [dict(grid_step=5), dict(grid_step=13)])
def test_toy_grid_missing_the_center_is_a_config_error(tmp_path, tiny_configs, grid):
    code, lines = _check_exit_contract(
        tmp_path, "toy-gaussian", {**tiny_configs["toy-gaussian"], **grid}
    )
    assert code == 2 and lines[0].startswith("config error: config key 'grid_step': ")
