"""Property tests: every reader either returns its result or raises its own
error type, whatever bytes it is given (random, truncated or mutated)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    try:
        records = read_tensor_file(path)
    except TensorFileError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert all(isinstance(a, np.ndarray) for a in records.values())


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
