"""Golden bytes: small fixed runs of all six subcommands, with both heads
where a head applies, and the sha256 of every file they write.

The runs happen in one child process, once with OpenBLAS pinned to one
thread and once to two, and both must match the same pins: no output
depends on the BLAS thread count (README). On a 2-core host the
one-thread child's `forward` shares its blocks of at most `_BLOCK_ROWS`
rows between two worker threads and the two-thread child's runs them on
one, so the pins also hold the multi-worker path to the bytes of one
worker. They run from a scratch directory with relative paths, so the
manifests, which record the config, are the same in every checkout. The
scenes have 97 x 175 = 16,975 rows, so `forward`'s last block is not a
multiple of 64 rows, and the `train` runs end every epoch on an 859-row
batch.

The pins hold only for the OpenBLAS build and CPU kernel they were taken
with: OpenBLAS 0.3.31 (scipy-openblas64, a DYNAMIC_ARCH build) running its
SkylakeX kernels, which the library picks at run time and names through
`scipy_openblas_get_corename64_`; `numpy.show_config()` names the build's
default target (Haswell) instead. Another build or kernel may pick other
small-matrix kernels and round some products differently (README), and
then the pins fail with no change to the code.

A change that moves an output byte on purpose updates the pins and states
the size of the change and its reason in CHANGES.md. Two more tests check
that both heads' `score`, `extrapolate` and `train` bytes are the same on 1
and 2 threads, at larger maps and at other ragged batches.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ulre import cli
from ulre import model as mdl
from ulre.data import write_tensor_file

TRAIN = {
    "features": "scenes/scene_000.ulre,scenes/scene_001.ulre",
    "labels": "scenes/scene_000.ulre,scenes/scene_001.ulre",
    "hidden_dims": "32,16",
    "epochs": "4",
    "learning_rate": "1e-2",
    "batch_size": "1024",
    "seed": "7",
    "early_stopping": "true",
    "patience": "1",
}
SCORE = {"features": "scenes/scene_002.ulre"}
# (command, output directory, config); each run reads earlier runs' outputs
RUNS = [
    (
        "gen-synthetic",
        "scenes",
        {"seed": "3", "scene_seed": "40", "n_scenes": "3", "height": "97",
         "width": "175", "dim": "8", "n_classes": "3", "ood_min_size": "10",
         "ood_max_size": "20"},
    ),
    ("train", "edl", {**TRAIN, "head": "evidential"}),
    ("train", "bce", {**TRAIN, "head": "sigmoid"}),
    ("score", "score_edl", {**SCORE, "checkpoint": "edl/model.ulre"}),
    ("score", "score_bce", {**SCORE, "checkpoint": "bce/model.ulre"}),
    (
        "score",
        "score_upsampled",
        {**SCORE, "checkpoint": "edl/model.ulre", "out_height": "194",
         "out_width": "350"},
    ),
    (
        "eval",
        "eval",
        {"scores": "score_edl/scores.ulre,score_bce/scores.ulre",
         "labels": "scenes/scene_002.ulre,scenes/scene_002.ulre"},
    ),
    (
        "extrapolate",
        "extrapolate",
        {"train_features": "scenes/scene_000.ulre",
         "eval_features": "scenes/scene_002.ulre",
         "checkpoint_edl": "edl/model.ulre", "checkpoint_bce": "bce/model.ulre"},
    ),
    (
        "toy-gaussian",
        "toy",
        {"seed": "2", "n_per_class": "3000", "epochs": "4", "batch_size": "512",
         "hidden": "8", "grid_step": "0.25"},
    ),
]

PINNED = {
    "scenes/manifest.json": (
        "faef902d1e02375372e79981ca91c7eae615491093bd8ce6663351fdb18083ba"
    ),
    "scenes/scene_000.ulre": (
        "1bd0122002c4cdcab7b6ff764e5bbd75bb8f7eb46fb4917d4f656f4d2bfe5d07"
    ),
    "scenes/scene_001.ulre": (
        "b3be4a7a6985d9485acae08e25c03bf06194c13fbb916972d8b62d1b86e1825f"
    ),
    "scenes/scene_002.ulre": (
        "100f589e6daf34453a8a160f18aaff281e696ab4f0ac837e0d3aaffe1b9822d3"
    ),
    "edl/manifest.json": (
        "447e717cb9d0b6bc9285892fddbdb745dabb604c5b2fa98d333339e1831c83b5"
    ),
    "edl/model.ulre": (
        "f8dbe62de85b8d61ec91fe80070bb93ed9535147f5dea2b128f97d954c668d76"
    ),
    "edl/train_report.json": (
        "25d782207607aa8839c53c726baadb79bd5057c0c3422a1ff03bb28d66bb1648"
    ),
    "bce/manifest.json": (
        "95872036d32dcdf7819f7062d4a64bde61a4655f700cec2df1f5330a92133425"
    ),
    "bce/model.ulre": (
        "e621ebb12988d9ec9f26b01662a34760c0d0e2af60104b9a33448168d7592d07"
    ),
    "bce/train_report.json": (
        "f5d901a79e35351dc62b0fc9bc7719f4e3fd74c071be789a63f286d339016c88"
    ),
    "score_edl/manifest.json": (
        "41278eba3e94bfd8840e8c12986c2678eb98a231d1f457e8e7032ee7e1619ec7"
    ),
    "score_edl/scores.ulre": (
        "fb1e8cc1a5178670dc2f355bf08ef57d71554849028ad5c5ce8fea35bdacbe78"
    ),
    "score_bce/manifest.json": (
        "0108274be9a5161a497ef7b0a991f5327e7d7df4ae1716a0509a3c55c110a5a2"
    ),
    "score_bce/scores.ulre": (
        "f1f361ff8ce6d4a24502b74887e0db019affd473b5cb80e33414942cfcdf0b18"
    ),
    "score_upsampled/manifest.json": (
        "23ffc8e2aba3d6cdaa65cfb0c8b305fe995ab4eac847ce565e9223b5d64ffdd4"
    ),
    "score_upsampled/scores.ulre": (
        "96d275cbaea33a40715a06d1ba223406eebcdeb5e9c7d92c23de0eff318d8a3d"
    ),
    "eval/manifest.json": (
        "8d1dde4e186c1c45291d6426232202b7c0a82e977b412fa618576e40a52109d6"
    ),
    "eval/metrics.json": (
        "b1ed8d78bdc8a6f569a5df2f46393459e14a462d74c845be106c6eb41a27ac5c"
    ),
    "extrapolate/extrapolation_bce.csv": (
        "e441a350f4517b41c9ed8ade21720f4ae7f112b1a56c6be9c0a0597e9e69554b"
    ),
    "extrapolate/extrapolation_edl.csv": (
        "bef05584508120cbfb1a4da6e408d8b411c92d8ef8041223c6f1571666ac794a"
    ),
    "extrapolate/manifest.json": (
        "352c745e3cd4f98d61a514bc4352b2205cad1c21e1765e43a3279b5984213c5b"
    ),
    "toy/manifest.json": (
        "eb8cc6f348cc01442c275fbf79072eddb15e8cf74d86e0033973f31e889a7836"
    ),
    "toy/toy_grid.csv": (
        "f0d1847b0a955c48c3618c777a4f8577bfbf86f00526eb7195a4a70723768a03"
    ),
    "toy/toy_summary.json": (
        "21f5b165067fd1b11747f77fbc3f8125605d056e8db12989bd4ed62510c2aec0"
    ),
}


def _cli(command: str, out: str, raw: dict) -> None:
    config = Path(f"{out}.cfg")
    config.write_text("".join(f"{k}={v}\n" for k, v in raw.items()), "utf-8")
    code = cli.main([command, "--config", str(config), "--out", out])
    if code != 0:
        raise SystemExit(f"{command} -> {out} exited {code}")


def run_all() -> dict[str, str]:
    """Run every entry of RUNS in the current directory through the CLI's
    `main`; return the sha256 of each file written, keyed by relative path."""
    hashes = {}
    for command, out, raw in RUNS:
        _cli(command, out, raw)
        for path in sorted(Path(out).iterdir()):
            hashes[path.as_posix()] = cli._sha256(path)
    return hashes


def score_maps(prefix: str) -> dict[str, str]:
    """Score every `map_*.ulre` in the current directory with every
    `model_*.ulre`; return the sha256 of each score file, keyed by model
    and map name."""
    hashes = {}
    for model in sorted(Path().glob("model_*.ulre")):
        for path in sorted(Path().glob("map_*.ulre")):
            out = f"{prefix}_{model.stem}_{path.stem}"
            _cli("score", out, {"checkpoint": model.name, "features": path.name})
            hashes[f"{model.stem}_{path.stem}"] = cli._sha256(Path(out, "scores.ulre"))
    return hashes


def extrapolate_csvs(out: str) -> dict[str, str]:
    """Run `extrapolate` with `model_edl.ulre` and `model_bce.ulre` in the
    current directory, from the class means of `classes.ulre` over the rows
    of `map_384x384.ulre`; return the sha256 of each CSV, keyed by name."""
    _cli("extrapolate", out, {"train_features": "classes.ulre",
                              "eval_features": "map_384x384.ulre",
                              "checkpoint_edl": "model_edl.ulre",
                              "checkpoint_bce": "model_bce.ulre"})
    return {p.name: cli._sha256(p) for p in sorted(Path(out).glob("*.csv"))}


def train_checkpoints(prefix: str) -> dict[str, str]:
    """Train a 16-256-64 net of each head on `rows.ulre` in the current
    directory twice, for 2 epochs: in 1,000-row batches, and with early
    stopping in 1,024-row batches; return the sha256 of each checkpoint,
    keyed by head and run."""
    hashes = {}
    for head, kind in mdl.HEADS.items():
        for run, extra in (
            ("b1000", {"batch_size": "1000"}),
            ("early", {"batch_size": "1024", "early_stopping": "true"}),
        ):
            out = f"{prefix}_{kind.tag}_{run}"
            _cli("train", out, {"features": "rows.ulre", "labels": "rows.ulre",
                                "head": head, "epochs": "2",
                                "learning_rate": "1e-3", **extra})
            hashes[f"{kind.tag}_{run}"] = cli._sha256(Path(out, "model.ulre"))
    return hashes


def _in_child(call: str, cwd: Path, blas_threads: int):
    """json.loads of what `call`, an expression on this module, returns in a
    fresh interpreter with OpenBLAS pinned to `blas_threads` threads."""
    src = Path(cli.__file__).parents[1]
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(blas_threads),
        "OMP_NUM_THREADS": str(blas_threads),
        "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, test_golden; print(json.dumps({call}))"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_outputs_match_pinned_hashes(tmp_path, blas_threads):
    got = _in_child("test_golden.run_all()", tmp_path, blas_threads=blas_threads)
    assert sorted(got) == sorted(PINNED)
    assert {k: v for k, v in got.items() if PINNED[k] != v} == {}


def test_score_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 4,096, 16,385, 147,456 and 16,389 rows, each run as blocks of at most
    # `_BLOCK_ROWS` rows. A one-column product (the sigmoid head's last
    # layer) over 64 inputs shares its rows between threads from 7,201 rows
    # on, so one over 16,385 or 16,389 rows gives other bits on 1 and 2
    # threads; a block of at most 7,200 rows does not split. Both heads'
    # extrapolation CSVs over the 147,456 rows are held to the same.
    rng = np.random.default_rng(5)
    for head, kind in mdl.HEADS.items():
        net = mdl.init_model([16, 256, 64, kind.width], seed=6, head=head)
        mdl.save_model(tmp_path / f"model_{kind.tag}.ulre", net)
    for h, w in ((64, 64), (113, 145), (384, 384), (27, 607)):
        write_tensor_file(
            tmp_path / f"map_{h}x{w}.ulre", {"features": rng.normal(size=(h, w, 16))}
        )
    write_tensor_file(
        tmp_path / "classes.ulre",
        {"features": rng.normal(size=(64, 64, 16)),
         "class_ids": rng.integers(0, 3, size=(64, 64), dtype=np.uint8)},
    )
    one, two = (
        _in_child(
            f"[test_golden.score_maps('t{n}'), test_golden.extrapolate_csvs('x{n}')]",
            tmp_path,
            blas_threads=n,
        )
        for n in (1, 2)
    )
    assert [len(part) for part in one] == [8, 2]
    assert one == two


def test_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 48 x 91 = 4,368 rows: in 1,000-row batches each epoch ends on 368
    # rows; early stopping holds out 437 and leaves 3,931 = 3 x 1,024 + 859.
    # A weight gradient over 859 or 1,000 rows changes bits with the thread
    # count, so the step runs every batch at one multiple of 64 rows.
    rng = np.random.default_rng(8)
    write_tensor_file(
        tmp_path / "rows.ulre",
        {"features": rng.normal(size=(48, 91, 16)),
         "labels": rng.integers(0, 2, size=(48, 91), dtype=np.uint8)},
    )
    one, two = (
        _in_child(f"test_golden.train_checkpoints('t{n}')", tmp_path, blas_threads=n)
        for n in (1, 2)
    )
    assert len(one) == 4
    assert one == two
