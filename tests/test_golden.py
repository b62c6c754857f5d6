"""Golden bytes: small fixed runs of all six subcommands, with both heads
where a head applies, and the sha256 of every file they write.

The runs happen in one child process with OpenBLAS pinned to one thread,
because some output bits depend on the BLAS thread count (README). On a
host with 2 or more cores, that child's `forward` shares each part's
hidden-layer blocks between worker threads, so the pins also hold the
multi-worker path to the bytes of one worker. They run
from a scratch directory with relative paths, so the manifests, which record
the config, are the same in every checkout. The scenes have 97 x 175 =
16,975 rows, so `forward` cuts them into two parts with a ragged last one.

The pins hold only for the OpenBLAS build and CPU kernel they were taken
with: OpenBLAS 0.3.31 (scipy-openblas64) running its Haswell kernels, as
`numpy.show_config()` reports them. Another build or kernel may pick other
small-matrix kernels and round some products differently (README), and
then the pins fail with no change to the code.

A change that moves an output byte on purpose updates the pins and states
the size of the change and its reason in CHANGES.md. Two more tests check
that the evidential head's `score` and `train` bytes are the same on 1 and
2 threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
        "86d86db7f3b6416ae045009dbeab91f4f35191f22d41fd09aea911bf470d0fcc"
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
        "d99855bae4a261f93082f37eb6861e488f2856188e0ef993a0fef8afd28a5f46"
    ),
    "edl/model.ulre": (
        "0a4ef48d3a6fc8ecd9e55d27dbd78c13218ca0df607111d7fdbee929fccbe48d"
    ),
    "edl/train_report.json": (
        "be17002c3b0569d78d8c90779b599aea5d210bfd6dc408df0fcec2e93990716c"
    ),
    "bce/manifest.json": (
        "0da716eaa801ffb13e9fecdf73368ee687287d2431f2384bc6aa149d221bc2cf"
    ),
    "bce/model.ulre": (
        "dafad28c0aa2dd89a6835ad13d7684a1f1b26b0a59a674f3a3204f4e0d7e5ec4"
    ),
    "bce/train_report.json": (
        "c662444597fe5e2db71b1093e71e358127429a722a37fcc4b1c8760535310ce3"
    ),
    "score_edl/manifest.json": (
        "5c369b2c0caf49c13421f22376e5f6fb55f5aeb72a8aa0ddfa4ed10a91d586ad"
    ),
    "score_edl/scores.ulre": (
        "1223447194cc6a46a7b2d8891be9c449832f1c331bfc0f9ec332c144c40c2eb0"
    ),
    "score_bce/manifest.json": (
        "23f04eb84294cbc47c86b247ea2f5f57f80e7791615ed21dc7ce5d0112ccac96"
    ),
    "score_bce/scores.ulre": (
        "28b5ad48f3f2d9c2742bb71b1c5c3483a1d1ebc1ba3db3075ec52343d988a49f"
    ),
    "score_upsampled/manifest.json": (
        "c15c2fb90bb2cfb336ae2d9a713579faeedcbf21bed8946fe5a84f6e1c7c7715"
    ),
    "score_upsampled/scores.ulre": (
        "ebfd9f9f3d5ced528bdbe612bc7f9ae84624797b332e8018013ee3e4cac56faf"
    ),
    "eval/manifest.json": (
        "f65e81d8ef7c22cc1fa77d7bcc0267554f5cf011409ded35dec52c28848c1406"
    ),
    "eval/metrics.json": (
        "b1ed8d78bdc8a6f569a5df2f46393459e14a462d74c845be106c6eb41a27ac5c"
    ),
    "extrapolate/extrapolation_bce.csv": (
        "dc13062319f065e2879e93b4edbf600be15115aa139ad6d14e4ff42d0b334d01"
    ),
    "extrapolate/extrapolation_edl.csv": (
        "34dffd12e179e1a7782f87f5a894c6a65046b629211a62492481f97d39c7b9ca"
    ),
    "extrapolate/manifest.json": (
        "539f78e28ddeb8e0935dd0974d1cf5da6da81d39cd3d28769159d7aef77fd2ce"
    ),
    "toy/manifest.json": (
        "0fd7c836c49edaca2ab59a479ae1ab886e7be2f2320c19e23fa22cd950002894"
    ),
    "toy/toy_grid.csv": (
        "8ac78ee7bb91cf68625a9f08daf9f6fb33ef5233ee09727eba0f931749e85b9f"
    ),
    "toy/toy_summary.json": (
        "d9c2df8cf1a5d725d21d4cef96e1b5c9f6c6b3263e90c4797d99709da8cc11ea"
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
    """Score every `map_*.ulre` in the current directory with `model.ulre`;
    return the sha256 of each score file, keyed by map name."""
    hashes = {}
    for path in sorted(Path().glob("map_*.ulre")):
        out = f"{prefix}_{path.stem}"
        _cli("score", out, {"checkpoint": "model.ulre", "features": path.name})
        hashes[path.stem] = cli._sha256(Path(out, "scores.ulre"))
    return hashes


def train_checkpoint(out: str) -> str:
    """Train an evidential 16-256-64-2 net on `rows.ulre` in the current
    directory, with early stopping off; return the checkpoint's sha256."""
    cfg = {"features": "rows.ulre", "labels": "rows.ulre", "epochs": "2",
           "learning_rate": "1e-3", "batch_size": "1024"}
    _cli("train", out, cfg)
    return cli._sha256(Path(out, "model.ulre"))


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


def test_outputs_match_pinned_hashes(tmp_path):
    got = _in_child("test_golden.run_all()", tmp_path, blas_threads=1)
    assert sorted(got) == sorted(PINNED)
    assert {k: v for k, v in got.items() if PINNED[k] != v} == {}


def test_evidential_score_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 4,096 rows run as one part, 16,385 as two with a ragged tail block,
    # 147,456 as nine. Both threads are used at these sizes: a sigmoid net's
    # scores of the 16,385-row map differ between 1 and 2 threads (README).
    rng = np.random.default_rng(5)
    mdl.save_model(tmp_path / "model.ulre", mdl.init_model([16, 256, 64, 2], seed=6))
    for h, w in ((64, 64), (113, 145), (384, 384)):
        write_tensor_file(
            tmp_path / f"map_{h}x{w}.ulre", {"features": rng.normal(size=(h, w, 16))}
        )
    one, two = (
        _in_child(f"test_golden.score_maps('t{n}')", tmp_path, blas_threads=n)
        for n in (1, 2)
    )
    assert len(one) == 3
    assert one == two


def test_evidential_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 8,192 rows make eight full batches of 1,024 per epoch. The weight
    # gradients' bits depend on the thread count at some batch row counts
    # and not at others (README), 1,024 among the latter, so no batch here
    # is a short one.
    rng = np.random.default_rng(8)
    write_tensor_file(
        tmp_path / "rows.ulre",
        {"features": rng.normal(size=(64, 128, 16)),
         "labels": rng.integers(0, 2, size=(64, 128), dtype=np.uint8)},
    )
    one, two = (
        _in_child(f"test_golden.train_checkpoint('t{n}')", tmp_path, blas_threads=n)
        for n in (1, 2)
    )
    assert one == two
