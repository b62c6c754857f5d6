"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from ulre import cli
from ulre import model as mdl
from ulre.data import write_tensor_file


@pytest.fixture(scope="module")
def tiny_configs(tmp_path_factory):
    """Each subcommand's config on inputs of a few pixels, one epoch."""
    root = tmp_path_factory.mktemp("inputs")
    scene_cfg = dict(n_scenes="1", height="8", width="8", dim="3", n_classes="2",
                     ood_min_size="3", ood_max_size="4")
    resolved = cli.resolve_config("gen-synthetic", scene_cfg)
    cli.run_command("gen-synthetic", resolved, root)
    scene, ckpt, scores = root / "scene_000.ulre", root / "model.ulre", root / "s.ulre"
    mdl.save_model(ckpt, mdl.init_model([3, 4, 2], seed=0))
    write_tensor_file(scores, {"scores": np.linspace(0.0, 1.0, 64).reshape(8, 8)})
    return {
        "toy-gaussian": dict(n_per_class="50", epochs="1", batch_size="32", hidden="2",
                             grid_step="0.5"),
        "train": dict(features=scene, labels=scene, batch_size="16", epochs="1",
                      hidden_dims="4"),
        "score": dict(checkpoint=ckpt, features=scene),
        "eval": dict(scores=scores, labels=scene),
        "extrapolate": dict(
            train_features=scene, eval_features=scene, checkpoint_edl=ckpt
        ),
        "gen-synthetic": scene_cfg,
    }
