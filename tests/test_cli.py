"""CLI orchestration: configs, subcommands, manifests, exit codes."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ulre import cli, data
from ulre import model as mdl
from ulre.data import DataError, read_tensor_file, write_tensor_file

from test_metrics import flat_ap_and_fpr95


def write_config(path, **kv):
    path.write_text(
        "\n".join(f"{k}={v}" for k, v in kv.items()) + "\n", encoding="utf-8"
    )
    return str(path)


def gen_scenes(tmp_path, sub, n_scenes=2, seed=5, scene_seed=100, **extra):
    out = tmp_path / sub
    cfg = dict(
        seed=seed,
        scene_seed=scene_seed,
        n_scenes=n_scenes,
        height=12,
        width=12,
        dim=4,
        n_classes=2,
        ood_min_size=4,
        ood_max_size=6,
        scale_lo=1.0,
        scale_hi=1.0,
    )
    cfg.update(extra)
    resolved = cli.resolve_config("gen-synthetic", {k: str(v) for k, v in cfg.items()})
    cli.run_command("gen-synthetic", resolved, out)
    return out


def small_config(tmp_path, command):
    """Keys, and input files, small enough that a run would finish fast if a
    bad value were let through."""
    scene, ckpt = tmp_path / "scene.ulre", tmp_path / "model.ulre"
    labels = np.zeros((4, 4), dtype=np.uint8)
    labels[:2] = 1
    write_tensor_file(
        scene,
        {
            "features": np.ones((4, 4, 2)),
            "labels": labels,
            "class_ids": np.zeros((4, 4), dtype=np.uint8),
        },
    )
    mdl.save_model(ckpt, mdl.init_model([2, 4, 2], seed=0))
    return {
        "train": dict(features=scene, labels=scene, batch_size=4, epochs=1,
                      early_stopping="true"),
        "toy-gaussian": dict(n_per_class=50, epochs=1, batch_size=32, hidden=2,
                             grid_step=0.5),
        "gen-synthetic": dict(n_scenes=1, height=8, width=8, dim=3, n_classes=2,
                              ood_min_size=3, ood_max_size=4),
        "score": dict(checkpoint=ckpt, features=scene),
        "extrapolate": dict(train_features=scene, eval_features=scene,
                            checkpoint_edl=ckpt),
    }[command]


# one bad value for every key in cli._RULES (the score geometry keys are in
# BAD_SCORE_GEOMETRY), checked by test_every_rule_has_a_bad_value
BAD_SCORE_GEOMETRY = [("out_height", "-1"), ("out_width", "-3")]
OUT_OF_RANGE = [
    ("train", "epochs", "0"),
    ("train", "batch_size", "0"),
    ("train", "patience", "0"),
    ("train", "patience", "-2"),
    ("train", "hidden_dims", "-1"),
    ("train", "hidden_dims", "8,0"),
    ("toy-gaussian", "epochs", "0"),
    ("toy-gaussian", "batch_size", "0"),
    ("toy-gaussian", "patience", "-1"),
    ("toy-gaussian", "hidden", "0"),
    ("toy-gaussian", "grid_step", "0"),
    ("toy-gaussian", "grid_step", "-0.05"),
    # rules that were checks inside the command handlers
    ("train", "head", "gaussian"),
    ("extrapolate", "checkpoint_edl", ""),
    ("gen-synthetic", "ood_index", "2"),
    ("gen-synthetic", "ood_index", "-1"),
    ("gen-synthetic", "ood_min_size", "0"),
    ("gen-synthetic", "ood_max_size", "2"),
    # values that used to exit 3, or 0
    ("gen-synthetic", "height", "0"),
    ("gen-synthetic", "width", "0"),
    ("gen-synthetic", "n_scenes", "0"),
    ("gen-synthetic", "n_scenes", "-1"),
    ("gen-synthetic", "dim", "1"),
    ("gen-synthetic", "n_classes", "0"),
    ("gen-synthetic", "n_classes", "256"),
    ("gen-synthetic", "ood_sigma", "-1"),
    ("gen-synthetic", "scale_lo", "0"),
    ("gen-synthetic", "scale_hi", "0.4"),
    ("gen-synthetic", "seed", "-1"),
    ("gen-synthetic", "scene_seed", "-1"),
    ("toy-gaussian", "n_per_class", "0"),
    ("train", "learning_rate", "-1"),
    # non-finite floats, which used to exit 1, 3 or 0, and steps too fine
    ("toy-gaussian", "grid_step", "1e-300"),
    ("gen-synthetic", "scale_hi", "inf"),
    ("gen-synthetic", "ood_sigma", "inf"),
    # seeds whose derived streams overflow 64 bits, which used to exit 3
    ("gen-synthetic", "scene_seed", str(2**63)),  # objects: Rng(2 * scene_seed + 1)
    ("gen-synthetic", "seed", str(2**64)),
    ("toy-gaussian", "seed", str(2**64 - 1)),  # streams seed + 1 .. seed + 4
]


class TestConfigParsing:
    def test_key_value_with_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nseed = 7\n\nepochs=3\n")
        assert cli.load_config(path) == {"seed": "7", "epochs": "3"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed=1\nseed=2\n")
        with pytest.raises(cli.ConfigError, match="duplicate"):
            cli.load_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed 1\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown"):
            cli.resolve_config("toy-gaussian", {"nonsense": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.resolve_config("toy-gaussian", {"seed": "abc"})

    def test_required_key_enforced(self):
        with pytest.raises(cli.ConfigError, match="features"):
            cli.resolve_config("train", {})

    @pytest.mark.parametrize(
        "command,key",
        [("score", "checkpoint"), ("score", "features"), ("train", "labels"),
         ("extrapolate", "train_features"), ("extrapolate", "eval_features")],
    )
    def test_empty_required_value_is_missing(self, tmp_path, command, key):
        path = tmp_path / "a"
        path.touch()
        raw = {k: str(path) for k, (_, default) in cli.SCHEMAS[command].items()
               if default is cli.REQUIRED}
        missing = f"missing required config key {key!r}"
        with pytest.raises(cli.ConfigError, match=missing):
            cli.resolve_config(command, {**raw, key: ""})

    def test_defaults_applied(self, tiny_configs):
        raw = {k: str(v) for k, v in tiny_configs["score"].items()}
        resolved = cli.resolve_config("score", raw)
        assert resolved["out_height"] == 0
        assert resolved["out_width"] == 0

    def test_train_defaults_come_from_train_config(self, tiny_configs):
        files = {k: str(tiny_configs["train"][k]) for k in ("features", "labels")}
        resolved = cli.resolve_config("train", files)
        defaults = mdl.TrainConfig()
        keys = {
            "epochs", "learning_rate", "batch_size", "seed",
            "early_stopping", "patience",
        }
        assert set(resolved) == keys | {"features", "labels", "hidden_dims", "head"}
        for key in keys:
            assert resolved[key] == getattr(defaults, key), key
            assert type(resolved[key]) is type(getattr(defaults, key)), key
        assert resolved["head"] == "evidential"
        raw = {**files, "early_stopping": "yes"}
        overridden = cli.resolve_config("train", {**raw, "learning_rate": "1e-3"})
        assert overridden["early_stopping"] is True
        assert overridden["learning_rate"] == 1e-3


class TestExitCodes:
    def test_config_error_is_2_and_no_outputs(self, tmp_path, capsys):
        # deleted keys, each now a constant: data._SCENE_NOISE, a mean scale
        # of 1, data._MIN_ANGLE, cli._N_OOD_DIRECTIONS, cli._TOY_MEANS,
        # cli._TOY_LEARNING_RATE, cli._TOY_SPAN, model._VAL_FRACTION,
        # metrics.BLUR_SIGMA and extrapolation_analysis's default bin width
        deleted = [
            *(("gen-synthetic", key) for key in
              ("noise_sigma", "mean_scale", "min_angle", "n_ood_directions")),
            *(("toy-gaussian", key) for key in
              ("mu0", "mu1", "learning_rate", "val_fraction", "grid_lo", "grid_hi")),
            ("train", "val_fraction"),
            ("score", "sigma"),
            ("extrapolate", "bin_width"),
        ]
        out = tmp_path / "out"
        for command, key in [("gen-synthetic", "bogus_key"), *deleted]:
            cfg = write_config(tmp_path / "c.cfg", **{key: "1"})
            argv = [command, "--config", cfg, "--out", str(out)]
            assert cli.main(argv) == 2, (command, key)
            want = f"config error: unknown config keys for {command}: {key}\n"
            assert capsys.readouterr().err == want
            assert not out.exists()

    @pytest.mark.parametrize(
        "out,reason",
        [("file", "File exists"), ("file/sub", "Not a directory")],
        ids=["file", "under_file"],
    )
    def test_output_path_through_a_file_is_2_and_names_it(
        self, tmp_path, capsys, out, reason
    ):
        (tmp_path / "file").write_text("kept\n")
        out = tmp_path / out
        assert cli.main(["gen-synthetic", "--out", str(out)]) == 2
        want = f"config error: output directory {out}: {reason}\n"
        assert capsys.readouterr().err == want
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_missing_input_file_is_2(self, tmp_path, capsys, tiny_configs):
        # every input path key, then a directory given as a path and a list
        # of no paths; the run and resolve_config alone reject it before any
        # output is made
        paths = [(command, key) for command, schema in cli.SCHEMAS.items()
                 for key, (conv, _) in schema.items()
                 if conv in (cli._parse_path, cli._parse_paths)]
        assert len(paths) == 10
        out = tmp_path / "out"
        for command, key, bad in [*((c, k, tmp_path / "absent") for c, k in paths),
                                  ("score", "features", tmp_path),
                                  ("train", "features", ",")]:
            raw = {k: str(v) for k, v in {**tiny_configs[command], key: bad}.items()}
            cfg = write_config(tmp_path / "c.cfg", **raw)
            assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
            reason = "empty path list" if bad == "," else f"no such file: {bad}"
            want = f"config key {key!r}: {reason}"
            assert capsys.readouterr().err == f"config error: {want}\n", (command, key)
            assert not out.exists()
            with pytest.raises(cli.ConfigError) as exc:
                cli.resolve_config(command, raw)
            assert str(exc.value) == want

    def test_data_error_is_3(self, tmp_path):
        # labels containing the value 2 are rejected before training
        feat = tmp_path / "f.ulre"
        lab = tmp_path / "l.ulre"
        write_tensor_file(feat, {"features": np.zeros((4, 4, 2))})
        write_tensor_file(lab, {"labels": np.full((4, 4), 2, dtype=np.uint8)})
        cfg = write_config(
            tmp_path / "c.cfg",
            features=str(feat),
            labels=str(lab),
            batch_size=4,
            epochs=1,
        )
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 3

    def train_on_constant_features(self, tmp_path, head, value):
        feat = tmp_path / "f.ulre"
        write_tensor_file(feat, {"features": np.full((8, 8, 2), value)})
        lab = tmp_path / "l.ulre"
        labels = np.zeros((8, 8), dtype=np.uint8)
        labels[:4] = 1
        write_tensor_file(lab, {"labels": labels})
        cfg = write_config(
            tmp_path / "c.cfg",
            features=str(feat),
            labels=str(lab),
            head=head,
            batch_size=16,
            epochs=1,
            learning_rate="1e-3",
        )
        return cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])

    # features of 1e308 overflow as the training step casts its batch to
    # float32
    @pytest.mark.parametrize("head", ["sigmoid", "evidential"])
    def test_numerical_failure_is_4(self, tmp_path, capsys, head):
        assert self.train_on_constant_features(tmp_path, head, 1e308) == 4
        err = capsys.readouterr().err
        assert err == "numerical failure: overflow encountered in cast\n"

    # features of 3e38 fit in float32 and overflow the first layer's matmul
    @pytest.mark.parametrize("head", ["sigmoid", "evidential"])
    def test_float32_layer_overflow_is_4(self, tmp_path, capsys, head):
        assert self.train_on_constant_features(tmp_path, head, 3e38) == 4
        err = capsys.readouterr().err
        assert err == "numerical failure: overflow encountered in matmul\n"

    # a float overflow outside the training loss
    @pytest.mark.parametrize(
        "command,key,value", [("train", "learning_rate", "1e300")]
    )
    def test_float_overflow_is_4_with_one_line(
        self, tmp_path, capsys, command, key, value
    ):
        base = small_config(tmp_path, command)
        cfg = write_config(tmp_path / "c.cfg", **{**base, key: value})
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), lines

    # a feature that is finite in float64 but beyond float32's range
    # overflows as `forward` casts its block
    @pytest.mark.parametrize("command", ["score", "extrapolate"])
    def test_feature_beyond_float32_is_4_with_one_line(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.cfg", **small_config(tmp_path, command))
        scene = tmp_path / "scene.ulre"
        records = read_tensor_file(scene)
        records["features"][3, 1, 0] = 1e39
        write_tensor_file(scene, records)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == "numerical failure: overflow encountered in cast\n"

    def test_run_command_raises_on_float_overflow(self, tmp_path):
        # the float error mode is run_command's, not only the CLI's
        config = small_config(tmp_path, "score")
        records = read_tensor_file(config["features"])
        records["features"][3, 1, 0] = 1e39
        write_tensor_file(config["features"], records)
        resolved = cli.resolve_config("score", {k: str(v) for k, v in config.items()})
        with pytest.raises(FloatingPointError, match="overflow encountered in cast"):
            cli.run_command("score", resolved, tmp_path / "o")

    # arrays of 2**47 entries, 1 PiB and more: the first allocation fails at
    # once, as it is beyond a 48-bit address space
    @pytest.mark.parametrize(
        "command,key", [("gen-synthetic", "height"), ("toy-gaussian", "n_per_class"),
                        ("score", "out_height")]
    )
    def test_out_of_memory_is_3_with_one_line(self, tmp_path, capsys, command, key):
        cfg = write_config(tmp_path / "c.cfg", **{**small_config(tmp_path, command),
                                                   key: 2**47})
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("data error: out of memory: Unable to allocate 1.00 PiB")

    def test_out_of_memory_without_a_message_is_3(self, tmp_path, capsys, monkeypatch):
        def handler(resolved, out_dir):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "gen-synthetic", handler)
        assert cli.main(["gen-synthetic", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "data error: out of memory\n"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: {k: v for k, v in h.items() if k != "layer_dims"},
            lambda h: {k: v for k, v in h.items() if k != "head"},
            lambda h: {k: v for k, v in h.items() if k != "slope"},
            lambda h: list(h.values()),
            lambda h: {**h, "layer_dims": 4},
            lambda h: {**h, "layer_dims": [4, "8", 2]},
            lambda h: {**h, "head": ["evidential"]},
            lambda h: {**h, "slope": "0.01"},
            lambda h: {**h, "slope": 2.0},
            lambda h: {**h, "slope": 0.5},
        ],
        ids=[
            "no_layer_dims", "no_head", "no_slope", "list_header", "layer_dims_int",
            "layer_dims_str_entry", "head_list", "slope_str", "slope_range",
            "slope_other",
        ],
    )
    def test_malformed_checkpoint_header_is_3(self, tmp_path, capsys, edit):
        ckpt = tmp_path / "model.ulre"
        mdl.save_model(ckpt, mdl.init_model([4, 8, 2], seed=0))
        records = read_tensor_file(ckpt)
        header = edit(json.loads(bytes(records["header"])))
        records["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        write_tensor_file(ckpt, records)
        feat = tmp_path / "f.ulre"
        write_tensor_file(feat, {"features": np.zeros((4, 4, 4))})
        cfg = write_config(tmp_path / "c.cfg", checkpoint=str(ckpt), features=str(feat))
        assert cli.main(["score", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["missing", "rank", "nonfinite"])
    @pytest.mark.parametrize("command", ["train", "score", "eval", "extrapolate"])
    def test_bad_input_record_is_3_and_names_the_file(
        self, tmp_path, capsys, command, fault
    ):
        scene = {
            "features": np.zeros((4, 4, 4)),
            "labels": np.zeros((4, 4), dtype=np.uint8),
            "class_ids": np.zeros((4, 4), dtype=np.uint8),
        }
        good = tmp_path / "good.ulre"
        write_tensor_file(good, scene)
        ckpt = tmp_path / "model.ulre"
        mdl.save_model(ckpt, mdl.init_model([4, 8, 2], seed=0))
        # the file differs from a good one in the named record only
        if command == "eval":
            name, shape = "scores", "H x W"
        else:
            name, shape = "features", "H x W x D"
        bad = tmp_path / "bad.ulre"
        inputs = {
            "train": {"features": bad, "labels": good},
            "score": {"checkpoint": ckpt, "features": bad},
            "eval": {"scores": bad, "labels": good},
            "extrapolate": {
                "train_features": bad, "eval_features": good, "checkpoint_edl": ckpt
            },
        }[command]
        cfg = write_config(tmp_path / "c.cfg", **inputs)
        message = {
            "missing": f"missing {name!r} record",
            "rank": f"{name!r} must be {shape}",
            "nonfinite": f"{name!r} holds NaN or infinite values",
        }[fault]
        # a non-finite record is tried once with a NaN and once with +inf
        for value in (np.nan, np.inf) if fault == "nonfinite" else (None,):
            records = {k: v for k, v in scene.items() if k != name}
            if fault == "rank":
                records[name] = np.zeros(16)
            elif fault == "nonfinite":
                records[name] = np.zeros((4, 4, 4) if name == "features" else (4, 4))
                records[name].flat[5] = value
            write_tensor_file(bad, records)
            out = str(tmp_path / "out")
            assert cli.main([command, "--config", cfg, "--out", out]) == 3
            assert capsys.readouterr().err == f"data error: {bad}: {message}\n"

    @pytest.mark.parametrize("key,value", [("w0", np.inf), ("b0", np.inf), ("w1", np.nan)])
    def test_nonfinite_checkpoint_is_3_and_names_the_record(
        self, tmp_path, capsys, key, value
    ):
        # the logit clamp would hide an infinite parameter in the scores
        ckpt = tmp_path / "model.ulre"
        mdl.save_model(ckpt, mdl.init_model([4, 8, 2], seed=0))
        records = read_tensor_file(ckpt)
        records[key].flat[3] = value
        write_tensor_file(ckpt, records)
        feat = tmp_path / "f.ulre"
        write_tensor_file(feat, {"features": np.ones((4, 4, 4))})
        cfg = write_config(tmp_path / "c.cfg", checkpoint=str(ckpt), features=str(feat))
        assert cli.main(["score", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        message = f"{ckpt}: {key!r} holds NaN or infinite values"
        assert capsys.readouterr().err == f"data error: {message}\n"

    @pytest.mark.parametrize("fault", ["shape", "values"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_labels_are_3_and_name_the_file(self, tmp_path, capsys, command, fault):
        # train and eval check their labels with one helper and one message
        labels = np.zeros((4, 5) if fault == "shape" else (4, 4), dtype=np.uint8)
        labels[0, :3] = [1, 2, 7] if fault == "values" else 1
        bad = tmp_path / "bad.ulre"
        write_tensor_file(bad, {"labels": labels})
        write_tensor_file(tmp_path / "s.ulre", {"scores": np.ones((4, 4))})
        base = small_config(tmp_path, "train")
        inputs = {
            "train": {**base, "labels": bad},
            "eval": {"scores": tmp_path / "s.ulre", "labels": bad},
        }[command]
        cfg = write_config(tmp_path / "c.cfg", **inputs)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        message = (
            "labels shape (4, 5) does not match (4, 4)" if fault == "shape"
            else "labels contain non-binary values [2, 7]"
        )
        assert capsys.readouterr().err == f"data error: {bad}: {message}\n"

    @pytest.mark.parametrize("fault", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_is_2_and_names_it(self, tmp_path, capsys, fault):
        path = tmp_path / "c.cfg"
        if fault == "directory":
            path.mkdir()
        elif fault == "not_utf8":
            path.write_bytes(b"seed=\xff\n")
        out = tmp_path / "out"
        argv = ["gen-synthetic", "--config", str(path), "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("key,value", BAD_SCORE_GEOMETRY)
    def test_bad_score_geometry_is_2_and_names_the_key(
        self, tmp_path, capsys, key, value
    ):
        ckpt = tmp_path / "model.ulre"
        mdl.save_model(ckpt, mdl.init_model([4, 8, 2], seed=0))
        feat = tmp_path / "f.ulre"
        write_tensor_file(feat, {"features": np.zeros((4, 4, 4))})
        cfg = write_config(
            tmp_path / "c.cfg", checkpoint=ckpt, features=feat, **{key: value}
        )
        out = tmp_path / "out"
        assert cli.main(["score", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key {key!r}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,key,value", OUT_OF_RANGE, ids=["-".join(case) for case in OUT_OF_RANGE]
    )
    def test_out_of_range_value_is_2_and_names_the_key(
        self, tmp_path, capsys, command, key, value
    ):
        base = small_config(tmp_path, command)
        cfg = write_config(tmp_path / "c.cfg", **{**base, key: value})
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key {key!r}: must be ")
        assert not out.exists()

    def test_every_key_is_an_input_a_boolean_or_ruled(self):
        unruled = (cli._parse_path, cli._parse_paths, cli._parse_bool)
        for command, schema in cli.SCHEMAS.items():
            for key, (conv, _) in schema.items():
                assert conv in unruled or key in cli._RULES, (command, key)

    def test_every_rule_has_a_bad_value(self):
        # resolve_config skips rules for keys a config lacks, so a misspelt
        # rule never fires
        keys = {key for schema in cli.SCHEMAS.values() for key in schema}
        assert set(cli._RULES) <= keys
        tested = {case[1] for case in OUT_OF_RANGE}
        assert set(cli._RULES) <= tested | {key for key, _ in BAD_SCORE_GEOMETRY}

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("gen-synthetic", dict(seed=2**64 - 5, scene_seed=2**63 - 2, n_scenes=2)),
            ("toy-gaussian", dict(seed=2**64 - 5)),
        ],
    )
    def test_largest_seeds_run(self, tmp_path, command, extra):
        base = small_config(tmp_path, command)
        cfg = write_config(tmp_path / "c.cfg", **{**base, **extra})
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "extra", [dict(paste_ood="false"), dict(ood_per_scene="true")]
    )
    def test_ood_index_is_unchecked_without_a_reserved_direction(
        self, tmp_path, extra
    ):
        base = small_config(tmp_path, "gen-synthetic")
        cfg = write_config(tmp_path / "c.cfg", **base, ood_index=5, **extra)
        out = tmp_path / "o"
        assert cli.main(["gen-synthetic", "--config", cfg, "--out", str(out)]) == 0

    # no command has a --seed flag: a seed is the config line seed=N, and only
    # toy-gaussian, train and gen-synthetic have the key
    @pytest.mark.parametrize("command", list(cli.SCHEMAS))
    def test_seedless_commands_reject_a_seed(
        self, tmp_path, capsys, tiny_configs, command
    ):
        cfg = write_config(tmp_path / "c.cfg", **tiny_configs[command])
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--seed", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        if "seed" in cli.SCHEMAS[command]:
            return
        write_config(tmp_path / "c.cfg", **tiny_configs[command], seed=0)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: unknown config keys for {command}: seed\n"

    # the blur's radius, 3 px, may not pass the output map's larger side
    @pytest.mark.parametrize("height,width,code", [(2, 3, 0), (3, 2, 0), (2, 2, 3)])
    def test_output_map_under_the_blur_radius_is_3(
        self, tmp_path, capsys, monkeypatch, height, width, code
    ):
        base = small_config(tmp_path, "score")
        cfg = write_config(
            tmp_path / "c.cfg", **base, out_height=height, out_width=width
        )
        if code:  # the map is rejected before it is scored
            monkeypatch.setattr(mdl, "predict_map", lambda *a: pytest.fail("scored"))
        assert cli.main(["score", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        rejected = (
            f"data error: {base['features']}: the blur's radius exceeds the "
            "out_height x out_width = 2 x 2 output map\n"
        )
        assert capsys.readouterr().err == ("" if code == 0 else rejected)

    @pytest.mark.parametrize("command", ["score", "extrapolate"])
    @pytest.mark.parametrize("shape", [(0, 4, 2), (4, 0, 2)])
    def test_feature_map_of_no_pixels_is_3_and_names_the_file(
        self, tmp_path, capsys, command, shape
    ):
        empty = tmp_path / "empty.ulre"
        write_tensor_file(empty, {"features": np.zeros(shape)})
        base = small_config(tmp_path, command)
        key = {"score": "features", "extrapolate": "eval_features"}[command]
        cfg = write_config(tmp_path / "c.cfg", **{**base, key: empty})
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        want = f"data error: {empty}: 'features' has no pixels\n"
        assert capsys.readouterr().err == want

    # Each case holds inputs that pass their own checks but disagree with
    # each other, or a class or a pixel that the extrapolation cannot use.
    # Training features of 4 x 4 x 4 ones, class 0 in the left half; eval
    # features the same; an evidential checkpoint 4 wide.
    @pytest.mark.parametrize(
        "command,change,named,message",
        [
            ("score", {"eval": np.ones((4, 4, 5))}, "eval",
             "feature depth 5 != {model}'s input width 4"),
            ("extrapolate", {"eval": np.ones((4, 4, 5))}, "eval",
             "feature depth 5 != {train}'s 4"),
            ("extrapolate", {"width": 3}, "model",
             "input width 3 != {eval}'s feature depth 4"),
            ("extrapolate",
             {"train": np.ones((0, 4, 4)), "ids": np.zeros((0, 4), np.uint8)},
             "train", "'features' has no pixels"),
            ("extrapolate", {"ids": np.zeros((4, 3), np.uint8)}, "train",
             "'class_ids' shape (4, 3) != 'features' (4, 4)"),
            ("extrapolate", {"ids": np.uint8(np.tile([0, 0, 2, 2], (4, 1)))}, "train",
             "class ids missing from 'class_ids': [1]"),
            ("extrapolate", {"ids": np.uint8(np.tile([0, 0, 255, 255], (4, 1)))},
             "train", f"class ids missing from 'class_ids': {list(range(1, 255))}"),
            # class ids are u8, even when float ids hold integral values
            ("extrapolate", {"ids": np.tile([0.0, 0.5, 1.0, 1.0], (4, 1))}, "train",
             "'class_ids' must be u8, got float64"),
            ("extrapolate", {"ids": np.tile([0.0, 0.0, 1.0, 1.0], (4, 1))}, "train",
             "'class_ids' must be u8, got float64"),
            ("extrapolate", {"train": np.ones((4, 4, 4)) * [[0], [0], [1], [1]]},
             "train", "class_means: class 0 mean has zero norm"),
            ("extrapolate", {"eval": np.ones((4, 4, 4)) * [[[0]], [[1]], [[1]], [[1]]]},
             "eval", "extrapolation_analysis: zero feature vector"),
        ],
        ids=["score-depth", "eval-depth", "checkpoint-width", "no-train-pixels",
             "class-ids-shape", "class-id-gap", "class-id-255", "class-ids-float",
             "class-ids-integral-float", "zero-class-mean", "zero-eval-row"],
    )
    def test_inputs_that_disagree_are_3_and_name_the_file(
        self, tmp_path, capsys, command, change, named, message
    ):
        paths = {name: tmp_path / f"{name}.ulre" for name in ("train", "eval", "model")}
        ids = change.get("ids", np.uint8(np.tile([0, 0, 1, 1], (4, 1))))
        write_tensor_file(
            paths["train"],
            {"features": change.get("train", np.ones((4, 4, 4))), "class_ids": ids},
        )
        eval_features = change.get("eval", np.ones((4, 4, 4)))
        write_tensor_file(paths["eval"], {"features": eval_features})
        width = change.get("width", 4)
        mdl.save_model(paths["model"], mdl.init_model([width, 8, 2], seed=0))
        inputs = {
            "score": {"checkpoint": paths["model"], "features": paths["eval"]},
            "extrapolate": {"train_features": paths["train"],
                            "eval_features": paths["eval"],
                            "checkpoint_edl": paths["model"]},
        }[command]
        cfg = write_config(tmp_path / "c.cfg", **inputs)
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 3
        want = f"data error: {paths[named]}: {message.format(**paths)}\n"
        assert capsys.readouterr().err == want
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "shapes,n_labels,message",
        [(((4, 4, 4), (4, 4, 4)), 1, "train: features and labels lists differ in length"),
         (((4, 4, 16), (4, 4, 8)), 2, "{second}: feature dim 8 != 16"),
         (((4, 4, 0), (4, 4, 0)), 2, "{first}: 'features' has depth 0"),
         (((4, 4, 4), (0, 4, 4)), 2, "{second}: 'features' has no pixels")],
        ids=["list-lengths", "feature-dims", "depth-0", "no-pixels"],
    )
    def test_train_inputs_that_disagree_are_3(
        self, tmp_path, capsys, shapes, n_labels, message
    ):
        scenes = [tmp_path / f"scene{i}.ulre" for i in range(len(shapes))]
        for scene, shape in zip(scenes, shapes):
            write_tensor_file(scene, {"features": np.ones(shape),
                                      "labels": np.zeros(shape[:2], np.uint8)})
        cfg = write_config(
            tmp_path / "c.cfg",
            features=",".join(map(str, scenes)),
            labels=",".join(map(str, scenes[:n_labels])),
            batch_size=4,
        )
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 3
        want = f"data error: {message.format(first=scenes[0], second=scenes[1])}\n"
        assert capsys.readouterr().err == want

    def test_checkpoint_record_of_another_shape_is_3(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ulre"
        mdl.save_model(ckpt, mdl.init_model([16, 8, 2], seed=0))
        records = read_tensor_file(ckpt)
        records["w0"] = np.ascontiguousarray(records["w0"].T)
        write_tensor_file(ckpt, records)
        feat = tmp_path / "f.ulre"
        write_tensor_file(feat, {"features": np.ones((4, 4, 16))})
        cfg = write_config(tmp_path / "c.cfg", checkpoint=str(ckpt), features=str(feat))
        assert cli.main(["score", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        want = f"{ckpt}: record 'w0' has shape (8, 16), expected (16, 8)"
        assert capsys.readouterr().err == f"data error: {want}\n"

    def test_success_is_0(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", n_scenes=1, height=8, width=8, dim=3, n_classes=2,
            ood_min_size=3, ood_max_size=4,
        )
        out = tmp_path / "out"
        assert cli.main(["gen-synthetic", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "scene_000.ulre").is_file()
        assert (out / "manifest.json").is_file()


class TestGenSynthetic:
    def test_outputs_and_determinism(self, tmp_path):
        out1 = gen_scenes(tmp_path, "a")
        out2 = gen_scenes(tmp_path, "b")
        for name in ("scene_000.ulre", "scene_001.ulre"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rec = read_tensor_file(out1 / "scene_000.ulre")
        assert set(rec) == {"features", "labels", "class_ids"}
        assert rec["features"].shape == (12, 12, 4)
        assert rec["labels"].dtype == np.uint8
        assert 0 < rec["labels"].sum() < 12 * 12

    def test_different_ood_index_changes_objects(self, tmp_path):
        a = gen_scenes(tmp_path, "a", ood_index=0)
        b = gen_scenes(tmp_path, "b", ood_index=1)
        ra = read_tensor_file(a / "scene_000.ulre")
        rb = read_tensor_file(b / "scene_000.ulre")
        # same label footprint, different pasted features
        np.testing.assert_array_equal(ra["labels"], rb["labels"])
        assert not np.array_equal(ra["features"], rb["features"])

    def test_no_paste(self, tmp_path):
        out = gen_scenes(tmp_path, "c", paste_ood="false")
        rec = read_tensor_file(out / "scene_000.ulre")
        assert rec["labels"].sum() == 0

    def test_peak_memory(self, tmp_path):
        # three 18 MiB feature maps: the noise is drawn in chunks, and the
        # files are written and hashed without a copy
        tracemalloc.start()
        try:
            gen_scenes(tmp_path, "big", n_scenes=3, height=384, width=384, dim=16,
                       n_classes=4, ood_min_size=8, ood_max_size=16, scale_lo=0.5,
                       scale_hi=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20

    def test_scene_is_built_without_the_last_one(self, tmp_path, monkeypatch):
        # each scene is pasted into in place and dropped once written; its
        # noise is drawn on two threads, each with its own chunk in flight
        monkeypatch.setattr(data, "cores", lambda: 2)
        tracemalloc.start()
        try:
            gen_scenes(tmp_path, "mid", n_scenes=3, height=128, width=128, dim=16,
                       n_classes=4, ood_min_size=8, ood_max_size=16, scale_lo=0.5,
                       scale_hi=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * (128 * 128 * 16 * 8)


class TestTrainScoreEval:
    @pytest.fixture()
    def scenes(self, tmp_path):
        return gen_scenes(tmp_path, "scenes", n_scenes=2)

    def _train(self, tmp_path, scenes, sub="model", **extra):
        cfg = dict(
            features=f"{scenes}/scene_000.ulre,{scenes}/scene_001.ulre",
            labels=f"{scenes}/scene_000.ulre,{scenes}/scene_001.ulre",
            hidden_dims="8",
            epochs=2,
            batch_size=64,
            learning_rate="1e-3",
            seed=3,
        )
        cfg.update(extra)
        out = tmp_path / sub
        resolved = cli.resolve_config("train", {k: str(v) for k, v in cfg.items()})
        cli.run_command("train", resolved, out)
        return out

    def test_train_outputs_and_determinism(self, tmp_path, scenes):
        out1 = self._train(tmp_path, scenes, "m1")
        out2 = self._train(tmp_path, scenes, "m2")
        assert (out1 / "model.ulre").read_bytes() == (out2 / "model.ulre").read_bytes()
        report = json.loads((out1 / "train_report.json").read_text())
        assert report["epochs_run"] == 2
        assert len(report["train_loss"]) == 2
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert "model.ulre" in manifest["outputs"]

    def test_train_reads_each_file_once(self, tmp_path, scenes, monkeypatch):
        reads = []

        def counting_read(path, names=None):
            reads.append(str(path))
            return read_tensor_file(path, names)

        monkeypatch.setattr(cli, "read_tensor_file", counting_read)
        names = [f"{scenes}/scene_000.ulre", f"{scenes}/scene_001.ulre"]
        same = self._train(tmp_path, scenes, "same")
        assert reads == names  # features and labels name the same files
        copies = tmp_path / "labels"
        copies.mkdir()
        for name in names:
            (copies / Path(name).name).write_bytes(Path(name).read_bytes())
        reads.clear()
        labels = ",".join(str(copies / Path(name).name) for name in names)
        other = self._train(tmp_path, scenes, "other", labels=labels)
        assert len(reads) == 4
        assert (same / "model.ulre").read_bytes() == (other / "model.ulre").read_bytes()

    def test_score_eval_roundtrip(self, tmp_path, scenes):
        model_dir = self._train(tmp_path, scenes, "model")
        score_cfg = cli.resolve_config(
            "score",
            {
                "checkpoint": str(model_dir / "model.ulre"),
                "features": str(scenes / "scene_000.ulre"),
            },
        )
        score_dir = tmp_path / "scores"
        cli.run_command("score", score_cfg, score_dir)
        scores = read_tensor_file(score_dir / "scores.ulre")["scores"]
        assert scores.shape == (12, 12)
        assert np.all(scores > 0)

        eval_cfg = cli.resolve_config(
            "eval",
            {
                "scores": str(score_dir / "scores.ulre"),
                "labels": str(scenes / "scene_000.ulre"),
            },
        )
        eval_dir = tmp_path / "metrics"
        cli.run_command("eval", eval_cfg, eval_dir)
        payload = json.loads((eval_dir / "metrics.json").read_text())
        assert set(payload) >= {"ap", "fpr95", "n_pos", "n_neg"}
        labels = read_tensor_file(scenes / "scene_000.ulre")["labels"]
        want = flat_ap_and_fpr95(scores, labels)
        assert (payload["ap"], payload["fpr95"]) == want

    def test_requested_output_dims(self, tmp_path, scenes):
        model_dir = self._train(tmp_path, scenes, "model")
        cfg = cli.resolve_config(
            "score",
            {
                "checkpoint": str(model_dir / "model.ulre"),
                "features": str(scenes / "scene_000.ulre"),
                "out_height": "24",
                "out_width": "18",
            },
        )
        out = tmp_path / "scores2"
        cli.run_command("score", cfg, out)
        assert read_tensor_file(out / "scores.ulre")["scores"].shape == (24, 18)

    def test_uniform_belief_model_scores_one(self, tmp_path, scenes):
        model = mdl.Estimator([4, 8, 2], np.zeros(4 * 8 + 8 * 2 + 8 + 2))
        ckpt = tmp_path / "zero.ulre"
        mdl.save_model(ckpt, model)
        cfg = cli.resolve_config(
            "score",
            {"checkpoint": str(ckpt), "features": str(scenes / "scene_000.ulre")},
        )
        out = tmp_path / "zscores"
        cli.run_command("score", cfg, out)
        scores = read_tensor_file(out / "scores.ulre")["scores"]
        np.testing.assert_allclose(scores, 1.0, rtol=1e-12)

    def test_head_mismatch_rejected(self, tmp_path, capsys, scenes):
        # score takes its head from the checkpoint and has no head key
        ckpt = tmp_path / "model.ulre"
        mdl.save_model(ckpt, mdl.init_model([4, 8, 2], seed=0))
        cfg = write_config(
            tmp_path / "c.cfg",
            checkpoint=str(ckpt),
            features=str(scenes / "scene_000.ulre"),
            head="sigmoid",
        )
        assert cli.main(["score", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: unknown config keys for score: head\n"

    def test_eval_inverted_scores_at_or_below_chance(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 3000
        labels = np.concatenate(
            [np.ones(n // 2, dtype=np.uint8), np.zeros(n // 2, dtype=np.uint8)]
        )
        scores = np.where(labels == 1, 2.0, 1.0) * rng.uniform(0.9, 1.1, n)
        # Monte Carlo null: uninformative scores give AP near prevalence
        null_scores = rng.uniform(1.0, 2.0, n)
        sdir = tmp_path / "sfiles"
        sdir.mkdir()
        write_tensor_file(sdir / "good.ulre", {"scores": scores.reshape(-1, 1)})
        write_tensor_file(sdir / "inv.ulre", {"scores": (1.0 / scores).reshape(-1, 1)})
        write_tensor_file(sdir / "null.ulre", {"scores": null_scores.reshape(-1, 1)})
        write_tensor_file(sdir / "lab.ulre", {"labels": labels.reshape(-1, 1)})
        results = {}
        for name in ("good", "inv", "null"):
            cfg = cli.resolve_config(
                "eval",
                {
                    "scores": str(sdir / f"{name}.ulre"),
                    "labels": str(sdir / "lab.ulre"),
                },
            )
            out = tmp_path / f"eval_{name}"
            cli.run_command("eval", cfg, out)
            results[name] = json.loads((out / "metrics.json").read_text())
        assert results["good"]["ap"] == 1.0
        assert results["null"]["ap"] == pytest.approx(0.5, abs=0.05)
        # inverting a useful score cannot beat the chance level
        assert results["inv"]["ap"] <= results["null"]["ap"]

    def test_eval_metrics_bytes_are_pinned(self, tmp_path, monkeypatch):
        # three files of different shapes, tied scores, and one file with no
        # positives, which gets no per-file metrics; relative paths keep the
        # per-file names, and with them the bytes, independent of tmp_path
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(21)
        for i, shape in enumerate([(12, 10), (7, 9), (16, 16)]):
            labels = (rng.random(shape) < 0.3).astype(np.uint8)
            if i == 1:
                labels[:] = 0
            scores = rng.integers(1, 40, shape) / 8.0
            scores += labels * rng.uniform(0.0, 2.0, shape)
            write_tensor_file(f"s{i}.ulre", {"scores": scores})
            write_tensor_file(f"l{i}.ulre", {"labels": labels})
        cfg = cli.resolve_config(
            "eval",
            {"scores": "s0.ulre,s1.ulre,s2.ulre", "labels": "l0.ulre,l1.ulre,l2.ulre"},
        )
        cli.run_command("eval", cfg, tmp_path / "out")
        blob = (tmp_path / "out" / "metrics.json").read_bytes()
        assert [e.get("ap") is None for e in json.loads(blob)["per_file"]] == [
            False, True, False
        ]
        assert hashlib.sha256(blob).hexdigest() == (
            "dec21e1150b3e4f6b18d508c38d85ef0f0ea8c530d4272bfa04055e1443de074"
        )

    @staticmethod
    def _eval_config(tmp_path, scores, labels) -> dict:
        """An `eval` config over one score and one label file per array pair."""
        spaths, lpaths = [], []
        for i, (s, lab) in enumerate(zip(scores, labels)):
            spaths.append(str(tmp_path / f"s{i}.ulre"))
            lpaths.append(str(tmp_path / f"l{i}.ulre"))
            write_tensor_file(spaths[-1], {"scores": s})
            write_tensor_file(lpaths[-1], {"labels": lab})
        return cli.resolve_config("eval", {"scores": ",".join(spaths), "labels": ",".join(lpaths)})

    def _eval(self, tmp_path, scores, labels, sub="out") -> dict:
        cli.run_command("eval", self._eval_config(tmp_path, scores, labels), tmp_path / sub)
        return json.loads((tmp_path / sub / "metrics.json").read_text())

    def test_eval_file_by_file_equals_one_pooled_array(self, tmp_path):
        # eighth-step scores tie across files; file 1 has no positives and
        # file 2 no negatives, so neither gets per-file metrics
        rng = np.random.default_rng(23)
        scores, labels = [], []
        for i, shape in enumerate([(9, 11), (6, 5), (4, 4), (13, 7)]):
            lab = (rng.random(shape) < 0.35).astype(np.uint8)
            if i == 1:
                lab[:] = 0
            elif i == 2:
                lab[:] = 1
            scores.append(rng.integers(1, 24, shape) / 8.0 + lab * rng.integers(0, 8, shape) / 8.0)
            labels.append(lab)
        assert np.intersect1d(scores[2], scores[1]).size  # positives tie negatives elsewhere
        payload = self._eval(tmp_path, scores, labels)
        pooled = np.concatenate([s.ravel() for s in scores])
        pooled_labels = np.concatenate([lab.ravel() for lab in labels])
        want = flat_ap_and_fpr95(pooled, pooled_labels)
        assert (payload["ap"], payload["fpr95"]) == want
        assert (payload["n_pos"], payload["n_neg"]) == (
            int(pooled_labels.sum()), int((pooled_labels == 0).sum())
        )
        for i, entry in enumerate(payload["per_file"]):
            if i in (1, 2):
                assert entry == {"scores_file": str(tmp_path / f"s{i}.ulre")}
            else:
                want = flat_ap_and_fpr95(scores[i], labels[i])
                assert (entry["ap"], entry["fpr95"]) == want
        # one file: no breakdown, the same metrics as the file alone
        single = self._eval(tmp_path, scores[:1], labels[:1], "one")
        assert "per_file" not in single
        want = flat_ap_and_fpr95(scores[0], labels[0])
        assert (single["ap"], single["fpr95"]) == want

    def test_eval_pool_without_positives_exits_3(self, tmp_path, capsys):
        for i in range(2):
            write_tensor_file(tmp_path / f"s{i}.ulre", {"scores": np.arange(6.0).reshape(2, 3)})
            write_tensor_file(tmp_path / f"l{i}.ulre", {"labels": np.zeros((2, 3), np.uint8)})
        config = write_config(
            tmp_path / "eval.cfg",
            scores=f"{tmp_path / 's0.ulre'},{tmp_path / 's1.ulre'}",
            labels=f"{tmp_path / 'l0.ulre'},{tmp_path / 'l1.ulre'}",
        )
        assert cli.main(["eval", "--config", config, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "data error: need at least one positive and one negative label\n"
        )

    def test_eval_peak_memory(self, tmp_path):
        # each file keeps its positive and its sorted negative scores only;
        # 2.59x the pooled score bytes with a pooled copy beside the files
        rng = np.random.default_rng(24)
        scores = [rng.random((512, 512)) for _ in range(3)]
        labels = [(rng.random((512, 512)) < 0.01).astype(np.uint8) for _ in range(3)]
        cfg = self._eval_config(tmp_path, scores, labels)
        tracemalloc.start()
        try:
            cli.run_command("eval", cfg, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * sum(s.nbytes for s in scores)

    def test_eval_names_the_non_binary_label_file(self, tmp_path):
        write_tensor_file(tmp_path / "s.ulre", {"scores": np.ones((2, 3))})
        for name, row in (("good", [0, 1, 0]), ("bad", [0, 1, 2])):
            labels = np.array([row, [1, 0, 0]], dtype=np.uint8)
            write_tensor_file(tmp_path / f"{name}.ulre", {"labels": labels})
        cfg = cli.resolve_config(
            "eval",
            {
                "scores": f"{tmp_path / 's.ulre'},{tmp_path / 's.ulre'}",
                "labels": f"{tmp_path / 'good.ulre'},{tmp_path / 'bad.ulre'}",
            },
        )
        with pytest.raises(DataError, match="bad.ulre: labels contain non-binary"):
            cli.run_command("eval", cfg, tmp_path / "out")


class TestExtrapolateCommand:
    def test_bins_partition_and_counts(self, tmp_path):
        scenes = gen_scenes(tmp_path, "scenes", n_scenes=1, paste_ood="false")
        model_cfg = cli.resolve_config(
            "train",
            {
                "features": str(scenes / "scene_000.ulre"),
                "labels": str(scenes / "scene_000.ulre"),
                "hidden_dims": "8",
                "epochs": "1",
                "batch_size": "32",
                "seed": "3",
            },
        )
        # a labels record with at least one positive pixel is needed to train
        rec = read_tensor_file(scenes / "scene_000.ulre")
        rec["labels"][:2, :2] = 1
        write_tensor_file(scenes / "scene_000.ulre", rec)
        model_dir = tmp_path / "model"
        cli.run_command("train", model_cfg, model_dir)

        cfg = cli.resolve_config(
            "extrapolate",
            {
                "train_features": str(scenes / "scene_000.ulre"),
                "eval_features": str(scenes / "scene_000.ulre"),
                "checkpoint_edl": str(model_dir / "model.ulre"),
            },
        )
        out = tmp_path / "extrap"
        cli.run_command("extrapolate", cfg, out)
        lines = (out / "extrapolation_edl.csv").read_text().strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count,mean_prob"
        rows = [line.split(",") for line in lines[1:]]
        counts = [int(r[2]) for r in rows]
        assert sum(counts) == 12 * 12
        los = [float(r[0]) for r in rows]
        his = [float(r[1]) for r in rows]
        assert los[0] == 0.0
        for lo_next, hi_prev in zip(los[1:], his[:-1]):
            assert lo_next == pytest.approx(hi_prev)

    def test_both_heads_write_both_curves(self, tmp_path):
        scenes = gen_scenes(tmp_path, "scenes", n_scenes=1)
        feats = str(scenes / "scene_000.ulre")
        models = {}
        for head, hidden in (("evidential", "8"), ("sigmoid", "8")):
            cfg = cli.resolve_config(
                "train",
                {
                    "features": feats,
                    "labels": feats,
                    "head": head,
                    "hidden_dims": hidden,
                    "epochs": "1",
                    "batch_size": "32",
                    "seed": "4",
                },
            )
            out = tmp_path / f"model_{head}"
            cli.run_command("train", cfg, out)
            models[head] = str(out / "model.ulre")
        cfg = cli.resolve_config(
            "extrapolate",
            {
                "train_features": feats,
                "eval_features": feats,
                "checkpoint_edl": models["evidential"],
                "checkpoint_bce": models["sigmoid"],
            },
        )
        out = tmp_path / "extrap2"
        cli.run_command("extrapolate", cfg, out)
        assert (out / "extrapolation_edl.csv").is_file()
        assert (out / "extrapolation_bce.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {
            "extrapolation_edl.csv",
            "extrapolation_bce.csv",
        }

    def test_wrong_head_checkpoint_rejected(self, tmp_path):
        scenes = gen_scenes(tmp_path, "scenes", n_scenes=1)
        feats = str(scenes / "scene_000.ulre")
        cfg = cli.resolve_config(
            "train",
            {
                "features": feats,
                "labels": feats,
                "hidden_dims": "8",
                "epochs": "1",
                "batch_size": "32",
                "seed": "4",
            },
        )
        model_dir = tmp_path / "model"
        cli.run_command("train", cfg, model_dir)
        cfg = cli.resolve_config(
            "extrapolate",
            {
                "train_features": feats,
                "eval_features": feats,
                "checkpoint_bce": str(model_dir / "model.ulre"),  # evidential ckpt
            },
        )
        from ulre.data import DataError

        with pytest.raises(DataError, match="head"):
            cli.run_command("extrapolate", cfg, tmp_path / "x")

    def test_requires_some_checkpoint(self, tmp_path):
        scenes = gen_scenes(tmp_path, "scenes", n_scenes=1)
        with pytest.raises(cli.ConfigError, match="checkpoint"):
            cli.resolve_config(
                "extrapolate",
                {
                    "train_features": str(scenes / "scene_000.ulre"),
                    "eval_features": str(scenes / "scene_000.ulre"),
                },
            )


class TestToyGaussianCommand:
    def test_small_run_outputs(self, tmp_path):
        resolved = cli.resolve_config(
            "toy-gaussian",
            {
                "n_per_class": "2000",
                "epochs": "3",
                "batch_size": "256",
                "seed": "1",
            },
        )
        out = tmp_path / "toy"
        cli.run_command("toy-gaussian", resolved, out)
        lines = (out / "toy_grid.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 241  # header + grid rows
        header = lines[0].split(",")
        assert header == [
            "x", "p_edl", "vacuity", "p_bce", "entropy_bce", "lr_edl", "lr_true",
        ]
        mid = lines[1 + 120].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[6]) == 1.0  # analytic ratio at the symmetry point
        summary = json.loads((out / "toy_summary.json").read_text())
        assert 0.0 < summary["p_edl_at_0"] < 1.0
        assert summary["lr_true_at_0"] == 1.0


class TestManifest:
    def test_contents_and_checksums(self, tmp_path):
        out = gen_scenes(tmp_path, "m", n_scenes=1)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["command"] == "gen-synthetic"
        import hashlib

        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest
        assert manifest["config"]["n_scenes"] == 1
        assert manifest["config_sha256"]

    @pytest.mark.parametrize("size", [0, 16 * 2**20 + 5])
    def test_sha256_reads_in_pieces(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(3).integers(0, 256, size, np.uint8).tobytes())
        tracemalloc.start()
        try:
            digest = cli._sha256(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert peak < 2 * 2**20


class _ReadKeys(dict):
    """A resolved config that records each key read from it."""

    def __init__(self, resolved):
        super().__init__(resolved)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_command_reads_every_key_it_accepts(tmp_path, tiny_configs, command):
    raw = {k: str(v) for k, v in tiny_configs[command].items()}
    config = _ReadKeys(cli.resolve_config(command, raw))
    handler = cli._COMMANDS[command]
    handler(config, tmp_path)
    assert set(config) - config.read == set()
