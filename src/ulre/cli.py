"""Command-line orchestration of the experiments: the 1-D Gaussian study,
synthetic scene generation, estimator training, scoring, metric evaluation,
and the cosine-distance extrapolation analysis.

Every subcommand is deterministic given its config, reads a flat key=value
config file, and writes a manifest JSON recording the resolved config, its
hash, the code version, and checksums of all output files.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import evidential as ev
from . import metrics
from . import model as mdl
from .data import (
    DataError,
    anomaly_mix,
    check_finite,
    class_means,
    ellipse_mask,
    gen_gaussian_1d,
    analytic_gaussian_lr,
    gen_synthetic_scene,
    make_feature_object,
    read_tensor_file,
    sample_unit_directions,
    write_tensor_file,
)
from .model import TrainingDivergedError
from .numkernel import Rng

__all__ = ["ConfigError", "main", "run_command", "load_config"]


class ConfigError(ValueError):
    """Invalid config file, unknown key, bad value, or missing input path."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _parse_paths(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty path list")
    return parts


def _parse_ints(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


# key -> (converter, default); required keys carry the REQUIRED sentinel
REQUIRED = object()
_PARSERS = {bool: _parse_bool, int: int, float: _parse_float, str: str}
# a train config sets every TrainConfig field, parsed by its default's type
_TRAIN_FIELDS = dataclasses.fields(mdl.TrainConfig)

SCHEMAS: dict[str, dict] = {
    "toy-gaussian": {
        "seed": (int, 0),
        "n_per_class": (int, 100_000),
        "mu0": (_parse_float, -0.4),
        "mu1": (_parse_float, 0.4),
        "epochs": (int, 100),
        "learning_rate": (_parse_float, 1e-3),
        "batch_size": (int, 1024),
        "hidden": (int, 16),
        "patience": (int, 5),
        "val_fraction": (_parse_float, 0.1),
        "grid_lo": (_parse_float, -6.0),
        "grid_hi": (_parse_float, 6.0),
        "grid_step": (_parse_float, 0.05),
    },
    "train": {
        "features": (_parse_paths, REQUIRED),
        "labels": (_parse_paths, REQUIRED),
        "hidden_dims": (_parse_ints, [256, 64]),
        "head": (str, "evidential"),
        **{f.name: (_PARSERS[type(f.default)], f.default) for f in _TRAIN_FIELDS},
    },
    "score": {
        "checkpoint": (str, REQUIRED),
        "features": (str, REQUIRED),
        "out_height": (int, 0),
        "out_width": (int, 0),
        "sigma": (_parse_float, 1.0),
    },
    "eval": {
        "scores": (_parse_paths, REQUIRED),
        "labels": (_parse_paths, REQUIRED),
    },
    "extrapolate": {
        "train_features": (str, REQUIRED),
        "eval_features": (str, REQUIRED),
        "checkpoint_edl": (str, ""),
        "checkpoint_bce": (str, ""),
        "bin_width": (_parse_float, 0.05),
    },
    "gen-synthetic": {
        "seed": (int, 0),
        "scene_seed": (int, 100),
        "n_scenes": (int, 1),
        "height": (int, 64),
        "width": (int, 64),
        "dim": (int, 16),
        "n_classes": (int, 4),
        "noise_sigma": (_parse_float, 0.1),
        "mean_scale": (_parse_float, 1.0),
        "min_angle": (_parse_float, 0.5),
        "n_ood_directions": (int, 2),
        "ood_index": (int, 0),
        "ood_per_scene": (_parse_bool, False),
        "paste_ood": (_parse_bool, True),
        "ood_sigma": (_parse_float, 0.8),
        "ood_min_size": (int, 8),
        "ood_max_size": (int, 16),
        "scale_lo": (_parse_float, 0.5),
        "scale_hi": (_parse_float, 2.0),
    },
}


def load_config(path) -> dict[str, str]:
    """Parse a flat key=value text file; '#' starts a comment line."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def resolve_config(command: str, raw: dict[str, str]) -> dict:
    schema = SCHEMAS[command]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")
    resolved = {}
    for key, (conv, default) in schema.items():
        if key in raw and (raw[key] or default is not REQUIRED):  # empty: missing
            try:
                resolved[key] = conv(raw[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        elif default is REQUIRED:
            raise ConfigError(f"missing required config key {key!r} for {command}")
        else:
            resolved[key] = list(default) if isinstance(default, list) else default
    return resolved


# key -> (test of its value, given the whole config; the rule it states).
# A key means the same in every command that has it, and is checked there.
_AT_LEAST_1 = (lambda v, cfg: v >= 1, ">= 1")
_AT_LEAST_0 = (lambda v, cfg: v >= 0, ">= 0")
_POSITIVE = (lambda v, cfg: v > 0.0, "> 0")
_MOST_STEPS = 10**6  # the most grid points or distance bins a config may ask for
_RULES = {
    # toy-gaussian seeds its streams with seed .. seed + 4, and gen-synthetic
    # its objects with 2 * (scene_seed + i) + 1: all must fit in 64 bits
    "seed": (lambda v, cfg: 0 <= v < 2**64 - 4, f"in [0, {2**64 - 5}]"),
    "scene_seed": (
        lambda v, cfg: 0 <= v <= 2**63 - cfg["n_scenes"],
        f"in [0, {2**63} - n_scenes]",
    ),
    "head": (lambda v, cfg: v in mdl.HEADS, " or ".join(map(repr, mdl.HEADS))),
    "epochs": _AT_LEAST_1,
    "learning_rate": _POSITIVE,
    "batch_size": _AT_LEAST_1,
    "patience": _AT_LEAST_1,
    "hidden": _AT_LEAST_1,
    "n_per_class": _AT_LEAST_1,
    "hidden_dims": (lambda v, cfg: all(d >= 1 for d in v), ">= 1 in every entry"),
    # toy-gaussian has no early_stopping key: it always stops early
    "val_fraction": (
        lambda v, cfg: 0.0 < v < 1.0 or not cfg.get("early_stopping", True),
        "in (0, 1) with early stopping",
    ),
    "grid_step": (
        lambda v, cfg: v > 0.0 and (cfg["grid_hi"] - cfg["grid_lo"]) / v <= _MOST_STEPS,
        f"> 0 and >= (grid_hi - grid_lo) / {_MOST_STEPS:,}",
    ),
    "grid_hi": (lambda v, cfg: v > cfg["grid_lo"], "> grid_lo"),
    "grid_lo": (  # the summary fits ln LR over the grid points in [-2, 2]
        lambda v, cfg: np.count_nonzero(_toy_grid(cfg)[1]) >= 2,
        "such that at least two grid points lie in [-2, 2]",
    ),
    "sigma": _POSITIVE,
    "out_height": _AT_LEAST_0,  # 0 keeps the input's size
    "out_width": _AT_LEAST_0,
    "bin_width": (  # cosine distances lie in [0, 2]
        lambda v, cfg: v >= 2.0 / _MOST_STEPS,
        f">= 2 / {_MOST_STEPS:,}",
    ),
    "checkpoint_edl": (
        lambda v, cfg: bool(v or cfg["checkpoint_bce"]),
        "set when checkpoint_bce is empty",
    ),
    "n_scenes": _AT_LEAST_1,
    "height": _AT_LEAST_1,
    "width": _AT_LEAST_1,
    "dim": (lambda v, cfg: v >= 2, ">= 2"),
    "n_classes": (lambda v, cfg: 1 <= v <= 255, "in [1, 255]"),  # u8 class ids
    "noise_sigma": _AT_LEAST_0,
    "n_ood_directions": _AT_LEAST_0,
    "ood_index": (  # checked when every scene pastes the one reserved direction
        lambda v, cfg: 0 <= v < cfg["n_ood_directions"]
        or not cfg["paste_ood"] or cfg["ood_per_scene"],
        "in [0, n_ood_directions) when pasting one reserved direction",
    ),
    "ood_sigma": _AT_LEAST_0,
    "ood_min_size": _AT_LEAST_1,
    "ood_max_size": (lambda v, cfg: v >= cfg["ood_min_size"], ">= ood_min_size"),
    "scale_lo": _POSITIVE,
    "scale_hi": (lambda v, cfg: v >= cfg["scale_lo"], ">= scale_lo"),
}


def _check_values(resolved: dict) -> None:
    """Raise a ConfigError naming the first key whose value breaks its rule."""
    for key, (test, rule) in _RULES.items():
        if key in resolved and not test(resolved[key], resolved):
            raise ConfigError(f"config key {key!r}: must be {rule}")


def _require_files(resolved: dict, keys: list[str]) -> None:
    for key in keys:
        value = resolved[key]
        paths = value if isinstance(value, list) else [value]
        for p in paths:
            if p and not Path(p).is_file():
                raise ConfigError(f"config key {key!r}: no such file: {p}")


_HASH_CHUNK = 2**20  # bytes hashed per read


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    buf = bytearray(_HASH_CHUNK)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(memoryview(buf)[:n])
    return h.hexdigest()


def _config_hash(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")


def _write_manifest(out_dir: Path, command: str, resolved: dict, outputs) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": resolved,
        "config_sha256": _config_hash(resolved),
        "outputs": {name: _sha256(out_dir / name) for name in outputs},
    }
    _write_json(out_dir / "manifest.json", manifest)


_RANK_SHAPES = {2: "H x W", 3: "H x W x D"}


def _records(path, records=None, **ranks) -> list[np.ndarray]:
    """The named records of one tensor file, in the order given; each must
    exist, have the rank given for it, if any (None: any rank), and hold
    only finite values. `records` is the file's contents when the caller
    has read it already; otherwise only the named records are read."""
    if records is None:
        records = read_tensor_file(path, ranks)
    found = []
    for name, ndim in ranks.items():
        if name not in records:
            raise DataError(f"{path}: missing {name!r} record")
        if ndim is not None and records[name].ndim != ndim:
            raise DataError(f"{path}: {name!r} must be {_RANK_SHAPES[ndim]}")
        check_finite(path, name, records[name])
        found.append(records[name])
    return found


def _positives(path, shape, records=None) -> np.ndarray:
    """The boolean map of a labels record's 1s; the record must have the
    given shape and hold only 0 and 1."""
    [lab] = _records(path, records, labels=None)
    if lab.shape != shape:
        raise DataError(f"{path}: labels shape {lab.shape} does not match {shape}")
    positive = lab == 1
    if np.count_nonzero(lab == 0) + np.count_nonzero(positive) != lab.size:
        bad = np.setdiff1d(lab, (0, 1)).tolist()
        raise DataError(f"{path}: labels contain non-binary values {bad}")
    return positive


def _toy_grid(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """toy-gaussian's evaluation grid, and the mask of its points in [-2, 2]."""
    lo, hi, step = cfg["grid_lo"], cfg["grid_hi"], cfg["grid_step"]
    x = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    return x, np.abs(x) <= 2.0


def cmd_toy_gaussian(resolved: dict, out_dir: Path) -> list[str]:
    seed = resolved["seed"]
    features, labels = gen_gaussian_1d(
        resolved["n_per_class"], resolved["mu0"], resolved["mu1"], seed
    )
    x, center = _toy_grid(resolved)
    fit = {f.name: resolved[f.name] for f in _TRAIN_FIELDS if f.name in resolved}
    fit["early_stopping"] = True
    logits, reports = {}, {}
    for i, (kind, head) in enumerate(mdl.HEADS.items()):
        model, reports[head.tag] = mdl.train(
            mdl.init_model([1, resolved["hidden"], head.width], seed + 3 + i, kind),
            features,
            labels,
            mdl.TrainConfig(**{**fit, "seed": seed + 1 + i}),
        )
        logits[kind] = mdl.forward(model, x.reshape(-1, 1))

    edl, bce = mdl.HEADS["evidential"], mdl.HEADS["sigmoid"]
    alpha = edl.output(logits["evidential"])
    p_edl = ev.expected_prob(alpha)[:, 1]
    vac = ev.vacuity(alpha)
    lr_edl = edl.score(alpha)
    p_bce = bce.prob(logits["sigmoid"])
    lr_true = analytic_gaussian_lr(x, resolved["mu0"], resolved["mu1"])
    entropy = ev.binary_entropy(p_bce)

    lines = ["x,p_edl,vacuity,p_bce,entropy_bce,lr_edl,lr_true"]
    for i in range(len(x)):
        lines.append(
            f"{x[i]:.10g},{p_edl[i]:.10g},{vac[i]:.10g},{p_bce[i]:.10g},"
            f"{entropy[i]:.10g},{lr_edl[i]:.10g},{lr_true[i]:.10g}"
        )
    (out_dir / "toy_grid.csv").write_text("\n".join(lines) + "\n", "utf-8")

    i0 = int(np.argmin(np.abs(x)))
    slope = float(np.polyfit(x[center], np.log(lr_edl[center]), 1)[0])
    summary = {
        "p_edl_at_0": float(p_edl[i0]),
        "p_edl_at_hi": float(p_edl[-1]),
        "p_bce_at_hi": float(p_bce[-1]),
        "vacuity_at_0": float(vac[i0]),
        "vacuity_at_lo": float(vac[0]),
        "vacuity_at_hi": float(vac[-1]),
        "vacuity_tail_center_ratio": float(min(vac[0], vac[-1]) / vac[i0]),
        "lnlr_slope_center": slope,
        "lr_true_at_0": float(lr_true[i0]),
    }
    for tag, report in reports.items():
        summary[f"{tag}_epochs_run"] = report.epochs_run
        summary[f"{tag}_best_epoch"] = report.best_epoch
    _write_json(out_dir / "toy_summary.json", summary)
    return ["toy_grid.csv", "toy_summary.json"]


def _load_pixel_rows(feature_paths, label_paths):
    if len(feature_paths) != len(label_paths):
        raise DataError("train: features and labels lists differ in length")
    xs, ys = [], []
    dim = None
    for fpath, lpath in zip(feature_paths, label_paths):
        # a scene file named as both features and labels is read once
        names = ("features", "labels") if lpath == fpath else ("features",)
        records = read_tensor_file(fpath, names)
        [fm] = _records(fpath, records, features=3)
        positive = _positives(lpath, fm.shape[:2], records if lpath == fpath else None)
        if dim is None:
            dim = fm.shape[2]
        elif fm.shape[2] != dim:
            raise DataError(f"{fpath}: feature dim {fm.shape[2]} != {dim}")
        xs.append(fm.reshape(-1, dim))
        ys.append(positive.reshape(-1))
    return np.concatenate(xs), np.concatenate(ys), dim


def cmd_train(resolved: dict, out_dir: Path) -> list[str]:
    x, y, dim = _load_pixel_rows(resolved["features"], resolved["labels"])
    head = resolved["head"]
    dims = [dim, *resolved["hidden_dims"], mdl.HEADS[head].width]
    settings = {f.name: resolved[f.name] for f in _TRAIN_FIELDS}
    settings["seed"] += 1  # resolved["seed"] seeds the initial weights
    cfg = mdl.TrainConfig(**settings)
    model, report = mdl.train(mdl.init_model(dims, resolved["seed"], head), x, y, cfg)
    mdl.save_model(out_dir / "model.ulre", model)
    report_json = {**dataclasses.asdict(report), "layer_dims": dims}
    _write_json(out_dir / "train_report.json", report_json)
    return ["model.ulre", "train_report.json"]


def cmd_score(resolved: dict, out_dir: Path) -> list[str]:
    model = mdl.load_model(resolved["checkpoint"])
    [fmap] = _records(resolved["features"], features=3)
    out_h = resolved["out_height"] or fmap.shape[0]
    out_w = resolved["out_width"] or fmap.shape[1]
    side = max(out_h, out_w)
    if 3.0 * resolved["sigma"] > side:  # the blur's radius is ceil(3 sigma)
        raise DataError(f"sigma: 3 * sigma must be <= {side}, the map's larger side")
    raw = mdl.HEADS[model.head].score(mdl.predict_map(model, fmap))
    scores = metrics.postprocess_scores(raw, out_h, out_w, resolved["sigma"])
    write_tensor_file(out_dir / "scores.ulre", {"scores": scores})
    return ["scores.ulre"]


def cmd_eval(resolved: dict, out_dir: Path) -> list[str]:
    score_paths = resolved["scores"]
    label_paths = resolved["labels"]
    if len(score_paths) != len(label_paths):
        raise DataError("eval: scores and labels lists differ in length")
    # each file keeps its positive and its sorted negative scores only; the
    # pooled metrics sum the files' counts, so no pooled array is made
    parts = []
    for spath, lpath in zip(score_paths, label_paths):
        [s] = _records(spath, scores=2)
        positive = _positives(lpath, s.shape)
        neg = s[~positive]
        neg.sort()
        parts.append((s[positive], neg))
        del s, positive
    try:
        ap, fpr95 = metrics.pooled_ap_and_fpr95(parts)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    n_pos = sum(len(p) for p, _ in parts)
    n_neg = sum(len(neg) for _, neg in parts)
    payload = {"ap": ap, "fpr95": fpr95, "n_pos": n_pos, "n_neg": n_neg}
    if len(score_paths) > 1:
        breakdown = []
        for spath, (p, neg) in zip(score_paths, parts):
            entry = {"scores_file": str(spath)}
            if len(p) and len(neg):
                entry["ap"], entry["fpr95"] = metrics.pooled_ap_and_fpr95([(p, neg)])
            breakdown.append(entry)
        payload["per_file"] = breakdown
    _write_json(out_dir / "metrics.json", payload)
    return ["metrics.json"]


def cmd_extrapolate(resolved: dict, out_dir: Path) -> list[str]:
    checkpoints = {
        kind: resolved[f"checkpoint_{head.tag}"]
        for kind, head in mdl.HEADS.items()
        if resolved[f"checkpoint_{head.tag}"]
    }
    feats, ids = _records(resolved["train_features"], features=3, class_ids=None)
    if ids.shape != feats.shape[:2]:
        raise DataError("extrapolate: malformed training features/class_ids")
    flat_ids = ids.reshape(-1)
    present = np.unique(flat_ids)
    expected = np.arange(present.max() + 1) if len(present) else present
    missing = sorted(set(expected.tolist()) - set(present.tolist()))
    if missing:
        raise DataError(f"extrapolate: class ids missing from class_ids: {missing}")
    unit_means = class_means(feats.reshape(-1, feats.shape[2]), flat_ids)

    [emap] = _records(resolved["eval_features"], features=3)
    if emap.shape[2] != feats.shape[2]:
        raise DataError("extrapolate: eval features dim mismatch")
    rows = emap.reshape(-1, emap.shape[2])

    outputs = []
    for kind, ckpt in checkpoints.items():
        head = mdl.HEADS[kind]
        model = mdl.load_model(ckpt)
        if model.head != kind:
            raise DataError(
                f"extrapolate: checkpoint_{head.tag} has head {model.head!r}, "
                f"expected {kind!r}"
            )
        probs = head.prob(mdl.forward(model, rows))
        analysis = metrics.extrapolation_analysis(
            rows, unit_means, probs, resolved["bin_width"]
        )
        name = f"extrapolation_{head.tag}.csv"
        (out_dir / name).write_text(metrics.binned_csv(analysis), "utf-8")
        outputs.append(name)
    return outputs


def cmd_gen_synthetic(resolved: dict, out_dir: Path) -> list[str]:
    n_classes = resolved["n_classes"]
    n_dirs = n_classes + resolved["n_ood_directions"]
    master = Rng(resolved["seed"])
    directions = sample_unit_directions(
        resolved["dim"], n_dirs, resolved["min_angle"], master
    )
    id_dirs = directions[:n_classes]
    outputs = []
    lo, hi = resolved["ood_min_size"], resolved["ood_max_size"]
    for i in range(resolved["n_scenes"]):
        scene_seed = resolved["scene_seed"] + i
        feats, ids = gen_synthetic_scene(
            resolved["height"],
            resolved["width"],
            resolved["dim"],
            n_classes,
            scene_seed,
            id_dirs,
            noise_sigma=resolved["noise_sigma"],
            mean_scale=resolved["mean_scale"],
        )
        labels = np.zeros(feats.shape[:2], dtype=np.uint8)
        if resolved["paste_ood"]:
            obj_rng = Rng(scene_seed * 2 + 1)
            if resolved["ood_per_scene"]:
                # a fresh outlier direction per scene, kept away from every
                # reserved direction so held-out clusters stay disjoint
                scene_dir = sample_unit_directions(
                    resolved["dim"],
                    1,
                    resolved["min_angle"],
                    obj_rng,
                    avoid=directions,
                )[0]
            else:
                scene_dir = directions[n_classes + resolved["ood_index"]]
            oh = lo + int(obj_rng.integers(1, hi - lo + 1)[0])
            ow = lo + int(obj_rng.integers(1, hi - lo + 1)[0])
            obj = make_feature_object(
                oh,
                ow,
                scene_dir,
                obj_rng,
                noise_sigma=resolved["ood_sigma"],
                mean_scale=resolved["mean_scale"],
            )
            feats, labels = anomaly_mix(
                feats,
                obj,
                ellipse_mask(oh, ow),
                obj_rng,
                scale_range=(resolved["scale_lo"], resolved["scale_hi"]),
            )
        name = f"scene_{i:03d}.ulre"
        write_tensor_file(
            out_dir / name,
            {"features": feats, "labels": labels, "class_ids": ids},
        )
        del feats, labels, ids  # the next scene is built without this one
        outputs.append(name)
    return outputs


_COMMANDS = {
    "toy-gaussian": (cmd_toy_gaussian, []),
    "train": (cmd_train, ["features", "labels"]),
    "score": (cmd_score, ["checkpoint", "features"]),
    "eval": (cmd_eval, ["scores", "labels"]),
    "extrapolate": (
        cmd_extrapolate,
        ["train_features", "eval_features", "checkpoint_edl", "checkpoint_bce"],
    ),
    "gen-synthetic": (cmd_gen_synthetic, []),
}


def run_command(command: str, resolved: dict, out_dir) -> list[str]:
    """Run one subcommand with a fully resolved config; returns output names."""
    _check_values(resolved)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    handler, _ = _COMMANDS[command]
    outputs = handler(resolved, out_dir)
    _write_manifest(out_dir, command, resolved, outputs)
    return outputs + ["manifest.json"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ulre",
        description=(
            "Uncertainty-aware likelihood ratio estimation for pixel-wise "
            "out-of-distribution detection"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        if "seed" in SCHEMAS[name]:
            p.add_argument("--seed", help="the config line seed=N, over the file's")
    args = parser.parse_args(argv, argparse.Namespace(seed=None))  # None: no --seed

    try:
        raw = load_config(args.config) if args.config else {}
        if args.seed is not None:
            raw["seed"] = args.seed
        resolved = resolve_config(args.command, raw)
        _require_files(resolved, _COMMANDS[args.command][1])
        # a float overflow, division by zero or invalid operation: exit 4
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            run_command(args.command, resolved, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (TrainingDivergedError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
