"""Tests of the benchmark's own machinery: span arithmetic, wrapper
installation and removal, and that tracing leaves every output byte alone.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import ulre  # noqa: E402
from spans import Span, SpanTree, Tracer, covered, layer_metrics  # noqa: E402
from ulre import cli, data, evidential, metrics, model, numkernel  # noqa: E402

MODULES = [cli, data, model, evidential, numkernel, metrics]


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1, 3), (2, 5)], 0, 10) == 4  # overlapping children
    assert covered([(1, 3), (1, 3)], 0, 10) == 2  # duplicates count once
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4  # clipped to the parent
    assert covered([(-5, -1), (12, 20)], 0, 10) == 0  # wholly outside it
    assert covered([(1, 2), (4, 6), (5, 9)], 0, 10) == 6


def test_self_time_with_overlapping_children():
    parent = Span("cli.run_command", -1, 0.0, 10.0)
    kids = [Span("data.read_tensor_file", 0, 1.0, 4.0), Span("model.train", 0, 3.0, 6.0)]
    assert spans.self_time(parent, kids) == pytest.approx(5.0)


def test_self_time_excluding_layers_uses_topmost_descendants():
    tree = SpanTree(
        [
            Span("model.train", -1, 0.0, 10.0),
            Span("model.forward", 0, 1.0, 3.0),  # model: stays in self time
            Span("evidential.edl_total_loss", 0, 4.0, 7.0),
            Span("numkernel.digamma", 2, 5.0, 6.0),  # inside the loss span
            Span("numkernel.Rng.permutation", 0, 6.5, 8.0),  # overlaps the loss
        ]
    )
    assert tree.self_time(0) == pytest.approx(10.0 - 2.0 - 4.0)
    assert tree.self_time(0, {"evidential", "numkernel"}) == pytest.approx(10.0 - 4.0)


def test_layer_metrics_group_outermost_spans():
    tree = [
        Span("cli.run_command", -1, 0.0, 10.0),
        Span("model.predict_map", 0, 1.0, 5.0, {"rows": 100, "peak_bytes": 2**20}),
        Span("model.forward", 1, 1.5, 4.0),  # inside predict_map: not forward_s
        Span("evidential.evidence_from_logits", 1, 4.0, 4.5),
        Span("model.forward", 0, 5.0, 6.0),
        Span("metrics.average_precision", 0, 6.0, 7.0, {"px": 50}),
        Span("metrics.fpr_at_95_tpr", 0, 7.0, 8.0, {"px": 50}),
        Span("numkernel.digamma", 3, 4.1, 4.2, {"elems": 7}),
    ]
    m = layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 1.0 - 2.0)
    assert m["model.predict_map_s"] == pytest.approx(4.0)
    assert m["model.predict_rows"] == 100
    assert m["model.predict_map_peak_mb"] == pytest.approx(1.0)
    assert m["model.forward_s"] == pytest.approx(1.0)
    assert m["evidential.score_s"] == pytest.approx(0.5)
    assert m["evidential.calls"] == 1
    assert m["numkernel.special_elems"] == 7
    assert m["metrics.rank_calls"] == 2
    assert m["metrics.ranked_px"] == 100
    assert set(m) | {"trace.overhead_s"} == {name for name, _, _ in spans.PER_LAYER}


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11))) == (9, 0)
    assert run.tail_percentile(list(range(100, 0, -1))) == (90, 90)


def _attributes():
    owners = MODULES + [numkernel.Rng]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_are_installed_at_caller_names_and_removed():
    before = _attributes()
    named = [
        (evidential, "digamma"),
        (metrics, "gaussian_blur"),
        (cli, "read_tensor_file"),
        (data, "read_tensor_file"),
        (model.ev, "edl_loss_grad"),
        (numkernel.Rng, "permutation"),
    ]
    tracer = Tracer(MODULES)
    with tracer.installed():
        for owner, attr in named:
            assert getattr(vars(owner)[attr], "_perfbench_span", False), attr
        assert spans.installed_wrappers(MODULES)
    assert spans.installed_wrappers(MODULES) == []
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrapper_records_span_when_call_raises():
    tracer = Tracer(MODULES)
    with tracer.installed():
        with pytest.raises(ValueError):
            evidential.lambda_schedule(-1)
    (span,) = tracer.spans
    assert span.name == "evidential.lambda_schedule" and span.end >= span.start


def _pipeline(out: Path) -> dict[str, str]:
    """A small run of every subcommand; returns the sha256 of every output."""
    calls = [
        ("gen-synthetic", {"height": "16", "width": "16", "n_scenes": "4", "ood_min_size": "4",
                           "ood_max_size": "6"}, "scenes"),
        ("toy-gaussian", {"n_per_class": "600", "epochs": "2", "patience": "2", "hidden": "4"}, "toy"),
    ]
    scenes = ",".join(f"scenes/scene_{i:03d}.ulre" for i in range(4))
    calls += [
        ("train", {"features": scenes, "labels": scenes, "epochs": "2"}, "model"),
        ("score", {"checkpoint": "model/model.ulre", "features": "scenes/scene_000.ulre",
                   "out_height": "32", "out_width": "32"}, "s0"),
        ("score", {"checkpoint": "model/model.ulre", "features": "scenes/scene_001.ulre"}, "s1"),
        ("eval", {"scores": "s1/scores.ulre,s1/scores.ulre",
                  "labels": "scenes/scene_001.ulre,scenes/scene_001.ulre"}, "m"),
        ("extrapolate", {"train_features": "scenes/scene_000.ulre",
                         "eval_features": "scenes/scene_001.ulre",
                         "checkpoint_edl": "model/model.ulre"}, "x"),
    ]
    hashes = {}
    for command, raw, where in calls:
        for name in cli.run_command(command, cli.resolve_config(command, raw), where):
            hashes[f"{where}/{name}"] = hashlib.sha256((out / where / name).read_bytes()).hexdigest()
    return hashes


def test_traced_outputs_hash_like_untraced(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    untraced = _pipeline(tmp_path)
    for child in tmp_path.iterdir():
        if child.is_dir():
            for f in child.iterdir():
                f.unlink()
            child.rmdir()
    tracer = Tracer(MODULES)
    with tracer.installed():
        traced = _pipeline(tmp_path)
    assert traced == untraced
    m = layer_metrics(tracer.spans)
    assert m["model.train_rows"] > 0 and m["numkernel.special_elems"] > 0
    assert m["model.train_s"] > m["model.train_self_s"] > 0
    assert m["metrics.rank_calls"] == 6  # overall AP and FPR, then per file
    assert spans.installed_wrappers(MODULES) == []


def test_benchmark_json_matches_code():
    import json

    from workloads import WORKLOADS

    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert ulre.__file__.startswith(str(HERE.parent.parent / "src"))
