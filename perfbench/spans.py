"""Span recording at ulre's module boundaries, from outside the program.

A `Tracer` replaces every public ulre function at each module attribute
through which ulre code looks it up (for example `ulre.cli.read_tensor_file`
and `ulre.data.read_tensor_file`, or `ulre.evidential.digamma`, which is
how the loss code reaches `ulre.numkernel.digamma`), plus the public methods
of `ulre.numkernel.Rng`. Each call then records a span: its name, start,
end, parent and the work counts taken at that boundary. `uninstall` puts
back the original objects, so untimed and timed runs execute the unmodified
program.

A span's layer is the module that defines the function, so a call to
`ulre.cli.read_tensor_file` is a `data` span. `layer_metrics` turns the
spans of one traced pass into the per-layer numbers of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MIB = 1024.0 * 1024.0
_MARK = "_perfbench_span"


@dataclass
class Span:
    name: str  # "<layer>.<function>", e.g. "numkernel.digamma"
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of (start, end) intervals."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total, reach = 0.0, lo
    for s, e in clipped:
        s = max(s, reach)
        if e > s:
            total += e - s
            reach = e
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it that child spans cover."""
    return span.duration - covered(
        [(c.start, c.end) for c in children], span.start, span.end
    )


# --- work counts taken at the boundary ------------------------------------


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _elements(args, kwargs, result):
    return {"elems": int(np.size(_arg(args, kwargs, 0, "x")))}


def _resampled_px(args, kwargs, result):
    return {"px": int(_arg(args, kwargs, 1, "out_h")) * int(_arg(args, kwargs, 2, "out_w"))}


def _ranked_px(args, kwargs, result):
    return {"px": int(np.size(_arg(args, kwargs, 0, "scores")))}


def _predict_rows(args, kwargs, result):
    shape = _arg(args, kwargs, 1, "fmap").shape
    return {"rows": int(shape[0]) * int(shape[1])}


def _train_work(args, kwargs, result):
    """Computed work of one train call: 6 flop per weight per training row
    (forward, input gradient and weight gradient), validation excluded."""
    model, report = result
    cfg = _arg(args, kwargs, 3, "cfg")
    rows = report.n_train * report.epochs_run
    batches = -(-report.n_train // cfg.batch_size) * report.epochs_run
    weights = sum(a * b for a, b in zip(model.layer_dims[:-1], model.layer_dims[1:]))
    return {"rows": rows, "batches": batches, "flop": 6 * weights * rows}


COUNTERS = {
    "data.read_tensor_file": _file_bytes,
    "data.write_tensor_file": _file_bytes,
    "model.train": _train_work,
    "model.predict_map": _predict_rows,
    "numkernel.lgamma": _elements,
    "numkernel.digamma": _elements,
    "numkernel.trigamma": _elements,
    "numkernel.upsample_bilinear": _resampled_px,
    "numkernel.resize_nearest": _resampled_px,
    "metrics.average_precision": _ranked_px,
    "metrics.fpr_at_95_tpr": _ranked_px,
}
# tracemalloc runs only inside these spans: the peak of new allocations
PEAK_SPANS = {"data.read_tensor_file", "model.predict_map"}


def _owners(ulre_modules) -> list:
    """The six ulre modules plus the Rng class, whose methods are wrapped too."""
    return [*ulre_modules, *(m.Rng for m in ulre_modules if m.__name__ == "ulre.numkernel")]


def targets(ulre_modules):
    """(owner, attribute, span name) for every public ulre function at every
    module attribute that refers to it, and for the public Rng methods."""
    found = []
    for owner in _owners(ulre_modules):
        for attr, value in sorted(vars(owner).items()):
            home = getattr(value, "__module__", "") or ""
            if attr.startswith("_") or not inspect.isfunction(value) or not home.startswith("ulre."):
                continue
            layer = home.split(".", 1)[1]
            name = value.__qualname__ if isinstance(owner, type) else value.__name__
            found.append((owner, attr, f"{layer}.{name}"))
    return found


def installed_wrappers(ulre_modules) -> list[str]:
    """Names of tracing wrappers currently in place; empty for a clean program."""
    owners = _owners(ulre_modules)
    return [
        f"{getattr(o, '__name__', o)}.{attr}"
        for o in owners
        for attr, value in vars(o).items()
        if getattr(value, _MARK, False)
    ]


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self, ulre_modules):
        self.modules = list(ulre_modules)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._peaks: list[list[int]] = []  # [base, peak so far] per open peak span
        self._saved: list = []

    def _peak_enter(self) -> None:
        if self._peaks:  # keep the enclosing span's peak so far, then reset
            outer = self._peaks[-1]
            outer[1] = max(outer[1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
        self._peaks.append([tracemalloc.get_traced_memory()[0], 0])

    def _peak_exit(self) -> int:
        base, running = self._peaks.pop()
        peak = max(running, tracemalloc.get_traced_memory()[1])
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        else:
            tracemalloc.stop()
        return max(0, peak - base)

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        peak = name in PEAK_SPANS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            if peak:
                self._peak_enter()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if peak:
                    span.counts["peak_bytes"] = self._peak_exit()
                stack.pop()
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in targets(self.modules):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# --- per-layer metrics ------------------------------------------------------

GROUPS = {
    "data.read": {"data.read_tensor_file"},
    "data.write": {"data.write_tensor_file"},
    "data.gen": {
        "data.gen_gaussian_1d",
        "data.gen_synthetic_scene",
        "data.make_feature_object",
        "data.sample_unit_directions",
        "data.anomaly_mix",
        "data.ellipse_mask",
    },
    "model.forward": {"model.forward"},
    "model.predict_map": {"model.predict_map"},
    "model.checkpoint": {"model.save_model", "model.load_model"},
    "evidential.loss": {
        "evidential.edl_total_loss",
        "evidential.edl_log_loss",
        "evidential.edl_kl_reg",
        "evidential.dirichlet_kl_to_uniform",
        "evidential.bce_loss",
        "evidential.bce_loss_from_logit",
    },
    "evidential.grad": {"evidential.edl_loss_grad", "evidential.bce_grad_from_logit"},
    "evidential.score": {
        "evidential.evidence_from_logits",
        "evidential.dirichlet_from_evidence",
        "evidential.strength",
        "evidential.vacuity",
        "evidential.expected_prob",
        "evidential.lr_score",
        "evidential.lr_from_sigmoid",
        "evidential.sigmoid",
        "evidential.binary_entropy",
    },
    "numkernel.special": {"numkernel.lgamma", "numkernel.digamma", "numkernel.trigamma"},
    "numkernel.upsample": {"numkernel.upsample_bilinear", "numkernel.resize_nearest"},
    "numkernel.blur": {"numkernel.gaussian_blur"},
    "metrics.postprocess": {"metrics.postprocess_scores"},
    "metrics.ap": {"metrics.average_precision"},
    "metrics.fpr95": {"metrics.fpr_at_95_tpr"},
    "metrics.extrapolation": {"metrics.extrapolation_analysis", "metrics.binned_csv"},
}

# (name, unit, better); counts are computed at the boundary and repeat exactly
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("data.read_s", "s", "lower"),
    ("data.read_mb", "MiB", "lower"),
    ("data.read_peak_mb", "MiB", "lower"),
    ("data.write_s", "s", "lower"),
    ("data.write_mb", "MiB", "lower"),
    ("data.gen_s", "s", "lower"),
    ("model.train_s", "s", "lower"),
    ("model.train_self_s", "s", "lower"),
    ("model.train_rows", "count", "higher"),
    ("model.train_batches", "count", "lower"),
    ("model.train_gflop", "GFLOP", "lower"),
    ("model.train_gflop_per_s", "GFLOP/s", "higher"),
    ("model.predict_map_s", "s", "lower"),
    ("model.predict_rows", "count", "higher"),
    ("model.predict_map_peak_mb", "MiB", "lower"),
    ("model.forward_s", "s", "lower"),
    ("model.checkpoint_s", "s", "lower"),
    ("evidential.loss_s", "s", "lower"),
    ("evidential.grad_s", "s", "lower"),
    ("evidential.calls", "count", "lower"),
    ("evidential.score_s", "s", "lower"),
    ("numkernel.special_s", "s", "lower"),
    ("numkernel.special_elems", "count", "lower"),
    ("numkernel.rng_s", "s", "lower"),
    ("numkernel.upsample_s", "s", "lower"),
    ("numkernel.blur_s", "s", "lower"),
    ("numkernel.resample_px", "count", "lower"),
    ("metrics.postprocess_s", "s", "lower"),
    ("metrics.ap_s", "s", "lower"),
    ("metrics.fpr95_s", "s", "lower"),
    ("metrics.rank_calls", "count", "lower"),
    ("metrics.ranked_px", "count", "lower"),
    ("metrics.extrapolation_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
# the work counts that must repeat exactly between runs of the same code
EXACT_COUNTS = (
    "model.train_rows",
    "model.train_gflop",
    "model.predict_rows",
    "numkernel.special_elems",
    "metrics.ranked_px",
    "data.read_mb",
    "data.write_mb",
)


class SpanTree:
    def __init__(self, spans):
        self.spans = list(spans)
        self.children = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                self.children[s.parent].append(i)

    def ancestors(self, i: int):
        p = self.spans[i].parent
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p].parent

    def outermost(self, names, outside=()):
        """Spans named in `names` with no ancestor named in `names` or `outside`."""
        stop = set(names) | set(outside)
        return [
            s
            for i, s in enumerate(self.spans)
            if s.name in names and not any(a.name in stop for a in self.ancestors(i))
        ]

    def inclusive(self, names, outside=()) -> float:
        return sum(s.duration for s in self.outermost(names, outside))

    def self_time(self, i: int, excluded_layers=None) -> float:
        """Duration of span i minus what its children cover; with
        `excluded_layers`, minus what its topmost descendants in those
        layers cover instead."""
        span = self.spans[i]
        if excluded_layers is None:
            kids = [self.spans[c] for c in self.children[i]]
        else:
            kids, todo = [], list(self.children[i])
            while todo:
                c = todo.pop()
                if self.spans[c].layer in excluded_layers:
                    kids.append(self.spans[c])
                else:
                    todo.extend(self.children[c])
        return self_time(span, kids)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (every PER_LAYER name except
    trace.overhead_s, which needs the untraced runs)."""
    t = SpanTree(spans)
    g = GROUPS
    out: dict[str, float] = {}

    def total(names, key, outside=()):
        return sum(s.counts[key] for s in t.outermost(names, outside))

    out["cli.self_s"] = sum(
        t.self_time(i) for i, s in enumerate(t.spans) if s.layer == "cli"
    )
    out["data.read_s"] = t.inclusive(g["data.read"])
    out["data.read_mb"] = total(g["data.read"], "bytes") / MIB
    reads = t.outermost(g["data.read"])
    out["data.read_peak_mb"] = max((s.counts["peak_bytes"] for s in reads), default=0) / MIB
    out["data.write_s"] = t.inclusive(g["data.write"])
    out["data.write_mb"] = total(g["data.write"], "bytes") / MIB
    out["data.gen_s"] = t.inclusive(g["data.gen"])

    trains = [(i, s) for i, s in enumerate(t.spans) if s.name == "model.train"]
    out["model.train_s"] = sum(s.duration for _, s in trains)
    out["model.train_self_s"] = sum(
        t.self_time(i, {"evidential", "numkernel"}) for i, _ in trains
    )
    out["model.train_rows"] = sum(s.counts["rows"] for _, s in trains)
    out["model.train_batches"] = sum(s.counts["batches"] for _, s in trains)
    out["model.train_gflop"] = sum(s.counts["flop"] for _, s in trains) / 1e9
    train_self = out["model.train_self_s"]
    out["model.train_gflop_per_s"] = (
        out["model.train_gflop"] / train_self if train_self > 0 else 0.0
    )
    maps = t.outermost(g["model.predict_map"])
    out["model.predict_map_s"] = sum(s.duration for s in maps)
    out["model.predict_rows"] = sum(s.counts["rows"] for s in maps)
    out["model.predict_map_peak_mb"] = (
        max((s.counts["peak_bytes"] for s in maps), default=0) / MIB
    )
    out["model.forward_s"] = t.inclusive(g["model.forward"], g["model.predict_map"])
    out["model.checkpoint_s"] = t.inclusive(g["model.checkpoint"])

    out["evidential.loss_s"] = t.inclusive(g["evidential.loss"])
    out["evidential.grad_s"] = t.inclusive(g["evidential.grad"])
    out["evidential.calls"] = sum(
        1
        for i, s in enumerate(t.spans)
        if s.layer == "evidential"
        and not any(a.layer == "evidential" for a in t.ancestors(i))
    )
    everything_ev = {s.name for s in t.spans if s.layer == "evidential"}
    out["evidential.score_s"] = sum(
        s.duration
        for s in t.outermost(g["evidential.score"], everything_ev | {"model.train"})
    )

    out["numkernel.special_s"] = t.inclusive(g["numkernel.special"])
    out["numkernel.special_elems"] = total(g["numkernel.special"], "elems")
    rng = {s.name for s in t.spans if s.name.startswith("numkernel.Rng.")}
    out["numkernel.rng_s"] = t.inclusive(rng)
    out["numkernel.upsample_s"] = t.inclusive(g["numkernel.upsample"])
    out["numkernel.blur_s"] = t.inclusive(g["numkernel.blur"])
    out["numkernel.resample_px"] = total(g["numkernel.upsample"], "px")

    out["metrics.postprocess_s"] = t.inclusive(g["metrics.postprocess"])
    out["metrics.ap_s"] = t.inclusive(g["metrics.ap"])
    out["metrics.fpr95_s"] = t.inclusive(g["metrics.fpr95"])
    ranked = t.outermost(g["metrics.ap"]) + t.outermost(g["metrics.fpr95"])
    out["metrics.rank_calls"] = len(ranked)
    out["metrics.ranked_px"] = sum(s.counts["px"] for s in ranked)
    out["metrics.extrapolation_s"] = t.inclusive(g["metrics.extrapolation"])
    return out
