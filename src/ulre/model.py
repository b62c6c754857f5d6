"""Per-feature-vector estimator network and its training loop.

The estimator is a stack of affine layers with leaky-ReLU activations,
applied to each feature vector independently (the 1x1-convolution property:
no cross-pixel mixing), with either an evidential two-logit head or a
single-logit sigmoid head. Training is mini-batch Adam, fully deterministic
given the config seed, with optional early stopping on held-out rows. The
layers run in float32; the parameters, the loss and Adam are float64.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import evidential as ev
from .numkernel import Rng, _in_threads, _shares, cores

__all__ = [
    "HEADS",
    "Estimator",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "init_model",
    "forward",
    "train",
    "predict_map",
    "save_model",
    "load_model",
]

CHECKPOINT_FORMAT_VERSION = 1
# The most rows in one block of `forward`, and the row multiple of every
# inner block bound and of the training step's row count. A matmul's bits
# can depend on its row count (1 row goes through gemv; one column runs the
# rows past a multiple of 4 on another kernel; a weight gradient's can vary
# with the BLAS thread count), so both are part of the byte contract.
# Each block costs a dozen numpy calls, between which `forward`'s workers pass
# the GIL: 2 workers ran 1.6x faster than 1 on 768-row blocks, 1.2x on 256.
_BLOCK_ROWS = 768
_FORWARD_ALIGN = 64
# The leaky ReLU is max(z, _SLOPE * z). As _SLOPE > 0, an activation is > 0
# exactly where its z is, so the backward pass takes its mask from h > 0.
_SLOPE = 0.01
# Adam's decay rates and guard: the defaults of Kingma & Ba (ICLR 2015)
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# The share of rows that early stopping holds out for validation
_VAL_FRACTION = 0.1


class TrainingDivergedError(RuntimeError):
    """Raised when a non-finite loss appears during training."""


class _EvidentialHead:
    """The method: two logits of evidence; the output is alpha = evidence + 1,
    computed in the logits' own array."""

    width = 2
    tag = "edl"

    def output(self, logits):
        e = ev.evidence_from_logits(logits, out=logits)
        return ev.dirichlet_from_evidence(e, out=e)

    def score(self, output):
        return ev.lr_score(output)

    def prob(self, logits):
        return ev.expected_prob(self.output(logits))[:, 1]

    def loss_and_grad(self, logits, y, epoch: int):
        if np.isnan(logits).any():  # evidence_from_logits rejects NaN as bad data
            raise TrainingDivergedError(f"NaN logits at epoch {epoch}")
        total, grad = ev.edl_loss_and_grad(logits, y, epoch)
        return float(np.mean(total)), grad


class _SigmoidHead:
    """The baseline: one logit, binary cross-entropy; the output is P(OOD)."""

    width = 1
    tag = "bce"

    def output(self, logits):
        return ev.sigmoid(logits[:, 0])

    def score(self, output):
        return ev.lr_from_sigmoid(output)

    prob = output  # P(OOD) per row is this head's output

    def loss_and_grad(self, logits, y, epoch: int):
        z1 = logits[:, 0]
        loss = float(np.mean(ev.bce_loss_from_logit(z1, y)))
        return loss, ev.bce_grad_from_logit(z1, y)[:, None]


# All that depends on the head kind, keyed by an Estimator's `head`. `tag`
# names the kind in extrapolate's config keys and file names; `output` is
# predict_map's per-row result, `score` its likelihood ratio, `prob` P(OOD)
# per row; `loss_and_grad` gives the mean loss and the logit gradient of
# logit rows and their 0/1 labels.
# `output` and `prob` may overwrite the logits they are given.
# Heads look `ev` functions up when they run, so that a tracer which replaces
# them sees every call.
HEADS = {"evidential": _EvidentialHead(), "sigmoid": _SigmoidHead()}


@dataclass
class Estimator:
    layer_dims: list[int]
    params: np.ndarray  # float64, every weight then every bias, laid out by _views
    head: str = "evidential"

    def __post_init__(self):
        size, p = _size(self.layer_dims), self.params
        if not (isinstance(p, np.ndarray) and p.dtype == np.float64 and p.shape == (size,)):
            got = f"{p.dtype} {p.shape}" if isinstance(p, np.ndarray) else type(p).__name__
            raise ValueError(
                f"Estimator: params must be a 1-D float64 vector of {size} values "
                f"for layers {self.layer_dims}, got {got}"
            )
        self.weights, self.biases = _views(self.params, self.layer_dims)


@dataclass
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 2e-5
    batch_size: int = 1024
    seed: int = 0
    early_stopping: bool = False
    patience: int = 5


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    epochs_run: int = 0
    stopped_epoch: int | None = None
    best_epoch: int | None = None
    n_train: int = 0
    n_val: int = 0


def _check_architecture(dims: list[int], head: str) -> None:
    if head not in HEADS:
        raise ValueError(f"unknown head kind: {head!r}")
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"invalid layer dims: {dims}")
    if dims[-1] != HEADS[head].width:
        raise ValueError(
            f"final width {dims[-1]} incompatible with head {head!r} "
            f"(needs {HEADS[head].width})"
        )


def init_model(layer_dims, seed: int, head: str = "evidential") -> Estimator:
    """Seeded fan-in-scaled uniform init: W ~ U(-sqrt(6/fan_in), +...), b = 0."""
    dims = [int(d) for d in layer_dims]
    _check_architecture(dims, head)
    rng = Rng(seed)
    model = Estimator(dims, np.zeros(_size(dims)), head=head)
    for w in model.weights:
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform_range(w.size, -bound, bound).reshape(w.shape)
    return model


def _leaky_grad(h: np.ndarray) -> np.ndarray:
    """Overwrite h with the mask (h > 0) * (1 - _SLOPE) + _SLOPE; return h."""
    np.greater(h, 0.0, out=h)
    h *= 1.0 - _SLOPE
    h += _SLOPE
    return h


def _cuts(n: int, most: int) -> list[int]:
    """Bounds of near-equal pieces of at most `most` rows that cover n rows,
    every inner bound on a multiple of _FORWARD_ALIGN rows."""
    units = -(-n // _FORWARD_ALIGN)
    pieces = max(1, -(-units // (most // _FORWARD_ALIGN)))
    return [min(n, i * units // pieces * _FORWARD_ALIGN) for i in range(pieces + 1)]


def _workers() -> int:
    """How many threads `forward` runs its blocks on: the cores that
    OpenBLAS's own threads leave idle, at least 1.

    OpenBLAS takes its thread count from the first positive integer in
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, and uses
    every core when none is set. Threads of both kinds on the same cores
    only slow each other down.
    """
    blas = available = cores()
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:  # unset or not a number
            continue
        if threads > 0:
            blas = threads
            break
    return max(1, available // blas)


def _logit_rows(weights, biases, x, hidden, scratch, out) -> None:
    """Write the logits of the rows of x into `out`: the one kernel that
    runs the network's layers, in the dtype of the arrays it is given.

    Each hidden layer is matmul, bias add and leaky ReLU (max(z, _SLOPE *
    z)), the last layer matmul and bias add. `hidden` holds a block of at
    least x's rows for each hidden layer, and `scratch` one block's
    _SLOPE * z.
    """
    h = x
    for w, b, buf in zip(weights[:-1], biases[:-1], hidden):
        z = np.matmul(h, w, out=buf[: len(x)])
        z += b
        t = np.multiply(z, _SLOPE, out=scratch[: z.size].reshape(z.shape))
        h = np.maximum(z, t, out=z)
    z = np.matmul(h, weights[-1], out=out)
    z += biases[-1]


def _logit_blocks(weights, biases, x, bounds, blocks, scratch, out) -> None:
    """Write the logits of rows bounds[0] to bounds[-1] of x into the same
    rows of `out`, one block at a time, from each bound to the next.

    `blocks` holds one block of each layer's input and one of the logits,
    all in the parameters' dtype: each block of x is copied into the first,
    runs through `_logit_rows` into the last, and is copied into `out`.
    """
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        xb, *hidden, zb = (buf[: hi - lo] for buf in blocks)
        xb[...] = x[lo:hi]
        _logit_rows(weights, biases, xb, hidden, scratch, zb)
        out[lo:hi] = zb


def forward(model: Estimator, features) -> np.ndarray:
    """Row-wise float64 logits for an (N, D) batch of feature vectors,
    computed in float32.

    The parameters are cast to float32 once per call. The rows are cut
    into near-equal blocks of at most _BLOCK_ROWS rows, and each block goes
    through every layer on its own. The blocks are shared out in near-equal
    runs of consecutive blocks, one run per worker (`_workers`): the calling
    thread runs the first, a thread pool the others, each with its own
    buffers. A block's bits do not depend on the thread that computes it.
    The buffers are allocated once per call, on the calling thread.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.layer_dims[0]:
        raise ValueError(
            f"forward: expected (N, {model.layer_dims[0]}) input, got {x.shape}"
        )
    n = x.shape[0]
    bounds = _cuts(n, _BLOCK_ROWS)
    ends = _shares(len(bounds) - 1, _workers())
    runs = [bounds[a : b + 1] for a, b in zip(ends[:-1], ends[1:])]
    weights, biases = _views(model.params.astype(np.float32), model.layer_dims)
    block = min(n, _BLOCK_ROWS)
    dims = model.layer_dims
    buffers = [
        (
            [np.empty((block, d), np.float32) for d in dims],
            np.empty(block * max(dims[1:-1], default=0), np.float32),
        )
        for _ in runs
    ]
    logits = np.empty((n, dims[-1]))
    calls = [(weights, biases, x, run, *bufs, logits) for run, bufs in zip(runs, buffers)]
    _in_threads(_logit_blocks, calls)
    return logits


def _size(layer_dims: list[int]) -> int:
    """The number of weights and biases of a network of `layer_dims`."""
    return sum((a + 1) * b for a, b in zip(layer_dims[:-1], layer_dims[1:]))


def _views(flat: np.ndarray, layer_dims: list[int]):
    """The (weights, biases) lists of a network of `layer_dims`, as views
    into one flat vector: all weights in layer order, then all biases."""
    shapes = list(zip(layer_dims[:-1], layer_dims[1:]))
    ends = np.cumsum([a * b for a, b in shapes] + layer_dims[1:])
    parts = np.split(flat, ends[:-1])
    return [p.reshape(s) for p, s in zip(parts, shapes)], parts[len(shapes) :]


class _Step:
    """Mean loss and parameter gradients of one mini-batch xb of up to
    `rows` rows and its 0/1 labels yb, with the layers and the backward
    pass run in `dtype`.

    `train` gives float32 against float64 master parameters, the scheme of
    Micikevicius et al., "Mixed Precision Training" (ICLR 2018): each call
    copies the model's parameters into a `dtype` vector laid out by
    `_views`; the head's loss and logit gradient and the flat gradient
    `grad` that Adam reads are float64. Every batch runs at `rows` rounded
    up to a multiple of _FORWARD_ALIGN, in `dtype` buffers allocated once:
    the batch (zero past its n rows), an activation h per hidden layer, the
    logits and a scratch of rows x the widest hidden layer. The head reads
    n logits, which take its gradient / n, the rest zero: padding adds 0 to
    every gradient. Backward, h becomes the leaky-ReLU mask after its weight
    gradient, delta @ W.T goes into the scratch and their product (the next
    delta) into h. Each call overwrites `grad` and returns its `dtype` views.
    """

    def __init__(self, model: Estimator, rows: int, dtype):
        self.model = model
        dims = model.layer_dims
        hidden = dims[1:-1]
        self.grad = np.zeros(model.params.size)
        self.params = np.empty(self.grad.size, dtype)
        self.weights, self.biases = _views(self.params, dims)
        rows = -(-rows // _FORWARD_ALIGN) * _FORWARD_ALIGN
        self.x = np.zeros((rows, dims[0]), dtype)
        self.h = [np.empty((rows, d), dtype) for d in hidden]
        self.logits = np.empty((rows, dims[-1]), dtype)
        self.scratch = np.empty(rows * max(hidden, default=0), dtype)
        self.g = self.grad.astype(dtype, copy=False)  # `grad` itself in float64
        self.grads_w, self.grads_b = _views(self.g, dims)

    def __call__(self, xb, yb, epoch: int):
        model = self.model
        self.params[...] = model.params
        n = xb.shape[0]
        self.x[:n] = xb
        self.x[n:] = 0
        _logit_rows(self.weights, self.biases, self.x, self.h, self.scratch, self.logits)
        z = self.logits[:n]
        z64 = z.astype(np.float64, copy=False)  # z itself in float64
        loss, delta = HEADS[model.head].loss_and_grad(z64, yb, epoch)
        np.divide(delta, n, out=z)
        self.logits[n:] = 0
        delta = self.logits
        for i in range(len(self.weights) - 1, -1, -1):
            h = self.h[i - 1] if i > 0 else self.x
            np.matmul(h.T, delta, out=self.grads_w[i])
            np.sum(delta, axis=0, out=self.grads_b[i])
            if i > 0:
                mask = _leaky_grad(h)
                back = self.scratch[: h.size].reshape(h.shape)
                np.matmul(delta, self.weights[i].T, out=back)
                delta = np.multiply(back, mask, out=h)
        self.grad[...] = self.g
        return loss, self.grads_w, self.grads_b


def _fit_loss(model: Estimator, x, y) -> float:
    """The head's mean loss at epoch 0, the validation metric: the annealed
    KL weight is 0 there, so the losses of different epochs compare."""
    return HEADS[model.head].loss_and_grad(forward(model, x), y, 0)[0]


class _Adam:
    """Adam over one flat vector of `size` parameters."""

    def __init__(self, size: int, learning_rate: float):
        self.state = np.zeros((4, size))  # the two moments and two scratch rows
        self.t = 0
        self.learning_rate = learning_rate

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        """p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), evaluated in place
        in the order that expression gives."""
        self.t += 1
        bc1 = 1.0 - _ADAM_BETA1**self.t
        bc2 = 1.0 - _ADAM_BETA2**self.t
        m, v, s, r = self.state
        m *= _ADAM_BETA1
        m += np.multiply(g, 1.0 - _ADAM_BETA1, out=s)
        v *= _ADAM_BETA2
        np.multiply(g, 1.0 - _ADAM_BETA2, out=s)
        s *= g
        v += s
        np.divide(m, bc1, out=s)
        s *= self.learning_rate
        np.divide(v, bc2, out=r)
        np.sqrt(r, out=r)
        r += _ADAM_EPS
        s /= r
        p -= s


def train(model: Estimator, features, labels, cfg: TrainConfig):
    """Mini-batch Adam on the mean per-row loss. Returns (model, report).

    Deterministic given cfg.seed: the validation split (when early stopping
    is enabled) and every epoch's shuffle come from one seeded stream. Early
    stopping restores the parameters of the best validation epoch. The model
    returned is the one passed in, its parameters updated in place.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2:
        raise ValueError(f"train: features must be (N, D), got {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError("train: labels must be one row label per feature row")
    if x.shape[0] < cfg.batch_size:
        raise ValueError(
            f"train: need at least batch_size={cfg.batch_size} rows, "
            f"got {x.shape[0]}"
        )
    if cfg.epochs < 1:
        raise ValueError("train: epochs must be >= 1")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("train: labels must be 0 or 1")

    rng = Rng(cfg.seed)
    n = x.shape[0]
    rows = rng.permutation(n) if cfg.early_stopping else np.arange(n)
    n_val = max(1, int(round(n * _VAL_FRACTION))) if cfg.early_stopping else 0
    val_idx, train_idx = rows[:n_val], rows[n_val:]
    n_train = len(train_idx)

    report = TrainReport(n_train=n_train, n_val=n_val)
    step = _Step(model, cfg.batch_size, np.float32)
    opt = _Adam(model.params.size, cfg.learning_rate)
    best_val = np.inf
    best_params = None
    since_best = 0

    for epoch in range(cfg.epochs):
        # rows of x, in this epoch's order: one gather per epoch, not per batch
        order = train_idx[rng.permutation(n_train)]
        epoch_loss = 0.0
        for start in range(0, n_train, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, _, _ = step(x[batch], y[batch], epoch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, "
                    f"batch {start // cfg.batch_size} (loss={loss:.6g})"
                )
            opt.step(model.params, step.grad)
            epoch_loss += loss * len(batch)
        report.train_loss.append(epoch_loss / n_train)
        report.lambdas.append(ev.lambda_schedule(epoch))
        report.epochs_run = epoch + 1

        if cfg.early_stopping:
            val = _fit_loss(model, x[val_idx], y[val_idx])
            report.val_loss.append(val)
            if val < best_val:
                best_val = val
                best_params = model.params.copy()
                report.best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    report.stopped_epoch = epoch
                    break

    if best_params is not None:
        model.params[...] = best_params
    return model, report


def predict_map(model: Estimator, fmap):
    """Apply the estimator to every pixel of an (H, W, D) feature map.

    Evidential head: returns the (H, W, 2) Dirichlet concentration map.
    Sigmoid head: returns the (H, W) out-of-distribution probability map.
    """
    fm = np.asarray(fmap, dtype=np.float64)
    if fm.ndim != 3 or fm.shape[2] != model.layer_dims[0]:
        raise ValueError(
            f"predict_map: expected (H, W, {model.layer_dims[0]}), got {fm.shape}"
        )
    h, w, d = fm.shape
    out = HEADS[model.head].output(forward(model, fm.reshape(h * w, d)))
    return out.reshape(h, w, *out.shape[1:])


def save_model(path, model: Estimator) -> None:
    """Checkpoint: one tensor record per parameter plus a JSON header record."""
    from .data import write_tensor_file

    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_dims": model.layer_dims,
        "slope": _SLOPE,
        "head": model.head,
    }
    records: dict[str, np.ndarray] = {
        "header": np.frombuffer(
            json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
    }
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        records[f"w{i}"] = w
        records[f"b{i}"] = b
    write_tensor_file(path, records)


def load_model(path) -> Estimator:
    from .data import DataError, check_finite, read_tensor_file

    records = read_tensor_file(path)
    if "header" not in records:
        raise DataError(f"{path}: checkpoint is missing its header record")
    try:
        header = json.loads(bytes(records["header"]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header must be a JSON object")
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint format version "
            f"{header.get('format_version')!r}"
        )
    dims, head = header.get("layer_dims"), header.get("head")
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise DataError(f"{path}: checkpoint 'layer_dims' must be a list of integers")
    if not isinstance(head, str):
        raise DataError(f"{path}: checkpoint 'head' must be a string")
    if header.get("slope") != _SLOPE:
        raise DataError(f"{path}: checkpoint 'slope' must be {_SLOPE}")
    try:
        _check_architecture(dims, head)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    model = Estimator(dims, np.empty(_size(dims)), head=head)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        for key, view in ((f"w{i}", w), (f"b{i}", b)):
            if key not in records:
                raise DataError(f"{path}: checkpoint is missing record {key!r}")
            arr = records[key]
            if arr.shape != view.shape:
                raise DataError(
                    f"{path}: record {key!r} has shape {arr.shape}, "
                    f"expected {view.shape}"
                )
            check_finite(path, key, arr)
            view[...] = arr
    return model
