"""Per-feature-vector estimator network and its training loop.

The estimator is a stack of affine layers with leaky-ReLU activations,
applied to each feature vector independently (the 1x1-convolution property:
no cross-pixel mixing), with either an evidential two-logit head or a
single-logit sigmoid head. Training is mini-batch Adam, fully deterministic
given the config seed, with optional early stopping on held-out rows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import evidential as ev
from .numkernel import Rng

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
# The most rows in one part of a forward pass, and the row multiple that
# every part boundary falls on. Both are part of the byte contract, because
# a matmul's result bits can depend on its row count. With OpenBLAS, products
# 2, 3, 4 or 12 columns wide take another kernel below about 10^6
# multiply-adds, so the evidential head's 64-to-2 last layer differs from
# one whole-map call on parts of 4,096 rows; and a one-column matmul (the
# sigmoid head's last layer) computes the rows past the last multiple of 4
# with another kernel. So `forward` cuts near-equal parts of more than 8,000
# rows on multiples of 64 rows, never a short tail part, and runs the last
# layer over each whole part. 16,384 rows bound the last hidden activation
# of a 64-wide layer at 8 MiB.
_FORWARD_ROWS = 16_384
_FORWARD_ALIGN = 64
# The most rows in one block of the hidden layers in `forward`, cut like the
# parts. A block of 256 rows of a 256-wide layer takes 512 KiB, which stays
# in cache from its matmul through the bias add and the leaky ReLU into the
# next layer. Hidden products of other widths than those above give the
# bits of a whole part on every block of 2 rows or more; a 1-row product
# (numpy's gemv) does not, so no block is a short tail.
_BLOCK_ROWS = 256
# Adam's decay rates and guard: the defaults of Kingma & Ba (ICLR 2015)
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    """Raised when a non-finite loss appears during training."""


class _EvidentialHead:
    """The method: two logits of evidence; the output is alpha = evidence + 1."""

    width = 2
    tag = "edl"

    def output(self, logits):
        return ev.dirichlet_from_evidence(ev.evidence_from_logits(logits))

    def score(self, output):
        return ev.lr_score(output)

    def prob(self, logits):
        return ev.expected_prob(self.output(logits))[:, 1]

    def fit_loss(self, logits, y_onehot) -> float:
        return float(np.mean(ev.edl_log_loss(self.output(logits), y_onehot)))

    def loss_and_grad(self, logits, y_onehot, epoch: int):
        if np.isnan(logits).any():  # evidence_from_logits rejects NaN as bad data
            raise TrainingDivergedError(f"NaN logits at epoch {epoch}")
        total, grad = ev.edl_loss_and_grad(logits, y_onehot, epoch)
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

    def fit_loss(self, logits, y_onehot) -> float:
        return float(np.mean(ev.bce_loss_from_logit(logits[:, 0], y_onehot[:, 1])))

    def loss_and_grad(self, logits, y_onehot, epoch: int):
        z1 = logits[:, 0]
        y1 = y_onehot[:, 1]
        loss = float(np.mean(ev.bce_loss_from_logit(z1, y1)))
        return loss, ev.bce_grad_from_logit(z1, y1)[:, None]


# All that depends on the head kind, keyed by an Estimator's `head`. `tag`
# names the kind in extrapolate's config keys and file names; `output` is
# predict_map's per-row result, `score` its likelihood ratio, `prob` P(OOD)
# per row; `loss_and_grad` gives the mean loss and the logit gradient. Heads
# look `ev` functions up when they run, so that a tracer which replaces them
# sees every call.
HEADS = {"evidential": _EvidentialHead(), "sigmoid": _SigmoidHead()}


@dataclass
class Estimator:
    layer_dims: list[int]
    weights: list[np.ndarray]  # (fan_in, fan_out) per layer
    biases: list[np.ndarray]
    slope: float = 0.01
    head: str = "evidential"


@dataclass
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 2e-5
    batch_size: int = 1024
    seed: int = 0
    early_stopping: bool = False
    patience: int = 5
    val_fraction: float = 0.1


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


def _check_architecture(dims: list[int], head: str, slope: float) -> None:
    if head not in HEADS:
        raise ValueError(f"unknown head kind: {head!r}")
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"invalid layer dims: {dims}")
    if dims[-1] != HEADS[head].width:
        raise ValueError(
            f"final width {dims[-1]} incompatible with head {head!r} "
            f"(needs {HEADS[head].width})"
        )
    # the activation kernels compute leaky ReLU as max(z, slope * z)
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky-ReLU slope must lie in [0, 1], got {slope!r}")


def init_model(
    layer_dims, seed: int, head: str = "evidential", slope: float = 0.01
) -> Estimator:
    """Seeded fan-in-scaled uniform init: W ~ U(-sqrt(6/fan_in), +...), b = 0."""
    dims = [int(d) for d in layer_dims]
    _check_architecture(dims, head, slope)
    rng = Rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform_range(fan_in * fan_out, -bound, bound)
        weights.append(w.reshape(fan_in, fan_out))
        biases.append(np.zeros(fan_out))
    return Estimator(dims, weights, biases, slope=slope, head=head)


def _leaky(z: np.ndarray, slope: float, out=None) -> np.ndarray:
    """max(z, slope * z), written into `out` (not z itself) when given."""
    h = np.multiply(z, slope, out=out)
    return np.maximum(z, h, out=h)


def _leaky_grad(z: np.ndarray, slope: float, out=None) -> np.ndarray:
    """The float mask (z > 0) * (1 - slope) + slope; `out` may be z."""
    mask = np.greater(z, 0.0, out=out).astype(np.float64, copy=False)
    mask *= 1.0 - slope
    mask += slope
    return mask


def _cuts(n: int, most: int) -> list[int]:
    """Bounds of near-equal pieces of at most `most` rows that cover n rows,
    every inner bound on a multiple of _FORWARD_ALIGN rows."""
    units = -(-n // _FORWARD_ALIGN)
    pieces = max(1, -(-units // (most // _FORWARD_ALIGN)))
    return [min(n, i * units // pieces * _FORWARD_ALIGN) for i in range(pieces + 1)]


def _workers() -> int:
    """How many threads `forward` runs a part's hidden-layer blocks on: the
    cores that OpenBLAS's own threads leave idle, at least 1.

    OpenBLAS takes its thread count from the first positive integer in
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, and uses
    every core when none is set. Threads of both kinds on the same cores
    only slow each other down.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    blas = cores
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:  # unset or not a number
            continue
        if threads > 0:
            blas = threads
            break
    return max(1, cores // blas)


def _hidden_rows(model: Estimator, x, bounds, blocks, scratch, last) -> None:
    """Write the last hidden layer's activations of rows bounds[0] to
    bounds[-1] of x into the same rows of `last`.

    The rows go through every hidden layer one block at a time, from each
    bound to the next. `blocks` holds one block of each hidden layer but the
    last, and `scratch` one block's slope * z.
    """
    layers = list(zip(model.weights[:-1], model.biases[:-1]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        h = x[lo:hi]
        for (w, b), buf in zip(layers, [*blocks, last[lo:]]):
            z = np.matmul(h, w, out=buf[: hi - lo])
            z += b
            t = np.multiply(z, model.slope, out=scratch[: z.size].reshape(z.shape))
            h = np.maximum(z, t, out=z)


def forward(model: Estimator, features) -> np.ndarray:
    """Row-wise logits for an (N, D) batch of feature vectors.

    More than _FORWARD_ROWS rows are split into near-equal parts of at most
    _FORWARD_ROWS rows each. Within a part the hidden layers run block by
    block, and the last layer runs over the whole part's last hidden
    activation. The blocks of a part are shared out in near-equal runs of
    consecutive blocks, one run per worker (`_workers`): the calling thread
    runs the first, a thread pool the others, each with its own buffers.
    A block's bits do not depend on the thread that computes it. The
    buffers are allocated once per call.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.layer_dims[0]:
        raise ValueError(
            f"forward: expected (N, {model.layer_dims[0]}) input, got {x.shape}"
        )
    n = x.shape[0]
    parts = _cuts(n, _FORWARD_ROWS)
    rows = max(np.diff(parts))
    block = min(rows, _BLOCK_ROWS)
    hidden_dims = model.layer_dims[1:-1]
    workers = min(_workers(), len(_cuts(rows, _BLOCK_ROWS)) - 1) if hidden_dims else 1
    buffers = [
        (
            [np.empty((block, d)) for d in hidden_dims[:-1]],
            np.empty(block * max(hidden_dims, default=0)),
        )
        for _ in range(workers)
    ]
    last = np.empty((rows, hidden_dims[-1])) if hidden_dims else None
    logits = np.empty((n, model.layer_dims[-1]))
    pool = None
    if workers > 1:  # imported here: it adds some 10 ms to importing ulre
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers - 1)
    try:
        for start, stop in zip(parts[:-1], parts[1:]):
            h = x[start:stop]
            if hidden_dims:
                bounds = _cuts(stop - start, _BLOCK_ROWS)
                n_blocks = len(bounds) - 1
                k = min(workers, n_blocks)
                ends = [i * n_blocks // k for i in range(k + 1)]
                runs = [bounds[a : b + 1] for a, b in zip(ends[:-1], ends[1:])]
                futures = [
                    pool.submit(_hidden_rows, model, h, run, *bufs, last)
                    for run, bufs in zip(runs[1:], buffers[1:])
                ]
                _hidden_rows(model, h, runs[0], *buffers[0], last)
                for future in futures:
                    future.result()
                h = last[: stop - start]
            np.matmul(h, model.weights[-1], out=logits[start:stop])
    finally:
        if pool is not None:
            pool.shutdown()
    logits += model.biases[-1]
    return logits


def _views(flat: np.ndarray, layer_dims: list[int]):
    """The (weights, biases) lists of a network of `layer_dims`, as views
    into one flat vector: all weights in layer order, then all biases."""
    shapes = list(zip(layer_dims[:-1], layer_dims[1:]))
    ends = np.cumsum([a * b for a, b in shapes] + layer_dims[1:])
    parts = np.split(flat, ends[:-1])
    return [p.reshape(s) for p, s in zip(parts, shapes)], parts[len(shapes) :]


class _Step:
    """Mean loss and parameter gradients of one mini-batch of up to `rows`
    rows, computed in buffers allocated once.

    Per hidden layer it keeps the pre-activation z and the activation h;
    the backward pass turns z into the leaky-ReLU gradient mask and writes
    the layer's delta over h once the weight gradient has read it. Each
    call overwrites the flat `grad` (see `_views`) and returns its views.
    """

    def __init__(self, model: Estimator, rows: int):
        self.model = model
        self.z = [np.empty((rows, d)) for d in model.layer_dims[1:]]
        self.h = [np.empty((rows, d)) for d in model.layer_dims[1:-1]]
        self.grad = np.empty(sum(p.size for p in model.weights + model.biases))
        self.grads_w, self.grads_b = _views(self.grad, model.layer_dims)

    def __call__(self, xb, y_onehot, epoch: int):
        model = self.model
        slope = model.slope
        n = xb.shape[0]
        last = len(model.weights) - 1
        h = xb
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = np.matmul(h, w, out=self.z[i][:n])
            z += b
            if i < last:
                h = _leaky(z, slope, out=self.h[i][:n])
        loss, delta = HEADS[model.head].loss_and_grad(z, y_onehot, epoch)
        delta /= n
        for i in range(last, -1, -1):
            h = self.h[i - 1][:n] if i > 0 else xb
            np.matmul(h.T, delta, out=self.grads_w[i])
            np.sum(delta, axis=0, out=self.grads_b[i])
            if i > 0:
                z = self.z[i - 1][:n]
                mask = _leaky_grad(z, slope, out=z)
                delta = np.matmul(delta, model.weights[i].T, out=h)
                delta *= mask
        return loss, self.grads_w, self.grads_b


def _fit_loss(model: Estimator, x, y_onehot) -> float:
    """Classification-fit loss only (no regularizer): the validation metric.

    The annealed KL weight changes across epochs, which would make total
    losses incomparable between epochs; the fit term is the stable yardstick.
    """
    return HEADS[model.head].fit_loss(forward(model, x), y_onehot)


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
    returned is the one passed in, its parameters now views into one vector.
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
    y_onehot = ev.one_hot(y)

    rng = Rng(cfg.seed)
    n = x.shape[0]
    if cfg.early_stopping:
        if not 0.0 < cfg.val_fraction < 1.0:
            raise ValueError("train: val_fraction must be in (0, 1)")
        split = rng.permutation(n)
        n_val = max(1, int(round(n * cfg.val_fraction)))
        val_idx, train_idx = split[:n_val], split[n_val:]
        x_train, y_train = x[train_idx], y_onehot[train_idx]
        x_val, y_val = x[val_idx], y_onehot[val_idx]
    else:
        n_val = 0
        x_train, y_train = x, y_onehot
    n_train = x_train.shape[0]

    report = TrainReport(n_train=n_train, n_val=n_val)
    step = _Step(model, cfg.batch_size)
    params = np.empty_like(step.grad)
    weights, biases = _views(params, model.layer_dims)
    for view, p in zip(weights + biases, model.weights + model.biases):
        view[...] = p
    model.weights, model.biases = weights, biases
    opt = _Adam(params.size, cfg.learning_rate)
    best_val = np.inf
    best_params = None
    since_best = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, _, _ = step(x_train[batch], y_train[batch], epoch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, "
                    f"batch {start // cfg.batch_size} (loss={loss:.6g})"
                )
            opt.step(params, step.grad)
            epoch_loss += loss * len(batch)
        report.train_loss.append(epoch_loss / n_train)
        report.lambdas.append(ev.lambda_schedule(epoch))
        report.epochs_run = epoch + 1

        if cfg.early_stopping:
            val = _fit_loss(model, x_val, y_val)
            report.val_loss.append(val)
            if val < best_val:
                best_val = val
                best_params = params.copy()
                report.best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    report.stopped_epoch = epoch
                    break

    if best_params is not None:
        params[...] = best_params
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
        "slope": model.slope,
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
    from .data import DataError, read_tensor_file

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
    dims, head, slope = (header.get(k) for k in ("layer_dims", "head", "slope"))
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise DataError(f"{path}: checkpoint 'layer_dims' must be a list of integers")
    if not isinstance(head, str):
        raise DataError(f"{path}: checkpoint 'head' must be a string")
    if type(slope) not in (int, float):
        raise DataError(f"{path}: checkpoint 'slope' must be a number")
    try:
        _check_architecture(dims, head, slope)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        for key, shape, store in (
            (f"w{i}", (fan_in, fan_out), weights),
            (f"b{i}", (fan_out,), biases),
        ):
            if key not in records:
                raise DataError(f"{path}: checkpoint is missing record {key!r}")
            arr = records[key]
            if arr.shape != shape:
                raise DataError(
                    f"{path}: record {key!r} has shape {arr.shape}, "
                    f"expected {shape}"
                )
            store.append(np.asarray(arr, dtype=np.float64))
    return Estimator(dims, weights, biases, slope=float(slope), head=head)
