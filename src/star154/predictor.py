"""Feedforward network that inverts the performance model.

Three fixed prediction tasks, each mapping four known quantities to a fifth:
  n:   (r, L, PS, TVS) -> N
  ps:  (r, L, N, TVS)  -> PS
  tvs: (r, L, PS, N)   -> TVS

Architecture: INPUTS = 4 inputs, three sigmoid hidden layers, one linear output.
Training is plain mini-batch gradient descent on mean squared error, written
out by hand so every gradient can be checked against finite differences.
Inputs and target are min-max scaled to [0.1, 0.9]; the scaling constants
live inside the saved model file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import TASKS  # re-exported: the task table lives in core

# default hidden sizes per task; the small variant keeps test runs quick
DEFAULT_HIDDEN: dict[str, tuple[int, int, int]] = {
    "n": (100, 80, 50),
    "ps": (80, 50, 30),
    "tvs": (80, 50, 30),
}
DESK_HIDDEN: tuple[int, int, int] = (32, 24, 16)

INPUTS = 4  # every task in TASKS maps four known quantities to one
_NORM_LO, _NORM_HI = 0.1, 0.9


@dataclass(frozen=True, slots=True)
class MLPArchitecture:
    hidden: tuple[int, int, int]

    def __post_init__(self):
        if len(self.hidden) != 3 or any(h < 1 for h in self.hidden):
            raise ValueError(f"need 3 hidden layer sizes, each >= 1, got {self.hidden}")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (INPUTS, *self.hidden, 1)

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _layer_views(arch: MLPArchitecture, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight matrices and bias vectors as views of one flat array.

    The layout is the model file's: each layer's (fan_in, fan_out) weights
    row-major, layer by layer, then each layer's biases.
    """
    sizes = arch.layer_sizes
    weights, biases = [], []
    pos = 0  # walks the layout to n_params, so the check below needs no second count
    if flat.ndim == 1:  # slicing another shape would fail before the check
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            weights.append(flat[pos : pos + fan_in * fan_out])
            pos += fan_in * fan_out
        for fan_out in sizes[1:]:
            biases.append(flat[pos : pos + fan_out])
            pos += fan_out
    if flat.shape != (pos,):
        raise ValueError(f"expected {arch.n_params} parameters, got shape {flat.shape}")
    weights = [w.reshape(fan_in, fan_out) for w, fan_in, fan_out in zip(weights, sizes, sizes[1:])]
    return weights, biases


@dataclass
class MLPModel:
    arch: MLPArchitecture
    params: np.ndarray  # every weight and bias, float64, in model-file order
    in_min: np.ndarray
    in_max: np.ndarray
    out_min: float
    out_max: float
    weights: list[np.ndarray] = field(init=False)  # weights[l]: (fan_in, fan_out) view of params
    biases: list[np.ndarray] = field(init=False)  # biases[l]: (fan_out,) view of params

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.arch, self.params)


@dataclass(frozen=True, slots=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    target_mse: float | None = None  # early stop on training MSE
    validation_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:  # NaN too
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation fraction must be in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, slots=True)
class EvalReport:
    R: float  # Pearson correlation, computed on denormalized values
    MSE: float  # mean squared error in normalized units
    n: int


class DivergenceDetected(RuntimeError):
    """Training loss became non-finite."""


def init_model(arch: MLPArchitecture, seed: int) -> MLPModel:
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] weights, zero biases."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    model = MLPModel(
        arch=arch, params=np.zeros(arch.n_params),
        in_min=np.zeros(INPUTS), in_max=np.ones(INPUTS),
        out_min=0.0, out_max=1.0,
    )
    for W in model.weights:
        bound = 1.0 / math.sqrt(W.shape[0])
        W[:] = rng.uniform(-bound, bound, size=W.shape)
    return model


def normalize_inputs(model: MLPModel, X: np.ndarray) -> np.ndarray:
    span = model.in_max - model.in_min
    return _NORM_LO + (_NORM_HI - _NORM_LO) * (X - model.in_min) / span


def normalize_target(model: MLPModel, y: np.ndarray) -> np.ndarray:
    return _NORM_LO + (_NORM_HI - _NORM_LO) * (y - model.out_min) / (model.out_max - model.out_min)


def denormalize_target(model: MLPModel, yn: np.ndarray | float) -> np.ndarray | float:
    return model.out_min + (yn - _NORM_LO) * (model.out_max - model.out_min) / (_NORM_HI - _NORM_LO)


def _forward_normalized(model: MLPModel, Xn: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass on normalized inputs; returns output and all activations."""
    acts = [Xn]
    h = Xn
    last = len(model.weights) - 1
    for l, (W, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ W
        h += b
        if l != last:
            # sigmoid in place, as 0.5 * (1 + tanh(h / 2)): no overflow for finite h
            h *= 0.5
            np.tanh(h, out=h)
            h += 1.0
            h *= 0.5
        acts.append(h)
    return h, acts


def forward(model: MLPModel, x) -> float:
    """Denormalized prediction for one 4-component input.

    An input far outside the training range can overflow the arithmetic; the
    answer is then inf or nan, returned without a numpy warning.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != INPUTS:
        raise ValueError(f"expected {INPUTS} inputs, got {x.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        yn, _ = _forward_normalized(model, normalize_inputs(model, x))
    return denormalize_target(model, float(yn[0]))


def outside_training_range(model: MLPModel, x) -> list[tuple[int, float, float, float]]:
    """(index, value, low, high) of each input outside the model's training range.

    The range of each input is the min-max of the training split, as stored
    in the model file; NaN counts as outside.
    """
    bounds = zip(model.in_min.tolist(), model.in_max.tolist())
    return [(j, v, lo, hi) for j, (v, (lo, hi)) in enumerate(zip(x, bounds))
            if not lo <= v <= hi]


def _gradients(model: MLPModel, Xn: np.ndarray, yn: np.ndarray, grad_w, grad_b) -> None:
    """Backprop gradient of mean squared error over the batch, written into
    grad_w and grad_b: the _layer_views of one array shaped like model.params."""
    out, acts = _forward_normalized(model, Xn)
    # d(MSE)/d(out) with MSE = mean((out - y)^2), in place: 2.0 * (out - y) / n
    delta = out - yn
    delta *= 2.0
    delta /= Xn.shape[0]
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[l].T, delta, out=grad_w[l])
        np.add.reduce(delta, axis=0, out=grad_b[l])  # delta.sum without its Python wrapper
        if l > 0:
            h = acts[l]  # sigmoid activations of layer l
            # (delta @ W.T) * h * (1 - h), multiplied in that order in place
            delta = delta @ model.weights[l].T
            delta *= h
            delta *= 1.0 - h


def _mse(model: MLPModel, Xn: np.ndarray, yn: np.ndarray) -> float:
    out, _ = _forward_normalized(model, Xn)
    # overflow to inf is fine here: it is exactly what divergence detection
    # looks for
    with np.errstate(over="ignore"):
        return float(np.mean((out - yn) ** 2))


def fit_normalization(model: MLPModel, X: np.ndarray, y: np.ndarray) -> None:
    """Store min-max ranges of the training split inside the model."""
    in_min = X.min(axis=0)
    in_max = X.max(axis=0)
    span = in_max - in_min
    if np.any(span <= 0):
        raise ValueError("a feature is constant; cannot scale it")
    if y.max() <= y.min():
        raise ValueError("target is constant; cannot scale it")
    model.in_min, model.in_max = in_min, in_max
    model.out_min, model.out_max = float(y.min()), float(y.max())


def train(
    model: MLPModel,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    on_epoch=None,
) -> tuple[MLPModel, EvalReport]:
    """Mini-batch gradient descent; returns the model and a held-out report.

    on_epoch, if given, is called as on_epoch(epoch, training_mse) after
    every epoch, with the MSE measured on the full training split.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.ndim != 2 or X.shape[1] != INPUTS or y.shape != X.shape[:1]:
        raise ValueError(f"X has shape {X.shape} and y {y.shape}; need (n, {INPUTS}) and (n,)")
    if len(X) < 10:
        raise ValueError(f"need at least 10 usable rows, got {len(X)}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite value in the training data")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, 1))))
    order = rng.permutation(len(X))
    n_val = int(round(cfg.validation_fraction * len(X)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) < 2:
        raise ValueError(f"{len(train_idx)} training and {n_val} validation rows: need 2 to scale")
    if n_val == 1:
        raise ValueError("1 validation row: need 0 or at least 2 to correlate")
    Xt, yt = X[train_idx], y[train_idx]
    fit_normalization(model, Xt, yt)
    Xn = normalize_inputs(model, Xt)
    yn = normalize_target(model, yt).reshape(-1, 1)

    lr, bs = cfg.learning_rate, cfg.batch_size
    grad = np.empty_like(model.params)
    grad_w, grad_b = _layer_views(model.arch, grad)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(Xn))
        Xp, yp = Xn[perm], yn[perm]
        for lo in range(0, len(Xp), bs):
            _gradients(model, Xp[lo : lo + bs], yp[lo : lo + bs], grad_w, grad_b)
            grad *= lr  # the next _gradients rewrites every entry
            model.params -= grad
        train_mse = _mse(model, Xn, yn)
        if not math.isfinite(train_mse):
            raise DivergenceDetected(f"training loss became {train_mse} at epoch {epoch}")
        if on_epoch is not None:
            on_epoch(epoch, train_mse)
        if cfg.target_mse is not None and train_mse <= cfg.target_mse:
            break

    if n_val:
        rep = evaluate(model, X[val_idx], y[val_idx])
    else:
        rep = EvalReport(R=math.nan, MSE=train_mse, n=0)
    return model, rep


def evaluate(model: MLPModel, X: np.ndarray, y: np.ndarray) -> EvalReport:
    """Pearson R on raw values and MSE in normalized units."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if len(X) == 0:
        raise ValueError("empty evaluation set")
    out_n, _ = _forward_normalized(model, normalize_inputs(model, X))
    pred = denormalize_target(model, out_n).reshape(-1)
    if np.std(y) == 0.0 or np.std(pred) == 0.0:
        raise ValueError("correlation undefined: constant predictions or targets")
    R = float(np.corrcoef(pred, y)[0, 1])
    yn = normalize_target(model, y)
    mse = float(np.mean((out_n.reshape(-1) - yn) ** 2))
    return EvalReport(R=R, MSE=mse, n=len(y))


def gradient_check(model: MLPModel, x, y_target: float, epsilon: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences."""
    if not 0.0 < epsilon <= 1e-3:
        raise ValueError("epsilon must be in (0, 1e-3]")
    Xn = np.asarray(x, dtype=float).reshape(1, -1)
    yn = np.array([[float(y_target)]])
    grad = np.empty_like(model.params)
    _gradients(model, Xn, yn, *_layer_views(model.arch, grad))
    flat = model.params
    worst = 0.0
    for j in range(flat.size):
        keep = flat[j]
        flat[j] = keep + epsilon
        hi = _mse(model, Xn, yn)
        flat[j] = keep - epsilon
        lo = _mse(model, Xn, yn)
        flat[j] = keep
        numeric = (hi - lo) / (2.0 * epsilon)
        scale = max(abs(grad[j]) + abs(numeric), 1e-8)
        worst = max(worst, abs(grad[j] - numeric) / scale)
    return worst


def save_model(model: MLPModel, path: str) -> None:
    """Plain-text persistence, exact for every real.

    Line 1 is ``mlp-v2`` and the five layer sizes. Then one range line per
    input and one for the target, each ``min max`` as decimal reprs, and one
    line of every parameter as little-endian float64 bytes in hex (16 hex
    digits each, in the order of MLPModel.params).
    """
    sizes = model.arch.layer_sizes
    lines = ["mlp-v2 " + " ".join(str(s) for s in sizes)]
    for j in range(INPUTS):
        lines.append(f"{float(model.in_min[j])!r} {float(model.in_max[j])!r}")
    lines.append(f"{float(model.out_min)!r} {float(model.out_max)!r}")
    lines.append(model.params.astype("<f8").tobytes().hex())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> MLPModel:
    """Read a file written by save_model; a malformed file raises ValueError.

    The file is UTF-8 text whose lines end in \\n, \\r\\n or a lone \\r, as
    text mode reads them. Blank lines are ignored. The header holds ``mlp-v2``
    and the five layer sizes, INPUTS first and 1 last; each range line holds
    exactly two finite reals, low below high, and the last line the parameters
    in hex, 16 digits each, every one finite.
    """
    with open(path, "rb", buffering=0) as fh:  # one read of the whole file
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not a text file") from None
    if "\r" in text:  # test first: replace() is slow to search a long line for "\r\n"
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # the parameter line is the last non-blank one: split and strip only the short lines above it
    above, _, last = text.rstrip().rpartition("\n")
    lines = list(filter(None, map(str.strip, [*above.split("\n"), last])))

    def bad(k: int, problem: str) -> ValueError:
        """The error for the k-th non-blank line, located by its number in the file."""
        line_no = [n for n, ln in enumerate(text.split("\n"), start=1) if ln.strip()][k]
        return ValueError(f"{path}:{line_no}: {problem}")

    if not lines:
        raise ValueError(f"{path}: empty model file")
    head = lines[0].split()
    if head[0] == "mlp-v1":
        raise bad(0, "model format mlp-v1 is no longer read; retrain with star154 train")
    if head[0] != "mlp-v2":
        raise bad(0, f"not a model file: header {head[0]!r}")
    try:
        sizes = [int(s) for s in head[1:]]
        if len(sizes) != 5:
            raise ValueError(f"expected 5 layer sizes, got {len(sizes)}")
        if (sizes[0], sizes[4]) != (INPUTS, 1):
            raise ValueError(f"expected {INPUTS} inputs and 1 output, got {sizes[0]} and {sizes[4]}")
        arch = MLPArchitecture(hidden=tuple(sizes[1:4]))
    except ValueError as e:
        raise bad(0, str(e)) from None
    n_params, n_ranges = arch.n_params, INPUTS + 1
    expected = 1 + n_ranges + 1  # header, ranges, parameters
    if len(lines) < expected:
        raise ValueError(f"{path}: truncated: {len(lines)} of {expected} non-blank lines")
    if len(lines) > expected:
        raise bad(expected, f"trailing data in model file: {len(lines) - expected} lines")
    ranges = []
    for k in range(1, 1 + n_ranges):
        try:
            lo, hi = map(float, lines[k].split())
        except ValueError:
            raise bad(k, f"expected a range of two reals, got {lines[k]!r}") from None
        if not -math.inf < lo < hi < math.inf:  # NaN too
            raise bad(k, f"expected a finite range with low < high, got {lines[k]!r}")
        ranges.append((lo, hi))
    k, digits = expected - 1, lines[-1]
    if len(digits) != 16 * n_params:
        raise bad(k, f"parameters: expected {16 * n_params} hex digits, got {len(digits)}")
    try:
        # fromhex skips whitespace between byte pairs, so count the bytes too
        payload = bytearray.fromhex(digits)
    except ValueError as e:
        raise bad(k, f"parameters: {e}") from None
    if len(payload) != 8 * n_params:
        raise bad(k, f"parameters: expected {8 * n_params} bytes, got {len(payload)}")
    # a bytearray keeps the array writable; astype is a no-op on little-endian hosts
    flat = np.frombuffer(payload, dtype="<f8").astype(float, copy=False)
    finite = np.isfinite(flat)
    if not finite.all():
        i = int(finite.argmin())
        raise bad(k, f"parameters: parameter {i + 1} is {float(flat[i])}, not a finite real")
    in_min, in_max = (np.array(col) for col in zip(*ranges[:-1]))
    out_min, out_max = ranges[-1]
    return MLPModel(
        arch=arch, params=flat,
        in_min=in_min, in_max=in_max, out_min=out_min, out_max=out_max,
    )
