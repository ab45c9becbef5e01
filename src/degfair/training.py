"""End-to-end training: initialization, epoch loop, selection, serialization.

``train`` runs the full procedure: contrast groups over all nodes, one
forward/backward/Adam step per epoch on the training nodes, best-epoch
selection by validation accuracy with patience-based early stopping.

``model="base"`` trains the plain base GNN (classification loss plus weight
regularization only); ``model="degfair"`` trains the debiased model with
the full objective.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from degfair.autodiff import Tape, Tensor, _indices, no_grad
from degfair.graphs import Graph, NodeSplit, mean_degree, partition_contrast
from degfair.layers import (
    GatHead,
    LayerParams,
    Linear,
    ModelParams,
    base_forward,
    build_operators,
    forward_layer,
    input_features,
    model_forward,
)
from degfair.metrics import accuracy
from degfair.objective import (
    LossBreakdown,
    classification_loss,
    debias_constraint,
    fairness_loss,
    film_constraint,
    total_loss,
    weight_regularizer,
)
from degfair.optim import Adam

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "TrainingDivergedError",
    "ModelFileError",
    "PRESETS",
    "check_integer",
    "check_finite_real",
    "init_params",
    "train",
    "predict",
    "save_model",
    "load_model",
]


class TrainingDivergedError(RuntimeError):
    """The training loss became non-finite."""


class ModelFileError(ValueError):
    """A model file is malformed, truncated, or has the wrong version."""


_KINDS = ("gcn", "sage", "gat")
_MODELS = ("degfair", "base")
_INT_FIELDS = ("hidden_dim", "num_layers", "r_context", "r_eval", "epochs", "patience",
               "seed", "gat_heads")


def _finite_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def check_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer: ``numbers.Integral``, not ``bool``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_finite_real(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a finite real number, not ``bool``."""
    if not _finite_real(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass
class TrainConfig:
    """Every knob of one training run.

    ``threshold`` is the degree split point for the structural contrast;
    the string ``"mean"`` resolves to the graph's mean one-hop degree.
    ``eps`` weights the debiasing contexts, ``mu`` the group-parity loss,
    and ``lam`` the constraint block (cross-context + modulation + weight
    norms).
    """

    base_gnn: str = "gcn"
    model: str = "degfair"
    hidden_dim: int = 32
    num_layers: int = 2
    r_context: int = 1
    r_eval: int = 1
    threshold: float | str = "mean"
    eps: float = 1.0
    mu: float = 0.001
    lam: float = 0.0001
    lr: float = 0.01
    dropout: float = 0.5
    dropout_input: bool = False
    feature_norm: str = "l2"
    epochs: int = 1000
    patience: int = 100
    seed: int = 0
    gat_heads: int = 1

    def __post_init__(self):
        for name in _INT_FIELDS:
            check_integer(name, getattr(self, name))
        if not isinstance(self.dropout_input, bool):
            raise ValueError(f"dropout_input must be true or false, got {self.dropout_input!r}")
        for name in ("eps", "mu", "lam"):
            check_finite_real(name, getattr(self, name))
        # Any step size >= 0 is allowed, inf too: divergence is reported, not refused.
        if not isinstance(self.lr, numbers.Real) or isinstance(self.lr, bool) or not self.lr >= 0:
            raise ValueError(f"lr must be a number >= 0 (not NaN), got {self.lr!r}")
        if self.threshold != "mean" and not _finite_real(self.threshold):
            raise ValueError(f'threshold must be a finite number or "mean", got {self.threshold!r}')
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.base_gnn not in _KINDS:
            raise ValueError(f"base_gnn must be one of {_KINDS}, got {self.base_gnn!r}")
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.feature_norm not in ("none", "l2"):
            raise ValueError(f'feature_norm must be "none" or "l2", got {self.feature_norm!r}')
        if self.eps < 0 or self.mu < 0 or self.lam < 0:
            raise ValueError("eps, mu, and lam must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.num_layers < 1 or self.hidden_dim < 1 or self.gat_heads < 1:
            raise ValueError("num_layers, hidden_dim, and gat_heads must be >= 1")
        if self.r_context < 1 or self.r_eval < 1:
            raise ValueError("r_context and r_eval must be >= 1")
        for f in dataclasses.fields(self):  # numpy scalars become Python ones, for the model file
            value = getattr(self, f.name)
            if isinstance(value, np.generic):
                setattr(self, f.name, value.item())

    def resolve_threshold(self, g: Graph) -> float:
        return mean_degree(g) if self.threshold == "mean" else float(self.threshold)


# Per-dataset defaults; lam=0.0001, lr=0.01, dropout=0.5 are shared.
PRESETS: dict[str, dict] = {
    "chameleon": {"hidden_dim": 32, "eps": 1.0, "mu": 0.001},
    "squirrel": {"hidden_dim": 32, "eps": 0.01, "mu": 0.0001},
    "emnlp": {"hidden_dim": 16, "eps": 0.001, "mu": 0.01},
    # Desk-scale planted-bias generator (n=300, attach=2, label_bias=0.9,
    # feat_dim=8). The parity weight is large because the classification
    # term is a sum over training nodes while the parity term is bounded
    # by 2; input dropout keeps the backbone from memorizing noise.
    "synth": {
        "hidden_dim": 8,
        "eps": 0.25,
        "mu": 500.0,
        "epochs": 300,
        "patience": 300,
        "dropout_input": True,
    },
}


@dataclass
class TrainHistory:
    """Per-epoch records plus the index of the selected epoch.

    ``epoch_seconds[e]`` covers epoch e's step and its eval, whose layer 0
    at the new parameters is also the start of epoch e+1's training forward.
    """

    losses: list[LossBreakdown] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = 0


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


def _zeros(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)), requires_grad=True)


def init_params(
    config: TrainConfig, in_dim: int, num_classes: int, rng: np.random.Generator
) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic under the rng.

    Base-aggregator weights are drawn before any debiasing parameters, so a
    base model and a debiased model initialized from the same seed share
    identical aggregator weights. The scale/shift generator nets start at
    zero (modulation is exactly identity at step 0), the usual convention
    for feature-wise conditioning layers.
    """
    dims = [in_dim] + [config.hidden_dim] * (config.num_layers - 1) + [num_classes]
    omegas = []
    for l in range(config.num_layers):
        d_in, d_out = dims[l], dims[l + 1]
        if config.base_gnn == "gcn":
            omega = {"w": _glorot(rng, d_in, d_out)}
        elif config.base_gnn == "sage":
            omega = {
                "w_self": _glorot(rng, d_in, d_out),
                "w_neigh": _glorot(rng, d_in, d_out),
            }
        else:
            omega = {
                "heads": [
                    GatHead(
                        w=_glorot(rng, d_in, d_out),
                        att_self=_glorot(rng, d_out, 1),
                        att_nbr=_glorot(rng, d_out, 1),
                    )
                    for _ in range(config.gat_heads)
                ]
            }
        omega["b"] = _zeros(1, d_out)
        omegas.append(omega)

    layers = []
    for l in range(config.num_layers):
        d_in, d_out = dims[l], dims[l + 1]
        enc = d_out + d_out % 2  # the degree encoding's width is even
        layers.append(
            LayerParams(
                omega=omegas[l],
                debias_low=Linear(_glorot(rng, d_in, d_out), _zeros(1, d_out)),
                debias_high=Linear(_glorot(rng, d_in, d_out), _zeros(1, d_out)),
                film_scale=Linear(_zeros(enc, d_out), _zeros(1, d_out)),
                film_shift=Linear(_zeros(enc, d_out), _zeros(1, d_out)),
            )
        )
    return ModelParams(kind=config.base_gnn, layers=layers)


def _setup(g: Graph, config: TrainConfig):
    groups = partition_contrast(g.degrees.astype(np.float64), config.resolve_threshold(g))
    ops = build_operators(g, config.r_context, groups, config.base_gnn)
    return ops, input_features(g, config.feature_norm)


def _forward(g, params: ModelParams, config: TrainConfig, ops, feats, layer0=None, **dropout_args):
    """The configured model's forward from ``layer0``: trace (None for base), probabilities.

    Without ``dropout_args`` it is the eval-mode forward.
    """
    if config.model == "base":
        return None, base_forward(g, params, ops, features=feats, layer0=layer0, **dropout_args)
    trace = model_forward(
        g, params, ops, eps=config.eps, features=feats, layer0=layer0, **dropout_args
    )
    return trace, trace.probs


def train(
    g: Graph, split: NodeSplit, config: TrainConfig
) -> tuple[ModelParams, TrainHistory]:
    """Run the full training procedure; returns best-epoch parameters.

    Contrast groups are formed over all nodes (the aggregation needs a
    group for every node); the parity and cross-context losses use their
    intersections with the training set. Deterministic under the config
    seed.
    """
    ops, feats = _setup(g, config)
    train_mask = np.zeros(g.num_nodes, dtype=bool)
    train_mask[_indices(split.train, g.num_nodes, "split.train")] = True
    low_tr, high_tr = (np.flatnonzero(train_mask & (ops.group == k)) for k in (0, 1))

    rng = np.random.default_rng(config.seed)
    params = init_params(config, g.feature_dim, g.num_classes, rng)
    fair = config.model == "degfair"
    opt = Adam(params.all_tensors(include_debias=fair), lr=config.lr)
    forward_args = dict(
        dropout_rate=config.dropout, rng=rng, dropout_input=config.dropout_input
    )
    zero = Tensor([[0.0]])
    # Layer 0 on feats is computed once after each step. The eval forward
    # starts from it; when the input is not dropped and another epoch
    # follows, so does the next training forward, on whose tape it is then
    # recorded. Its context embedding depends on no parameter and is kept
    # from its first computation on feats.
    layer0 = ctx0 = None
    tape = Tape()

    history = TrainHistory()
    best_val = -1.0  # epoch 0 always beats this, so best gets set
    since_best = 0

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        opt.zero_grad()
        with tape:
            trace, probs = _forward(g, params, config, ops, feats, layer0, **forward_args)
            if fair and not config.dropout_input:
                ctx0 = trace.layers[0].ctx
            l1 = classification_loss(probs, g.labels, split.train)
            # A term whose coefficient is 0 is still reported, but evaluated
            # off the tape, so it costs no backward time. The base model has
            # no parity or debiasing terms; they enter as constant zeros.
            with no_grad() if config.mu == 0.0 else contextlib.nullcontext():
                l2 = fairness_loss(probs, low_tr, high_tr) if fair else zero
            with no_grad() if config.lam == 0.0 else contextlib.nullcontext():
                l3 = debias_constraint(trace, low_tr, high_tr) if fair else zero
                l4 = film_constraint(trace, split.train) if fair else zero
                omega_reg = weight_regularizer(params, include_debias=fair)
            total, breakdown = total_loss(
                l1, l2, l3, l4, omega_reg, config.mu, config.lam
            )
        if not np.isfinite(breakdown.total):
            terms = ("l1", "l2", "l3", "l4", "omega_reg")
            bad = [n for n in terms if not np.isfinite(getattr(breakdown, n))]
            cause = (
                f"first non-finite term {bad[0]}={getattr(breakdown, bad[0])}"
                if bad
                else "every term is finite, their weighted sum is not"
            )
            raise TrainingDivergedError(
                f"non-finite loss {breakdown.total} at epoch {epoch}: {cause}"
            )
        tape.backward(total)
        opt.step()
        if not np.isfinite(opt.data).all():
            name = next(n for n, t in params.named_tensors() if not np.isfinite(t.data).all())
            raise TrainingDivergedError(
                f"parameter {name} is non-finite after the step at epoch {epoch}"
            )

        tape = Tape()
        reuse = not config.dropout_input and epoch + 1 < config.epochs
        with tape if reuse else contextlib.nullcontext():
            layer0 = forward_layer(feats, ops, params, 0, config.eps if fair else None, ctx0)
        ctx0 = layer0.ctx
        preds = np.argmax(_forward(g, params, config, ops, feats, layer0)[1].data, axis=1)
        tr_acc = accuracy(preds, g.labels, split.train)
        va_acc = accuracy(preds, g.labels, split.val) if split.val.size else tr_acc
        stop = not va_acc > best_val and since_best + 1 >= config.patience
        if stop or not reuse:  # no training forward reads it: freed in this epoch's time
            layer0, tape = None, Tape()
        history.losses.append(breakdown)
        history.train_acc.append(tr_acc)
        history.val_acc.append(va_acc)
        history.epoch_seconds.append(time.perf_counter() - t0)

        if va_acc > best_val:
            best_val = va_acc
            history.best_epoch = epoch
            best = opt.data.copy()
            since_best = 0
        else:
            since_best += 1
            if stop:
                break

    opt.data[...] = best
    return params, history


def predict(params: ModelParams, g: Graph, config: TrainConfig) -> np.ndarray:
    """Argmax class per node, dropout disabled; ties go to the lower class."""
    ops, feats = _setup(g, config)
    return np.argmax(_forward(g, params, config, ops, feats)[1].data, axis=1)


# ---------------------------------------------------------- model file format

_MAGIC = "degfair-model v1"


def save_model(params: ModelParams, config: TrainConfig, path: str) -> None:
    """Self-describing text serialization; round-trips bit-exactly.

    Values are written with 17 significant digits, which reproduces the
    fp64 bit pattern exactly on load.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MAGIC + "\n")
        fh.write("config " + json.dumps(dataclasses.asdict(config), sort_keys=True) + "\n")
        for name, t in params.named_tensors():
            rows, cols = t.shape
            fh.write(f"tensor {name} {rows} {cols}\n")
            for row in t.data:
                fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
        fh.write("end\n")


def load_model(path: str) -> tuple[ModelParams, TrainConfig]:
    """Load a model file; raises ModelFileError on corruption or mismatch."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    if not lines or lines[0] != _MAGIC:
        raise ModelFileError(
            f"{path}: not a {_MAGIC!r} file"
            + (f" (found {lines[0]!r})" if lines else " (empty)")
        )
    if not lines or lines[-1] != "end":
        raise ModelFileError(f"{path}: truncated model file (missing end marker)")
    if len(lines) < 2 or not lines[1].startswith("config "):
        raise ModelFileError(f"{path}: missing config record")
    try:
        config = TrainConfig(**json.loads(lines[1][len("config ") :]))
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: bad config record: {exc}") from None

    tensors: dict[str, np.ndarray] = {}
    i = 2
    while i < len(lines) - 1:
        header = lines[i].split()
        if len(header) != 4 or header[0] != "tensor":
            raise ModelFileError(f"{path}: bad tensor header at line {i + 1}")
        name = header[1]
        if name in tensors:
            raise ModelFileError(f"{path}: tensor {name} appears twice (line {i + 1})")
        try:
            rows, cols = int(header[2]), int(header[3])
        except ValueError:
            raise ModelFileError(
                f"{path}: tensor {name} has a non-integer shape at line {i + 1}"
            ) from None
        block = lines[i + 1 : min(i + 1 + rows, len(lines) - 1)]
        if len(block) < rows:
            raise ModelFileError(f"{path}: truncated tensor {name}")
        try:
            data = np.array([[float(x) for x in row.split()] for row in block])
        except ValueError:
            raise ModelFileError(f"{path}: non-numeric data in tensor {name}") from None
        if data.shape != (rows, cols):
            raise ModelFileError(
                f"{path}: tensor {name} has shape {data.shape}, header says {(rows, cols)}"
            )
        tensors[name] = data
        i += 1 + rows

    def shape_of(name: str) -> tuple[int, int]:
        if name not in tensors:
            raise ModelFileError(f"{path}: missing tensor {name}")
        return tensors[name].shape

    # The config fixes the structure; the input and output widths come from
    # the first and last layer's debiasing weights. The config fields that
    # size the structure are checked against the file before it is built,
    # so a corrupt config cannot make the build allocate more than the file
    # holds. The initial values are all overwritten by name.
    in_dim, width = shape_of("layer0.debias_low.w")
    num_classes = shape_of(f"layer{config.num_layers - 1}.debias_low.w")[1]
    if config.num_layers > 1 and width != config.hidden_dim:
        raise ModelFileError(
            f"{path}: tensor layer0.debias_low.w has shape {(in_dim, width)}, "
            f"the config needs {(in_dim, config.hidden_dim)}"
        )
    if config.base_gnn == "gat":
        shape_of(f"layer0.omega.head{config.gat_heads - 1}.w")
    params = init_params(config, in_dim, num_classes, np.random.default_rng(0))
    for name, t in params.named_tensors():
        data = tensors.pop(name, None)
        if data is None:
            raise ModelFileError(f"{path}: missing tensor {name}")
        if data.shape != t.shape:
            raise ModelFileError(
                f"{path}: tensor {name} has shape {data.shape}, "
                f"the config needs {t.shape}"
            )
        t.data = data
    if tensors:
        raise ModelFileError(f"{path}: unexpected extra tensors {sorted(tensors)}")
    return params, config
