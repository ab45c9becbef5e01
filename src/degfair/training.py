"""End-to-end training: initialization, epoch loop, selection, serialization.

``train`` runs the full procedure: contrast groups over all nodes, one
forward/backward/Adam step per epoch on the training nodes, best-epoch
selection by validation accuracy with patience-based early stopping.

``model="base"`` trains the plain base GNN (classification loss plus weight
regularization only); ``model="degfair"`` trains the debiased model with
the full objective.
"""

from __future__ import annotations

import dataclasses
import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from degfair.autodiff import Tape, Tensor, add, scalar_mul
from degfair.graphs import Graph, NodeSplit, mean_degree, partition_contrast
from degfair.layers import (
    GatHead,
    GraphOperators,
    LayerParams,
    Linear,
    ModelParams,
    _even,
    base_forward,
    build_operators,
    infer_base_probs,
    infer_probs,
    input_features,
    model_forward,
)
from degfair.metrics import accuracy
from degfair.objective import (
    LossBreakdown,
    classification_loss,
    cross_context_value,
    debias_constraint,
    fairness_loss,
    film_constraint,
    group_gap_value,
    modulation_value,
    total_loss,
    weight_norm_value,
    weight_regularizer,
)
from degfair.optim import Adam

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "TrainingDivergedError",
    "ModelFileError",
    "PRESETS",
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
        if isinstance(self.threshold, str) and self.threshold != "mean":
            raise ValueError(f'threshold must be a number or "mean", got {self.threshold!r}')

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
    """Per-epoch records plus the index of the selected epoch."""

    losses: list[LossBreakdown] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = 0


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


def _zero_bias(width: int) -> Tensor:
    return Tensor(np.zeros((1, width)), requires_grad=True)


def _linear(rng: np.random.Generator, fan_in: int, fan_out: int) -> Linear:
    return Linear(w=_glorot(rng, fan_in, fan_out), b=_zero_bias(fan_out))


def _zero_linear(fan_in: int, fan_out: int) -> Linear:
    return Linear(
        w=Tensor(np.zeros((fan_in, fan_out)), requires_grad=True),
        b=_zero_bias(fan_out),
    )


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
        omega["b"] = _zero_bias(d_out)
        omegas.append(omega)

    layers = []
    for l in range(config.num_layers):
        d_in, d_out = dims[l], dims[l + 1]
        enc = _even(d_out)
        layers.append(
            LayerParams(
                omega=omegas[l],
                debias_low=_linear(rng, d_in, d_out),
                debias_high=_linear(rng, d_in, d_out),
                film_scale=_zero_linear(enc, d_out),
                film_shift=_zero_linear(enc, d_out),
            )
        )
    return ModelParams(kind=config.base_gnn, layers=layers)


def _clone_params(params: ModelParams) -> ModelParams:
    def clone_t(t: Tensor) -> Tensor:
        return Tensor(t.data.copy(), requires_grad=t.requires_grad)

    def clone_lin(lin: Linear) -> Linear:
        return Linear(w=clone_t(lin.w), b=clone_t(lin.b))

    layers = []
    for layer in params.layers:
        if "heads" in layer.omega:
            omega = {
                "heads": [
                    GatHead(clone_t(h.w), clone_t(h.att_self), clone_t(h.att_nbr))
                    for h in layer.omega["heads"]
                ],
                "b": clone_t(layer.omega["b"]),
            }
        else:
            omega = {k: clone_t(v) for k, v in layer.omega.items()}
        layers.append(
            LayerParams(
                omega=omega,
                debias_low=clone_lin(layer.debias_low),
                debias_high=clone_lin(layer.debias_high),
                film_scale=clone_lin(layer.film_scale),
                film_shift=clone_lin(layer.film_shift),
            )
        )
    return ModelParams(kind=params.kind, layers=layers)


def _setup(g: Graph, config: TrainConfig):
    groups = partition_contrast(g.degrees.astype(np.float64), config.resolve_threshold(g))
    ops = build_operators(g, config.r_context, groups, config.base_gnn)
    feats = input_features(g, config.feature_norm)
    return groups, ops, feats


def _eval_probs(
    g: Graph,
    params: ModelParams,
    config: TrainConfig,
    ops: GraphOperators,
    feats,
) -> np.ndarray:
    if config.model == "base":
        return infer_base_probs(g, params, ops, features=feats)
    return infer_probs(g, params, ops, eps=config.eps, features=feats)


def train(
    g: Graph, split: NodeSplit, config: TrainConfig
) -> tuple[ModelParams, TrainHistory]:
    """Run the full training procedure; returns best-epoch parameters.

    Contrast groups are formed over all nodes (the aggregation needs a
    group for every node); the parity and cross-context losses use their
    intersections with the training set. Deterministic under the config
    seed.
    """
    groups, ops, feats = _setup(g, config)
    low_tr = np.intersect1d(groups.groups[0], split.train)
    high_tr = np.intersect1d(groups.groups[1], split.train)
    if config.model == "degfair" and (low_tr.size == 0 or high_tr.size == 0):
        warnings.warn(
            "a degree group has no training nodes; parity and cross-context "
            "terms are skipped",
            stacklevel=2,
        )

    rng = np.random.default_rng(config.seed)
    params = init_params(config, g.feature_dim, g.num_classes, rng)
    trainable = params.all_tensors(include_debias=config.model == "degfair")
    opt = Adam(trainable, lr=config.lr)

    history = TrainHistory()
    best_val = -1.0
    best_params = _clone_params(params)
    since_best = 0

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        opt.zero_grad()
        with Tape() as tape:
            if config.model == "degfair":
                trace = model_forward(
                    g,
                    params,
                    ops,
                    eps=config.eps,
                    dropout_rate=config.dropout,
                    train_mode=True,
                    rng=rng,
                    dropout_input=config.dropout_input,
                    features=feats,
                )
                l1 = classification_loss(trace.probs, g.labels, split.train)
                # Terms with a zero coefficient are reported but not taped,
                # so they cost no backward time.
                if config.mu != 0.0:
                    l2 = fairness_loss(trace.probs, low_tr, high_tr)
                else:
                    l2 = Tensor([[group_gap_value(trace.probs.data, low_tr, high_tr)]])
                if config.lam != 0.0:
                    l3 = debias_constraint(trace, low_tr, high_tr)
                    l4 = film_constraint(trace, split.train)
                    omega = weight_regularizer(params)
                else:
                    l3 = Tensor([[cross_context_value(trace, low_tr, high_tr)]])
                    l4 = Tensor([[modulation_value(trace, split.train)]])
                    omega = Tensor([[weight_norm_value(params)]])
                total, breakdown = total_loss(
                    l1, l2, l3, l4, omega, config.mu, config.lam
                )
            else:
                probs = base_forward(
                    g,
                    params,
                    ops,
                    dropout_rate=config.dropout,
                    train_mode=True,
                    rng=rng,
                    dropout_input=config.dropout_input,
                    features=feats,
                )
                l1 = classification_loss(probs, g.labels, split.train)
                if config.lam != 0.0:
                    omega = weight_regularizer(params, include_debias=False)
                    total = add(l1, scalar_mul(omega, config.lam))
                else:
                    omega = Tensor([[weight_norm_value(params, include_debias=False)]])
                    total = l1
                breakdown = LossBreakdown(
                    l1=l1.item(),
                    l2=0.0,
                    l3=0.0,
                    l4=0.0,
                    omega_reg=omega.item(),
                    mu=config.mu,
                    lam=config.lam,
                    total=total.item(),
                )
        if not np.isfinite(breakdown.total):
            raise TrainingDivergedError(
                f"non-finite loss {breakdown.total} at epoch {epoch}"
            )
        tape.backward(total)
        opt.step()

        probs_eval = _eval_probs(g, params, config, ops, feats)
        preds = np.argmax(probs_eval, axis=1)
        tr_acc = accuracy(preds, g.labels, split.train)
        va_acc = accuracy(preds, g.labels, split.val) if split.val.size else tr_acc
        history.losses.append(breakdown)
        history.train_acc.append(tr_acc)
        history.val_acc.append(va_acc)
        history.epoch_seconds.append(time.perf_counter() - t0)

        if va_acc > best_val:
            best_val = va_acc
            history.best_epoch = epoch
            best_params = _clone_params(params)
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    return best_params, history


def predict(params: ModelParams, g: Graph, config: TrainConfig) -> np.ndarray:
    """Argmax class per node, dropout disabled; ties go to the lower class."""
    _, ops, feats = _setup(g, config)
    probs = _eval_probs(g, params, config, ops, feats)
    return np.argmax(probs, axis=1)


# ---------------------------------------------------------- model file format

_MAGIC = "degfair-model v1"


def _named_tensors(params: ModelParams) -> list[tuple[str, Tensor]]:
    out = []
    for i, layer in enumerate(params.layers):
        p = f"layer{i}"
        if "heads" in layer.omega:
            for j, head in enumerate(layer.omega["heads"]):
                out.append((f"{p}.omega.head{j}.w", head.w))
                out.append((f"{p}.omega.head{j}.att_self", head.att_self))
                out.append((f"{p}.omega.head{j}.att_nbr", head.att_nbr))
            out.append((f"{p}.omega.b", layer.omega["b"]))
        else:
            for k in sorted(layer.omega):
                out.append((f"{p}.omega.{k}", layer.omega[k]))
        for name, lin in (
            ("debias_low", layer.debias_low),
            ("debias_high", layer.debias_high),
            ("film_scale", layer.film_scale),
            ("film_shift", layer.film_shift),
        ):
            out.append((f"{p}.{name}.w", lin.w))
            out.append((f"{p}.{name}.b", lin.b))
    return out


def save_model(params: ModelParams, config: TrainConfig, path: str) -> None:
    """Self-describing text serialization; round-trips bit-exactly.

    Values are written with 17 significant digits, which reproduces the
    fp64 bit pattern exactly on load.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MAGIC + "\n")
        fh.write("config " + json.dumps(dataclasses.asdict(config), sort_keys=True) + "\n")
        for name, t in _named_tensors(params):
            rows, cols = t.shape
            fh.write(f"tensor {name} {rows} {cols}\n")
            for row in t.data:
                fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
        fh.write("end\n")


def load_model(path: str) -> tuple[ModelParams, TrainConfig]:
    """Load a model file; raises ModelFileError on corruption or mismatch."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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

    tensors: dict[str, Tensor] = {}
    i = 2
    while i < len(lines) - 1:
        header = lines[i].split()
        if len(header) != 4 or header[0] != "tensor":
            raise ModelFileError(f"{path}: bad tensor header at line {i + 1}")
        name = header[1]
        try:
            rows, cols = int(header[2]), int(header[3])
        except ValueError:
            raise ModelFileError(
                f"{path}: tensor {name} has a non-integer shape at line {i + 1}"
            ) from None
        block = lines[i + 1 : i + 1 + rows]
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
        tensors[name] = Tensor(data, requires_grad=True)
        i += 1 + rows

    def take(name: str) -> Tensor:
        if name not in tensors:
            raise ModelFileError(f"{path}: missing tensor {name}")
        return tensors.pop(name)

    layers = []
    for l in range(config.num_layers):
        p = f"layer{l}"
        if config.base_gnn == "gat":
            heads = [
                GatHead(
                    w=take(f"{p}.omega.head{j}.w"),
                    att_self=take(f"{p}.omega.head{j}.att_self"),
                    att_nbr=take(f"{p}.omega.head{j}.att_nbr"),
                )
                for j in range(config.gat_heads)
            ]
            omega = {"heads": heads, "b": take(f"{p}.omega.b")}
        elif config.base_gnn == "sage":
            omega = {
                "w_neigh": take(f"{p}.omega.w_neigh"),
                "w_self": take(f"{p}.omega.w_self"),
                "b": take(f"{p}.omega.b"),
            }
        else:
            omega = {"w": take(f"{p}.omega.w"), "b": take(f"{p}.omega.b")}
        layers.append(
            LayerParams(
                omega=omega,
                debias_low=Linear(take(f"{p}.debias_low.w"), take(f"{p}.debias_low.b")),
                debias_high=Linear(take(f"{p}.debias_high.w"), take(f"{p}.debias_high.b")),
                film_scale=Linear(take(f"{p}.film_scale.w"), take(f"{p}.film_scale.b")),
                film_shift=Linear(take(f"{p}.film_shift.w"), take(f"{p}.film_shift.b")),
            )
        )
    if tensors:
        raise ModelFileError(f"{path}: unexpected extra tensors {sorted(tensors)}")
    return ModelParams(kind=config.base_gnn, layers=layers), config
