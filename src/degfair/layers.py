"""Degree-debiased GNN layers over GCN, GraphSAGE, and GAT aggregation.

Each layer combines a base neighborhood aggregation with a learned,
degree-conditioned debiasing context: a context embedding (mean over the
r-hop local context) is passed through a group-specific linear map and
modulated feature-wise by scaling/shifting vectors generated from a
sinusoidal encoding of the node's degree, all in the one op
:func:`degfair.autodiff.film_debias`. The scaling/shifting vectors exist
once per unique degree value. Each node goes through the debiasing net of
its own degree group (low or high), and that context is added into the
aggregation pre-activation with weight ``eps``. The other group's net
enters only through the cross-group training constraint, which builds the
opposite context on training nodes from the layer's trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from degfair.autodiff import (
    FixedSparse,
    Tensor,
    add,
    add_scaled,
    affine,
    dropout,
    edge_matmul,
    film_debias,
    gather_rows,
    leaky_relu,
    matmul,
    relu,
    scalar_mul,
    segment_softmax,
    softmax_rows,
    sparse_matmul,
)
from degfair.graphs import Graph, GroupAssignment, local_contexts

__all__ = [
    "Linear",
    "GatHead",
    "LayerParams",
    "ModelParams",
    "LayerTraceEntry",
    "ForwardTrace",
    "GraphOperators",
    "degree_encoding_matrix",
    "context_operator",
    "input_features",
    "build_operators",
    "base_aggregate",
    "fair_layer_forward",
    "model_forward",
    "base_forward",
]


@dataclass
class Linear:
    """One fully connected layer: x @ w + b. Unpacks as ``(w, b)``."""

    w: Tensor
    b: Tensor

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.w, self.b)

    def __iter__(self):
        return iter((self.w, self.b))


@dataclass
class GatHead:
    """Projection plus the two attention vectors of one attention head."""

    w: Tensor
    att_self: Tensor  # scores the aggregating node's own projection
    att_nbr: Tensor  # scores each neighbor's projection


@dataclass
class LayerParams:
    """All learnable tensors of one debiased layer.

    ``omega`` holds the base-aggregator weights ("w" for GCN, "w_self" /
    "w_neigh" for GraphSAGE, "heads" for GAT). ``debias_low`` and
    ``debias_high`` map context embeddings to the two groups' debiasing
    contexts; ``film_scale`` / ``film_shift`` generate the modulation
    vectors from the degree encoding.
    """

    omega: dict
    debias_low: Linear
    debias_high: Linear
    film_scale: Linear
    film_shift: Linear

    def named_tensors(self):
        """Yield ``(name, tensor)`` for every tensor, in model-file order.

        GAT heads come head by head with the output bias last; the other
        aggregators list their omega keys sorted (so ``omega.b`` first).
        The four debiasing nets follow, weight before bias.
        """
        if "heads" in self.omega:
            for j, head in enumerate(self.omega["heads"]):
                yield f"omega.head{j}.w", head.w
                yield f"omega.head{j}.att_self", head.att_self
                yield f"omega.head{j}.att_nbr", head.att_nbr
            yield "omega.b", self.omega["b"]
        else:
            for k in sorted(self.omega):
                yield f"omega.{k}", self.omega[k]
        for net in ("debias_low", "debias_high", "film_scale", "film_shift"):
            lin = getattr(self, net)
            yield f"{net}.w", lin.w
            yield f"{net}.b", lin.b


@dataclass
class ModelParams:
    """Parameters of the full multi-layer model."""

    kind: str  # gcn | sage | gat
    layers: list[LayerParams]

    def named_tensors(self):
        """Yield ``("layer<i>.<name>", tensor)`` for every tensor, layer by layer.

        This is the one walk over the parameters: the model file, the
        optimizer's parameter list and the regularizer all follow it.
        """
        for i, layer in enumerate(self.layers):
            for name, t in layer.named_tensors():
                yield f"layer{i}.{name}", t

    def all_tensors(self, include_debias: bool = True) -> list[Tensor]:
        """Every tensor in registry order; aggregator tensors only without debias."""
        return [
            t for name, t in self.named_tensors() if include_debias or ".omega." in name
        ]

    def weight_tensors(self, include_debias: bool = True) -> list[Tensor]:
        """Weight matrices only (biases excluded), for regularization."""
        return [
            t for name, t in self.named_tensors()
            if not name.endswith(".b") and (include_debias or ".omega." in name)
        ]


@dataclass
class LayerTraceEntry:
    """Per-layer activations plus everything the training constraints need.

    ``ctx`` is the context embedding and ``scale_u`` / ``shift_u`` the
    modulation rows, one per unique degree value (the trace's
    ``degree_inverse`` maps nodes to them); ``debias`` holds the layer's
    (low, high) debiasing nets, indexed by group id. The forward ran each
    node through its own group's net only; the cross-group constraint
    rebuilds the context a node did *not* use from these, on the rows it
    penalizes.
    """

    h: Tensor
    ctx: Tensor
    scale_u: Tensor
    shift_u: Tensor
    debias: tuple[Linear, Linear]


@dataclass
class ForwardTrace:
    """One forward pass: every layer's trace entry and the output probabilities.

    ``degree_inverse`` is the operators' node-to-unique-degree map, held by
    reference; it indexes every entry's ``scale_u`` / ``shift_u`` rows.
    """

    layers: list[LayerTraceEntry]
    probs: Tensor
    degree_inverse: np.ndarray


# ----------------------------------------------------------- degree encoding


def degree_encoding_matrix(degrees: np.ndarray, width: int) -> np.ndarray:
    """Sinusoidal encodings of degree values, one row per input degree.

    Pair i of columns (2i, 2i+1) holds sin/cos of degree / 10000^(2i/width),
    so entries lie in [-1, 1] and nearby degrees get nearby encodings.
    """
    if width < 2 or width % 2 != 0:
        raise ValueError(f"encoding width must be even and >= 2, got {width}")
    degrees = np.asarray(degrees, dtype=np.float64)
    if np.any(degrees < 0):
        raise ValueError("degrees must be non-negative")
    pair = np.arange(width // 2, dtype=np.float64)
    freq = 1.0 / np.power(10000.0, 2.0 * pair / width)
    angle = degrees[:, None] * freq[None, :]
    enc = np.empty((degrees.shape[0], width))
    enc[:, 0::2] = np.sin(angle)
    enc[:, 1::2] = np.cos(angle)
    return enc


# --------------------------------------------------------- graph operators


def context_operator(num_nodes: int, offsets: np.ndarray, members: np.ndarray) -> FixedSparse:
    """Mean-pooling operator over per-node context sets in CSR form."""
    sizes = np.diff(offsets)
    values = np.repeat(
        np.divide(1.0, sizes, out=np.zeros(sizes.shape), where=sizes > 0),
        sizes,
    )
    mat = sparse.csr_matrix(
        (values, members, offsets), shape=(num_nodes, num_nodes)
    )
    return FixedSparse(mat)


def _gcn_operator(num_nodes: int, offsets: np.ndarray, members: np.ndarray) -> FixedSparse:
    """Symmetric normalization with self-loops, D^-1/2 (A+I) D^-1/2, on the A+I lists."""
    d = np.diff(offsets).astype(np.float64)  # degree + 1
    inv_sqrt = 1.0 / np.sqrt(d)
    centers = np.repeat(np.arange(num_nodes), np.diff(offsets))
    values = inv_sqrt[centers] * inv_sqrt[members]
    mat = sparse.csr_matrix((values, members, offsets), shape=(num_nodes,) * 2)
    return FixedSparse(mat)


@dataclass
class GraphOperators:
    """Constant per-graph structure shared by every layer and epoch.

    Built once by :func:`build_operators` for one aggregator ``kind``. Holds
    one copy of each sparse operator: the r-hop context mean ``ctx_mean``
    and the aggregation operator ``agg`` (GCN: D^-1/2 (A+I) D^-1/2; SAGE:
    the one-hop neighbor mean; GAT: the A+I pattern, whose values the
    attention coefficients replace), plus each node's debiasing group id
    (0 low, 1 high) and cached degree encodings per unique degree value.
    """

    kind: str
    ctx_mean: FixedSparse
    agg: FixedSparse
    group: np.ndarray
    unique_degrees: np.ndarray
    degree_inverse: np.ndarray
    _encodings: dict = field(default_factory=dict)

    def encoding(self, width: int) -> Tensor:
        """Constant encoding rows for the unique degree values."""
        if width not in self._encodings:
            self._encodings[width] = Tensor(
                degree_encoding_matrix(self.unique_degrees, width)
            )
        return self._encodings[width]


def build_operators(
    g: Graph, r_context: int, groups: GroupAssignment, kind: str
) -> GraphOperators:
    """Precompute every graph-dependent constant the layers need.

    ``groups`` must cover all nodes (a threshold contrast over the full
    node set): the aggregation needs a debiasing group for every node,
    including validation/test nodes. The A+I lists are built once and
    serve GCN's and GAT's ``agg`` and, when ``r_context`` is 1, the
    context pattern; GAT's ``agg`` holds the A+I mean, the same operator
    as ``ctx_mean`` at r = 1.
    """
    if kind not in ("gcn", "sage", "gat"):
        raise ValueError(f"unknown aggregator kind {kind!r}")
    low, high = groups.groups[0], groups.groups[1]
    if not np.array_equal(np.sort(np.concatenate([low, high])), np.arange(g.num_nodes)):
        raise ValueError("debiasing groups must partition the full node set")

    group = np.ones(g.num_nodes, dtype=np.int64)
    group[low] = 0
    deg1 = g.degrees.astype(np.float64)
    unique_degrees, degree_inverse = np.unique(deg1, return_inverse=True)
    ctx = local_contexts(g, r_context)
    ctx_mean = context_operator(g.num_nodes, *ctx)
    if kind == "sage":
        agg = context_operator(g.num_nodes, g.csr_offsets, g.csr_neighbors)
    else:
        closed = ctx if r_context == 1 else local_contexts(g, 1)  # the A+I lists
        if kind == "gcn":
            agg = _gcn_operator(g.num_nodes, *closed)
        else:
            agg = ctx_mean if r_context == 1 else context_operator(g.num_nodes, *closed)
    return GraphOperators(
        kind=kind,
        ctx_mean=ctx_mean,
        agg=agg,
        group=group,
        unique_degrees=unique_degrees,
        degree_inverse=degree_inverse,
    )


# -------------------------------------------------------------- layer pieces


def input_features(g: Graph, feature_norm: str = "none") -> Tensor:
    """Input feature rows, optionally length-normalized.

    ``"l2"`` scales each row to unit Euclidean norm (zero rows are left
    alone), the usual preparation for count-style features.
    """
    if feature_norm == "none":
        return Tensor(g.features)
    if feature_norm == "l2":
        norms = np.linalg.norm(g.features, axis=1, keepdims=True)
        return Tensor(g.features / np.maximum(norms, 1e-12))
    raise ValueError(f'feature_norm must be "none" or "l2", got {feature_norm!r}')


def _gat_head(
    h_prev: Tensor, head: GatHead, pattern: FixedSparse, centers: np.ndarray
) -> Tensor:
    """One attention head: ``S @ z`` with S the softmax-normalized scores on A+I."""
    z = matmul(h_prev, head.w)
    s_self = matmul(z, head.att_self)
    s_nbr = matmul(z, head.att_nbr)
    logits = add(gather_rows(s_self, centers), gather_rows(s_nbr, pattern.fwd.indices))
    alpha = segment_softmax(leaky_relu(logits, 0.2), pattern.fwd.indptr)
    return edge_matmul(alpha, pattern, z)


def base_aggregate(
    h_prev: Tensor, ops: GraphOperators, omega: dict, kind: str
) -> Tensor:
    """Pre-activation output of the plain base aggregator.

    Every backbone aggregates through the one operator ``ops.agg``, which
    must have been built for ``kind``. GCN: normalized-adjacency
    propagation of h @ w. GraphSAGE: separate self and mean-neighbor
    transforms. GAT: per head, attention coefficients over each node's
    closed neighborhood become the entries of ``ops.agg``'s pattern
    (:func:`degfair.autodiff.edge_matmul`); heads are averaged. Each
    aggregator ends with an output bias row; without one, a ReLU network
    is positively homogeneous and argmax-blind to the per-node magnitude
    that carries degree information.
    """
    if ops.kind != kind:
        raise ValueError(f"operators were built for {ops.kind}, not {kind!r}")
    try:
        if kind == "gcn":
            out = sparse_matmul(ops.agg, matmul(h_prev, omega["w"]))
        elif kind == "sage":
            neigh = sparse_matmul(ops.agg, h_prev)
            out = add(
                matmul(h_prev, omega["w_self"]), matmul(neigh, omega["w_neigh"])
            )
        else:
            indptr = ops.agg.fwd.indptr
            centers = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
            heads = omega["heads"]
            out = _gat_head(h_prev, heads[0], ops.agg, centers)
            for head in heads[1:]:
                out = add(out, _gat_head(h_prev, head, ops.agg, centers))
            if len(heads) > 1:
                out = scalar_mul(out, 1.0 / len(heads))
        return add(out, omega["b"])
    except KeyError as exc:
        raise ValueError(f"missing {kind} weight {exc.args[0]!r}") from None


def _activate(pre: Tensor, activation: str) -> Tensor:
    if activation == "relu":
        return relu(pre)
    if activation == "softmax":
        return softmax_rows(pre)
    if activation == "identity":
        return pre
    raise ValueError(f"unknown activation {activation!r}")


def fair_layer_forward(
    h_prev: Tensor,
    ops: GraphOperators,
    layer: LayerParams,
    kind: str,
    eps: float,
    activation: str,
) -> LayerTraceEntry:
    """One debiased layer: sigma(Aggr(h) + eps * own-group debiasing context).

    The context is ``film_debias`` of the context embedding: each node's
    row goes through its own group's debiasing net only, modulated by the
    scale/shift rows of its degree, which the FiLM nets generate once per
    unique degree from encodings of width ``film_scale.w.shape[0]``. The
    trace keeps the context embedding, those unique-degree rows and both
    nets for the training constraints. With eps == 0 the own-group context
    is neither computed nor added, so the output is bit-identical to the
    plain base aggregation.
    """
    ctx = sparse_matmul(ops.ctx_mean, h_prev)
    enc = ops.encoding(layer.film_scale.w.shape[0])
    scale_u, shift_u = layer.film_scale(enc), layer.film_shift(enc)
    debias = (layer.debias_low, layer.debias_high)

    pre = base_aggregate(h_prev, ops, layer.omega, kind)
    if eps != 0.0:
        own = film_debias(ctx, ops.group, debias, scale_u, shift_u, ops.degree_inverse)
        pre = add_scaled(pre, own, eps)
    return LayerTraceEntry(
        h=_activate(pre, activation),
        ctx=ctx,
        scale_u=scale_u,
        shift_u=shift_u,
        debias=debias,
    )


def model_forward(
    g: Graph,
    params: ModelParams,
    ops: GraphOperators,
    eps: float,
    dropout_rate: float = 0.0,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    dropout_input: bool = False,
    features: Tensor | None = None,
) -> ForwardTrace:
    """Full forward pass: ReLU hidden layers, softmax output layer.

    This is the one debiased forward: training runs it on a tape, and the
    per-epoch eval and ``predict`` run it outside one. Dropout (train mode
    only) is applied to hidden activations, and to the input features as
    well when ``dropout_input`` is set. ``features`` overrides the raw graph
    features (e.g. a normalized copy).
    """
    if train_mode and dropout_rate > 0.0 and rng is None:
        raise ValueError("training-mode dropout needs an rng")
    h = features if features is not None else Tensor(g.features)
    if dropout_input:
        h = dropout(h, dropout_rate, train_mode, rng)
    entries = []
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        entry = fair_layer_forward(
            h, ops, layer, params.kind, eps, "softmax" if i == last else "relu"
        )
        entries.append(entry)
        h = entry.h
        if i != last:
            h = dropout(h, dropout_rate, train_mode, rng)
    return ForwardTrace(
        layers=entries, probs=entries[-1].h, degree_inverse=ops.degree_inverse
    )


def base_forward(
    g: Graph,
    params: ModelParams,
    ops: GraphOperators,
    dropout_rate: float = 0.0,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    dropout_input: bool = False,
    features: Tensor | None = None,
) -> Tensor:
    """Plain base-GNN forward (no debiasing path); returns probabilities."""
    if train_mode and dropout_rate > 0.0 and rng is None:
        raise ValueError("training-mode dropout needs an rng")
    h = features if features is not None else Tensor(g.features)
    if dropout_input:
        h = dropout(h, dropout_rate, train_mode, rng)
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        pre = base_aggregate(h, ops, layer.omega, params.kind)
        h = _activate(pre, "softmax" if i == last else "relu")
        if i != last:
            h = dropout(h, dropout_rate, train_mode, rng)
    return h
