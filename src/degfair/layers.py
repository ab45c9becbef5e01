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
opposite context on training nodes from the layer's trace. One function,
:func:`forward_layer`, computes a layer of either forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from degfair.autodiff import (
    FixedSparse,
    Tensor,
    affine,
    attention_matmul,
    dropout,
    film_debias,
    matmul,
    relu,
    softmax_rows,
    sparse_matmul,
    weighted_sum,
)
from degfair.graphs import Graph, GroupAssignment, adjacency, local_contexts

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
    "forward_layer",
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


def context_operator(pattern: sparse.csr_matrix) -> FixedSparse:
    """Row-mean operator with its values on a CSR pattern's own index arrays."""
    sizes = np.diff(pattern.indptr)
    values = np.repeat(
        np.divide(1.0, sizes, out=np.zeros(sizes.shape), where=sizes > 0),
        sizes,
    )
    return FixedSparse(
        sparse.csr_matrix((values, pattern.indices, pattern.indptr), shape=pattern.shape)
    )


def _gcn_operator(pattern: sparse.csr_matrix) -> FixedSparse:
    """Symmetric normalization with self-loops, D^-1/2 (A+I) D^-1/2, on the A+I pattern."""
    sizes = np.diff(pattern.indptr)  # degree + 1
    inv_sqrt = 1.0 / np.sqrt(sizes.astype(np.float64))
    values = np.repeat(inv_sqrt, sizes) * inv_sqrt[pattern.indices]
    return FixedSparse(
        sparse.csr_matrix((values, pattern.indices, pattern.indptr), shape=pattern.shape)
    )


@dataclass
class GraphOperators:
    """Constant per-graph structure shared by every layer and epoch.

    Built once by :func:`build_operators` for one aggregator ``kind``. Holds
    one copy of each sparse operator: the r-hop context mean ``ctx_mean``
    and the aggregation operator ``agg`` (GCN: D^-1/2 (A+I) D^-1/2; SAGE:
    the one-hop neighbor mean; GAT: the A+I pattern, whose values the
    attention coefficients replace), plus each node's debiasing group id
    (0 low, 1 high) and its index into the unique degree values.
    """

    kind: str
    ctx_mean: FixedSparse
    agg: FixedSparse
    group: np.ndarray
    unique_degrees: np.ndarray
    degree_inverse: np.ndarray


def build_operators(
    g: Graph, r_context: int, groups: GroupAssignment, kind: str
) -> GraphOperators:
    """Precompute every graph-dependent constant the layers need.

    ``groups`` must cover all nodes (a threshold contrast over the full
    node set): the aggregation needs a debiasing group for every node,
    including validation/test nodes. The A+I pattern is built once and
    serves GCN's and GAT's ``agg`` and, when ``r_context`` is 1, ``ctx_mean``;
    those operators share its index arrays.
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
    ctx_mean = context_operator(ctx)
    if kind == "sage":
        agg = context_operator(adjacency(g))
    else:
        closed = ctx if r_context == 1 else local_contexts(g, 1)  # the A+I pattern
        agg = _gcn_operator(closed) if kind == "gcn" else FixedSparse(closed)
    return GraphOperators(
        kind=kind,
        ctx_mean=ctx_mean,
        agg=agg,
        group=group,
        unique_degrees=unique_degrees,
        degree_inverse=degree_inverse,
    )


# -------------------------------------------------------------- layer pieces


_NORM_BLOCK = 1 << 15  # floats per block of input_features' row norms (256 KB)


def input_features(g: Graph, feature_norm: str = "none") -> Tensor:
    """Input feature rows, optionally length-normalized.

    ``"l2"`` scales each row to unit Euclidean norm (zero rows are left
    alone), the usual preparation for count-style features. The norms are
    taken over blocks of rows, so the squares never fill an n x d
    temporary; each row's sum is the same as in one call over all rows.
    """
    if feature_norm == "none":
        return Tensor(g.features)
    if feature_norm == "l2":
        x = g.features
        out = np.empty(x.shape)
        rows = max(1, _NORM_BLOCK // max(1, x.shape[1]))
        for i in range(0, x.shape[0], rows):
            norms = np.linalg.norm(x[i : i + rows], axis=1, keepdims=True)
            np.divide(x[i : i + rows], np.maximum(norms, 1e-12), out=out[i : i + rows])
        return Tensor(out)
    raise ValueError(f'feature_norm must be "none" or "l2", got {feature_norm!r}')


def _gat_head(h_prev: Tensor, head: GatHead, pattern: FixedSparse) -> Tensor:
    """One attention head: ``S @ z`` with S the softmax-normalized scores on A+I."""
    z = matmul(h_prev, head.w)
    return attention_matmul(matmul(z, head.att_self), matmul(z, head.att_nbr), pattern, z)


def forward_layer(
    h: Tensor, ops: GraphOperators, params: ModelParams, i: int, eps=None, ctx=None
) -> LayerTraceEntry | Tensor:
    """Layer ``i`` of :func:`model_forward` (``eps`` given) or of :func:`base_forward`.

    The one per-layer function (Algorithm 1, lines 4-10). Its pre-activation
    is one ``weighted_sum`` of the base aggregation terms, the output bias
    row and, when ``eps`` is given and non-zero, ``eps`` times the own-group
    debiasing context. Every backbone aggregates through the one operator
    ``ops.agg``, which must have been built for ``params.kind``. GCN:
    normalized-adjacency propagation of h @ w. GraphSAGE: separate self and
    mean-neighbor transforms. GAT: per head, the row softmax of attention
    scores over each node's closed neighborhood weights ``ops.agg``'s
    pattern (:func:`degfair.autodiff.attention_matmul`); heads are averaged.
    Without the bias row, a ReLU network is positively homogeneous and
    argmax-blind to the per-node magnitude that carries degree information.

    With ``eps`` given, the context is ``film_debias`` of the context
    embedding ``ctx_mean @ h`` (``ctx``, when the caller already holds it):
    each node's row goes through its own group's debiasing net only,
    modulated by the scale/shift rows of its degree, which the FiLM nets
    generate once per unique degree from encodings of width
    ``film_scale.w.shape[0]``. The layer then returns its trace entry, which
    keeps the context embedding, those rows and both nets for the training
    constraints. With eps == 0 the context is neither computed nor added, so
    the output is bit-identical to the base layer's. Without ``eps`` the
    layer returns its output tensor. The last layer ends in a softmax, the
    others in a ReLU.
    """
    kind, layer = params.kind, params.layers[i]
    if ops.kind != kind:
        raise ValueError(f"operators were built for {ops.kind}, not {kind!r}")
    if eps is not None:
        if ctx is None:
            ctx = sparse_matmul(ops.ctx_mean, h)
        enc = Tensor(degree_encoding_matrix(ops.unique_degrees, layer.film_scale.w.shape[0]))
        scale_u, shift_u = layer.film_scale(enc), layer.film_shift(enc)
        debias = (layer.debias_low, layer.debias_high)
    omega = layer.omega
    try:
        if kind == "gcn":
            terms = [sparse_matmul(ops.agg, matmul(h, omega["w"]))]
        elif kind == "sage":
            neigh = sparse_matmul(ops.agg, h)
            terms = [matmul(h, omega["w_self"]), matmul(neigh, omega["w_neigh"])]
        else:
            terms = [_gat_head(h, head, ops.agg) for head in omega["heads"]]
        coeffs = [1.0 / len(terms) if kind == "gat" else 1.0] * len(terms) + [1.0]
        terms.append(omega["b"])
    except KeyError as exc:
        raise ValueError(f"missing {kind} weight {exc.args[0]!r}") from None
    if eps is not None and eps != 0.0:
        terms.append(film_debias(ctx, ops.group, debias, scale_u, shift_u, ops.degree_inverse))
        coeffs.append(eps)
    pre = weighted_sum(terms, coeffs)
    out = softmax_rows(pre) if i == len(params.layers) - 1 else relu(pre)
    if eps is None:
        return out
    return LayerTraceEntry(h=out, ctx=ctx, scale_u=scale_u, shift_u=shift_u, debias=debias)


def _forward_input(g, dropout_rate, rng, dropout_input, features, layer0) -> Tensor:
    """Layer 0's input, ``features`` or the graph's, with input dropout when asked."""
    if dropout_rate > 0.0 and rng is None:
        raise ValueError("dropout needs an rng")
    if dropout_input and layer0 is not None:
        raise ValueError("layer0 is computed on the undropped input; it excludes dropout_input")
    h = features if features is not None else Tensor(g.features)
    return dropout(h, dropout_rate, rng) if dropout_input else h


def model_forward(
    g: Graph,
    params: ModelParams,
    ops: GraphOperators,
    eps: float,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    dropout_input: bool = False,
    features: Tensor | None = None,
    layer0: LayerTraceEntry | None = None,
) -> ForwardTrace:
    """Full forward pass: ReLU hidden layers, softmax output layer.

    Each layer is one :func:`forward_layer` call, the one per-layer function.
    This is the one debiased forward: training runs it on a tape, and the
    per-epoch eval and ``predict`` run it outside one, at the default
    ``dropout_rate`` of 0. Dropout is applied to hidden activations, and to
    the input features as well when ``dropout_input`` is set. ``features``
    overrides the raw graph features (e.g. a normalized copy).
    ``layer0`` is layer 0's entry from :func:`forward_layer` at the same
    parameters and undropped input; the forward starts from it, applies
    dropout to its output as usual and runs the remaining layers. Passing
    it with ``dropout_input`` raises ``ValueError``.
    """
    h = _forward_input(g, dropout_rate, rng, dropout_input, features, layer0)
    entries = []
    last = len(params.layers) - 1
    for i in range(len(params.layers)):
        entry = layer0 if i == 0 and layer0 is not None else forward_layer(h, ops, params, i, eps)
        entries.append(entry)
        h = entry.h
        if i != last:
            h = dropout(h, dropout_rate, rng)
    return ForwardTrace(
        layers=entries, probs=entries[-1].h, degree_inverse=ops.degree_inverse
    )


def base_forward(
    g: Graph,
    params: ModelParams,
    ops: GraphOperators,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    dropout_input: bool = False,
    features: Tensor | None = None,
    layer0: Tensor | None = None,
) -> Tensor:
    """Plain base-GNN forward (no debiasing path); returns probabilities.

    ``layer0`` is layer 0's output as in :func:`model_forward`.
    """
    h = _forward_input(g, dropout_rate, rng, dropout_input, features, layer0)
    last = len(params.layers) - 1
    for i in range(len(params.layers)):
        h = layer0 if i == 0 and layer0 is not None else forward_layer(h, ops, params, i)
        if i != last:
            h = dropout(h, dropout_rate, rng)
    return h
