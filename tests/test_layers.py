import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_model
from degfair import layers
from degfair.autodiff import Tensor, affine, film_debias, sparse_matmul
from degfair.graphs import build_graph, partition_contrast, synth_generate
from degfair.layers import (
    GatHead,
    LayerParams,
    Linear,
    ModelParams,
    base_forward,
    build_operators,
    context_operator,
    degree_encoding_matrix,
    forward_layer,
    input_features,
    model_forward,
)
from degfair.training import TrainConfig, init_params


def make_graph(edges, n, feats=None, labels=None):
    if feats is None:
        feats = np.zeros((n, 2))
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    return build_graph(np.array(edges, dtype=np.int64).reshape(-1, 2), feats, labels,
                       num_classes=2)


def full_groups(g, threshold):
    # Tests deliberately push every node into one group; hide the warning.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return partition_contrast(g.degrees.astype(float), threshold)


def lin(w, b=None):
    w = np.asarray(w, dtype=float)
    if b is None:
        b = np.zeros(w.shape[1])
    return Linear(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


# ----------------------------------------------------------- degree encoding


def degree_encoding(degree, width):
    """Encoding of a single degree value (1-D, length ``width``)."""
    return degree_encoding_matrix(np.array([float(degree)]), width)[0]


def test_encoding_zero_degree():
    assert degree_encoding(0, 4).tolist() == [0.0, 1.0, 0.0, 1.0]


def test_encoding_degree_three():
    enc = degree_encoding(3, 4)
    expect = [math.sin(3), math.cos(3), math.sin(0.03), math.cos(0.03)]
    assert np.allclose(enc, expect, atol=1e-12)
    assert np.allclose(enc, [0.1411, -0.9900, 0.0300, 0.9996], atol=1e-4)


def test_encoding_deterministic_and_bounded():
    a = degree_encoding_matrix(np.arange(50.0), 8)
    b = degree_encoding_matrix(np.arange(50.0), 8)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0)


def _operators_of_kind(kind):
    g = synth_generate(10, 2, 0.9, 3, seed=0)
    return build_operators(g, 1, partition_contrast(g.degrees.astype(float), 2.0), kind)


LAYER_REJECTIONS = [
    pytest.param(lambda: degree_encoding_matrix(np.array([1.0, -1.0]), 4),
                 "degrees must be non-negative", id="encoding-negative-degree"),
    pytest.param(lambda: _operators_of_kind("gin"), "unknown aggregator kind 'gin'",
                 id="operators-kind"),
    pytest.param(lambda: input_features(synth_generate(10, 2, 0.9, 3, seed=0), "l1"),
                 'feature_norm must be "none" or "l2", got \'l1\'', id="input-features-norm"),
]


@pytest.mark.parametrize("call,message", LAYER_REJECTIONS)
def test_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_encoding_rejects_odd_width():
    with pytest.raises(ValueError):
        degree_encoding(3, 5)


def test_encoding_locality():
    # Adjacent degrees stay within the frequency-sum bound; equal degrees
    # coincide exactly.
    width = 8
    freqs = 1.0 / np.power(10000.0, 2.0 * np.arange(width // 2) / width)
    for a in (0, 1, 5, 20, 100):
        e_a = degree_encoding(a, width)
        e_b = degree_encoding(a + 1, width)
        bound = math.sqrt(np.sum((2 * np.pi * 1 * freqs) ** 2))
        assert np.linalg.norm(e_a - e_b) <= bound
        assert np.linalg.norm(e_a - degree_encoding(a, width)) == 0.0


# ---------------------------------------------------------- context embedding


def test_context_identical_rows():
    g = make_graph([(0, 1), (1, 2)], 3)
    from degfair.graphs import local_contexts

    op = context_operator(local_contexts(g, 1))
    h = Tensor(np.tile([2.0, -1.0], (3, 1)))
    c = sparse_matmul(op, h)
    assert np.allclose(c.data, np.tile([2.0, -1.0], (3, 1)))


def test_context_isolated_node():
    g = make_graph([(0, 1)], 3)
    from degfair.graphs import local_contexts

    op = context_operator(local_contexts(g, 1))
    h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]))
    c = sparse_matmul(op, h)
    assert np.allclose(c.data[2], [5.0, 5.0])


def test_context_path_mean():
    g = make_graph([(0, 1), (1, 2)], 3)
    from degfair.graphs import local_contexts

    op = context_operator(local_contexts(g, 1))
    e = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = sparse_matmul(op, Tensor(e))
    assert np.allclose(c.data[1], (e[0] + e[1] + e[2]) / 3.0)


# -------------------------------------------------------------- film factors
# The FiLM nets are plain Linear maps of the degree encodings.


def test_film_zero_params():
    enc = Tensor(np.ones((3, 4)))
    gamma, beta = affine(enc, *lin(np.zeros((4, 2)))), affine(enc, *lin(np.zeros((4, 2))))
    assert np.allclose(gamma.data, 0.0)
    assert np.allclose(beta.data, 0.0)


def test_film_identity_map():
    enc = Tensor(np.array([[0.0, 1.0, 0.0, 1.0]]))
    gamma = affine(enc, *lin(np.eye(4)))
    assert np.allclose(gamma.data, [[0.0, 1.0, 0.0, 1.0]])


def test_film_equal_degrees_equal_rows():
    enc_rows = degree_encoding_matrix(np.array([3.0, 7.0, 3.0]), 4)
    rng = np.random.default_rng(0)
    scale_net, shift_net = lin(rng.standard_normal((4, 2))), lin(rng.standard_normal((4, 2)))
    gamma, beta = affine(Tensor(enc_rows), *scale_net), affine(Tensor(enc_rows), *shift_net)
    assert np.array_equal(gamma.data[0], gamma.data[2])
    assert np.array_equal(beta.data[0], beta.data[2])


# ------------------------------------------------------------ debias context


def test_debias_reduces_to_net_output():
    c = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    zeros = Tensor(np.zeros((1, 2)))
    net = lin([[1.0, 0.0], [0.0, 2.0]])
    d = film_debias(c, np.zeros(2, dtype=int), (net,), zeros, zeros, np.zeros(2, dtype=int))
    assert np.allclose(d.data, [[1.0, 4.0], [3.0, 8.0]])


def test_debias_zero_net_gives_shift():
    c = Tensor(np.ones((2, 2)))
    beta = Tensor(np.array([[0.5, -0.5], [1.0, 2.0]]))
    d = film_debias(c, np.zeros(2, dtype=int), (lin(np.zeros((2, 2))),),
                    Tensor(np.zeros((2, 2))), beta, np.array([0, 1]))
    assert np.allclose(d.data, beta.data)


def test_debias_unit_scale_doubles():
    c = Tensor(np.array([[1.0, 2.0]]))
    ones = Tensor(np.ones((1, 2)))
    net = lin(np.eye(2))
    d = film_debias(c, np.zeros(1, dtype=int), (net,), ones, Tensor(np.zeros((1, 2))),
                    np.zeros(1, dtype=int))
    assert np.allclose(d.data, [[2.0, 4.0]])


# ------------------------------------------------------------ base aggregate


@pytest.fixture
def pre_activation(monkeypatch):
    """forward_layer on a one-layer model, with both activations patched to the identity.

    The hand oracles compare pre-activations exactly; a softmax would hide
    a per-row shift. A bare omega dict stands for a layer on the base path,
    which reads no other net.
    """
    for name in ("relu", "softmax_rows"):
        monkeypatch.setattr(layers, name, lambda x: x)

    def run(h, ops, layer, eps=None):
        if isinstance(layer, dict):
            layer = LayerParams(layer, None, None, None, None)
        return forward_layer(h, ops, ModelParams(ops.kind, [layer]), 0, eps)

    return run


def test_gcn_isolated_node_is_self_transform(pre_activation):
    g = make_graph([(0, 1)], 3)
    ops = build_operators(g, 1, full_groups(g, 10.0), "gcn")
    h = Tensor(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]]))
    w = Tensor(np.array([[2.0, 0.0], [0.0, 1.0]]))
    b = Tensor(np.zeros((1, 2)))
    out = pre_activation(h, ops, {"w": w, "b": b}).h
    # Row 2 of the normalized operator is just the self-loop with weight 1.
    assert np.allclose(out.data[2], [6.0, -1.0])


def test_gcn_row_sums_one_on_cycle():
    n = 8
    cycle = [(i, (i + 1) % n) for i in range(n)]
    g = make_graph(cycle, n)
    ops = build_operators(g, 1, full_groups(g, 10.0), "gcn")
    ones = np.ones((n, 1))
    assert np.allclose(ops.agg.fwd @ ones, ones, atol=1e-12)


def test_sage_zero_neighbor_weights(pre_activation):
    g = make_graph([(0, 1), (1, 2)], 3)
    ops = build_operators(g, 1, full_groups(g, 10.0), "sage")
    h = Tensor(np.arange(6.0).reshape(3, 2))
    w_self = Tensor(np.array([[1.0, 1.0], [0.0, 1.0]]))
    w_neigh = Tensor(np.zeros((2, 2)))
    b = Tensor(np.zeros((1, 2)))
    out = pre_activation(h, ops, {"w_self": w_self, "w_neigh": w_neigh, "b": b}).h
    assert np.allclose(out.data, h.data @ w_self.data)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    node = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=35))


@settings(max_examples=60, deadline=None)
@given(graph=edge_lists(), r=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(["gcn", "sage", "gat"]))
@example(graph=(5, [(0, 1), (1, 2), (2, 3)]), r=2, kind="sage")  # node 4 isolated
def test_operators_property_match_dense_oracles(graph, r, kind):
    # The dense model's operators use the same formulas, so the comparison is exact.
    n, edges = graph
    g = make_graph(edges, n)
    ops = build_operators(g, r, full_groups(g, 10.0), kind)
    adj = dense_model.adjacency(edges, n)
    assert np.array_equal(ops.ctx_mean.fwd.toarray(), dense_model.context_mean(adj, r))
    agg = ops.agg.fwd
    if kind == "gat":  # the A+I pattern, whose values the attention replaces
        assert agg.nnz == n + adj.sum() and np.array_equal(agg.toarray() != 0, adj + np.eye(n) > 0)
    else:
        operator = dense_model.gcn_operator if kind == "gcn" else dense_model.sage_operator
        assert np.array_equal(agg.toarray(), operator(adj))
    if r == 1 and kind != "sage":
        # One A+I pattern: the context mean and the aggregation share its indices.
        assert np.shares_memory(ops.ctx_mean.fwd.indices, agg.indices)
        assert np.shares_memory(ops.ctx_mean.fwd.indptr, agg.indptr)


def test_gat_uniform_attention_on_identical_embeddings(pre_activation):
    g = make_graph([(0, 1), (0, 2), (0, 3)], 4)
    ops = build_operators(g, 1, full_groups(g, 10.0), "gat")
    h = Tensor(np.tile([1.0, -2.0], (4, 1)))
    rng = np.random.default_rng(1)
    head = GatHead(
        w=Tensor(rng.standard_normal((2, 3))),
        att_self=Tensor(rng.standard_normal((3, 1))),
        att_nbr=Tensor(rng.standard_normal((3, 1))),
    )
    out = pre_activation(h, ops, {"heads": [head], "b": Tensor(np.zeros((1, 3)))}).h
    # Identical projections -> uniform attention -> output equals any z row.
    z = h.data @ head.w.data
    assert np.allclose(out.data, z, atol=1e-12)


@pytest.mark.parametrize("kind,other,weight", [
    ("gcn", "sage", "w"), ("sage", "gat", "w_self"), ("gat", "gcn", "heads"),
])
@pytest.mark.parametrize("forward", [
    lambda *a: model_forward(*a, eps=0.7),
    base_forward,
], ids=["model_forward", "base_forward"])
def test_missing_weights_is_config_error(forward, kind, other, weight):
    # Both forwards reach the one check of the backbone against the
    # operators, and of the layer's weights against the backbone.
    g, config, ops, params = synth_setup(kind)
    other_ops = build_operators(g, config.r_context, full_groups(g, 10.0), other)
    with pytest.raises(ValueError, match=f"operators were built for {other}, not '{kind}'"):
        forward(g, params, other_ops)
    del params.layers[0].omega[weight]
    with pytest.raises(ValueError, match=f"missing {kind} weight '{weight}'"):
        forward(g, params, ops)


def test_input_features_none_is_the_raw_features():
    # Rows of unequal length, so a normalized copy would differ.
    g = make_graph([(0, 1), (1, 2)], 3, feats=np.arange(6.0).reshape(3, 2) - 2.5)
    assert input_features(g, "none").data.tobytes() == g.features.tobytes()


@given(rows=st.integers(1, 300), cols=st.integers(1, 40), block=st.integers(1, 600),
       zero_every=st.integers(1, 5), seed=st.integers(0, 2**16))
@example(rows=1000, cols=1, block=1, zero_every=1, seed=0)
@settings(max_examples=60, deadline=None)
def test_input_features_l2_blocks_match_one_call_over_all_rows(rows, cols, block,
                                                              zero_every, seed):
    # Each row's norm is a sum over that row only, so blocking the rows
    # changes no bit; zero rows stay zero.
    x = np.random.default_rng(seed).standard_normal((rows, cols)) * 10.0 ** (seed % 7 - 3)
    x[::zero_every] = 0.0
    g = make_graph(np.zeros((0, 2)), rows, feats=x)
    want = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    with mock.patch.object(layers, "_NORM_BLOCK", block):
        got = input_features(g, "l2").data
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows,cols", [(20000, 32), (4000, 64), (300, 2000)])
def test_input_features_l2_squares_one_block_of_rows_at_a_time(monkeypatch, rows, cols):
    # The row norms square one block of rows at a time, never all n x d,
    # and the peak stays below the output plus one block.
    g = make_graph(np.zeros((0, 2)), rows,
                   feats=np.random.default_rng(rows).standard_normal((rows, cols)))
    block_rows = min(rows, max(1, layers._NORM_BLOCK // cols))
    squared = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda x, **kw: squared.append(x.size) or norm(x, **kw))
    tracemalloc.start()
    try:
        out = input_features(g, "l2").data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(squared) == rows * cols and max(squared) == block_rows * cols
    # One block of squares plus its two norm columns, and a little for objects.
    assert peak < out.nbytes + block_rows * (cols + 2) * 8 + 32 * 1024


def test_groups_must_cover_all_nodes():
    g = make_graph([(0, 1), (1, 2)], 3)
    from degfair.graphs import GroupAssignment

    bad = GroupAssignment(groups=[np.array([0]), np.array([2])])
    with pytest.raises(ValueError):
        build_operators(g, 1, bad, "gcn")


# --------------------------------------------------------- fair layer forward


def path3_layer(eps, w_low=None, w_high=None):
    g = make_graph([(0, 1), (1, 2)], 3,
                   feats=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    groups = full_groups(g, 10.0)  # everyone low-degree
    ops = build_operators(g, 1, groups, "gcn")
    layer = LayerParams(
        omega={"w": Tensor(np.eye(2), requires_grad=True),
               "b": Tensor(np.zeros((1, 2)), requires_grad=True)},
        debias_low=lin(w_low if w_low is not None else np.zeros((2, 2))),
        debias_high=lin(w_high if w_high is not None else np.zeros((2, 2))),
        film_scale=lin(np.zeros((2, 2))),
        film_shift=lin(np.zeros((2, 2))),
    )
    return g, ops, layer


def test_fair_layer_eps_zero_is_plain_base(monkeypatch, pre_activation):
    g, ops, layer = path3_layer(eps=0.0, w_low=np.eye(2), w_high=np.eye(2))
    h = Tensor(g.features)

    def must_not_run(*args):
        raise AssertionError("film_debias ran with eps == 0")

    # With eps == 0 the debiasing op does not run at all, so nothing of it
    # can reach the output bits.
    monkeypatch.setattr(layers, "film_debias", must_not_run)
    entry = pre_activation(h, ops, layer, eps=0.0)
    base = pre_activation(h, ops, layer).h
    assert np.array_equal(entry.h.data, base.data)


def test_fair_layer_all_low_selects_low_context(pre_activation):
    g, ops, layer = path3_layer(eps=1.0, w_low=2 * np.eye(2), w_high=7 * np.eye(2))
    h = Tensor(g.features)
    entry = pre_activation(h, ops, layer, eps=1.0)
    base = pre_activation(h, ops, layer).h
    # All nodes sit in the low group, so only debias_low enters the output.
    low_ctx, high_ctx = (entry.ctx.data @ net.w.data + net.b.data for net in entry.debias)
    assert np.array_equal(ops.group, np.zeros(3, dtype=np.int64))
    assert np.allclose(entry.h.data, base.data + low_ctx)
    assert not np.allclose(low_ctx, high_ctx)


def test_fair_layer_hand_oracle_on_path(pre_activation):
    # Dense-formula oracle for sigma=identity, eps=1 on the path 0-1-2.
    g, ops, layer = path3_layer(eps=1.0, w_low=2 * np.eye(2), w_high=np.zeros((2, 2)))
    x = g.features
    entry = pre_activation(Tensor(x), ops, layer, eps=1.0)

    a_hat = np.zeros((3, 3))
    deg = np.array([1.0, 2.0, 1.0]) + 1.0
    adj = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
    for i in range(3):
        for j in range(3):
            a_hat[i, j] = adj[i, j] / math.sqrt(deg[i] * deg[j])
    ctx = np.array(
        [(x[0] + x[1]) / 2, (x[0] + x[1] + x[2]) / 3, (x[1] + x[2]) / 2]
    )
    expected = a_hat @ x @ np.eye(2) + 1.0 * (2.0 * ctx)
    assert np.allclose(entry.h.data, expected, atol=1e-12)


# -------------------------------------------------------------- model forward


def synth_setup(kind, seed=0, n=16, hidden=4, heads=2, feat_dim=5):
    g = synth_generate(n, 2, 0.9, feat_dim, seed=seed)
    config = TrainConfig(base_gnn=kind, hidden_dim=hidden, eps=0.7, gat_heads=heads,
                         dropout=0.0)
    groups = partition_contrast(g.degrees.astype(float), config.resolve_threshold(g))
    ops = build_operators(g, config.r_context, groups, kind)
    params = init_params(config, g.feature_dim, g.num_classes,
                         np.random.default_rng(seed))
    return g, config, ops, params


def test_untaped_fair_layer_peak_stays_below_four_and_a_half_activations():
    # Layer 0 of a degfair GCN at width 32 in and out, untaped, at eps 1 (the
    # context term is added unscaled). Beyond its input the layer holds the
    # context, the aggregation term, the FiLM context term and its net-major
    # buffer, then the pre-activation; the two terms go once they are
    # summed, before the activation allocates, so the peak is about 4.3
    # n x d arrays.
    n, d = 20000, 32
    g, config, ops, params = synth_setup("gcn", n=n, hidden=d, feat_dim=d)
    h = Tensor(g.features)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        entry = forward_layer(h, ops, params, 0, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert entry.h.shape == (n, d)
    assert peak < 4.5 * n * d * 8


def test_untaped_fair_layer_peak_at_eps_0_7_stays_within_a_tenth_activation_of_eps_1():
    # A context weight other than 1 scales the context a block of rows at a
    # time as the pre-activation adds it in, so it forms no n x d scaled copy.
    n, d = 20000, 32
    g, config, ops, params = synth_setup("gcn", n=n, hidden=d, feat_dim=d)
    h = Tensor(g.features)

    def peak(eps):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            forward_layer(h, ops, params, 0, eps)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    at_one = peak(1.0)
    assert peak(0.7) - at_one < 0.1 * n * d * 8


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_model_rows_sum_to_one(kind):
    g, config, ops, params = synth_setup(kind)
    trace = model_forward(g, params, ops, eps=config.eps)
    sums = trace.probs.data.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
@pytest.mark.parametrize("eps", [None, 0.7], ids=["base", "fair"])
def test_hidden_layers_end_in_relu_and_the_last_in_softmax(kind, eps):
    # forward_layer picks the activation from the layer's place in the model.
    g, config, ops, params = synth_setup(kind)
    assert len(params.layers) == 2
    h = Tensor(g.features)
    for i in range(2):
        h = forward_layer(h, ops, params, i, eps).h
        if i == 0:
            assert h.data.min() == 0.0  # no negative entries, some exact zeros
    assert np.all(np.abs(h.data.sum(axis=1) - 1.0) <= 1e-12)


def test_model_forward_deterministic():
    g, config, ops, params = synth_setup("gcn")
    a = model_forward(g, params, ops, eps=0.7, dropout_rate=0.5, rng=np.random.default_rng(9))
    b = model_forward(g, params, ops, eps=0.7, dropout_rate=0.5, rng=np.random.default_rng(9))
    assert np.array_equal(a.probs.data, b.probs.data)
    for ea, eb in zip(a.layers, b.layers):
        assert np.array_equal(ea.ctx.data, eb.ctx.data)
        assert np.array_equal(ea.scale_u.data, eb.scale_u.data)


def test_base_forward_input_dropout_follows_the_seed():
    g, config, ops, params = synth_setup("sage")

    def run(seed, dropout_input):
        return base_forward(g, params, ops, dropout_rate=0.5, rng=np.random.default_rng(seed),
                            dropout_input=dropout_input).data

    assert np.array_equal(run(3, True), run(3, True))
    assert not np.array_equal(run(3, True), run(3, False))


@pytest.mark.parametrize("forward", [
    lambda *a: model_forward(*a, eps=0.7, dropout_rate=0.5),
    lambda *a: base_forward(*a, dropout_rate=0.5),
], ids=["model_forward", "base_forward"])
def test_dropout_without_rng_is_rejected(forward):
    g, config, ops, params = synth_setup("gcn")
    with pytest.raises(ValueError, match="dropout needs an rng"):
        forward(g, params, ops)


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_forwards_from_a_given_layer0_match_fresh_ones(kind, num_layers):
    # A forward that starts from layer 0 computed on its own draws the same
    # dropout masks after it and gives the same result, bit for bit.
    g, config, ops, _ = synth_setup(kind)
    config = dataclasses.replace(config, num_layers=num_layers)
    params = init_params(config, g.feature_dim, g.num_classes, np.random.default_rng(1))
    feats = Tensor(g.features)
    kw = dict(dropout_rate=0.5)
    fair0 = forward_layer(feats, ops, params, 0, 0.7)
    fresh = model_forward(g, params, ops, 0.7, rng=np.random.default_rng(5), **kw)
    kept = model_forward(g, params, ops, 0.7, rng=np.random.default_rng(5), layer0=fair0, **kw)
    assert kept.layers[0] is fair0
    assert kept.probs.data.tobytes() == fresh.probs.data.tobytes()
    base0 = forward_layer(feats, ops, params, 0)
    fresh = base_forward(g, params, ops, rng=np.random.default_rng(5), **kw)
    kept = base_forward(g, params, ops, rng=np.random.default_rng(5), layer0=base0, **kw)
    assert kept.data.tobytes() == fresh.data.tobytes()


@pytest.mark.parametrize("forward,eps", [
    (lambda *a, **kw: model_forward(*a, eps=0.7, **kw), 0.7),
    (base_forward, None),
], ids=["model_forward", "base_forward"])
def test_layer0_with_input_dropout_is_rejected(forward, eps):
    # layer0 is computed on the undropped input; input dropout would be
    # skipped at layer 0 without a word.
    g, config, ops, params = synth_setup("gcn")
    layer0 = forward_layer(Tensor(g.features), ops, params, 0, eps)
    with pytest.raises(ValueError, match="layer0 .* dropout_input"):
        forward(g, params, ops, dropout_rate=0.5, rng=np.random.default_rng(0),
                dropout_input=True, layer0=layer0)


def test_odd_class_count_still_works():
    # Encoding width is rounded up to even for odd layer widths.
    g = synth_generate(14, 2, 0.9, 4, seed=3)
    labels = np.arange(14) % 3
    g = build_graph(
        np.array([(v, u) for v in range(14) for u in g.neighbors(v) if v < u]),
        g.features, labels, num_classes=3,
    )
    config = TrainConfig(base_gnn="gcn", hidden_dim=4, eps=0.5, dropout=0.0)
    groups = partition_contrast(g.degrees.astype(float), config.resolve_threshold(g))
    ops = build_operators(g, 1, groups, "gcn")
    params = init_params(config, g.feature_dim, 3, np.random.default_rng(0))
    trace = model_forward(g, params, ops, eps=0.5)
    assert trace.probs.shape == (14, 3)
    assert np.all(np.isfinite(trace.probs.data))
