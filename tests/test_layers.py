import math

import numpy as np
import pytest

from degfair import layers
from degfair.autodiff import Tape, Tensor, film_debias, sparse_matmul
from degfair.graphs import build_graph, partition_contrast, synth_generate
from degfair.layers import (
    GatHead,
    LayerParams,
    Linear,
    base_aggregate,
    base_forward,
    build_operators,
    context_operator,
    degree_encoding_matrix,
    fair_layer_forward,
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

    op = context_operator(3, *local_contexts(g, 1))
    h = Tensor(np.tile([2.0, -1.0], (3, 1)))
    c = sparse_matmul(op, h)
    assert np.allclose(c.data, np.tile([2.0, -1.0], (3, 1)))


def test_context_isolated_node():
    g = make_graph([(0, 1)], 3)
    from degfair.graphs import local_contexts

    op = context_operator(3, *local_contexts(g, 1))
    h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]))
    c = sparse_matmul(op, h)
    assert np.allclose(c.data[2], [5.0, 5.0])


def test_context_path_mean():
    g = make_graph([(0, 1), (1, 2)], 3)
    from degfair.graphs import local_contexts

    op = context_operator(3, *local_contexts(g, 1))
    e = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = sparse_matmul(op, Tensor(e))
    assert np.allclose(c.data[1], (e[0] + e[1] + e[2]) / 3.0)


# -------------------------------------------------------------- film factors
# The FiLM nets are plain Linear maps of the degree encodings.


def test_film_zero_params():
    enc = Tensor(np.ones((3, 4)))
    gamma, beta = lin(np.zeros((4, 2)))(enc), lin(np.zeros((4, 2)))(enc)
    assert np.allclose(gamma.data, 0.0)
    assert np.allclose(beta.data, 0.0)


def test_film_identity_map():
    enc = Tensor(np.array([[0.0, 1.0, 0.0, 1.0]]))
    gamma = lin(np.eye(4))(enc)
    assert np.allclose(gamma.data, [[0.0, 1.0, 0.0, 1.0]])


def test_film_equal_degrees_equal_rows():
    enc_rows = degree_encoding_matrix(np.array([3.0, 7.0, 3.0]), 4)
    rng = np.random.default_rng(0)
    scale_net, shift_net = lin(rng.standard_normal((4, 2))), lin(rng.standard_normal((4, 2)))
    gamma, beta = scale_net(Tensor(enc_rows)), shift_net(Tensor(enc_rows))
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


def test_gcn_isolated_node_is_self_transform():
    g = make_graph([(0, 1)], 3)
    ops = build_operators(g, 1, full_groups(g, 10.0), "gcn")
    h = Tensor(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]]))
    w = Tensor(np.array([[2.0, 0.0], [0.0, 1.0]]))
    b = Tensor(np.zeros((1, 2)))
    out = base_aggregate(h, ops, {"w": w, "b": b}, "gcn")
    # Row 2 of the normalized operator is just the self-loop with weight 1.
    assert np.allclose(out.data[2], [6.0, -1.0])


def test_gcn_row_sums_one_on_cycle():
    n = 8
    cycle = [(i, (i + 1) % n) for i in range(n)]
    g = make_graph(cycle, n)
    ops = build_operators(g, 1, full_groups(g, 10.0), "gcn")
    ones = np.ones((n, 1))
    assert np.allclose(ops.agg.fwd @ ones, ones, atol=1e-12)


def test_sage_zero_neighbor_weights():
    g = make_graph([(0, 1), (1, 2)], 3)
    ops = build_operators(g, 1, full_groups(g, 10.0), "sage")
    h = Tensor(np.arange(6.0).reshape(3, 2))
    w_self = Tensor(np.array([[1.0, 1.0], [0.0, 1.0]]))
    w_neigh = Tensor(np.zeros((2, 2)))
    b = Tensor(np.zeros((1, 2)))
    out = base_aggregate(h, ops, {"w_self": w_self, "w_neigh": w_neigh, "b": b}, "sage")
    assert np.allclose(out.data, h.data @ w_self.data)


def test_sage_neighbor_mean_matches_dense_oracle():
    # Node 3 is isolated; node 1 has three neighbors, node 0 one.
    edges = [(0, 1), (1, 2), (1, 4), (2, 4)]
    g = make_graph(edges, 5)
    ops = build_operators(g, 1, full_groups(g, 10.0), "sage")
    adj = np.zeros((5, 5))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    deg = adj.sum(axis=1)
    expect = np.divide(adj, deg[:, None], out=np.zeros_like(adj), where=deg[:, None] > 0)
    assert np.array_equal(ops.agg.fwd.toarray(), expect)
    assert not expect[3].any() and np.diag(expect).sum() == 0.0


def test_gat_uniform_attention_on_identical_embeddings():
    g = make_graph([(0, 1), (0, 2), (0, 3)], 4)
    ops = build_operators(g, 1, full_groups(g, 10.0), "gat")
    h = Tensor(np.tile([1.0, -2.0], (4, 1)))
    rng = np.random.default_rng(1)
    head = GatHead(
        w=Tensor(rng.standard_normal((2, 3))),
        att_self=Tensor(rng.standard_normal((3, 1))),
        att_nbr=Tensor(rng.standard_normal((3, 1))),
    )
    out = base_aggregate(h, ops, {"heads": [head], "b": Tensor(np.zeros((1, 3)))}, "gat")
    # Identical projections -> uniform attention -> output equals any z row.
    z = h.data @ head.w.data
    assert np.allclose(out.data, z, atol=1e-12)


def test_gat_two_heads_match_dense_attention_oracle():
    # Node 4 is isolated (attends to itself only); distinct rows make the
    # attention non-uniform.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (3, 5)]
    n = 6
    g = make_graph(edges, n)
    ops = build_operators(g, 1, full_groups(g, 10.0), "gat")
    rng = np.random.default_rng(5)
    h = Tensor(rng.standard_normal((n, 3)))
    heads = [
        GatHead(w=Tensor(rng.standard_normal((3, 4))),
                att_self=Tensor(rng.standard_normal((4, 1))),
                att_nbr=Tensor(rng.standard_normal((4, 1))))
        for _ in range(2)
    ]
    b = Tensor(rng.standard_normal((1, 4)))
    out = base_aggregate(h, ops, {"heads": heads, "b": b}, "gat")

    closed = np.eye(n, dtype=bool)
    for u, v in edges:
        closed[u, v] = closed[v, u] = True
    expect = np.zeros((n, 4))
    alphas = []
    for head in heads:
        z = h.data @ head.w.data
        logits = (z @ head.att_self.data) + (z @ head.att_nbr.data).T  # [i, j]
        logits = np.where(logits > 0, logits, 0.2 * logits)
        e = np.where(closed, np.exp(logits - logits.max(axis=1, keepdims=True)), 0.0)
        alpha = e / e.sum(axis=1, keepdims=True)
        alphas.append(alpha)
        expect += alpha @ z / len(heads)
    expect += b.data
    assert np.allclose(out.data, expect, rtol=0.0, atol=1e-12)
    assert alphas[0][4, 4] == 1.0
    assert np.ptp(alphas[0][0][closed[0]]) > 0.05  # attention is not uniform


def test_missing_weights_is_config_error():
    g = make_graph([(0, 1)], 2)
    ops = build_operators(g, 1, full_groups(g, 10.0), "gcn")
    with pytest.raises(ValueError):
        base_aggregate(Tensor(np.zeros((2, 2))), ops, {"w": Tensor(np.eye(2))}, "sage")


def test_groups_must_cover_all_nodes():
    g = make_graph([(0, 1), (1, 2)], 3)
    from degfair.graphs import GroupAssignment

    bad = GroupAssignment(kind="threshold-contrast",
                          groups=[np.array([0]), np.array([2])])
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


def test_fair_layer_eps_zero_is_plain_base(monkeypatch):
    g, ops, layer = path3_layer(eps=0.0, w_low=np.eye(2), w_high=np.eye(2))
    h = Tensor(g.features)

    def must_not_run(*args):
        raise AssertionError("film_debias ran with eps == 0")

    # With eps == 0 the debiasing op does not run at all, so nothing of it
    # can reach the output bits.
    monkeypatch.setattr(layers, "film_debias", must_not_run)
    entry = fair_layer_forward(h, ops, layer, "gcn", eps=0.0, activation="relu")
    base = base_aggregate(h, ops, layer.omega, "gcn")
    assert np.array_equal(entry.h.data, np.maximum(base.data, 0.0))


def test_fair_layer_all_low_selects_low_context():
    g, ops, layer = path3_layer(eps=1.0, w_low=2 * np.eye(2), w_high=7 * np.eye(2))
    h = Tensor(g.features)
    entry = fair_layer_forward(h, ops, layer, "gcn", eps=1.0, activation="identity")
    base = base_aggregate(h, ops, layer.omega, "gcn")
    # All nodes sit in the low group, so only debias_low enters the output.
    low_ctx, high_ctx = (entry.ctx.data @ net.w.data + net.b.data for net in entry.debias)
    assert np.array_equal(ops.group, np.zeros(3, dtype=np.int64))
    assert np.allclose(entry.h.data, base.data + low_ctx)
    assert not np.allclose(low_ctx, high_ctx)


def test_fair_layer_hand_oracle_on_path():
    # Dense-formula oracle for sigma=identity, eps=1 on the path 0-1-2.
    g, ops, layer = path3_layer(eps=1.0, w_low=2 * np.eye(2), w_high=np.zeros((2, 2)))
    x = g.features
    entry = fair_layer_forward(Tensor(x), ops, layer, "gcn", 1.0, "identity")

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


def synth_setup(kind, seed=0, n=16, hidden=4, heads=2):
    g = synth_generate(n, 2, 0.9, 5, seed=seed)
    config = TrainConfig(base_gnn=kind, hidden_dim=hidden, eps=0.7, gat_heads=heads,
                         dropout=0.0)
    groups = partition_contrast(g.degrees.astype(float), config.resolve_threshold(g))
    ops = build_operators(g, config.r_context, groups, kind)
    params = init_params(config, g.feature_dim, g.num_classes,
                         np.random.default_rng(seed))
    return g, config, ops, params


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_model_rows_sum_to_one(kind):
    g, config, ops, params = synth_setup(kind)
    trace = model_forward(g, params, ops, eps=config.eps)
    sums = trace.probs.data.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_eps_zero_reduction_is_bit_identical(kind):
    g, config, ops, params = synth_setup(kind)
    fair = model_forward(g, params, ops, eps=0.0)
    plain = base_forward(g, params, ops)
    assert np.array_equal(fair.probs.data, plain.data)
    assert np.array_equal(
        np.argmax(fair.probs.data, axis=1), np.argmax(plain.data, axis=1)
    )


def test_model_forward_deterministic():
    g, config, ops, params = synth_setup("gcn")
    a = model_forward(g, params, ops, eps=0.7, dropout_rate=0.5, train_mode=True,
                      rng=np.random.default_rng(9))
    b = model_forward(g, params, ops, eps=0.7, dropout_rate=0.5, train_mode=True,
                      rng=np.random.default_rng(9))
    assert np.array_equal(a.probs.data, b.probs.data)
    for ea, eb in zip(a.layers, b.layers):
        assert np.array_equal(ea.ctx.data, eb.ctx.data)
        assert np.array_equal(ea.scale_u.data, eb.scale_u.data)


def test_mixed_routing_matches_dense_oracle():
    # Each node adds the context of its own group's net only: a dense
    # per-node formula over both groups, with nonzero modulation.
    g, config, ops, params = synth_setup("gcn")
    assert 0 < np.count_nonzero(ops.group) < g.num_nodes  # both groups present
    rng = np.random.default_rng(3)
    for layer in params.layers:
        for net in (layer.film_scale, layer.film_shift, layer.debias_low,
                    layer.debias_high):
            net.w.data = rng.standard_normal(net.w.shape)
            net.b.data = rng.standard_normal(net.b.shape)
    trace = model_forward(g, params, ops, eps=config.eps)

    adj = np.zeros((g.num_nodes, g.num_nodes))
    for v in range(g.num_nodes):
        adj[v, g.neighbors(v)] = 1.0
    closed = adj + np.eye(g.num_nodes)
    deg = closed.sum(axis=1)
    a_hat = closed / np.sqrt(np.outer(deg, deg))
    ctx_mean = closed / deg[:, None]
    h = g.features
    for i, (layer, entry) in enumerate(zip(params.layers, trace.layers)):
        width = layer.film_scale.b.shape[1]
        enc = degree_encoding_matrix(g.degrees.astype(float), width + width % 2)
        scale = enc @ layer.film_scale.w.data + layer.film_scale.b.data
        shift = enc @ layer.film_shift.w.data + layer.film_shift.b.data
        pre = a_hat @ h @ layer.omega["w"].data + layer.omega["b"].data
        for v in range(g.num_nodes):
            net = (layer.debias_low, layer.debias_high)[ops.group[v]]
            own = ctx_mean[v] @ h @ net.w.data + net.b.data[0]
            pre[v] += config.eps * ((scale[v] + 1.0) * own + shift[v])
        if i == len(params.layers) - 1:
            e = np.exp(pre - pre.max(axis=1, keepdims=True))
            h = e / e.sum(axis=1, keepdims=True)
        else:
            h = np.maximum(pre, 0.0)
        assert np.allclose(entry.h.data, h, atol=1e-12)
        assert np.allclose(entry.ctx.data, ctx_mean @ (g.features if i == 0 else
                                                       trace.layers[i - 1].h.data))
        # The trace holds one modulation row per unique degree; the
        # degree map sends each node to its row.
        assert entry.scale_u.shape[0] == np.unique(g.degrees).size
        assert np.allclose(entry.scale_u.data[trace.degree_inverse], scale, atol=1e-12)
        assert np.allclose(entry.shift_u.data[trace.degree_inverse], shift, atol=1e-12)
    assert trace.degree_inverse is ops.degree_inverse
    assert np.allclose(trace.probs.data, h, atol=1e-12)


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
