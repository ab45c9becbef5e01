"""``model_forward``, ``base_forward`` and the five terms against ``dense_model``.

The two forwards share ``layers.forward_layer``; the dense model shares no
code with it, and the parameters are random, the FiLM nets included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_model
from degfair import objective as obj
from degfair.graphs import build_graph, partition_contrast
from degfair.layers import base_forward, build_operators, model_forward
from degfair.training import TrainConfig, init_params


@st.composite
def graphs(draw):
    """``(edges, n, K, train, seed)``; nodes ``core..n-1`` are isolated (low-degree).

    K puts the highest-degree node in the high group; it and an isolated node train.
    """
    core = draw(st.integers(2, 8))
    n = core + draw(st.integers(1, 3))
    node = st.integers(0, core - 1)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=16))
    deg = dense_model.adjacency(edges, n).sum(axis=1)
    train = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    train[[core, np.argmax(deg)]] = True
    return (np.array(edges), n, draw(st.integers(0, int(deg.max()) - 1)),
            np.flatnonzero(train), draw(st.integers(0, 2**16)))


KINDS = pytest.mark.parametrize("kind,heads", [("gcn", 1), ("sage", 1), ("gat", 1), ("gat", 3)],
                                ids=["gcn", "sage", "gat1", "gat3"])
RS = pytest.mark.parametrize("r", [1, 2], ids=["r1", "r2"])


@RS
@pytest.mark.parametrize("num_layers", [1, 2, 3], ids=["layers1", "layers2", "layers3"])
@KINDS
@settings(max_examples=10, deadline=None)
@given(graph=graphs())
def test_forwards_and_terms_match_the_dense_model(kind, heads, num_layers, r, graph):
    # At hidden width 3 every layer takes the routed form (2 x 2 classes > 3).
    check_against_dense_model(kind, heads, num_layers, r, graph, hidden=3)


@RS
@pytest.mark.parametrize("num_layers", [2, 3], ids=["layers2", "layers3"])
@KINDS
@settings(max_examples=10, deadline=None)
@given(graph=graphs())
def test_projected_output_layer_matches_the_dense_model(kind, heads, num_layers, r, graph):
    # At hidden width 5 the output layer (5 -> 2) projects before the context
    # mean; layer 0 (3 -> 5) and a middle layer (5 -> 5) stay routed.
    check_against_dense_model(kind, heads, num_layers, r, graph, hidden=5)


def check_against_dense_model(kind, heads, num_layers, r, graph, hidden):
    edges, n, threshold, train, seed = graph
    rng = np.random.default_rng(seed)
    feats, labels = rng.standard_normal((n, 3)), rng.integers(0, 2, n)
    g = build_graph(edges, feats, labels, num_classes=2)
    ops = build_operators(g, r, partition_contrast(g.degrees.astype(float), threshold), kind)
    config = TrainConfig(base_gnn=kind, gat_heads=heads, num_layers=num_layers,
                         hidden_dim=hidden)
    params = init_params(config, 3, 2, rng)
    for _, t in params.named_tensors():
        t.data[...] = rng.standard_normal(t.shape)
    adj = dense_model.adjacency(edges, n)
    low = adj.sum(axis=1) <= threshold
    low_tr, high_tr = train[low[train]], train[~low[train]]

    base = dense_model.forward(adj, feats, params, r, 0.0, low)[0]
    assert np.abs(base_forward(g, params, ops).data - base).max() <= 1e-12
    for eps in (0.0, 0.5):
        trace = model_forward(g, params, ops, eps)
        probs, pieces = dense_model.forward(adj, feats, params, r, eps, low)
        assert np.abs(trace.probs.data - probs).max() <= 1e-12, eps
        got = [obj.classification_loss(trace.probs, labels, train),
               obj.fairness_loss(trace.probs, low_tr, high_tr),
               obj.debias_constraint(trace, low_tr, high_tr),
               obj.film_constraint(trace, train), obj.weight_regularizer(params)]
        want = dense_model.objective(probs, pieces, params, labels, train, low)
        # The group-mean gap cancels, so l2 is held to the means' squared norms.
        l2_scale = sum(np.sum(probs[rows].mean(axis=0) ** 2) for rows in (low_tr, high_tr))
        for (name, x), term in zip(want.items(), got):
            bound = l2_scale if name == "l2" else abs(x)
            assert abs(term.item() - x) <= 1e-12 * bound, (name, eps)
