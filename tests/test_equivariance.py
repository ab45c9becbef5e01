"""Relabelling the nodes relabels the model's outputs and nothing else.

GCN, mean-aggregator GraphSAGE and GAT layers are permutation-equivariant,
and DegFairGNN's contexts, groups and FiLM rows depend only on degrees and
r-hop neighbourhoods (Algorithm 1, lines 4-10), so the whole debiased model
is too: at fixed parameters, relabelling edges, features, labels and split
by a permutation P gives P times the probabilities, the same five objective
terms and the same parameter gradients, up to summation order.

Two things are not invariant, by design, and are not asserted on:
fairness reports, because ``partition_top_bottom`` breaks degree ties by
node id, and dropout at a rate above 0, which draws its masks in row order.
So the tests run at dropout 0 and check probabilities, terms and gradients
and, since ``init_params`` draws nothing per node, the parameters and the
selected epoch that ``train()`` returns.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from degfair.autodiff import Tape
from degfair.graphs import NodeSplit, build_graph, partition_contrast, split_nodes, synth_generate
from degfair.layers import build_operators, model_forward
from degfair.objective import (
    classification_loss,
    debias_constraint,
    fairness_loss,
    film_constraint,
    total_loss,
    weight_regularizer,
)
from degfair.training import TrainConfig, init_params, train

TERMS = ("l1", "l2", "l3", "l4", "omega_reg")


@st.composite
def relabelled_graphs(draw):
    """A graph with at least one edge and one isolated node, its split and a permutation.

    Returns ``(edges, feats, labels, train, perm)``; node v is node
    ``perm[v]`` after relabelling.
    """
    core = draw(st.integers(2, 9))
    n = core + draw(st.integers(1, 3))  # nodes core.. have no edges
    node = st.integers(0, core - 1)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=20))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, 3))
    labels = rng.integers(0, 2, n)
    train = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    perm = np.array(draw(st.permutations(range(n))))
    return np.array(edges).reshape(-1, 2), feats, labels, train, perm


def _run(edges, feats, labels, train, config):
    """Probabilities, the five terms and every parameter gradient at fixed parameters."""
    g = build_graph(edges, feats, labels, num_classes=2)
    groups = partition_contrast(g.degrees.astype(np.float64), config.resolve_threshold(g))
    ops = build_operators(g, config.r_context, groups, config.base_gnn)
    train_mask = np.zeros(g.num_nodes, dtype=bool)
    train_mask[train] = True
    low_tr, high_tr = (np.flatnonzero(train_mask & (ops.group == k)) for k in (0, 1))
    assume(low_tr.size and high_tr.size)
    params = init_params(config, feats.shape[1], 2, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for layer in params.layers:
        for net in (layer.film_scale, layer.film_shift, layer.debias_low, layer.debias_high):
            net.w.data = rng.standard_normal(net.w.shape)
            net.b.data = rng.standard_normal(net.b.shape)
    with Tape() as tape:
        trace = model_forward(g, params, ops, eps=config.eps)
        terms = [
            classification_loss(trace.probs, g.labels, train),
            fairness_loss(trace.probs, low_tr, high_tr),
            debias_constraint(trace, low_tr, high_tr),
            film_constraint(trace, train),
            weight_regularizer(params),
        ]
        total, breakdown = total_loss(*terms, config.mu, config.lam)
    tape.backward(total)
    grads = {name: t.grad for name, t in params.named_tensors()}
    return trace.probs.data, breakdown, grads


def _close(a, b, rel, floor):
    """``|a - b|`` within ``rel`` of the larger magnitude, or within ``floor`` near 0."""
    return np.abs(a - b).max() <= max(rel * max(np.abs(a).max(), np.abs(b).max()), floor)


@pytest.mark.parametrize("kind,heads", [("gcn", 1), ("sage", 1), ("gat", 1), ("gat", 2)],
                         ids=["gcn", "sage", "gat1", "gat2"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(graph=relabelled_graphs(), eps=st.sampled_from([0.0, 0.5]), r=st.sampled_from([1, 2]))
# Node 0 is high-degree, node 4 isolated and low: the permutation moves
# both, and every node's degree row and context with them.
@example(graph=(np.array([[0, 1], [0, 2], [0, 3], [1, 2]]),
                np.arange(15.0).reshape(5, 3) / 7.0, np.array([0, 1, 1, 0, 1]),
                np.array([0, 1, 2, 4]), np.array([4, 2, 0, 3, 1])), eps=0.5, r=2)
def test_relabelled_graph_relabels_probabilities_and_keeps_terms_and_grads(kind, heads,
                                                                          graph, eps, r):
    edges, feats, labels, train, perm = graph
    inv = np.argsort(perm)  # inv[u] is the node that becomes u
    config = TrainConfig(base_gnn=kind, gat_heads=heads, hidden_dim=3, eps=eps, r_context=r,
                         mu=0.7, lam=0.3, dropout=0.0)
    probs, terms, grads = _run(edges, feats, labels, train, config)
    probs_p, terms_p, grads_p = _run(perm[edges], feats[inv], labels[inv], np.sort(perm[train]),
                                     config)
    assert np.abs(probs_p[perm] - probs).max() <= 1e-12
    for name in TERMS:
        a, b = getattr(terms, name), getattr(terms_p, name)
        assert _close(a, b, 1e-12, 1e-14), (name, a, b)
    for name, g in grads.items():
        assert _close(g, grads_p[name], 1e-10, 1e-14), name


@pytest.mark.parametrize("kind,heads", [("gcn", 1), ("sage", 1), ("gat", 1), ("gat", 2)],
                         ids=["gcn", "sage", "gat1", "gat2"])
def test_training_on_a_relabelled_graph_gives_the_same_parameters_and_epoch(kind, heads):
    g = synth_generate(60, 2, 0.9, 4, seed=3)
    edges = np.column_stack([np.repeat(np.arange(g.num_nodes), g.degrees), g.csr_neighbors])
    split = split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=0)
    perm = np.random.default_rng(4).permutation(g.num_nodes)
    inv = np.argsort(perm)
    g_p = build_graph(perm[edges], g.features[inv], g.labels[inv], num_classes=g.num_classes)
    split_p = NodeSplit(*(np.sort(perm[s]) for s in (split.train, split.val, split.test)))
    config = TrainConfig(base_gnn=kind, gat_heads=heads, hidden_dim=8, eps=0.5, r_context=2,
                         mu=0.7, lam=0.3, dropout=0.0, epochs=5, patience=5)
    params, history = train(g, split, config)
    params_p, history_p = train(g_p, split_p, config)
    assert history.best_epoch == history_p.best_epoch
    for (name, t), (_, t_p) in zip(params.named_tensors(), params_p.named_tensors()):
        assert _close(t.data, t_p.data, 1e-9, 0.0), name
