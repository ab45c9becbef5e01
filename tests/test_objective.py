import dataclasses
import math

import numpy as np
import pytest

from degfair import autodiff as ad
from degfair import training
from degfair.autodiff import Tape, Tensor
from degfair.graphs import partition_contrast, split_nodes, synth_generate
from degfair.layers import (
    ForwardTrace,
    LayerTraceEntry,
    Linear,
    build_operators,
    model_forward,
)
from degfair.objective import (
    classification_loss,
    debias_constraint,
    fairness_loss,
    film_constraint,
    total_loss,
    weight_regularizer,
)
from degfair.optim import Adam
from degfair.training import TrainConfig, init_params, train
from test_acceptance import full_loss_program


def scalar(x):
    return Tensor([[float(x)]])


def make_trace(entries):
    # Node i has unique degree row i % (number of modulation rows): with one
    # row per node that is the identity, with fewer rows degrees repeat.
    n, unique = entries[0].ctx.shape[0], entries[0].scale_u.shape[0]
    return ForwardTrace(layers=entries, probs=entries[-1].h,
                        degree_inverse=np.arange(n) % unique)


def entry(h=None, low=None, high=None, scale=None, shift=None, n=2, d=2):
    # The context embedding is the n x n identity and the nets have zero
    # bias, so row i of ``low`` / ``high`` is node i's unmodulated context;
    # ``scale`` / ``shift`` hold one row per node.
    z = np.zeros((n, d))

    def net(w):
        return Linear(Tensor(z if w is None else np.asarray(w, dtype=float)),
                      Tensor(np.zeros((1, d))))

    return LayerTraceEntry(
        h=Tensor(z if h is None else np.asarray(h, dtype=float)),
        ctx=Tensor(np.eye(n)),
        scale_u=Tensor(z if scale is None else np.asarray(scale, dtype=float)),
        shift_u=Tensor(z if shift is None else np.asarray(shift, dtype=float)),
        debias=(net(low), net(high)),
    )


def random_entry(rng, h, n=6, d_in=4, d=3, unique=4):
    # ``unique`` < n modulation rows, so some nodes share a degree row.
    def rand(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    return LayerTraceEntry(
        h=h, ctx=rand(n, d_in), scale_u=rand(unique, d), shift_u=rand(unique, d),
        debias=(Linear(rand(d_in, d), rand(1, d)), Linear(rand(d_in, d), rand(1, d))),
    )


def entry_tensors(e):
    return [e.ctx, e.scale_u, e.shift_u] + [t for net in e.debias for t in net]


# ------------------------------------------------------- classification loss


def test_classification_uniform():
    probs = Tensor(np.full((1, 5), 0.2))
    loss = classification_loss(probs, np.array([3]), np.array([0]))
    assert loss.item() == pytest.approx(math.log(5.0), abs=1e-12)


def test_classification_perfect_prediction():
    probs = Tensor(np.array([[0.0, 1.0, 0.0]]))
    loss = classification_loss(probs, np.array([1]), np.array([0]))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_classification_hand_value():
    probs = Tensor(np.array([[0.5, 0.5], [0.25, 0.75]]))
    loss = classification_loss(probs, np.array([0, 0]), np.array([0, 1]))
    assert loss.item() == pytest.approx(3.0 * math.log(2.0), abs=1e-12)


def test_classification_nan_row_gives_nan():
    # A NaN probability row must not be hidden by the clamp before the log.
    probs = Tensor(np.array([[0.5, 0.5], [np.nan, np.nan], [0.25, 0.75]]))
    loss = classification_loss(probs, np.array([0, 1, 1]), np.arange(3))
    assert np.isnan(loss.item())


def test_classification_sums_not_means():
    probs = Tensor(np.full((4, 2), 0.5))
    one = classification_loss(probs, np.zeros(4, dtype=int), np.array([0]))
    four = classification_loss(probs, np.zeros(4, dtype=int), np.arange(4))
    assert four.item() == pytest.approx(4.0 * one.item())


def test_classification_empty_train_is_error():
    with pytest.raises(ValueError):
        classification_loss(Tensor(np.full((2, 2), 0.5)), np.array([0, 1]),
                            np.array([], dtype=int))


def _index_calls():
    probs, labels = Tensor(np.full((3, 2), 0.5)), np.array([0, 1, 0])
    trace = make_trace([entry(n=3)])
    return {
        "classification": lambda idx: classification_loss(probs, labels, idx),
        "debias-low": lambda idx: debias_constraint(trace, idx, [2]),
        "debias-high": lambda idx: debias_constraint(trace, [2], idx),
        "film": lambda idx: film_constraint(trace, idx),
    }


@pytest.mark.parametrize("call, name", [
    ("classification", "train_idx"), ("debias-low", "low_tr"),
    ("debias-high", "high_tr"), ("film", "train_idx"),
])
@pytest.mark.parametrize("idx, problem", [
    ([0.9, 1.2], "be integers"), (np.array([0.0, 1.0]), "be integers"),
    ([True, False], "be integers"), ([-1], r"lie in \[0, 3\)"), ([3], r"lie in \[0, 3\)"),
], ids=["float-list", "integral-floats", "bool", "negative", "too-large"])
def test_bad_index_arrays_are_rejected(call, name, idx, problem):
    # Cast first, [0.9, 1.2] read as [0, 1], [True, False] as [1, 0] and
    # -1 as the last row.
    with pytest.raises(ValueError, match=f"{name} must {problem}"):
        _index_calls()[call](idx)


def test_empty_index_lists_are_accepted():
    calls = _index_calls()
    assert calls["debias-low"]([]).item() == 0.0
    assert calls["debias-high"]([]).item() == 0.0
    assert calls["film"]([]).item() == 0.0
    with pytest.raises(ValueError, match="nonempty training set"):
        calls["classification"]([])


# ------------------------------------------------------------- fairness loss


def test_fairness_identical_rows():
    h = Tensor(np.tile([0.3, 0.7], (6, 1)))
    assert fairness_loss(h, np.arange(3), np.arange(3, 6)).item() == 0.0


def test_fairness_hand_value():
    h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = fairness_loss(h, np.array([0]), np.array([1]))
    assert loss.item() == pytest.approx(2.0, abs=1e-12)


def test_fairness_symmetric_in_groups():
    rng = np.random.default_rng(4)
    h = Tensor(rng.random((8, 3)))
    a = fairness_loss(h, np.arange(5), np.arange(5, 8)).item()
    b = fairness_loss(h, np.arange(5, 8), np.arange(5)).item()
    assert a == pytest.approx(b, abs=1e-15)


def test_fairness_empty_group_warns_and_zero():
    h = Tensor(np.ones((3, 2)))
    with pytest.warns(UserWarning):
        loss = fairness_loss(h, np.array([], dtype=int), np.arange(3))
    assert loss.item() == 0.0


# ---------------------------------------------------------- debias constraint


def test_debias_constraint_zero_contexts():
    trace = make_trace([entry(), entry()])
    assert debias_constraint(trace, np.array([0]), np.array([1])).item() == 0.0


def test_debias_constraint_hand_value():
    trace = make_trace([entry(high=[[1.0, 1.0], [0.0, 0.0]])])
    loss = debias_constraint(trace, np.array([0]), np.array([], dtype=int))
    assert loss.item() == pytest.approx(2.0, abs=1e-12)


def test_debias_constraint_quadratic():
    rng = np.random.default_rng(0)
    d0, d1 = rng.random((3, 2)), rng.random((3, 2))
    one = debias_constraint(make_trace([entry(low=d0, high=d1, n=3)]),
                            np.array([0, 2]), np.array([1])).item()
    four = debias_constraint(make_trace([entry(low=2 * d0, high=2 * d1, n=3)]),
                             np.array([0, 2]), np.array([1])).item()
    assert four == pytest.approx(4.0 * one, rel=1e-12)


def test_debias_constraint_crosses_groups():
    # Low nodes penalize the high context and vice versa.
    trace = make_trace([entry(low=[[5.0, 0.0], [3.0, 0.0]],
                              high=[[1.0, 0.0], [2.0, 0.0]])])
    loss = debias_constraint(trace, np.array([0]), np.array([1]))
    assert loss.item() == pytest.approx(1.0 + 9.0, abs=1e-12)


# ------------------------------------------------------------ film constraint


def test_film_constraint_zero():
    trace = make_trace([entry(), entry()])
    assert film_constraint(trace, np.arange(2)).item() == 0.0


def test_film_constraint_hand_value():
    trace = make_trace([entry(scale=[[1.0, 0.0]], shift=[[0.0, 2.0]], n=1)])
    assert film_constraint(trace, np.array([0])).item() == pytest.approx(5.0)


def test_film_constraint_empty_train():
    trace = make_trace([entry(scale=[[1.0, 1.0]], shift=[[1.0, 1.0]], n=1)])
    assert film_constraint(trace, np.array([], dtype=int)).item() == 0.0


# -------------------------------------------------------- weight regularizer


def test_regularizer_zero_params():
    config = TrainConfig(base_gnn="gcn", hidden_dim=4, dropout=0.0)
    params = init_params(config, 3, 2, np.random.default_rng(0))
    for w in params.weight_tensors():
        w.data[:] = 0.0
    assert weight_regularizer(params).item() == 0.0


def test_regularizer_hand_value_and_bias_exclusion():
    config = TrainConfig(base_gnn="gcn", hidden_dim=2, num_layers=1, dropout=0.0)
    params = init_params(config, 2, 2, np.random.default_rng(0))
    for w in params.weight_tensors():
        w.data[:] = 0.0
    params.layers[0].omega["w"].data[:] = np.array([[1.0, 2.0], [0.0, 0.0]])
    params.layers[0].debias_low.b.data[:] = 100.0  # biases excluded
    assert weight_regularizer(params).item() == pytest.approx(5.0)


def test_regularizer_quadratic_scaling():
    config = TrainConfig(base_gnn="sage", hidden_dim=4, dropout=0.0)
    params = init_params(config, 3, 2, np.random.default_rng(1))
    one = weight_regularizer(params).item()
    for w in params.weight_tensors():
        w.data *= 3.0
    assert weight_regularizer(params).item() == pytest.approx(9.0 * one, rel=1e-12)


# ----------------------------------------------------------------- total loss


def test_total_hand_value():
    total, bd = total_loss(scalar(1), scalar(2), scalar(3), scalar(4), scalar(5),
                           mu=0.01, lam=0.0001)
    assert total.item() == pytest.approx(1.0212, abs=1e-12)
    assert bd.total == pytest.approx(1.0212, abs=1e-12)


def test_total_reduces_to_l1():
    total, _ = total_loss(scalar(7), scalar(2), scalar(3), scalar(4), scalar(5),
                          mu=0.0, lam=0.0)
    assert total.item() == 7.0


def test_total_rejects_negative_weights():
    # Non-finite weights too: a NaN one, or an infinite one times a zero
    # term, would make the total NaN.
    for mu, lam in ((-1.0, 0.0), (0.0, -1e-4), (math.nan, 1e-4), (1e-3, math.nan),
                    (math.inf, 1e-4), (1e-3, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            total_loss(scalar(1), scalar(0), scalar(1), scalar(1), scalar(0), mu=mu, lam=lam)


def test_total_linear_in_mu_and_lambda():
    parts = (scalar(1.5), scalar(0.7), scalar(0.2), scalar(0.1), scalar(0.4))
    base, _ = total_loss(*parts, mu=0.0, lam=0.0)
    with_mu, _ = total_loss(*parts, mu=2.0, lam=0.0)
    with_lam, _ = total_loss(*parts, mu=0.0, lam=3.0)
    assert with_mu.item() - base.item() == pytest.approx(2.0 * 0.7, abs=1e-12)
    assert with_lam.item() - base.item() == pytest.approx(3.0 * 0.7, abs=1e-12)


def test_breakdown_nonnegative_terms():
    rng = np.random.default_rng(2)
    h = Tensor(np.abs(rng.random((4, 2))) + 0.1)
    tr = make_trace([entry(h=h.data, low=rng.random((4, 2)),
                           high=rng.random((4, 2)), scale=rng.random((4, 2)),
                           shift=rng.random((4, 2)), n=4)])
    low, high = np.array([0, 1]), np.array([2, 3])
    assert fairness_loss(tr.probs, low, high).item() >= 0.0
    assert debias_constraint(tr, low, high).item() >= 0.0
    assert film_constraint(tr, np.arange(4)).item() >= 0.0


def test_each_term_same_value_under_no_grad():
    rng = np.random.default_rng(4)
    probs = Tensor(ad.softmax_rows(Tensor(rng.standard_normal((6, 3)))).data,
                   requires_grad=True)
    tr = make_trace([random_entry(rng, probs)])
    params = init_params(TrainConfig(base_gnn="gat", hidden_dim=4, gat_heads=2),
                         3, 2, np.random.default_rng(0))
    low, high = np.array([0, 2, 4]), np.array([1, 3, 5])
    terms = {
        "l1": lambda: classification_loss(probs, np.array([0, 1, 2, 0, 1, 2]),
                                          np.arange(6)),
        "l2": lambda: fairness_loss(probs, low, high),
        "l3": lambda: debias_constraint(tr, low, high),
        "l4": lambda: film_constraint(tr, np.arange(5)),
        "omega_reg": lambda: weight_regularizer(params),
    }
    for name, term in terms.items():
        with Tape() as tape:
            taped = term()
            with ad.no_grad():
                untaped = term()
        assert taped.requires_grad and len(tape) > 0, name
        assert not untaped.requires_grad, name
        assert untaped.item() == taped.item(), name


# ------------------------------------------------------------ gradient checks


def test_each_term_passes_fd_in_isolation():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    e = random_entry(rng, None)
    labels = np.array([0, 1, 2, 0, 1, 2])
    low, high = np.array([0, 1, 2]), np.array([3, 4, 5])

    def trace():
        return make_trace([dataclasses.replace(e, h=ad.softmax_rows(logits))])

    checks = {
        "l1": (lambda: classification_loss(ad.softmax_rows(logits), labels,
                                           np.arange(6)), [logits]),
        "l2": (lambda: fairness_loss(ad.softmax_rows(logits), low, high), [logits]),
        "l3": (lambda: debias_constraint(trace(), low, high), entry_tensors(e)),
        "l4": (lambda: film_constraint(trace(), np.arange(6)), [e.scale_u, e.shift_u]),
    }
    for name, (program, params) in checks.items():
        err = ad.fd_check(program, params, rng=np.random.default_rng(1))
        assert err < 1e-6, f"{name}: {err}"


def test_combined_total_passes_fd():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    e = random_entry(rng, None)
    labels = np.array([0, 1, 2, 0, 1, 2])
    low, high = np.array([0, 1, 2]), np.array([3, 4, 5])

    def program():
        probs = ad.softmax_rows(logits)
        tr = make_trace([dataclasses.replace(e, h=probs)])
        total, _ = total_loss(
            classification_loss(probs, labels, np.arange(6)),
            fairness_loss(probs, low, high),
            debias_constraint(tr, low, high),
            film_constraint(tr, np.arange(6)),
            scalar(0.0),
            mu=0.5,
            lam=0.1,
        )
        return total

    err = ad.fd_check(program, [logits] + entry_tensors(e),
                      rng=np.random.default_rng(2))
    assert err < 1e-6


@pytest.mark.parametrize("eps", [0.0, 0.7])
def test_constraints_on_model_trace_pass_fd(eps):
    # Both degree groups present, lam > 0: the constraint terms of a real
    # forward send exact gradients into the debiasing and FiLM nets. With
    # eps == 0 the forward skips film_debias, and only the constraints reach
    # those nets.
    g = synth_generate(14, 2, 0.9, 3, seed=6)
    config = TrainConfig(base_gnn="sage", hidden_dim=3, eps=eps, dropout=0.0)
    groups = partition_contrast(g.degrees.astype(float), config.resolve_threshold(g))
    ops = build_operators(g, 1, groups, "sage")
    assert 0 < np.count_nonzero(ops.group) < g.num_nodes
    params = init_params(config, g.feature_dim, g.num_classes, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for layer in params.layers:
        for net in (layer.film_scale, layer.film_shift):
            net.w.data = 0.3 * rng.standard_normal(net.w.shape)
            net.b.data = 0.3 * rng.standard_normal(net.b.shape)
    train = np.arange(0, g.num_nodes, 2)
    low_tr = np.intersect1d(groups.groups[0], train)
    high_tr = np.intersect1d(groups.groups[1], train)

    def program():
        trace = model_forward(g, params, ops, eps=eps)
        total, _ = total_loss(
            classification_loss(trace.probs, g.labels, train),
            fairness_loss(trace.probs, low_tr, high_tr),
            debias_constraint(trace, low_tr, high_tr),
            film_constraint(trace, train),
            weight_regularizer(params),
            mu=0.5,
            lam=0.3,
        )
        return total

    debias_params = [
        t for name, t in params.named_tensors()
        if "debias" in name or "film" in name
    ]
    err = ad.fd_check(program, debias_params, rng=np.random.default_rng(3), min_coords=8)
    assert err < 1e-6
    assert all(t.grad is not None and np.any(t.grad != 0.0) for t in debias_params)


def test_large_mu_drives_group_means_together():
    # Direct optimization of a toy two-group mean-matching problem.
    rng = np.random.default_rng(7)
    h = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    low, high = np.arange(4), np.arange(4, 8)
    opt = Adam([h], lr=0.05)
    for _ in range(400):
        opt.zero_grad()
        with Tape() as tape:
            loss = ad.weighted_sum([fairness_loss(h, low, high)], [1000.0])
        tape.backward(loss)
        opt.step()
    assert fairness_loss(h, low, high).item() < 1e-6


def test_degfair_epoch_records_at_most_ten_objective_entries(monkeypatch):
    # Each term is one op: l1, l2, l4 and the weight norm one entry each, l3
    # one film_debias per layer plus one sq_norm, and the total two. Counted
    # in train() itself, as the entries recorded between the end of the
    # forward and the start of backward.
    forward_end, backward_start = [], []
    model_forward = training.model_forward
    backward = Tape.backward

    def counted_forward(*args, **kwargs):
        trace = model_forward(*args, **kwargs)
        stack = ad._stack()
        if stack and stack[-1] is not None:  # the eval forwards run off the tape
            forward_end.append(len(stack[-1]))
        return trace

    def counted_backward(tape, loss):
        backward_start.append(len(tape))
        return backward(tape, loss)

    monkeypatch.setattr(training, "model_forward", counted_forward)
    monkeypatch.setattr(Tape, "backward", counted_backward)
    g = synth_generate(300, 2, 0.9, 8, seed=0)
    split = split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=0)
    train(g, split, TrainConfig(base_gnn="gcn", hidden_dim=8, mu=1e-3, lam=1e-4, epochs=2))
    objective = [b - f for f, b in zip(forward_end, backward_start)]
    assert len(objective) == 2 and max(objective) <= 10, objective


@pytest.mark.parametrize("kind,heads,limit", [("gcn", 1, 25), ("sage", 1, 26), ("gat", 2, 37)])
def test_degfair_epoch_records_at_most_its_tape_entries(monkeypatch, kind, heads, limit):
    # Each layer's pre-activation is one weighted_sum: the aggregation terms,
    # the bias row and eps times the debiasing context.
    recorded = []
    backward = Tape.backward

    def counted_backward(tape, loss):
        recorded.append(len(tape))
        return backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", counted_backward)
    g = synth_generate(300, 2, 0.9, 8, seed=0)
    split = split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=0)
    train(g, split, TrainConfig(base_gnn=kind, gat_heads=heads, hidden_dim=8, mu=1e-3,
                                lam=1e-4, epochs=1))
    assert len(recorded) == 1 and recorded[0] <= limit, recorded


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_full_objective_backward_never_shares_a_grad_buffer(kind):
    # Criterion 2's full objective (GAT with 2 heads), taped once. Before each
    # vjp runs (that is, after the previous entry's sums), no two grad slots
    # on the tape (leaves are their own slots) hold grads that share memory;
    # at the end every trainable leaf has its own grad. SAGE's pre-activation
    # has two coefficient-1 terms, so one entry hands ``g`` to two parents and
    # the second must get a copy.
    program, leaves = full_loss_program(kind)
    with Tape() as tape:
        loss = program()
    slots = list({id(s): s for slot, pairs in tape._entries
                  for s in [slot] + [p for p, _ in pairs]}.values())

    def shared_pairs():
        grads = [s.grad for s in slots if s.grad is not None]
        return sum(np.shares_memory(a, b) for i, a in enumerate(grads) for b in grads[:i])

    checked = []

    def checking(vjp):
        def run(grad):
            checked.append(shared_pairs())
            return vjp(grad)
        return run

    for _, pairs in tape._entries:
        pairs[:] = [(p, checking(vjp)) for p, vjp in pairs]
    tape.backward(loss)
    assert checked and not any(checked)
    assert all(t.grad is not None for t in leaves)
    assert not any(np.shares_memory(a.grad, b.grad) for i, a in enumerate(leaves)
                   for b in leaves[:i])
