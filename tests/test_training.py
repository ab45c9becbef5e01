import dataclasses
import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from degfair import layers, training
from degfair.cli import main
from degfair.graphs import (
    generalized_degree,
    mean_degree,
    partition_contrast,
    save_graph_files,
    split_nodes,
    synth_generate,
)
from degfair.layers import base_forward, model_forward
from degfair.training import (
    ModelFileError,
    TrainConfig,
    init_params,
    load_model,
    predict,
    save_model,
    train,
)


def small_setup(seed=0, n=40):
    g = synth_generate(n, 2, 0.9, 4, seed=seed)
    split = split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=seed)
    return g, split


def quick_config(**kw):
    base = dict(base_gnn="gcn", hidden_dim=4, eps=0.5, mu=0.1, lam=1e-4,
                epochs=5, patience=5, seed=0, dropout=0.5)
    base.update(kw)
    return TrainConfig(**base)


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(base_gnn="mlp")
    with pytest.raises(ValueError):
        TrainConfig(eps=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(threshold="median")
    with pytest.raises(ValueError):
        TrainConfig(feature_norm="l7")


@pytest.mark.parametrize("field,value", [
    ("hidden_dim", 8.5), ("hidden_dim", True), ("num_layers", 2.0), ("r_context", 1.5),
    ("r_eval", "2"), ("epochs", 2.5), ("patience", None), ("seed", 1.5), ("gat_heads", 2.0),
    ("seed", -1), ("eps", float("nan")), ("mu", float("inf")), ("lam", "0.1"), ("lam", True),
    ("threshold", float("nan")), ("threshold", -float("inf")), ("threshold", False),
    ("dropout_input", "no"), ("dropout_input", 1),
    ("lr", "0.01"), ("lr", True), ("lr", None), ("lr", float("nan")), ("lr", -1e-3),
    ("lr", -float("inf")), ("model", "mlp"), ("dropout", 1.0), ("dropout", -0.1),
])
def test_config_rejects_values_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TrainConfig(**{field: value})


def test_config_accepts_numpy_and_json_numbers():
    cfg = TrainConfig(hidden_dim=np.int64(4), num_layers=np.int32(1), seed=np.uint8(3),
                      eps=np.float64(0.5), mu=np.float32(0.25), lam=0, threshold=np.int64(2))
    assert (cfg.hidden_dim, cfg.num_layers, cfg.seed, cfg.eps) == (4, 1, 3, 0.5)
    record = '{"epochs": 7, "eps": 1, "lam": 0.5, "threshold": 3, "seed": 0, "lr": 1e150}'
    cfg = TrainConfig(**json.loads(record))
    assert (cfg.epochs, cfg.eps, cfg.threshold, cfg.lr) == (7, 1, 3, 1e150)
    assert TrainConfig(lr=np.inf).lr == np.inf  # the divergence tests need any step size
    assert (TrainConfig(lr=0).lr, TrainConfig(lr=np.float32(0.5)).lr) == (0, 0.5)


def test_config_threshold_resolution():
    g, _ = small_setup()
    cfg = quick_config(threshold="mean")
    assert cfg.resolve_threshold(g) == pytest.approx(2.0 * g.num_edges / g.num_nodes)
    assert quick_config(threshold=3.5).resolve_threshold(g) == 3.5


# --------------------------------------------------------------------- init


def test_init_deterministic():
    cfg = quick_config()
    a = init_params(cfg, 4, 2, np.random.default_rng(7))
    b = init_params(cfg, 4, 2, np.random.default_rng(7))
    for ta, tb in zip(a.all_tensors(), b.all_tensors()):
        assert np.array_equal(ta.data, tb.data)


def omega_weights(layer):
    """Aggregator weight matrices of one layer, excluding the output bias."""
    return [
        t for name, t in layer.named_tensors()
        if name.startswith("omega.") and name != "omega.b"
    ]


def test_init_glorot_bounds_and_zero_biases():
    cfg = quick_config(base_gnn="sage", hidden_dim=8)
    params = init_params(cfg, 6, 3, np.random.default_rng(1))
    for layer in params.layers:
        assert len(omega_weights(layer)) == 2  # w_self, w_neigh
        for t in omega_weights(layer):
            fan_in, fan_out = t.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(t.data) <= bound)
        assert np.all(layer.omega["b"].data == 0.0)
        for lin in (layer.debias_low, layer.debias_high, layer.film_scale,
                    layer.film_shift):
            assert np.all(lin.b.data == 0.0)


def test_init_shares_omega_draws_across_models():
    # Same seed gives identical aggregator weights whether or not the
    # debias parameters exist downstream (they are drawn afterwards).
    cfg = quick_config(base_gnn="gcn", hidden_dim=4)
    a = init_params(cfg, 4, 2, np.random.default_rng(3))
    b = init_params(cfg, 4, 2, np.random.default_rng(3))
    assert np.array_equal(a.layers[0].omega["w"].data, b.layers[0].omega["w"].data)
    assert np.array_equal(a.layers[1].omega["w"].data, b.layers[1].omega["w"].data)


# -------------------------------------------------------------------- train


def test_lr_zero_returns_init():
    g, split = small_setup()
    cfg = quick_config(lr=0.0, epochs=1, dropout=0.0)
    rng = np.random.default_rng(cfg.seed)
    expected = init_params(cfg, g.feature_dim, g.num_classes, rng)
    params, hist = train(g, split, cfg)
    for ta, tb in zip(params.all_tensors(), expected.all_tensors()):
        assert np.array_equal(ta.data, tb.data)
    assert hist.best_epoch == 0


def test_training_loss_descends():
    g, split = small_setup(seed=3, n=60)
    cfg = quick_config(epochs=60, patience=60, seed=3)
    params, hist = train(g, split, cfg)
    assert hist.losses[-1].l1 < hist.losses[0].l1


def test_training_deterministic():
    g, split = small_setup(seed=5)
    cfg = quick_config(epochs=8, seed=5)
    p1, h1 = train(g, split, cfg)
    p2, h2 = train(g, split, cfg)
    assert [b.total for b in h1.losses] == [b.total for b in h2.losses]
    assert h1.val_acc == h2.val_acc
    for ta, tb in zip(p1.all_tensors(), p2.all_tensors()):
        assert np.array_equal(ta.data, tb.data)


@pytest.mark.parametrize("kind,model,seed", [
    ("gcn", "degfair", 0), ("gcn", "base", 0), ("gat", "degfair", 4), ("sage", "base", 2),
])
def test_train_returns_the_selected_epochs_parameters(kind, model, seed):
    # A rerun that stops at the selected epoch ends with that epoch's
    # parameters: the eval forward draws no randomness, so both runs agree
    # up to there, and the longer run must restore them bit for bit.
    g = synth_generate(120, 2, 0.9, 8, 3)
    split = split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=3)
    cfg = quick_config(base_gnn=kind, model=model, hidden_dim=8, epochs=12, patience=12,
                       seed=seed)
    params, hist = train(g, split, cfg)
    assert hist.best_epoch < cfg.epochs - 1
    rerun, rerun_hist = train(g, split, dataclasses.replace(cfg, epochs=hist.best_epoch + 1))
    assert rerun_hist.best_epoch == hist.best_epoch
    for (name, a), (_, b) in zip(params.named_tensors(), rerun.named_tensors()):
        assert np.array_equal(a.data, b.data), name


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("dropout_input", [False, True])
@pytest.mark.parametrize("model", ["degfair", "base"])
@pytest.mark.parametrize("kind,heads", [("gcn", 1), ("sage", 1), ("gat", 2)],
                         ids=["gcn", "sage", "gat2"])
def test_kept_layer0_context_trains_bit_identically(monkeypatch, kind, heads, model,
                                                    dropout_input, num_layers):
    # train() computes layer 0 once per epoch and starts the next training
    # forward from it; forwards that always recompute every layer must give
    # the same run, bit for bit. Patience ends all but one of these runs
    # after 4 of 5 epochs, so the unused last layer 0 is covered too.
    g, split = small_setup(seed=4, n=50)
    cfg = quick_config(base_gnn=kind, gat_heads=heads, model=model, epochs=5, patience=3,
                       seed=4, dropout_input=dropout_input, num_layers=num_layers)
    kept_params, kept = train(g, split, cfg)
    for name in ("model_forward", "base_forward"):
        forward = getattr(training, name)
        monkeypatch.setattr(training, name,
                            lambda *a, _f=forward, layer0=None, **kw: _f(*a, **kw))
    fresh_params, fresh = train(g, split, cfg)
    assert [dataclasses.astuple(b) for b in kept.losses] == \
        [dataclasses.astuple(b) for b in fresh.losses]
    assert kept.val_acc == fresh.val_acc
    assert kept.best_epoch == fresh.best_epoch
    for (name, ta), (_, tb) in zip(kept_params.named_tensors(), fresh_params.named_tensors()):
        assert np.array_equal(ta.data, tb.data), name


@pytest.mark.parametrize("model", ["degfair", "base"])
@pytest.mark.parametrize("dropout_input", [False, True])
def test_layer0_is_computed_once_per_epoch_on_undropped_input(monkeypatch, model,
                                                             dropout_input):
    # E epochs on undropped input: the first training forward, then one
    # layer 0 after each step, which the eval forward and the next training
    # forward share (E + 1). A dropped input needs its own layer 0 in every
    # training forward (2E).
    g, split = small_setup(seed=5, n=40)
    epochs = 5
    cfg = quick_config(model=model, epochs=epochs, patience=epochs, seed=5,
                       dropout_input=dropout_input)
    calls = []
    layer = layers.forward_layer

    def counted(h, ops, params, i, *a):
        calls.append(i)
        return layer(h, ops, params, i, *a)

    # training imports forward_layer by name; the forwards look it up in layers.
    for module in (layers, training):
        monkeypatch.setattr(module, "forward_layer", counted)
    _, hist = train(g, split, cfg)
    assert len(hist.losses) == epochs
    assert calls.count(0) == (2 * epochs if dropout_input else epochs + 1)
    assert calls.count(1) == 2 * epochs


def test_group_terms_read_each_groups_training_nodes(monkeypatch):
    # The parity and cross-context terms get each contrast group's training
    # nodes in sorted order, also from a split listed in descending order.
    g, split = small_setup(seed=3, n=60)
    split = dataclasses.replace(split, train=np.sort(split.train)[::-1])
    groups = partition_contrast(g.degrees.astype(np.float64), mean_degree(g))
    seen = []
    fairness = training.fairness_loss
    monkeypatch.setattr(training, "fairness_loss",
                        lambda h, low, high: seen.append((low, high)) or fairness(h, low, high))
    train(g, split, quick_config(epochs=2, patience=2, seed=3))
    assert len(seen) == 2
    for low, high in seen:
        for got, nodes in zip((low, high), groups.groups):
            want = np.intersect1d(nodes, split.train)
            assert want.size and got.dtype == want.dtype and np.array_equal(got, want)


def test_zero_coefficient_terms_are_reported_but_not_weighted():
    g, split = small_setup(seed=2)
    cfg = quick_config(mu=0.0, lam=0.0, epochs=4, patience=4, seed=2)
    _, hist = train(g, split, cfg)
    assert len(hist.losses) == 4
    for b in hist.losses:
        assert b.total == b.l1
        assert b.l2 > 0.0 and b.omega_reg > 0.0


def test_history_lengths_match_epochs():
    g, split = small_setup()
    cfg = quick_config(epochs=6, patience=6)
    _, hist = train(g, split, cfg)
    assert len(hist.losses) == len(hist.train_acc) == len(hist.val_acc) == 6
    assert len(hist.epoch_seconds) == 6


def test_early_stopping_respects_patience():
    g, split = small_setup()
    cfg = quick_config(epochs=200, patience=3, lr=0.0, dropout=0.0)
    _, hist = train(g, split, cfg)
    # lr=0 means val accuracy never improves after epoch 0.
    assert len(hist.losses) == 4


def test_base_model_trains():
    g, split = small_setup(seed=2, n=60)
    cfg = quick_config(model="base", epochs=40, patience=40, seed=2)
    params, hist = train(g, split, cfg)
    assert hist.losses[-1].l1 < hist.losses[0].l1
    assert hist.losses[0].l2 == 0.0 and hist.losses[0].l3 == 0.0


def test_mean_loss_descent_over_seeds():
    # Planted-bias generator, several seeds: training loss at the last
    # epoch is on average below the first epoch.
    firsts, lasts = [], []
    for seed in range(5):
        g = synth_generate(300, 2, 0.9, 8, seed=seed)
        split = split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=seed)
        cfg = quick_config(hidden_dim=8, epochs=200, patience=200, seed=seed)
        _, hist = train(g, split, cfg)
        firsts.append(hist.losses[0].total)
        lasts.append(hist.losses[-1].total)
    assert np.mean(lasts) < np.mean(firsts)


def test_debias_contexts_finite_every_epoch():
    g, split = small_setup(seed=1, n=50)
    cfg = quick_config(epochs=30, patience=30, seed=1)
    params, _ = train(g, split, cfg)
    from degfair.graphs import partition_contrast
    from degfair.autodiff import film_debias
    from degfair.layers import build_operators, input_features

    groups = partition_contrast(g.degrees.astype(float), cfg.resolve_threshold(g))
    ops = build_operators(g, 1, groups, "gcn")
    trace = model_forward(g, params, ops, eps=cfg.eps,
                          features=input_features(g, cfg.feature_norm))
    for entry in trace.layers:
        for group in (0, 1):  # each group's context, for every node
            route = np.full(g.num_nodes, group)
            ctx = film_debias(entry.ctx, route, entry.debias, entry.scale_u,
                              entry.shift_u, trace.degree_inverse)
            assert np.all(np.isfinite(ctx.data))


# ------------------------------------------------------------------ predict


def test_predict_argmax_and_ties():
    g, split = small_setup()
    cfg = quick_config(epochs=1)
    params, _ = train(g, split, cfg)
    preds = predict(params, g, cfg)
    assert preds.shape == (g.num_nodes,)
    assert np.all((preds >= 0) & (preds < g.num_classes))
    # tie rule on a raw row
    assert int(np.argmax(np.array([0.5, 0.5]))) == 0


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_eps_zero_predictions_match_base(kind):
    g, split = small_setup(seed=4)
    cfg = quick_config(base_gnn=kind, eps=0.0, dropout=0.0, epochs=1, gat_heads=2)
    rng = np.random.default_rng(9)
    params = init_params(cfg, g.feature_dim, g.num_classes, rng)
    from degfair.graphs import partition_contrast
    from degfair.layers import build_operators, input_features

    groups = partition_contrast(g.degrees.astype(float), cfg.resolve_threshold(g))
    ops = build_operators(g, cfg.r_context, groups, kind)
    feats = input_features(g, cfg.feature_norm)
    fair = model_forward(g, params, ops, eps=0.0, features=feats)
    plain = base_forward(g, params, ops, features=feats)
    assert np.array_equal(fair.probs.data, plain.data)


# ---------------------------------------------------------------- save/load


# Tensor order of the model file, per layer (format v1).
_OMEGA_HEADERS = {
    "gcn": ["omega.b", "omega.w"],
    "sage": ["omega.b", "omega.w_neigh", "omega.w_self"],
    "gat": ["omega.head0.w", "omega.head0.att_self", "omega.head0.att_nbr",
            "omega.head1.w", "omega.head1.att_self", "omega.head1.att_nbr",
            "omega.b"],
}
_DEBIAS_HEADERS = ["debias_low.w", "debias_low.b", "debias_high.w", "debias_high.b",
                   "film_scale.w", "film_scale.b", "film_shift.w", "film_shift.b"]


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_save_load_round_trip_bit_exact(kind, tmp_path):
    g, split = small_setup(seed=6)
    cfg = quick_config(base_gnn=kind, epochs=3, gat_heads=2, seed=6)
    params, _ = train(g, split, cfg)
    path = str(tmp_path / "model.txt")
    save_model(params, cfg, path)
    loaded, loaded_cfg = load_model(path)
    assert loaded_cfg == cfg
    resaved = str(tmp_path / "resaved.txt")
    save_model(loaded, loaded_cfg, resaved)
    text = open(path, "rb").read()
    assert open(resaved, "rb").read() == text
    headers = [line.split()[1] for line in text.decode().splitlines()
               if line.startswith("tensor ")]
    assert headers == [f"layer{i}.{name}" for i in (0, 1)
                       for name in _OMEGA_HEADERS[kind] + _DEBIAS_HEADERS]
    before = predict(params, g, cfg)
    after = predict(loaded, g, loaded_cfg)
    assert np.array_equal(before, after)
    from degfair.graphs import partition_contrast
    from degfair.layers import build_operators, input_features

    groups = partition_contrast(g.degrees.astype(float), cfg.resolve_threshold(g))
    ops = build_operators(g, cfg.r_context, groups, kind)
    feats = input_features(g, cfg.feature_norm)
    a = model_forward(g, params, ops, eps=cfg.eps, features=feats).probs.data
    b = model_forward(g, loaded, ops, eps=cfg.eps, features=feats).probs.data
    assert np.array_equal(a, b)


def test_load_rejects_truncated(tmp_path):
    g, split = small_setup()
    cfg = quick_config(epochs=1)
    params, _ = train(g, split, cfg)
    path = str(tmp_path / "model.txt")
    save_model(params, cfg, path)
    text = open(path).read()
    open(path, "w").write(text[: len(text) // 2])
    with pytest.raises(ModelFileError):
        load_model(path)


def test_load_rejects_wrong_magic(tmp_path):
    path = str(tmp_path / "model.txt")
    open(path, "w").write("something else v9\nend\n")
    with pytest.raises(ModelFileError):
        load_model(path)


@pytest.mark.parametrize("kind,field,value,named", [
    ("gcn", "hidden_dim", 10**6, "layer0.debias_low.w"),
    ("gat", "gat_heads", 10**6, "layer0.omega.head999999.w"),
    ("gcn", "num_layers", 10**6, "layer999999.debias_low.w"),
])
def test_load_rejects_config_sizing_more_than_the_file(kind, field, value, named,
                                                       tmp_path):
    # A config edited to describe a far larger model is rejected before
    # anything of that size is built.
    import json

    g, split = small_setup()
    cfg = quick_config(base_gnn=kind, epochs=1)
    params, _ = train(g, split, cfg)
    path = tmp_path / "model.txt"
    save_model(params, cfg, str(path))
    lines = path.read_text().splitlines()
    record = json.loads(lines[1][len("config "):])
    record[field] = value
    lines[1] = "config " + json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFileError, match=named.replace(".", r"\.")):
        load_model(str(path))


def test_saved_config_round_trips(tmp_path):
    g, split = small_setup()
    cfg = quick_config(epochs=1, eps=0.25, mu=7.5, threshold=3.0)
    params, _ = train(g, split, cfg)
    path = str(tmp_path / "model.txt")
    save_model(params, cfg, path)
    _, loaded_cfg = load_model(path)
    assert loaded_cfg.eps == 0.25
    assert loaded_cfg.mu == 7.5
    assert loaded_cfg.threshold == 3.0


def test_numpy_config_saves_and_reloads_bit_exactly(tmp_path):
    # TrainConfig accepts numpy scalars, so the model file must store them.
    g, split = small_setup()
    cfg = quick_config(hidden_dim=np.int64(4), epochs=np.int32(3), seed=np.uint8(2),
                       mu=np.float32(0.25), threshold=np.int64(3))
    assert {type(v) for v in vars(cfg).values()} <= {int, float, str, bool}
    params, _ = train(g, split, cfg)
    path = str(tmp_path / "model.txt")
    save_model(params, cfg, path)
    loaded, loaded_cfg = load_model(path)
    assert loaded_cfg == cfg
    for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
        assert a.data.tobytes() == b.data.tobytes(), name
    assert np.array_equal(predict(params, g, cfg), predict(loaded, g, loaded_cfg))


def test_divergence_raises():
    import warnings

    g, split = small_setup(seed=0, n=30)
    cfg = quick_config(epochs=20, patience=20, dropout=0.0, lr=1e150)
    from degfair.training import TrainingDivergedError

    with pytest.raises(
        TrainingDivergedError,
        match=r"^non-finite loss \S+ at epoch \d+: first non-finite term "
              r"(l1|l2|l3|l4|omega_reg)=",
    ), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # deliberate overflow
        train(g, split, cfg)


def test_divergence_names_the_first_non_finite_parameter():
    import warnings

    g, split = small_setup(seed=0, n=30)
    cfg = quick_config(epochs=3, patience=3, dropout=0.0, lr=np.inf)
    from degfair.training import TrainingDivergedError

    # An infinite step size makes every parameter non-finite at epoch 0; the
    # first in registry order is named.
    with pytest.raises(
        TrainingDivergedError,
        match=r"^parameter layer0\.omega\.b is non-finite after the step at epoch 0$",
    ), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        train(g, split, cfg)


def test_base_divergence_names_an_omega_tensor():
    # The optimizer holds only the omega tensors; the name comes from the
    # walk over every tensor, whose debiasing nets stay finite.
    g, split = small_setup(seed=0, n=30)
    cfg = quick_config(model="base", epochs=3, patience=3, dropout=0.0, lr=np.inf)
    from degfair.training import TrainingDivergedError

    with pytest.raises(
        TrainingDivergedError,
        match=r"^parameter layer0\.omega\.b is non-finite after the step at epoch 0$",
    ), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        train(g, split, cfg)


def test_every_node_high_still_trains_the_cross_context_term():
    # threshold -1 puts every node in the high group: the parity term is 0
    # and says so, while the cross-context term stays on and is trained.
    g, split = small_setup()
    cfg = quick_config(threshold=-1.0, lam=1.0, epochs=3, patience=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, history = train(g, split, cfg)
    assert len(history.losses) == 3
    assert all(b.l2 == 0.0 and b.l3 > 0.0 for b in history.losses)
    messages = [str(w.message) for w in caught]
    assert any("group-parity loss is 0" in m for m in messages)
    assert not any("cross-context" in m for m in messages)


# ------------------------------------------------- model files, bad contents


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A small untrained GCN model file and a graph it can evaluate."""
    root = tmp_path_factory.mktemp("model")
    cfg = quick_config(epochs=1)
    params = init_params(cfg, 4, 2, np.random.default_rng(3))
    path = root / "model.txt"
    save_model(params, cfg, str(path))
    g = synth_generate(40, 2, 0.9, 4, seed=1)
    graph = [str(root / name) for name in ("edges.tsv", "features.csv", "labels.txt")]
    save_graph_files(g, *graph)
    return {"path": path, "params": params, "graph": graph}


def _header(lines, name):
    return next(i for i, line in enumerate(lines) if line.startswith(f"tensor {name} "))


def _set_config(lines, **fields):
    record = json.loads(lines[1][len("config "):])
    record.update(fields)
    lines[1] = "config " + json.dumps(record, sort_keys=True)


def _drop_block(lines, name):
    i = _header(lines, name)
    del lines[i : i + 1 + int(lines[i].split()[2])]


def _edit(lines, name, offset, text):
    lines[_header(lines, name) + offset] = text


MODEL_EDITS = [
    pytest.param(lambda ls: ls.__setitem__(1, "konfig {}"), "missing config record",
                 id="no-config-record"),
    pytest.param(lambda ls: ls.__setitem__(1, "config {"), "bad config record",
                 id="config-not-json"),
    pytest.param(lambda ls: _set_config(ls, hidden_dim=8.5),
                 "bad config record: hidden_dim must be an integer", id="config-hidden-dim-8.5"),
    pytest.param(lambda ls: _edit(ls, "layer0.omega.w", 0, "tensor layer0.omega.w 4"),
                 "bad tensor header at line", id="short-header"),
    pytest.param(lambda ls: _edit(ls, "layer0.omega.w", 0, "tensor layer0.omega.w 4 x"),
                 "layer0.omega.w has a non-integer shape", id="non-integer-shape"),
    pytest.param(lambda ls: _edit(ls, "layer0.omega.w", 0, "tensor layer0.omega.w -1 4"),
                 r"layer0.omega.w has shape \(0,\), header says \(-1, 4\)", id="negative-rows"),
    pytest.param(lambda ls: ls.pop(-2), "truncated tensor layer1.film_shift.b",
                 id="truncated-tensor"),
    pytest.param(lambda ls: _edit(ls, "layer0.omega.b", 1, "0 0 0 zero"),
                 "non-numeric data in tensor layer0.omega.b", id="non-numeric"),
    pytest.param(lambda ls: _edit(ls, "layer0.omega.b", 0, "tensor layer0.omega.b 1 5"),
                 r"layer0.omega.b has shape \(1, 4\), header says \(1, 5\)", id="row-width"),
    pytest.param(lambda ls: _drop_block(ls, "layer0.debias_low.w"),
                 "missing tensor layer0.debias_low.w", id="missing-sizing-tensor"),
    pytest.param(lambda ls: _drop_block(ls, "layer1.film_shift.w"),
                 "missing tensor layer1.film_shift.w", id="missing-tensor"),
    pytest.param(lambda ls: ls.__setitem__(slice(-1, -1), ["tensor extra 1 1", "0.5"]),
                 r"unexpected extra tensors \['extra'\]", id="extra-tensor"),
    pytest.param(lambda ls: ls.__setitem__(slice(-1, -1), ls[2:4]),
                 r"tensor layer0.omega.b appears twice \(line \d+\)", id="repeated-tensor"),
    pytest.param(lambda ls: ls.__setitem__(slice(_header(ls, "layer0.omega.b"),
                                                 _header(ls, "layer0.omega.b") + 2),
                                           ["tensor layer0.omega.b 1 3", "0 0 0"]),
                 r"layer0.omega.b has shape \(1, 3\), the config needs \(1, 4\)",
                 id="shape-against-config"),
]


@pytest.mark.parametrize("edit,message", MODEL_EDITS)
def test_load_rejects_each_malformed_part(saved_model, tmp_path, edit, message):
    lines = saved_model["path"].read_text().splitlines()
    edit(lines)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFileError, match=message):
        load_model(str(path))


def test_load_rejects_bytes_that_are_not_utf8(saved_model, tmp_path):
    raw = saved_model["path"].read_bytes()
    path = tmp_path / "bad.txt"
    path.write_bytes(raw[:100] + b"\xff" + raw[101:])
    with pytest.raises(ModelFileError, match="not valid UTF-8 at byte 100"):
        load_model(str(path))


def test_fuzzed_model_files_load_or_raise_model_file_error(saved_model, tmp_path, capsys):
    raw = saved_model["path"].read_bytes()
    lines = raw.splitlines(keepends=True)
    variants = []
    # Every cut at a line boundary, as is and with the end marker put back.
    for k in range(len(lines)):
        variants += [b"".join(lines[:k]), b"".join(lines[:k]) + b"end\n"]
    # Byte flips at a spread of positions: low bit, case/space bit, high bit.
    for pos in range(0, len(raw), max(1, len(raw) // 150)):
        for mask in (0x01, 0x20, 0x80):
            variants.append(raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1:])
    path = tmp_path / "fuzz.txt"
    rejected = []
    for variant in variants:
        path.write_bytes(variant)
        try:
            load_model(str(path))
        except ModelFileError:  # any other exception fails the test
            rejected.append(variant)
    assert len(rejected) > len(variants) // 2
    # The CLI reports a sample of the rejected files as data errors (exit 3).
    edges, features, labels = saved_model["graph"]
    for variant in rejected[:: max(1, len(rejected) // 12)]:
        path.write_bytes(variant)
        capsys.readouterr()
        code = main(["eval", "--model", str(path), "--edges", edges,
                     "--features", features, "--labels", labels])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("data error: ") and "Traceback" not in err


def test_reordered_model_file_loads_by_name_bit_identically(saved_model, tmp_path):
    lines = saved_model["path"].read_text().splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("tensor ")]
    blocks = [lines[a:b] for a, b in zip(starts, starts[1:] + [len(lines) - 1])]
    path = tmp_path / "reordered.txt"
    path.write_text("\n".join(lines[:2] + sum(blocks[::-1], []) + ["end"]) + "\n")
    params, _ = load_model(str(path))
    expected = dict(saved_model["params"].named_tensors())
    for name, t in params.named_tensors():
        assert t.data.tobytes() == expected[name].data.tobytes(), name


def test_benchmark_eval_model_config_still_loads(tmp_path):
    # perfbench/gen.py writes the eval workload's model file on its own; the
    # library must keep reading its config record.
    gen_path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", gen_path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    path = tmp_path / "model.txt"
    gen.write_model(str(path), gen.model_tensors(8, 1))
    _, cfg = load_model(str(path))
    assert cfg == TrainConfig(**gen.EVAL_MODEL)
