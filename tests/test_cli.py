import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from degfair.cli import ConfigError, format_report, main, parse_run_config
from degfair.metrics import FairnessReport
from degfair.training import PRESETS


def write_dataset(tmp_path, n=80, seed=0):
    out = tmp_path / "data"
    code = main(["synth", "--nodes", str(n), "--attach", "2", "--label-bias", "0.9",
                 "--feat-dim", "4", "--seed", str(seed), "--out", str(out)])
    assert code == 0
    return out


def write_config(tmp_path, data_dir, **train_overrides):
    cfg = {
        "data": {
            "edges": str(data_dir / "edges.tsv"),
            "features": str(data_dir / "features.csv"),
            "labels": str(data_dir / "labels.txt"),
        },
        "train": {"hidden_dim": 4, "epochs": 3, "patience": 3, "eps": 0.5,
                  "mu": 0.1, **train_overrides},
        "eval": {"r_eval": 1, "fraction": 0.3, "num_runs": 2},
        "output": {"dir": str(tmp_path / "out")},
        "seed": 7,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


# ------------------------------------------------------------------- config


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"data": {}, "mystery": 1}))
    with pytest.raises(ConfigError):
        parse_run_config(str(path))


def test_config_requires_data_section(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"train": {}}))
    with pytest.raises(ConfigError):
        parse_run_config(str(path))


def test_config_preset_merge(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "preset": "emnlp",
        "data": {"edges": "e", "features": "f", "labels": "l"},
        "train": {"eps": 0.5},
    }))
    spec = parse_run_config(str(path))
    assert spec["config"].hidden_dim == PRESETS["emnlp"]["hidden_dim"]
    assert spec["config"].mu == PRESETS["emnlp"]["mu"]
    assert spec["config"].eps == 0.5  # explicit value beats the preset


def test_config_lambda_alias(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "data": {"edges": "e", "features": "f", "labels": "l"},
        "train": {"lambda": 0.01},
    }))
    assert parse_run_config(str(path))["config"].lam == 0.01


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


# -------------------------------------------------------------------- synth


def test_synth_round_trips(tmp_path):
    out = write_dataset(tmp_path)
    from degfair.graphs import load_graph

    g = load_graph(str(out / "edges.tsv"), str(out / "features.csv"),
                   str(out / "labels.txt"))
    assert g.num_nodes == 80
    assert g.num_edges == 3 + 2 * 77


@pytest.mark.parametrize("flags,message", [
    (["--attach", "0"], "attach must be >= 1, got 0"),
    (["--nodes", "2", "--attach", "2"], "need n >= attach + 1, got n=2, attach=2"),
    (["--nodes", "0"], "need n >= attach + 1, got n=0, attach=2"),
    (["--label-bias", "2"], "label_bias must be in [0, 1], got 2.0"),
    (["--feat-dim", "0"], "feat_dim must be >= 1, got 0"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["attach-zero", "nodes-not-above-attach", "nodes-zero", "label-bias", "feat-dim",
        "seed-negative"])
def test_synth_bad_flag_exits_2(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert main(["synth", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not out.exists()


# ------------------------------------------------------------- degree stats


def test_degree_stats_mean(tmp_path, capsys):
    out = write_dataset(tmp_path)
    code = main(["degree-stats", "--edges", str(out / "edges.tsv"), "--r", "1"])
    assert code == 0
    text = capsys.readouterr().out
    fields = dict(line.split("=") for line in text.strip().splitlines())
    assert float(fields["mean"]) == pytest.approx(2 * (3 + 2 * 77) / 80)
    assert float(fields["default_threshold"]) == pytest.approx(float(fields["mean"]))


def test_degree_stats_triangle_r2(tmp_path, capsys):
    edges = tmp_path / "tri.tsv"
    edges.write_text("0\t1\n1\t2\n0\t2\n")
    code = main(["degree-stats", "--edges", str(edges), "--r", "2"])
    assert code == 0
    fields = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    # A^2 @ 1 on a triangle is [4, 4, 4]
    assert float(fields["min"]) == 4.0
    assert float(fields["max"]) == 4.0
    assert float(fields["mean"]) == 4.0


def test_degree_stats_malformed_edge_line_exits_3(tmp_path, capsys):
    edges = tmp_path / "bad.tsv"
    edges.write_text("# comment\n0\t1\n1 2\n")
    code = main(["degree-stats", "--edges", str(edges)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{edges}:3:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("given,missing", [("--labels", "--features"),
                                           ("--features", "--labels")])
def test_degree_stats_needs_labels_and_features_together(tmp_path, capsys,
                                                          given, missing):
    out = write_dataset(tmp_path, n=20)
    files = {"--labels": out / "labels.txt", "--features": out / "features.csv"}
    code = main(["degree-stats", "--edges", str(out / "edges.tsv"),
                 given, str(files[given])])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and missing in err
    assert "Traceback" not in err


# -------------------------------------------------------------------- audit


def audit_fixture(tmp_path, preds):
    edges = tmp_path / "edges.tsv"
    edges.write_text(
        "0\t1\n1\t2\n2\t3\n3\t4\n4\t5\n5\t6\n6\t7\n3\t5\n3\t6\n3\t7\n"
    )
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join("01010101"[i] for i in range(8)) + "\n")
    pred_path = tmp_path / "preds.txt"
    pred_path.write_text("\n".join(str(p) for p in preds) + "\n")
    return edges, labels, pred_path


def test_report_table_writes_an_undefined_recall_as_nan():
    rep = FairnessReport(accuracy=0.5, delta_dsp=0.25, delta_deo=0.125,
                         per_class=np.array([[0.5, 0.25, 1.0, np.nan], [0.5, 0.75, -np.nan, 0.5]]),
                         group_sizes=(2, 2), r_eval=1, fraction=0.25)
    assert format_report(rep).split("recall_high\n")[1] == (
        "    0   0.500000   0.250000   1.000000         nan\n"
        "    1   0.500000   0.750000        nan    0.500000\n"
    )


def test_audit_perfect_predictions(tmp_path, capsys):
    edges, labels, preds = audit_fixture(tmp_path, [0, 1, 0, 1, 0, 1, 0, 1])
    code = main(["audit", "--preds", str(preds), "--edges", str(edges),
                 "--labels", str(labels), "--fraction", "0.25"])
    assert code == 0
    fields = dict(
        line.split("=") for line in capsys.readouterr().out.splitlines()
        if "=" in line
    )
    assert float(fields["accuracy"]) == 1.0
    assert float(fields["delta_deo"]) == 0.0


def test_audit_hand_fixture(tmp_path, capsys):
    # Degrees: [1,2,2,5,2,3,3,2]; fraction 0.25 selects G0={0,1}, G1={3,6}.
    # preds [0,0,1,1,0,0,0,1] vs labels [0,1,0,1,0,1,0,1]:
    #   dsp = (|1-0.5| + |0-0.5|)/2 = 0.5
    #   deo: recalls G0 (1.0, 0.0) vs G1 (1.0, 1.0) -> 0.5
    #   accuracy = 5/8
    edges, labels, preds = audit_fixture(tmp_path, [0, 0, 1, 1, 0, 0, 0, 1])
    code = main(["audit", "--preds", str(preds), "--edges", str(edges),
                 "--labels", str(labels), "--fraction", "0.25"])
    assert code == 0
    fields = dict(
        line.split("=") for line in capsys.readouterr().out.splitlines()
        if "=" in line
    )
    assert float(fields["accuracy"]) == pytest.approx(0.625)
    assert float(fields["delta_dsp"]) == pytest.approx(0.5)
    assert float(fields["delta_deo"]) == pytest.approx(0.5)


def test_audit_malformed_prediction_exits_3(tmp_path, capsys):
    edges, labels, preds = audit_fixture(tmp_path, [0, 1, 0, 1, 0, 1, 0, 1])
    preds.write_text("0\nbanana\n")
    code = main(["audit", "--preds", str(preds), "--edges", str(edges),
                 "--labels", str(labels)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{preds}:2:" in err
    assert "Traceback" not in err


def test_audit_malformed_edge_line_exits_3(tmp_path, capsys):
    edges, labels, preds = audit_fixture(tmp_path, [0, 1, 0, 1, 0, 1, 0, 1])
    edges.write_text("0\t1\n1 2\n")
    code = main(["audit", "--preds", str(preds), "--edges", str(edges),
                 "--labels", str(labels)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{edges}:2:" in err
    assert "Traceback" not in err


def test_audit_malformed_label_exits_3(tmp_path, capsys):
    edges, labels, preds = audit_fixture(tmp_path, [0, 1, 0, 1, 0, 1, 0, 1])
    labels.write_text("0\nbanana\n")
    code = main(["audit", "--preds", str(preds), "--edges", str(edges),
                 "--labels", str(labels)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{labels}:2:" in err


def test_audit_length_mismatch_exits_3(tmp_path):
    edges, labels, preds = audit_fixture(tmp_path, [0, 1, 0])
    code = main(["audit", "--preds", str(preds), "--edges", str(edges),
                 "--labels", str(labels)])
    assert code == 3


# -------------------------------------------------------------------- train


def test_train_writes_models_and_aggregate(tmp_path, capsys):
    data = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data)
    code = main(["train", "--config", str(cfg)])
    assert code == 0
    out = tmp_path / "out"
    assert (out / "model_seed7.txt").exists()
    assert (out / "model_seed8.txt").exists()
    assert (out / "report_seed7.txt").exists()
    assert (out / "aggregate.txt").exists()
    agg = (out / "aggregate.txt").read_text()
    assert agg.startswith("runs=2\n")


def test_train_reruns_byte_identical(tmp_path, capsys):
    data = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("aggregate.txt", "report_seed7.txt", "model_seed7.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_eval_matches_train_time_report(tmp_path, capsys):
    data = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data)
    assert main(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    code = main(["eval", "--model", str(out / "model_seed7.txt"),
                 "--edges", str(data / "edges.tsv"),
                 "--features", str(data / "features.csv"),
                 "--labels", str(data / "labels.txt"),
                 "--r", "1", "--fraction", "0.3"])
    assert code == 0
    eval_text = capsys.readouterr().out
    assert eval_text == (out / "report_seed7.txt").read_text()


def test_eval_feature_dim_mismatch_exits_3(tmp_path, capsys):
    data = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data)
    assert main(["train", "--config", str(cfg)]) == 0
    other = tmp_path / "other"
    assert main(["synth", "--nodes", "30", "--attach", "2", "--feat-dim", "6",
                 "--seed", "1", "--out", str(other)]) == 0
    code = main(["eval", "--model", str(tmp_path / "out" / "model_seed7.txt"),
                 "--edges", str(other / "edges.tsv"),
                 "--features", str(other / "features.csv"),
                 "--labels", str(other / "labels.txt")])
    assert code == 3


def test_eval_non_integer_tensor_shape_exits_3(tmp_path, capsys):
    data = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data)
    assert main(["train", "--config", str(cfg)]) == 0
    model = tmp_path / "out" / "model_seed7.txt"
    lines = model.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("tensor "))
    name = lines[i].split()[1]
    lines[i] = f"tensor {name} four 4"
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["eval", "--model", str(model),
                 "--edges", str(data / "edges.tsv"),
                 "--features", str(data / "features.csv"),
                 "--labels", str(data / "labels.txt")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and name in err
    assert "Traceback" not in err


def test_eval_tensor_shape_not_matching_config_exits_3(tmp_path, capsys):
    data = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data)
    assert main(["train", "--config", str(cfg)]) == 0
    model = tmp_path / "out" / "model_seed7.txt"
    lines = model.read_text().splitlines()
    i = lines.index("tensor layer1.omega.w 4 2")
    lines[i] = "tensor layer1.omega.w 3 2"  # one row short of hidden_dim
    del lines[i + 4]
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["eval", "--model", str(model),
                 "--edges", str(data / "edges.tsv"),
                 "--features", str(data / "features.csv"),
                 "--labels", str(data / "labels.txt")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert "layer1.omega.w" in err and "(3, 2)" in err and "(4, 2)" in err
    assert "Traceback" not in err


def test_train_preset_flag_overrides(tmp_path, capsys):
    data = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data)
    code = main(["train", "--config", str(cfg), "--preset", "emnlp",
                 "--runs", "1", "--out", str(tmp_path / "p")])
    assert code == 0
    from degfair.training import load_model

    _, loaded = load_model(str(tmp_path / "p" / "model_seed7.txt"))
    # explicit train keys still beat the preset; preset fills the rest
    assert loaded.hidden_dim == 4
    assert loaded.mu == 0.1


# ------------------------------------------------- exit-code matrix, bad input


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small dataset and one trained model, shared by the matrix below."""
    root = tmp_path_factory.mktemp("trained")
    data = write_dataset(root)
    cfg = write_config(root, data)
    assert main(["train", "--config", str(cfg), "--runs", "1"]) == 0
    return {"data": data, "config": cfg, "model": root / "out" / "model_seed7.txt"}


def _audit(tmp_path, edges, labels, preds, *flags):
    files = {}
    for name, text in (("edges", edges), ("labels", labels), ("preds", preds)):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    return ["audit", "--edges", str(files["edges"]), "--labels", str(files["labels"]),
            "--preds", str(files["preds"]), *flags]


def _audit8(tmp_path, preds, *flags, labels="01010101"):
    # audit_fixture's graph: fraction 0.25 selects G0={0,1}, G1={3,6}.
    edges, label_path, pred_path = audit_fixture(tmp_path, preds)
    label_path.write_text("\n".join(labels) + "\n")
    return ["audit", "--edges", str(edges), "--labels", str(label_path),
            "--preds", str(pred_path), "--fraction", "0.25", *flags]


def _eval(trained, *flags):
    data = trained["data"]
    return ["eval", "--model", str(trained["model"]), "--edges", str(data / "edges.tsv"),
            "--features", str(data / "features.csv"), "--labels", str(data / "labels.txt"),
            *flags]


def _train(tmp_path, trained, *flags, eval_keys=(), train_keys=(), data_keys=(), top=()):
    cfg = json.loads(trained["config"].read_text())
    cfg["eval"].update(eval_keys)
    cfg["train"].update(train_keys)
    cfg["data"].update(data_keys)
    cfg["output"]["dir"] = str(tmp_path / "out")
    cfg.update(top)  # top-level keys, whole sections included
    return [*_train_text(tmp_path, json.dumps(cfg)), *flags]


def _train_text(tmp_path, text):
    return _train_bytes(tmp_path, text.encode("utf-8"))


def _train_bytes(tmp_path, data):
    path = tmp_path / "run.json"
    path.write_bytes(data)
    return ["train", "--config", str(path)]


def _train40(tmp_path):
    # 40 nodes at fraction 0.3: no class has true members in both test-set
    # degree groups, which depends on the labels and the split alone.
    return ["train", "--config", str(write_config(tmp_path, write_dataset(tmp_path, n=40)))]


PATH3 = ("0\t1\n1\t2\n", "0\n1\n0\n", "0\n1\n0\n")
GOOD8 = [0, 1, 0, 1, 0, 1, 0, 1]


def _blocked(tmp_path, text=None):
    """``tmp_path / "blocked"``: a file holding ``text``, or a directory when it is None."""
    path = tmp_path / "blocked"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    return str(path)


def _blocked_out(tmp_path, name):
    """``tmp_path / "blocked"`` as an output directory in which ``name`` is a directory."""
    (tmp_path / "blocked" / name).mkdir(parents=True)
    return str(tmp_path / "blocked")


def _swap(argv, flag, value):
    """``argv`` with the value after ``flag`` replaced by ``value``."""
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    return argv


# Paths the CLI cannot use, each at ``_blocked``'s path, which the message
# names: an input that is a directory or an edge file without edges (with
# no --features / --labels to give the node count) is a data error; a
# --config that is a directory or an --out that is a file is a config
# error. Permission errors are not covered: the tests may run as root,
# which can read and write any file.
UNUSABLE_PATHS = [
    pytest.param(lambda t, m: ["degree-stats", "--edges", _blocked(t, "")], 3,
                 id="degree-stats-edges-empty-file"),
    pytest.param(lambda t, m: ["degree-stats", "--edges", _blocked(t, "# no\n\n# edges\n")], 3,
                 id="degree-stats-edges-comments-only"),
    *[pytest.param(lambda t, m, flag=flag: _swap(["degree-stats", *_eval(m)[3:]], flag,
                                                 _blocked(t)), 3,
                   id=f"degree-stats-{flag[2:]}-directory")
      for flag in ("--edges", "--features", "--labels")],
    *[pytest.param(lambda t, m, flag=flag: _swap(_eval(m), flag, _blocked(t)), 3,
                   id=f"eval-{flag[2:]}-directory")
      for flag in ("--model", "--edges", "--features", "--labels")],
    pytest.param(lambda t, m: _swap(_audit8(t, GOOD8), "--preds", _blocked(t)), 3,
                 id="audit-preds-directory"),
    pytest.param(lambda t, m: ["train", "--config", _blocked(t)], 2, id="train-config-directory"),
    pytest.param(lambda t, m: _train(t, m, "--out", _blocked(t, "")), 2, id="train-out-file"),
    pytest.param(lambda t, m: ["synth", "--out", _blocked(t, "")], 2, id="synth-out-file"),
]

# An output name that is a directory in --out is a config error, found before
# any training (the trained fixture's config runs one seed, 7).
OUTPUT_NAME_DIRECTORIES = [
    *[pytest.param(lambda t, m, name=name: _train(t, m, "--out", _blocked_out(t, name)), 2,
                   id=f"train-out-{name}-directory")
      for name in ("model_seed7.txt", "report_seed7.txt", "aggregate.txt")],
    pytest.param(lambda t, m: ["synth", "--out", _blocked_out(t, "labels.txt")], 2,
                 id="synth-out-labels.txt-directory"),
]

EXIT_MATRIX = [
    # Data errors (exit 3): the files parse but no report can be built from them.
    pytest.param(lambda t, m: _audit(t, "", "", ""), 3, id="audit-empty-files"),
    pytest.param(lambda t, m: _audit(t, *PATH3, "--fraction", "0.2"), 3,
                 id="audit-empty-degree-groups"),
    pytest.param(lambda t, m: _audit8(t, [0, 1, 0, -1, 0, 1, 0, 1]), 3,
                 id="audit-negative-prediction"),
    pytest.param(lambda t, m: _audit8(t, GOOD8, labels="00010010"), 3,
                 id="audit-no-class-in-both-groups"),
    pytest.param(lambda t, m: _train40(t), 3, id="train-no-class-in-both-groups"),
    *UNUSABLE_PATHS,
    *OUTPUT_NAME_DIRECTORIES,
    # Config errors (exit 2): flag or config values outside their range.
    pytest.param(lambda t, m: _audit8(t, GOOD8, "--fraction", "0.9"), 2,
                 id="audit-fraction-above-half"),
    pytest.param(lambda t, m: _audit8(t, GOOD8, "--fraction", "0"), 2,
                 id="audit-fraction-zero"),
    pytest.param(lambda t, m: _audit8(t, GOOD8, "--r", "0"), 2, id="audit-r-zero"),
    pytest.param(lambda t, m: _eval(m, "--fraction", "0.9"), 2, id="eval-fraction-above-half"),
    pytest.param(lambda t, m: _eval(m, "--fraction", "-0.1"), 2, id="eval-fraction-negative"),
    pytest.param(lambda t, m: _eval(m, "--r", "0"), 2, id="eval-r-zero"),
    pytest.param(lambda t, m: ["degree-stats", "--edges", str(m["data"] / "edges.tsv"),
                               "--r", "0"], 2, id="degree-stats-r-zero"),
    pytest.param(lambda t, m: _train(t, m, eval_keys={"fraction": 0.9}), 2,
                 id="train-eval-fraction"),
    pytest.param(lambda t, m: _train(t, m, eval_keys={"r_eval": 0}), 2,
                 id="train-eval-r-eval"),
    pytest.param(lambda t, m: _train(t, m, eval_keys={"num_runs": 0}), 2,
                 id="train-eval-num-runs"),
    pytest.param(lambda t, m: _train(t, m, train_keys={"r_context": 0}), 2,
                 id="train-r-context"),
    pytest.param(lambda t, m: _train(t, m, "--runs", "0"), 2, id="train-runs-flag"),
    pytest.param(lambda t, m: _train(t, m, "--seed", "-2"), 2, id="train-seed-flag-negative"),
    # Config errors (exit 2): train values of the wrong type.
    *[pytest.param(lambda t, m, kv=kv: _train(t, m, train_keys=dict([kv])), 2,
                   id=f"train-{kv[0]}-{kv[1]}")
      for kv in [("hidden_dim", 8.5), ("epochs", 2.5), ("r_context", 1.5), ("seed", 1.5),
                 ("gat_heads", 2.0), ("num_layers", 2.0), ("hidden_dim", True), ("seed", -1),
                 ("eps", float("nan")), ("threshold", float("nan")),
                 ("dropout_input", "no"), ("lr", "0.01")]],
    # Config errors (exit 2): top-level, eval, data and output values of the wrong type.
    *[pytest.param(lambda t, m, kv=kv: _train(t, m, top=dict([kv])), 2,
                   id=f"run-{kv[0]}-{kv[1]}")
      for kv in [("seed", 1.5), ("seed", True), ("train", [1]), ("eval", [1]),
                 ("output", [1]), ("output", {"dir": 7}), ("preset", [1])]],
    *[pytest.param(lambda t, m, kv=kv: _train(t, m, eval_keys=dict([kv])), 2,
                   id=f"train-eval-{kv[0]}-{kv[1]}")
      for kv in [("r_eval", 2.7), ("num_runs", True), ("fraction", "0.2")]],
    pytest.param(lambda t, m: _train(t, m, data_keys={"edges": 5}), 2, id="train-data-edges-5"),
    pytest.param(lambda t, m: _train(t, m, train_keys={"lam": 1, "lambda": 2}), 2,
                 id="train-lam-and-lambda"),
    # Config errors (exit 2): the run-config file itself is malformed.
    pytest.param(lambda t, m: _train_text(t, '{"data": '), 2, id="train-invalid-json"),
    pytest.param(lambda t, m: _train_text(t, "[]"), 2, id="train-config-not-object"),
    pytest.param(lambda t, m: _train_bytes(t, b"\xff\xfe{}"), 2, id="train-config-not-utf8"),
    pytest.param(lambda t, m: _train_text(t, '{"seed": 1}'), 2, id="train-no-data-section"),
    pytest.param(lambda t, m: _train_text(t, json.dumps({"data": {"edges": "e.tsv"}})), 2,
                 id="train-data-key-missing"),
    pytest.param(lambda t, m: _train_text(t, json.dumps({"preset": "nope", "data": {
        "edges": "e.tsv", "features": "f.csv", "labels": "l.txt"}})), 2, id="train-unknown-preset"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make_argv,code", EXIT_MATRIX)
def test_bad_input_exits_with_documented_code(tmp_path, trained, capsys, make_argv, code):
    argv = make_argv(tmp_path, trained)
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith({2: "config error: ", 3: "data error: "}[code])
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()  # train rejects before any run


@pytest.mark.parametrize("make_argv,code", UNUSABLE_PATHS)
def test_unusable_path_is_named(tmp_path, trained, capsys, make_argv, code):
    main(make_argv(tmp_path, trained))
    assert f"error: {tmp_path / 'blocked'}: " in capsys.readouterr().err


@pytest.mark.parametrize("make_argv,code", OUTPUT_NAME_DIRECTORIES)
def test_output_name_that_is_a_directory_is_named(tmp_path, trained, capsys, make_argv, code):
    main(make_argv(tmp_path, trained))
    named = next(p for p in (tmp_path / "blocked").iterdir())
    assert f"config error: {named}: the output path exists" in capsys.readouterr().err


def test_train_divergence_exits_4(tmp_path, capsys):
    data = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data, epochs=20, patience=20, dropout=0.0, lr=1e150)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # deliberate overflow
        code = main(["train", "--config", str(cfg), "--runs", "1"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("training diverged: ")
    assert "Traceback" not in err
    assert list((tmp_path / "out").glob("model_seed*.txt")) == []


def test_train_with_an_overflowing_weighted_sum_exits_4(tmp_path, capsys):
    # Every term stays finite at lambda=1e307; their weighted sum does not.
    data = write_dataset(tmp_path, n=60)
    cfg = write_config(tmp_path, data, lam=1e307)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["train", "--config", str(cfg), "--runs", "1"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("training diverged: ")
    assert "every term is finite, their weighted sum is not" in err
    assert "Traceback" not in err


def test_train_reruns_in_fresh_processes_are_byte_identical(tmp_path):
    # The reproducibility contract holds at a fixed BLAS thread count; two
    # threads make the BLAS calls split their work.
    data = write_dataset(tmp_path, n=200)
    cfg = write_config(tmp_path, data, epochs=4, patience=4)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "MKL_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outs, stdouts = [tmp_path / "a", tmp_path / "b"], []
    for out in outs:
        done = subprocess.run(
            [sys.executable, "-m", "degfair.cli", "train", "--config", str(cfg),
             "--runs", "2", "--out", str(out)],
            env=env, capture_output=True, timeout=600, check=True,
        )
        stdouts.append(done.stdout)
    assert stdouts[0] == stdouts[1] and b"runs=2" in stdouts[0]
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["aggregate.txt", "model_seed7.txt", "model_seed8.txt",
                     "report_seed7.txt", "report_seed8.txt"]
    assert sorted(p.name for p in outs[1].iterdir()) == names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_eval_with_a_huge_context_radius_finishes(tmp_path):
    # local_contexts stops once the pattern stops growing; without that, a
    # model file whose r_context is 10**9 would run 10**9 products. The child
    # process's timeout fails the test instead of hanging it.
    data = write_dataset(tmp_path, n=60)
    cfg = write_config(tmp_path, data, epochs=2, patience=2)
    assert main(["train", "--config", str(cfg), "--runs", "1"]) == 0
    model = tmp_path / "out" / "model_seed7.txt"
    lines = model.read_text().splitlines()
    config = json.loads(lines[1].removeprefix("config "))
    lines[1] = "config " + json.dumps({**config, "r_context": 10**9})
    model.write_text("\n".join(lines) + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "degfair.cli", "eval", "--model", str(model),
         "--edges", str(data / "edges.tsv"), "--features", str(data / "features.csv"),
         "--labels", str(data / "labels.txt"), "--r", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "delta_dsp" in done.stdout


@pytest.mark.filterwarnings("error")
def test_eval_labels_with_fewer_classes_than_the_model(tmp_path, capsys):
    data = write_dataset(tmp_path, n=300)
    cfg = write_config(tmp_path, data, epochs=2)
    assert main(["train", "--config", str(cfg), "--seed", "1", "--runs", "1"]) == 0
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("0\n" * 300)
    capsys.readouterr()
    code = main(["eval", "--model", str(tmp_path / "out" / "model_seed1.txt"),
                 "--edges", str(data / "edges.tsv"), "--features", str(data / "features.csv"),
                 "--labels", str(zeros)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    table = captured.out.split("recall_high\n")[1].splitlines()
    assert [row.split()[0] for row in table] == ["0", "1"]  # the model's two classes


# ------------------------------------------- ids beyond int64, non-UTF-8 bytes


BAD_BYTES = [
    pytest.param("edges", b"0\t1\n1\t99999999999999999999\n",
                 "2: node id out of range for int64", id="edge-id-overflow"),
    pytest.param("edges", b"0\t1\n-9223372036854775809\t2\n",
                 "2: node id out of range for int64", id="edge-id-underflow"),
    pytest.param("labels", b"0\n1\n99999999999999999999\n",
                 "3: integer out of range for int64", id="label-overflow"),
    pytest.param("preds", b"0\n18446744073709551616\n0\n",
                 "2: integer out of range for int64", id="pred-overflow"),
    pytest.param("edges", b"0\t1\n1\t\xff\n", "2: not valid UTF-8", id="edge-not-utf8"),
    pytest.param("labels", b"0\r\n\xe2\x82\r\n0\r\n", "2: not valid UTF-8",
                 id="label-not-utf8"),
    pytest.param("preds", b"\xff\n", "1: not valid UTF-8", id="pred-not-utf8"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,raw,message", BAD_BYTES)
def test_audit_unreadable_integer_file_exits_3(tmp_path, capsys, name, raw, message):
    argv = _audit(tmp_path, *PATH3)
    (tmp_path / f"{name}.txt").write_bytes(raw)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {tmp_path / name}.txt:{message}")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("raw,message", [
    pytest.param(b"0\t1\n1\t99999999999999999999\n", "2: node id out of range for int64",
                 id="edge-id-overflow"),
    pytest.param(b"# \xff\n0\t1\n", "1: not valid UTF-8", id="edge-not-utf8"),
])
def test_degree_stats_unreadable_edge_file_exits_3(tmp_path, capsys, raw, message):
    edges = tmp_path / "edges.tsv"
    edges.write_bytes(raw)
    assert main(["degree-stats", "--edges", str(edges)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {edges}:{message}")
    assert "Traceback" not in err


# ------------------------------------------------ malformed feature CSVs


def _bad_features(good: str, case: str) -> str:
    rows = good.splitlines(keepends=True)
    if case == "empty":
        return ""
    if case == "ragged-row":
        rows[1] = rows[1].rsplit(",", 1)[0] + "\n"
    elif case == "non-numeric-cell":
        rows[2] = "abc," + rows[2].split(",", 1)[1]
    elif case == "too-few-rows":
        rows = rows[:-1]
    return "".join(rows)


def _with_features(tmp_path, trained, command, features):
    data = trained["data"]
    files = ["--edges", str(data / "edges.tsv"), "--labels", str(data / "labels.txt"),
             "--features", str(features)]
    if command == "eval":
        return ["eval", "--model", str(trained["model"]), *files]
    if command == "degree-stats":
        return ["degree-stats", *files]
    if command == "audit":
        preds = tmp_path / "preds.txt"
        preds.write_text((data / "labels.txt").read_text())
        return ["audit", "--preds", str(preds), *files]
    cfg = json.loads(trained["config"].read_text())
    cfg["data"]["features"] = str(features)
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return ["train", "--config", str(path)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["empty", "ragged-row", "non-numeric-cell", "too-few-rows"])
@pytest.mark.parametrize("command", ["eval", "train", "degree-stats", "audit"])
def test_malformed_feature_file_exits_3(tmp_path, trained, capsys, command, case):
    features = tmp_path / "features.csv"
    features.write_text(_bad_features((trained["data"] / "features.csv").read_text(), case))
    argv = _with_features(tmp_path, trained, command, features)
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
    if case == "empty":
        assert captured.err == f"data error: {features}: no feature rows\n"
