import json
import os

import numpy as np
import pytest

from degfair.cli import ConfigError, main, parse_run_config
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
