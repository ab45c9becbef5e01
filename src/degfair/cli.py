"""Batch command-line entry points.

Subcommands: ``train`` (multi-seed training with an aggregate report),
``eval`` (fairness report for a saved model), ``audit`` (metrics for a
prediction file, no model needed), ``synth`` (write a synthetic dataset),
and ``degree-stats`` (generalized-degree summary of an edge file).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training
divergence. Report files are line-oriented ``key=value`` records plus one
aligned table, with no timestamps, so identical inputs reproduce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from degfair.graphs import (
    GraphDataError,
    GraphFormatError,
    build_graph,
    generalized_degree,
    load_graph,
    mean_degree,
    read_edges,
    read_labels,
    save_graph_files,
    split_nodes,
    synth_generate,
)
from degfair.metrics import FairnessReport, aggregate_runs, build_report
from degfair.training import (
    PRESETS,
    ModelFileError,
    TrainConfig,
    TrainingDivergedError,
    check_finite_real,
    check_integer,
    load_model,
    predict,
    save_model,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


class ConfigError(ValueError):
    pass


_CONFIG_SECTIONS = {"preset", "data", "train", "eval", "output", "seed"}
_DATA_KEYS = {"edges", "features", "labels"}
_EVAL_KEYS = {"r_eval", "fraction", "num_runs"}
_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)} | {"lambda"}


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _section(raw: dict, name: str, allowed: set, path: str) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: {name!r} section must be a JSON object")
    _reject_unknown(section, allowed, name)
    return dict(section)


def _check_path(value, name: str, path: str) -> None:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: {name} must be a path string, got {value!r}")


def _check_positive(value: int, name: str) -> None:
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")


def _check_fraction(fraction: float, name: str) -> None:
    if not 0.0 < fraction <= 0.5:
        raise ConfigError(f"{name} must be in (0, 0.5], got {fraction}")


def parse_run_config(path: str, preset_override: str | None = None) -> dict:
    """Parse and validate a JSON run-config file.

    Layout: {"preset": name?, "data": {edges, features, labels},
    "train": {TrainConfig fields}, "eval": {r_eval, fraction, num_runs},
    "output": {"dir": path}, "seed": int}. Unknown keys are rejected;
    missing train fields come from the preset (or the defaults). A preset
    passed on the command line wins over the file's.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _reject_unknown(raw, _CONFIG_SECTIONS, path)
    if preset_override is not None:
        raw["preset"] = preset_override

    data = raw.get("data")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: missing required 'data' section")
    _reject_unknown(data, _DATA_KEYS, "data")
    missing = sorted(_DATA_KEYS - set(data))
    if missing:
        raise ConfigError(f"{path}: data section missing {', '.join(missing)}")
    for key in sorted(_DATA_KEYS):
        _check_path(data[key], f"data.{key}", path)

    train_section = _section(raw, "train", _TRAIN_KEYS, path)
    if "lambda" in train_section:
        if "lam" in train_section:
            raise ConfigError(f"{path}: train section sets both 'lam' and 'lambda'")
        train_section["lam"] = train_section.pop("lambda")

    preset = raw.get("preset")
    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ConfigError(
                f"{path}: unknown preset {preset!r} (choose from {sorted(PRESETS)})"
            )
        merged = dict(PRESETS[preset])
        merged.update(train_section)
        train_section = merged

    eval_section = _section(raw, "eval", _EVAL_KEYS, path)
    try:
        if "seed" in raw:
            check_integer("seed", raw["seed"])
            train_section.setdefault("seed", raw["seed"])
        config = TrainConfig(**train_section)
        eval_settings = {"r_eval": config.r_eval, "fraction": 0.2, "num_runs": 1, **eval_section}
        for key in ("r_eval", "num_runs"):
            check_integer(f"eval.{key}", eval_settings[key])
            _check_positive(eval_settings[key], f"eval.{key}")
        check_finite_real("eval.fraction", eval_settings["fraction"])
        _check_fraction(eval_settings["fraction"], "eval.fraction")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad settings: {exc}") from None

    out_dir = _section(raw, "output", {"dir"}, path).get("dir", "out")
    _check_path(out_dir, "output.dir", path)
    return {
        "data": data,
        "config": config,
        "eval": eval_settings,
        "out_dir": out_dir,
    }


# ------------------------------------------------------------- report output


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def format_report(rep: FairnessReport) -> str:
    lines = [
        f"accuracy={_fmt(rep.accuracy)}",
        f"delta_dsp={_fmt(rep.delta_dsp)}",
        f"delta_deo={_fmt(rep.delta_deo)}",
        f"group_size_low={rep.group_sizes[0]}",
        f"group_size_high={rep.group_sizes[1]}",
        f"r_eval={rep.r_eval}",
        f"fraction={_fmt(rep.fraction)}",
        "",
        f"{'class':>5} {'p_low':>10} {'p_high':>10} {'recall_low':>10} {'recall_high':>11}",
    ]
    for y, row in enumerate(rep.per_class):
        rl = "nan" if np.isnan(row[2]) else _fmt(row[2])
        rh = "nan" if np.isnan(row[3]) else _fmt(row[3])
        lines.append(
            f"{y:>5} {_fmt(row[0]):>10} {_fmt(row[1]):>10} {rl:>10} {rh:>11}"
        )
    return "\n".join(lines) + "\n"


def format_aggregate(agg, base_seed: int, per_run: list[FairnessReport]) -> str:
    lines = [
        f"runs={agg.k}",
        f"base_seed={base_seed}",
        f"accuracy_mean={_fmt(agg.accuracy_mean)} accuracy_std={_fmt(agg.accuracy_std)}",
        f"delta_dsp_mean={_fmt(agg.delta_dsp_mean)} delta_dsp_std={_fmt(agg.delta_dsp_std)}",
        f"delta_deo_mean={_fmt(agg.delta_deo_mean)} delta_deo_std={_fmt(agg.delta_deo_std)}",
        "",
        f"{'run':>4} {'seed':>6} {'accuracy':>10} {'delta_dsp':>10} {'delta_deo':>10}",
    ]
    for i, rep in enumerate(per_run):
        lines.append(
            f"{i:>4} {base_seed + i:>6} {_fmt(rep.accuracy):>10} "
            f"{_fmt(rep.delta_dsp):>10} {_fmt(rep.delta_deo):>10}"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- commands


def cmd_train(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    spec = parse_run_config(args.config, preset_override=args.preset)
    data, config = spec["data"], spec["config"]
    ev = spec["eval"]
    if args.runs is not None:
        _check_positive(args.runs, "--runs")
        ev["num_runs"] = args.runs
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = args.out or spec["out_dir"]

    g = load_graph(data["edges"], data["features"], data["labels"])
    degrees = generalized_degree(g, ev["r_eval"])
    seeds = range(config.seed, config.seed + ev["num_runs"])
    splits = [split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=seed) for seed in seeds]
    for split in splits:
        # A report's validity depends on labels, split and groups only: check before training.
        build_report(
            g.labels, g.labels, split.test, degrees, ev["fraction"], num_classes=g.num_classes
        )
    os.makedirs(out_dir, exist_ok=True)
    reports = []
    for seed, split in zip(seeds, splits):
        run_config = dataclasses.replace(config, seed=seed)
        params, _history = train(g, split, run_config)
        save_model(params, run_config, os.path.join(out_dir, f"model_seed{seed}.txt"))
        preds = predict(params, g, run_config)
        rep = build_report(
            preds, g.labels, split.test, degrees, ev["fraction"],
            r_eval=ev["r_eval"], num_classes=g.num_classes,
        )
        with open(
            os.path.join(out_dir, f"report_seed{seed}.txt"), "w", encoding="utf-8"
        ) as fh:
            fh.write(format_report(rep))
        reports.append(rep)
    agg = aggregate_runs(reports)
    text = format_aggregate(agg, config.seed, reports)
    with open(os.path.join(out_dir, "aggregate.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_positive(args.r, "--r")
    _check_fraction(args.fraction, "--fraction")
    params, config = load_model(args.model)
    g = load_graph(args.edges, args.features, args.labels)
    if g.feature_dim != params.layers[0].debias_low.w.shape[0]:
        raise GraphDataError(
            f"feature dimension {g.feature_dim} does not match the model "
            f"(expected {params.layers[0].debias_low.w.shape[0]})"
        )
    split = split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=config.seed)
    degrees = generalized_degree(g, args.r)
    preds = predict(params, g, config)
    rep = build_report(
        preds, g.labels, split.test, degrees, args.fraction,
        r_eval=args.r, num_classes=max(g.num_classes, params.layers[-1].omega["b"].shape[1]),
    )
    sys.stdout.write(format_report(rep))
    return EXIT_OK


def cmd_audit(args) -> int:
    _check_positive(args.r, "--r")
    _check_fraction(args.fraction, "--fraction")
    if args.features:
        g = load_graph(args.edges, args.features, args.labels)
    else:
        # Metrics need labels and structure only; fabricate unit features.
        labels = read_labels(args.labels)
        g = build_graph(read_edges(args.edges), np.zeros((labels.size, 1)), labels)
    preds = read_labels(args.preds)
    if preds.shape[0] != g.num_nodes:
        raise GraphDataError(
            f"{args.preds}: {preds.shape[0]} predictions for {g.num_nodes} nodes"
        )
    if preds.min(initial=0) < 0:
        raise GraphDataError(f"{args.preds}: negative prediction id {preds.min()}")
    degrees = generalized_degree(g, args.r)
    rep = build_report(
        preds, g.labels, np.arange(g.num_nodes), degrees, args.fraction,
        r_eval=args.r, num_classes=max(g.num_classes, int(preds.max(initial=0)) + 1),
    )
    sys.stdout.write(format_report(rep))
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        g = synth_generate(args.nodes, args.attach, args.label_bias, args.feat_dim,
                           seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    os.makedirs(args.out, exist_ok=True)
    save_graph_files(
        g,
        os.path.join(args.out, "edges.tsv"),
        os.path.join(args.out, "features.csv"),
        os.path.join(args.out, "labels.txt"),
    )
    sys.stdout.write(
        f"nodes={g.num_nodes}\nedges={g.num_edges}\nfeat_dim={g.feature_dim}\n"
        f"classes={g.num_classes}\nout={args.out}\n"
    )
    return EXIT_OK


def cmd_degree_stats(args) -> int:
    _check_positive(args.r, "--r")
    if (args.labels is None) != (args.features is None):
        given, missing = (
            ("--features", "--labels") if args.labels is None else ("--labels", "--features")
        )
        raise ConfigError(f"degree-stats: {given} needs {missing} as well")
    if args.labels is None:
        # Degree stats need only the edge file; infer node count from it.
        edges = read_edges(args.edges)
        n = int(edges.max()) + 1 if edges.size else 0
        g = build_graph(edges, np.zeros((n, 1)), np.zeros(n, dtype=np.int64), num_classes=1)
    else:
        g = load_graph(args.edges, args.features, args.labels)
    deg = generalized_degree(g, args.r)
    qs = np.percentile(deg, [10, 25, 50, 75, 90])
    sys.stdout.write(
        f"r={args.r}\nnodes={g.num_nodes}\nedges={g.num_edges}\n"
        f"min={deg.min():.6f}\nmean={deg.mean():.6f}\nmax={deg.max():.6f}\n"
        f"p10={qs[0]:.6f}\np25={qs[1]:.6f}\np50={qs[2]:.6f}\n"
        f"p75={qs[3]:.6f}\np90={qs[4]:.6f}\n"
        f"default_threshold={mean_degree(g):.6f}\n"
    )
    return EXIT_OK


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degfair",
        description="Train, evaluate, and audit degree-fair graph models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="multi-seed training from a config file")
    p_train.add_argument("--config", required=True, help="JSON run-config path")
    p_train.add_argument("--preset", default=None,
                         choices=sorted(PRESETS), help="override the config's preset")
    p_train.add_argument("--runs", type=int, default=None, help="override num_runs")
    p_train.add_argument("--seed", type=int, default=None, help="override base seed")
    p_train.add_argument("--out", default=None, help="override output directory")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="fairness report for a saved model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--edges", required=True)
    p_eval.add_argument("--features", required=True)
    p_eval.add_argument("--labels", required=True)
    p_eval.add_argument("--r", type=int, default=1, help="generalized-degree hops")
    p_eval.add_argument("--fraction", type=float, default=0.2)
    p_eval.set_defaults(func=cmd_eval)

    p_audit = sub.add_parser("audit", help="metrics for a prediction file")
    p_audit.add_argument("--preds", required=True, help="one class index per line")
    p_audit.add_argument("--edges", required=True)
    p_audit.add_argument("--labels", required=True)
    p_audit.add_argument("--features", default=None)
    p_audit.add_argument("--r", type=int, default=1)
    p_audit.add_argument("--fraction", type=float, default=0.2)
    p_audit.set_defaults(func=cmd_audit)

    p_synth = sub.add_parser("synth", help="write a synthetic dataset")
    p_synth.add_argument("--nodes", type=int, default=300)
    p_synth.add_argument("--attach", type=int, default=2)
    p_synth.add_argument("--label-bias", type=float, default=0.9, dest="label_bias")
    p_synth.add_argument("--feat-dim", type=int, default=8, dest="feat_dim")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_stats = sub.add_parser("degree-stats", help="generalized-degree summary")
    p_stats.add_argument("--edges", required=True)
    p_stats.add_argument("--features", default=None)
    p_stats.add_argument("--labels", default=None)
    p_stats.add_argument("--r", type=int, default=1)
    p_stats.set_defaults(func=cmd_degree_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GraphFormatError, GraphDataError, ModelFileError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
