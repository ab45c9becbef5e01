"""One benchmark workload in its own process; writes a JSON result file.

``run.py`` starts this under single-thread BLAS with the checkout's
``src`` on ``PYTHONPATH``, after ``gen.py`` has written the inputs:

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --inputs DIR --out RESULT.json

With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
measured. With ``--trace 1`` untraced and traced jobs alternate: the traced
ones give the per-layer metrics, and the two kinds' median step times give
the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import degfair
from degfair import cli, layers
from degfair.graphs import (
    build_graph,
    generalized_degree,
    load_graph,
    partition_contrast,
    split_nodes,
)
from degfair.layers import base_forward, build_operators, input_features, model_forward
from degfair.metrics import build_report
from degfair.training import TrainConfig, TrainingDivergedError, load_model, predict, train

from checks import (
    REPORT_KEYS,
    Tally,
    check_agreement,
    check_command,
    check_context,
    check_losses,
)
from spans import BACKWARD_NOTE, library_tracer, per_layer_metrics

E2E_UNITS = {"step_ms_p50": "ms", "job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Fixed epoch count per train() call; patience equals it, so no call stops
# early and every call does the same work.
TRAINING = {
    "train-fair-gcn": {
        "epochs": 5,
        "config": {
            "base_gnn": "gcn", "model": "degfair", "hidden_dim": 64, "num_layers": 2,
            "eps": 1.0, "mu": 1e-3, "lam": 1e-4, "dropout": 0.5,
        },
    },
    "train-base-gat": {
        "epochs": 7,
        "config": {
            "base_gnn": "gat", "model": "base", "hidden_dim": 32, "num_layers": 2,
            "gat_heads": 1, "mu": 0.0, "lam": 0.0, "dropout": 0.5,
        },
    },
}
EVAL_WORKLOAD = "eval-large-r2"
# load_graph + build_operators repetitions before the eval commands.
EVAL_SETUPS = 3
EVAL_FRACTION = 0.2


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


class Reference:
    """Eval-mode taped forward of trained parameters, for the agreement check."""

    def __init__(self, g, config: TrainConfig):
        groups = partition_contrast(g.degrees.astype(np.float64), config.resolve_threshold(g))
        self.g, self.config = g, config
        self.ops = build_operators(g, config.r_context, groups, config.base_gnn)
        self.feats = input_features(g, config.feature_norm)
        # The untaped inference path, while the library still has one.
        name = "infer_probs" if config.model == "degfair" else "infer_base_probs"
        self.untaped = getattr(layers, name, None)
        self.absent = [] if self.untaped else [f"degfair.layers.{name}"]

    def check(self, tally: Tally, params) -> None:
        g, c = self.g, self.config
        if c.model == "degfair":
            kwargs = {"eps": c.eps, "features": self.feats}
            ref = model_forward(g, params, self.ops, **kwargs).probs.data
        else:
            kwargs = {"features": self.feats}
            ref = base_forward(g, params, self.ops, **kwargs).data
        probs = self.untaped(g, params, self.ops, **kwargs) if self.untaped else None
        check_agreement(tally, predict(params, g, c), ref, probs)


def run_training(name: str, seed: int, seconds: float, traced: bool, inputs: Path) -> dict:
    spec = TRAINING[name]
    data = np.load(inputs / "graph.npz")
    g = build_graph(data["edges"], data["features"], data["labels"], num_classes=2)
    split = split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=seed)
    config = TrainConfig(
        **spec["config"], epochs=spec["epochs"], patience=spec["epochs"], seed=seed
    )
    reference = Reference(g, config)
    tally = Tally()
    check_context(tally, data["edges"], g.num_nodes, config.r_context, reference.ops.ctx_mean.fwd)
    result = {"tally": tally, "absent": reference.absent, "env": environment()}
    tracer = library_tracer() if traced else None
    jobs = {False: [], True: []}  # traced? -> [(wall, epoch_seconds)]
    spent = 0.0
    while spent < seconds or (traced and not jobs[True]):
        trace_this = traced and len(jobs[True]) < len(jobs[False])
        job = tracer.wrap(train, "train", "training") if trace_this else train
        try:
            with tracer.installed() if trace_this else contextlib.nullcontext():
                t0 = time.perf_counter()
                params, history = job(g, split, config)
                wall = time.perf_counter() - t0
        except TrainingDivergedError as exc:
            # Every call has the same seed and config, so the first call
            # diverges if any does: the run reports that failed operation
            # with every metric at 0.
            tally.record(False, f"train() diverged: {exc}")
            return {**result, "metrics": _zero_metrics(traced), "samples": {"jobs": 0},
                    "tracer": tracer}
        spent += wall
        jobs[trace_this].append((wall, history.epoch_seconds))
        check_losses(tally, [b.total for b in history.losses])
        reference.check(tally, params)

    if traced:
        # Overhead from steady epochs (epoch 0 left out), which are many more
        # samples than whole train() calls.
        walls = {k: [s for _, e in v for s in e[1:]] for k, v in jobs.items()}
        traced_jobs = jobs[True]
        metrics = per_layer_metrics(
            tracer.spans,
            units=sum(len(e) for _, e in traced_jobs),
            jobs=len(traced_jobs),
            epoch_seconds=sum(sum(e) for _, e in traced_jobs),
        )
        metrics["trace.overhead_pct"] = (_overhead_pct(walls), "%")
        result.update(metrics=metrics, tracer=tracer, samples={"traced_jobs": len(traced_jobs)})
        return result

    done = jobs[False]
    # Epoch 0 of every call (warm-up, ~1.7x a steady epoch) is left out of
    # the epoch percentiles; it stays in job_s.
    steps = [s for _, e in done for s in e[1:]]
    walls = [w for w, _ in done]
    result["metrics"] = _e2e(
        step_ms_p50=statistics.median(steps) * 1e3,
        job_s=statistics.median(walls),
        setup_s=statistics.median(w - sum(e) for w, e in done),
        peak_rss_mb=peak_rss_mb(),
    )
    result["aliases"] = {
        "epoch_ms_p50": _with_count(statistics.median(steps) * 1e3, "ms", steps),
        "epoch_ms_p90": _with_count(_p90(steps) * 1e3, "ms", steps),
        "train_s": _with_count(statistics.median(walls), "s", walls),
    }
    result["samples"] = {"steps": len(steps), "jobs": len(done)}
    return result


def _e2e(**values: float) -> dict[str, tuple[float, str]]:
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def _zero_metrics(traced: bool) -> dict[str, tuple[float, str]]:
    if not traced:
        return _e2e(**dict.fromkeys(E2E_UNITS, 0.0))
    metrics = per_layer_metrics([], units=1, jobs=1, epoch_seconds=0.0)
    metrics["trace.overhead_pct"] = (0.0, "%")
    return metrics


def _with_count(value: float, unit: str, samples: list) -> str:
    return f"{value:.4f} {unit} (n={len(samples)})"


def _overhead_pct(walls: dict) -> float:
    return (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0) * 100.0


def _same_graph(a, b) -> bool:
    return a.num_nodes == b.num_nodes and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("csr_offsets", "csr_neighbors", "features", "labels")
    )


def _eval_reference(tally: Tally, inputs: Path, loaded, ops, params, config) -> dict[str, float]:
    """build_report on the benchmark's own prediction of the generated graph.

    The prediction is the argmax of the taped eval-mode forward over the
    operators of the last set-up, a different code path from the command's
    ``predict()``. A second ``predict()`` would rebuild the r=2 context
    operator, about 9 s per run. Two more checked operations test the
    set-up against the generator's arrays: the loaded graph must equal the
    one built from them, and the context operator must have the pattern of
    (A+I)^r of their edge list.
    """
    data = np.load(inputs / "graph.npz")
    g = build_graph(data["edges"], data["features"], data["labels"])
    tally.record(_same_graph(g, loaded), "load_graph() differs from the generated graph")
    check_context(tally, data["edges"], g.num_nodes, config.r_context, ops.ctx_mean.fwd)
    feats = input_features(g, config.feature_norm)
    probs = model_forward(g, params, ops, eps=config.eps, features=feats).probs.data
    split = split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=config.seed)
    rep = build_report(
        np.argmax(probs, axis=1), g.labels, split.test,
        generalized_degree(g, config.r_eval), EVAL_FRACTION,
        r_eval=config.r_eval, num_classes=g.num_classes,
    )
    return {k: getattr(rep, k) for k in REPORT_KEYS}


def run_eval(seed: int, seconds: float, traced: bool, inputs: Path) -> dict:
    files = [str(inputs / f) for f in ("edges.tsv", "features.csv", "labels.txt")]
    model = str(inputs / "model.txt")
    params, config = load_model(model)
    argv = ["eval", "--model", model, "--edges", files[0], "--features", files[1],
            "--labels", files[2], "--r", str(config.r_eval), "--fraction", str(EVAL_FRACTION)]
    tally = Tally()
    tracer = library_tracer() if traced else None

    # The commands run first, so peak_rss_mb covers them and not the
    # benchmark's own set-ups and reference forward below.
    runs = {False: [], True: []}  # traced? -> [(wall, exit code, stdout)]
    spent = 0.0
    while spent < seconds or (traced and not (runs[False] and runs[True])):
        trace_this = traced and len(runs[True]) < len(runs[False])
        command = tracer.wrap(cli.main, "cli.main", "cli") if trace_this else cli.main
        out = io.StringIO()
        code = None
        t0 = time.perf_counter()
        try:
            with tracer.installed() if trace_this else contextlib.nullcontext():
                with contextlib.redirect_stdout(out):
                    code = command(argv)
        except Exception as exc:  # a crashing command is a failed operation
            print(f"eval command raised {exc!r}", file=sys.stderr)
        wall = time.perf_counter() - t0
        spent += wall
        runs[trace_this].append((wall, code, out.getvalue()))
    peak = peak_rss_mb()

    # Set-up as predict() does it, each after the last one's operators are
    # freed; the traced run needs one, for the reference only.
    setups = []
    for _ in range(1 if traced else EVAL_SETUPS):
        g = groups = ops = None
        t0 = time.perf_counter()
        g = load_graph(*files)
        t1 = time.perf_counter()
        groups = partition_contrast(g.degrees.astype(np.float64), config.resolve_threshold(g))
        t2 = time.perf_counter()
        ops = build_operators(g, config.r_context, groups, config.base_gnn)
        setups.append((t1 - t0) + (time.perf_counter() - t2))
    reference = _eval_reference(tally, inputs, g, ops, params, config)
    del g, groups, ops

    for _, code, text in runs[False] + runs[True]:
        check_command(tally, code, text, reference)

    result = {"tally": tally, "absent": [], "env": environment()}
    if traced:
        n = len(runs[True])
        metrics = per_layer_metrics(tracer.spans, units=n, jobs=n, epoch_seconds=0.0)
        metrics["trace.overhead_pct"] = (
            _overhead_pct({k: [w for w, _, _ in v] for k, v in runs.items()}), "%")
        result.update(metrics=metrics, tracer=tracer, samples={"traced_jobs": n})
        return result
    walls = [w for w, _, _ in runs[False]]
    result["metrics"] = _e2e(
        step_ms_p50=statistics.median(walls) * 1e3,
        job_s=statistics.median(walls),
        setup_s=statistics.median(setups),
        peak_rss_mb=peak,
    )
    result["aliases"] = {"eval_s_p50": _with_count(statistics.median(walls), "s", walls)}
    result["samples"] = {"steps": len(walls), "jobs": len(walls), "setups": len(setups)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*TRAINING, EVAL_WORKLOAD])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    if args.workload == EVAL_WORKLOAD:
        res = run_eval(args.seed, args.seconds, bool(args.trace), args.inputs)
    else:
        res = run_training(args.workload, args.seed, args.seconds, bool(args.trace), args.inputs)

    tally = res["tally"]
    info = {
        "env": res["env"],
        "degfair": os.path.dirname(degfair.__file__),
        "failed_ops_frac": tally.failed_ops_frac,
        "samples": res["samples"],
        "aliases": res.get("aliases", {}),
        "absent": res["absent"],
        "failures": tally.notes[:5],
    }
    if args.trace:
        tracer = res["tracer"]
        info["absent"] = info["absent"] + tracer.absent
        info["note"] = BACKWARD_NOTE
        if args.spans:
            tracer.write(args.spans)
            info["spans_file"] = args.spans
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
            "info": info,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
