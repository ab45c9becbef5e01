"""Seeded input generator for the benchmark workloads.

The benchmark owns its inputs: nothing here calls the library's
``synth_generate`` or ``save_graph_files``, so a change to those functions
cannot change what the benchmark measures. Everything is deterministic
under the seed.

Run as a script, it writes one workload's inputs into a directory:

    python3 perfbench/gen.py --workload train-fair-gcn --seed 1 --out DIR

Training workloads get ``graph.npz`` (edges, features, labels). The eval
workload gets the library's three-file graph format (``edges.tsv``,
``features.csv``, ``labels.txt``) plus ``model.txt``, a seeded, untrained
model in the library's model-file format, and ``graph.npz`` with the same
arrays so the benchmark can check the command's output on its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

# Graph shapes per workload. Sizes are fixed here, never by the seed.
GRAPHS = {
    "train-fair-gcn": {"n": 8000, "attach": 2, "feat_dim": 64, "label_bias": 0.9},
    "train-base-gat": {"n": 4000, "attach": 4, "feat_dim": 64, "label_bias": 0.9},
    "eval-large-r2": {"n": 100_000, "attach": 2, "feat_dim": 32, "label_bias": 0.9},
}

# The eval workload's model: a degfair GCN with r=2 debiasing contexts.
EVAL_MODEL = {
    "base_gnn": "gcn",
    "model": "degfair",
    "hidden_dim": 32,
    "num_layers": 2,
    "r_context": 2,
    "r_eval": 2,
    "threshold": "mean",
    "eps": 1.0,
    "mu": 0.001,
    "lam": 0.0001,
    "lr": 0.01,
    "dropout": 0.5,
    "dropout_input": False,
    "feature_norm": "l2",
    "epochs": 1000,
    "patience": 100,
    "seed": 0,
    "gat_heads": 1,
}
NUM_CLASSES = 2


def preferential_attachment(n: int, attach: int, seed: int) -> np.ndarray:
    """Edge list (m x 2, int64) of a Barabasi-Albert style graph.

    Starts from a clique on ``attach + 1`` nodes; each later node links to
    ``attach`` distinct earlier nodes drawn proportionally to degree (by
    sampling uniformly from the list of edge endpoints).

    The first ``n // 20`` nodes grow from a stream fixed by the graph's
    size, not by the seed. They become the hubs, and hub degrees set the
    r-hop context sizes, so the work per input barely moves with the seed
    (the interquartile spread of the sum of squared degrees over ten
    seeds drops from 13% to 1.4% at n=1e5).
    """
    core_rng = np.random.default_rng([n, attach])
    rng = np.random.default_rng([seed, n, attach])
    m0 = attach + 1
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    endpoints = [v for e in edges for v in e]
    for v in range(m0, n):
        draw = (core_rng if v < n // 20 else rng).random
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(endpoints[int(draw() * len(endpoints))])
        for t in sorted(targets):
            edges.append((v, t))
            endpoints.append(v)
            endpoints.append(t)
    return np.array(edges, dtype=np.int64)


def labeled_graph(workload: str, seed: int) -> dict[str, np.ndarray]:
    """Edges, degree-correlated labels and class-shifted features."""
    spec = GRAPHS[workload]
    n, feat_dim = spec["n"], spec["feat_dim"]
    edges = preferential_attachment(n, spec["attach"], seed)
    rng = np.random.default_rng([seed, n])
    deg = np.bincount(edges.ravel(), minlength=n)
    high = (deg > deg.mean()).astype(np.int64)
    flip = rng.random(n) >= spec["label_bias"]
    labels = np.where(flip, 1 - high, high)
    # Positive count-like offset plus a unit class shift plus noise, so
    # aggregated magnitude carries the planted degree bias.
    direction = np.full(feat_dim, 1.0 / np.sqrt(feat_dim))
    features = 1.0 + labels[:, None] * direction + rng.standard_normal((n, feat_dim))
    return {"edges": edges, "features": features, "labels": labels}


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def model_tensors(in_dim: int, seed: int) -> list[tuple[str, np.ndarray]]:
    """Named tensors of the eval model, every one nonzero.

    The degree-modulation nets are random too (a trained model's are not
    zero), so the debiasing path changes the output.
    """
    rng = np.random.default_rng([seed, 7])
    hidden, layers = EVAL_MODEL["hidden_dim"], EVAL_MODEL["num_layers"]
    dims = [in_dim] + [hidden] * (layers - 1) + [NUM_CLASSES]
    out = []
    for i in range(layers):
        d_in, d_out = dims[i], dims[i + 1]
        enc = d_out + d_out % 2
        p = f"layer{i}"
        out.append((f"{p}.omega.b", 0.1 * rng.standard_normal((1, d_out))))
        out.append((f"{p}.omega.w", glorot(rng, d_in, d_out)))
        for name, fan_in in (
            ("debias_low", d_in),
            ("debias_high", d_in),
            ("film_scale", enc),
            ("film_shift", enc),
        ):
            out.append((f"{p}.{name}.w", 0.5 * glorot(rng, fan_in, d_out)))
            out.append((f"{p}.{name}.b", 0.1 * rng.standard_normal((1, d_out))))
    return out


def write_model(path: str, tensors: list[tuple[str, np.ndarray]]) -> None:
    """The library's text model format: magic, config record, tensors, end.

    ``repr`` of a float is its shortest exact decimal form, so values load
    back bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("degfair-model v1\n")
        fh.write("config " + json.dumps(EVAL_MODEL, sort_keys=True) + "\n")
        for name, arr in tensors:
            fh.write(f"tensor {name} {arr.shape[0]} {arr.shape[1]}\n")
            for row in arr.tolist():
                fh.write(" ".join(map(repr, row)) + "\n")
        fh.write("end\n")


def write_graph_files(out: str, data: dict[str, np.ndarray]) -> None:
    """The library's three-file format, with exact (repr) feature values."""
    edges = data["edges"]
    with open(os.path.join(out, "edges.tsv"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{u}\t{v}\n" for u, v in edges.tolist()))
    with open(os.path.join(out, "features.csv"), "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in data["features"].tolist()))
    with open(os.path.join(out, "labels.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{y}\n" for y in data["labels"].tolist()))


def generate(workload: str, seed: int, out: str) -> None:
    data = labeled_graph(workload, seed)
    np.savez(os.path.join(out, "graph.npz"), **data)
    if workload == "eval-large-r2":
        write_graph_files(out, data)
        write_model(
            os.path.join(out, "model.txt"),
            model_tensors(data["features"].shape[1], seed),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GRAPHS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
