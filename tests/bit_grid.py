"""Bit-identity grid: one md5 per training config, printed as JSON.

A refactor that claims bit-identical results runs this script on two
checkouts and compares the outputs::

    (cd parent && PYTHONPATH=src python tests/bit_grid.py) > parent.json
    (cd change && PYTHONPATH=src python tests/bit_grid.py) > change.json
    cmp parent.json change.json

Each md5 covers the ``save_model`` bytes, the ``predict`` output, every
``LossBreakdown`` term of every epoch and ``best_epoch``. The grid is
{gcn, sage, gat with 1 and 2 heads} x {degfair, base} x lam {1e-4, 0} x
``r_context`` {1, 2} x ``dropout_input`` {false, true}: 64 configs on one
small synthetic graph, 6 epochs each. pytest does not collect this file.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from degfair.graphs import split_nodes, synth_generate
from degfair.training import TrainConfig, predict, save_model, train

BACKBONES = (("gcn", 1), ("sage", 1), ("gat", 1), ("gat", 2))
MODELS = ("degfair", "base")
LAMS = (1e-4, 0.0)
R_CONTEXTS = (1, 2)
DROPOUT_INPUTS = (False, True)


def config_md5(g, split, config: TrainConfig, path: str) -> str:
    params, history = train(g, split, config)
    save_model(params, config, path)
    digest = hashlib.md5()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    digest.update(predict(params, g, config).astype(np.int64).tobytes())
    terms = [dataclasses.astuple(b) for b in history.losses]
    digest.update(np.array(terms, dtype=np.float64).tobytes())
    digest.update(str(history.best_epoch).encode())
    return digest.hexdigest()


def main() -> int:
    g = synth_generate(300, 3, 0.9, 16, 5)
    split = split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=5)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        grid = itertools.product(BACKBONES, MODELS, LAMS, R_CONTEXTS, DROPOUT_INPUTS)
        for (kind, heads), model, lam, r, din in grid:
            config = TrainConfig(
                base_gnn=kind, gat_heads=heads, model=model, lam=lam, r_context=r,
                dropout_input=din, hidden_dim=8, dropout=0.3, epochs=6, patience=6,
                seed=3,
            )
            key = f"{kind}{heads}-{model}-lam{lam:g}-r{r}-din{int(din)}"
            out[key] = config_md5(g, split, config, path)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
