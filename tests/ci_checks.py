"""The checks and readings that CI runs around tier-1, one subcommand each.

Run from the repository root::

    python tests/ci_checks.py known-red tier1.xml
    python tests/ci_checks.py bench-line "$(python perfbench/run.py ... | tail -n 1)" TRACE
    python tests/ci_checks.py grid-summary BASE.json HEAD.json BASE_SHA BASE_SRC HEAD_SRC
    PYTHONPATH=src python tests/ci_checks.py live-mb
    PYTHONPATH=src python tests/ci_checks.py backward-peak-mb
    PYTHONPATH=src python tests/ci_checks.py tape-entries
    PYTHONPATH=src python tests/ci_checks.py predict-peak-mb
    PYTHONPATH=src python tests/ci_checks.py predict-ms

``known-red`` fails on any failed or errored test in a JUnit report other
than the known red (criterion 6), and when the report is missing.
``bench-line`` fails unless a benchmark result line is correct with no
failed operations and, for an untraced run (TRACE 0), reports every
end-to-end metric of ``BENCHMARK.json`` finite and above zero.
``grid-summary`` prints, as Markdown, the bit-grid configs whose md5
differ between two outputs of ``tests/bit_grid.py`` and the line counts
of the two ``src`` trees. ``live-mb`` prints the MB that tracemalloc reads
live at the first ``Tape.backward`` of one degfair GCN epoch (n=8000,
hidden 64), ``backward-peak-mb`` the MB that it reads at the peak of that
backward, and ``tape-entries`` the tape entries that one degfair GCN
epoch records (n=300, hidden 8, the shape of the tape-entry test in
``tests/test_objective.py``). ``predict-peak-mb`` prints the MB that
tracemalloc reads at the peak of one ``predict`` (an untrained degfair GCN,
``r_context`` 2, hidden 32, on ``synth_generate(20000, 2, 0.9, 32, seed=0)``),
and ``predict-ms`` the median wall ms of 3 ``predict`` calls on that input.
All five read the ``degfair`` on the path and print "not measured" rather
than fail. pytest does not collect this file.
"""

import json
import math
import pathlib
import sys
import xml.etree.ElementTree as ET

KNOWN_RED = {"tests.test_acceptance::test_criterion_6_ablation_ordering"}


def known_red(report):
    failed = [
        f"{case.get('classname')}::{case.get('name')}"
        for case in ET.parse(report).iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    ]
    new = sorted(set(failed) - KNOWN_RED)
    print(f"{len(failed)} failed or errored; beyond the known red: {new or 'none'}")
    return 1 if new else 0


def bench_line(line, trace):
    result = json.loads(line)
    problems = [] if result["correct"] is True and result["failed"] == 0 else ["not correct"]
    if trace == "0":
        with open("BENCHMARK.json") as f:
            names = [m["name"] for m in json.load(f)["end_to_end"]]
        for name in names:
            value = result["metrics"].get(name, {}).get("value")
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not (math.isfinite(value) and value > 0):
                problems.append(f"{name}={value!r}")
    print("ok" if not problems else "failed: " + ", ".join(problems))
    return 1 if problems else 0


def _load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def _lines(src):
    files = list(pathlib.Path(src).rglob("*.py"))
    return sum(len(p.read_bytes().splitlines()) for p in files) if files else None


def grid_summary(base_json, head_json, sha, base_src, head_src):
    base, head = _load(base_json), _load(head_json)
    differ = sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))
    print(f"### Bit grid against {sha[:12]}: {len(differ)} of {len(head)} configs differ")
    for key in differ:
        print(f"- `{key}`: base {base.get(key, 'missing')}, head {head.get(key, 'missing')}")
    base_lines, head_lines = _lines(base_src), _lines(head_src)
    if None in (base_lines, head_lines):
        print(f"### `src/` lines: base {base_lines or 'missing'}, head {head_lines or 'missing'}")
    else:
        print(f"### `src/` lines: base {base_lines}, head {head_lines} "
              f"({head_lines - base_lines:+d})")
    return 0


def _first_backward(n, feat_dim, config_args, read, start=lambda: None):
    """``read(tape)`` just before and just after the first ``Tape.backward`` of a GCN epoch.

    The epoch trains on a synth graph; ``start()`` runs after the graph is
    built, just before training.
    """
    from degfair.autodiff import Tape
    from degfair.graphs import split_nodes, synth_generate
    from degfair.training import TrainConfig, train

    g = synth_generate(n, 2, 0.9, feat_dim, seed=0)
    split = split_nodes(g.num_nodes, (0.6, 0.2, 0.2), seed=0)
    seen, backward = [], Tape.backward

    def marked(tape, loss):
        seen.append(read(tape))
        backward(tape, loss)
        seen.append(read(tape))

    Tape.backward = marked
    start()
    train(g, split, TrainConfig(base_gnn="gcn", epochs=1, **config_args))
    return seen[0], seen[1]


# One degfair GCN epoch at n=8000, hidden 64: the live-mb and backward-peak-mb input.
_LIVE_SHAPE = (8000, 64, dict(model="degfair", hidden_dim=64, eps=1.0, mu=1e-3, lam=1e-4,
                              dropout=0.5, patience=1))


def live_mb():
    import tracemalloc

    try:
        live, _ = _first_backward(*_LIVE_SHAPE, lambda tape: tracemalloc.get_traced_memory()[0],
                                  tracemalloc.start)
        print(f"{live / 1e6:.1f} MB")
    except Exception as exc:
        print(f"not measured ({type(exc).__name__}: {exc})")
    return 0


def backward_peak_mb():
    import tracemalloc

    def peak_since_last_read(tape):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return peak

    try:
        _, peak = _first_backward(*_LIVE_SHAPE, peak_since_last_read, tracemalloc.start)
        print(f"{peak / 1e6:.1f} MB")
    except Exception as exc:
        print(f"not measured ({type(exc).__name__}: {exc})")
    return 0


def tape_entries():
    try:
        print(_first_backward(300, 8, dict(hidden_dim=8, mu=1e-3, lam=1e-4), len)[0])
    except Exception as exc:
        print(f"not measured ({type(exc).__name__}: {exc})")
    return 0


def _predict_input():
    """``(params, g, config)``: an untrained degfair GCN (r=2, hidden 32) on a 20000-node graph."""
    import numpy as np

    from degfair.graphs import synth_generate
    from degfair.training import TrainConfig, init_params

    g = synth_generate(20000, 2, 0.9, 32, seed=0)
    config = TrainConfig(base_gnn="gcn", model="degfair", hidden_dim=32, r_context=2)
    return init_params(config, g.feature_dim, g.num_classes, np.random.default_rng(0)), g, config


def predict_peak_mb():
    import tracemalloc

    try:
        from degfair.training import predict

        params, g, config = _predict_input()
        tracemalloc.start()
        predict(params, g, config)
        print(f"{tracemalloc.get_traced_memory()[1] / 1e6:.1f} MB")
    except Exception as exc:
        print(f"not measured ({type(exc).__name__}: {exc})")
    return 0


def predict_ms():
    import statistics
    import time

    try:
        from degfair.training import predict

        params, g, config = _predict_input()
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            predict(params, g, config)
            walls.append(time.perf_counter() - start)
        print(f"{statistics.median(walls) * 1e3:.1f} ms")
    except Exception as exc:
        print(f"not measured ({type(exc).__name__}: {exc})")
    return 0


COMMANDS = {"known-red": known_red, "bench-line": bench_line, "grid-summary": grid_summary,
            "live-mb": live_mb, "backward-peak-mb": backward_peak_mb, "tape-entries": tape_entries,
            "predict-peak-mb": predict_peak_mb, "predict-ms": predict_ms}

if __name__ == "__main__":
    sys.exit(COMMANDS[sys.argv[1]](*sys.argv[2:]))
