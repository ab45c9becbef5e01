"""Smoke test of the benchmark's correctness checks.

    python3 perfbench/smoke.py

Feeds each check a correct output, then a wrong one, and shows that
``failed_ops_frac`` stays 0 on the first and rises above 0 on the second.
Exits 1 if any check lets a wrong output through or rejects a right one.
Needs numpy and scipy only.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from checks import Tally, check_agreement, check_command, check_context, check_losses, context_pattern

REFERENCE = {"accuracy": 0.61425, "delta_dsp": 0.0312, "delta_deo": 0.125}
REPORT = "accuracy=0.614250\ndelta_dsp=0.031200\ndelta_deo=0.125000\nr_eval=2\n"


def outputs(rng: np.random.Generator):
    probs = rng.dirichlet(np.ones(3), size=50)
    preds = np.argmax(probs, axis=1)
    flipped = preds.copy()
    flipped[0] = (flipped[0] + 1) % 3
    # A 6-node path; the wrong r=2 context of node 0 misses its 2-hop member.
    path = np.array([(i, i + 1) for i in range(5)])
    ctx = context_pattern(path, 6, 2)
    right_ctx = ctx.multiply(1.0 / ctx.sum(axis=1)).tocsr()
    short = ctx.tolil()
    short[0, 2] = 0
    short = short.tocsr()
    short.eliminate_zeros()
    wrong_ctx = short.multiply(1.0 / short.sum(axis=1)).tocsr()
    return {
        "losses": ([3.2, 2.9, 2.7], [3.2, math.nan, 2.7]),
        "predict": ((preds, probs, probs + 1e-14), (flipped, probs, probs)),
        "probabilities": ((preds, probs, probs), (preds, probs, probs + 1e-3)),
        "report": ((0, REPORT), (0, REPORT.replace("0.614250", "0.624250"))),
        "exit code": ((0, REPORT), (3, "")),
        "context": ((path, right_ctx), (path, wrong_ctx)),
    }


def run(check: str, output) -> float:
    tally = Tally()
    if check == "losses":
        check_losses(tally, output)
    elif check == "context":
        check_context(tally, output[0], 6, 2, output[1])
    elif check in ("predict", "probabilities"):
        check_agreement(tally, *output)
    else:
        check_command(tally, output[0], output[1], REFERENCE)
    return tally.failed_ops_frac


def main() -> int:
    ok = True
    for check, (right, wrong) in outputs(np.random.default_rng(0)).items():
        good, bad = run(check, right), run(check, wrong)
        passed = good == 0.0 and bad > 0.0
        ok &= passed
        print(f"{check:14} right output: failed_ops_frac={good:.3f}  "
              f"wrong output: failed_ops_frac={bad:.3f}  {'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
