"""Correctness checks of the benchmark, each one counted as an operation.

The checks look only at outputs (losses, predictions, probabilities,
report text) and never at how well a model learned: the base-GAT workload
never beats its epoch-0 validation accuracy, and its work per epoch is the
same either way.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

# Eval-mode probabilities from the untaped and the taped forward differ only
# by summation order in fp64.
PROB_ATOL = 1e-9
# Rows whose two best classes are closer than this may break ties either way.
TIE_MARGIN = 1e-9
# The CLI prints report values with six decimals.
REPORT_ATOL = 1e-6
REPORT_KEYS = ("accuracy", "delta_dsp", "delta_deo")


class Tally:
    """Operations attempted and failed, with one note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    @property
    def failed_ops_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_losses(tally: Tally, totals) -> None:
    """One operation per epoch: its total loss must be finite."""
    for epoch, total in enumerate(totals):
        tally.record(math.isfinite(total), f"non-finite loss {total} at epoch {epoch}")


def check_agreement(
    tally: Tally, preds: np.ndarray, ref_probs: np.ndarray, probs: np.ndarray | None
) -> None:
    """predict() argmax, and untaped probabilities when given, match the
    taped eval-mode forward."""
    order = np.sort(ref_probs, axis=1)
    decided = order[:, -1] - order[:, -2] > TIE_MARGIN
    ref_preds = np.argmax(ref_probs, axis=1)
    wrong = int(np.count_nonzero((preds != ref_preds) & decided))
    tally.record(
        preds.shape == ref_preds.shape and wrong == 0,
        f"predict() disagrees with the taped forward on {wrong} nodes",
    )
    if probs is not None:
        gap = float(np.max(np.abs(probs - ref_probs))) if probs.shape == ref_probs.shape else math.inf
        tally.record(gap <= PROB_ATOL, f"untaped probabilities differ by {gap:.3g}")


def context_pattern(edges: np.ndarray, num_nodes: int, r: int) -> sparse.csr_matrix:
    """The nonzero pattern of (A+I)^r, built from the edge list alone.

    Row v holds every node within r hops of v, v itself included, with
    sorted column indices. Values are 1 and carry no meaning.
    """
    a = sparse.csr_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(num_nodes, num_nodes)
    )
    step = (a + a.T + sparse.identity(num_nodes, format="csr")).tocsr()
    step.data[:] = 1.0
    reach = step
    for _ in range(r - 1):
        reach = reach @ step
        reach.data[:] = 1.0
    reach.sort_indices()
    return reach


def check_context(
    tally: Tally, edges: np.ndarray, num_nodes: int, r: int, ctx: sparse.csr_matrix
) -> None:
    """One operation: the context-mean operator (``ops.ctx_mean.fwd``) has
    the pattern of (A+I)^r built from the edge list, and each row averages
    its context with weight 1/|context|."""
    want = context_pattern(edges, num_nodes, r)
    got = ctx.sorted_indices()
    ok = (
        got.shape == want.shape
        and np.array_equal(got.indptr, want.indptr)
        and np.array_equal(got.indices, want.indices)
    )
    if ok:
        sizes = np.diff(got.indptr)
        ok = np.allclose(got.data, np.repeat(1.0 / sizes, sizes), rtol=1e-12, atol=0.0)
    tally.record(ok, f"r={r} context operator differs from (A+I)^{r} of the edge list")


def parse_report(text: str) -> dict[str, float]:
    """The ``key=value`` lines of a ``degfair eval`` report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key in REPORT_KEYS:
            try:
                out[key] = float(value)
            except ValueError:
                pass
    return out


def check_command(tally: Tally, code: int | None, text: str, reference: dict[str, float]) -> None:
    """Two operations per command: it exits 0, and its printed accuracy,
    delta-DSP and delta-DEO equal the benchmark's own report."""
    tally.record(code == 0, f"eval command exited {code}")
    printed = parse_report(text)
    bad = [
        k
        for k in REPORT_KEYS
        if k not in printed or abs(printed[k] - reference[k]) > REPORT_ATOL
    ]
    tally.record(not bad, f"eval report differs on {bad}: {printed} vs {reference}")
