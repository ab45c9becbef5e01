"""Accuracy and degree-group fairness metrics with multi-run aggregation.

The two fairness metrics compare low- and high-degree node groups on hard
predictions: the parity gap averages |P(pred=y | G0) - P(pred=y | G1)| over
classes, and the opportunity gap does the same for the per-class recall
conditionals P(pred=y | true=y, G). Smaller is fairer; both lie in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from degfair.autodiff import _indices
from degfair.graphs import GraphDataError, partition_top_bottom

__all__ = [
    "FairnessReport",
    "RunAggregate",
    "accuracy",
    "delta_dsp",
    "delta_deo",
    "build_report",
    "aggregate_runs",
]


@dataclass(frozen=True)
class FairnessReport:
    """All evaluation numbers for one trained model on one graph.

    ``per_class`` has one row per class: (P(pred=y|G0), P(pred=y|G1),
    P(pred=y|true=y,G0), P(pred=y|true=y,G1)); recall conditionals are NaN
    for classes with no true members in that group.
    """

    accuracy: float
    delta_dsp: float
    delta_deo: float
    per_class: np.ndarray
    group_sizes: tuple[int, int]
    r_eval: int
    fraction: float


@dataclass(frozen=True)
class RunAggregate:
    """Mean and sample standard deviation of each metric over k runs."""

    k: int
    accuracy_mean: float
    accuracy_std: float
    delta_dsp_mean: float
    delta_dsp_std: float
    delta_deo_mean: float
    delta_deo_std: float


def _labels_like(labels, preds: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != preds.shape[:1]:
        raise ValueError(f"labels has {labels.size} entries, preds has {preds.shape[0]}")
    return labels


def accuracy(preds: np.ndarray, labels: np.ndarray, idx: np.ndarray) -> float:
    """Fraction of nodes in ``idx`` predicted correctly."""
    preds = np.asarray(preds)
    labels = _labels_like(labels, preds)
    idx = _indices(idx, preds.shape[0], "idx")
    if idx.size == 0:
        raise ValueError("accuracy over an empty index set is undefined")
    return float(np.mean(preds[idx] == labels[idx]))


def _class_frequencies(preds: np.ndarray, idx: np.ndarray, num_classes: int) -> np.ndarray:
    counts = np.bincount(preds[idx], minlength=num_classes).astype(np.float64)
    return counts / idx.size


def delta_dsp(
    preds: np.ndarray, g0: np.ndarray, g1: np.ndarray, num_classes: int
) -> float:
    """Mean absolute gap between the groups' prediction distributions."""
    preds = np.asarray(preds)
    g0, g1 = _indices(g0, preds.shape[0], "g0"), _indices(g1, preds.shape[0], "g1")
    if g0.size == 0 or g1.size == 0:
        raise ValueError("both degree groups must be nonempty")
    p0 = _class_frequencies(preds, g0, num_classes)
    p1 = _class_frequencies(preds, g1, num_classes)
    return float(np.mean(np.abs(p0 - p1)))


def _recall_conditionals(
    preds: np.ndarray, labels: np.ndarray, idx: np.ndarray, num_classes: int
) -> np.ndarray:
    """P(pred=y | true=y) per class within idx; NaN when no true members."""
    out = np.full(num_classes, np.nan)
    for y in range(num_classes):
        members = idx[labels[idx] == y]
        if members.size:
            out[y] = np.mean(preds[members] == y)
    return out


def delta_deo(
    preds: np.ndarray,
    labels: np.ndarray,
    g0: np.ndarray,
    g1: np.ndarray,
    num_classes: int,
) -> float:
    """Mean absolute gap between the groups' per-class recalls.

    A class with no true members in either group has an undefined
    conditional there and is skipped; the mean runs over evaluated classes.
    """
    preds = np.asarray(preds)
    labels = _labels_like(labels, preds)
    g0, g1 = _indices(g0, preds.shape[0], "g0"), _indices(g1, preds.shape[0], "g1")
    if g0.size == 0 or g1.size == 0:
        raise ValueError("both degree groups must be nonempty")
    r0 = _recall_conditionals(preds, labels, g0, num_classes)
    r1 = _recall_conditionals(preds, labels, g1, num_classes)
    valid = ~(np.isnan(r0) | np.isnan(r1))
    if not valid.any():
        raise GraphDataError("no class has true members in both groups")
    return float(np.mean(np.abs(r0[valid] - r1[valid])))


def build_report(
    preds: np.ndarray,
    labels: np.ndarray,
    test_idx: np.ndarray,
    degrees_r: np.ndarray,
    fraction: float,
    r_eval: int = 1,
    num_classes: int | None = None,
) -> FairnessReport:
    """Assemble accuracy and both fairness metrics over the test set.

    Groups are the bottom/top ``fraction`` of test nodes by the supplied
    generalized degrees; accuracy uses the whole test set regardless of
    groups.
    """
    preds = np.asarray(preds)
    labels = _labels_like(labels, preds)
    test_idx = _indices(test_idx, preds.shape[0], "test_idx")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    groups = partition_top_bottom(degrees_r, fraction, node_universe=test_idx)
    g0, g1 = groups.groups[0], groups.groups[1]
    if g0.size == 0:
        raise GraphDataError(f"fraction {fraction} of {test_idx.size} nodes: empty degree groups")
    per_class = np.column_stack(
        [
            _class_frequencies(preds, g0, num_classes),
            _class_frequencies(preds, g1, num_classes),
            _recall_conditionals(preds, labels, g0, num_classes),
            _recall_conditionals(preds, labels, g1, num_classes),
        ]
    )
    return FairnessReport(
        accuracy=accuracy(preds, labels, test_idx),
        delta_dsp=delta_dsp(preds, g0, g1, num_classes),
        delta_deo=delta_deo(preds, labels, g0, g1, num_classes),
        per_class=per_class,
        group_sizes=(int(g0.size), int(g1.size)),
        r_eval=r_eval,
        fraction=fraction,
    )


def aggregate_runs(reports: list[FairnessReport]) -> RunAggregate:
    """Mean and sample std (n-1 denominator; 0 for a single run) per metric."""
    if not reports:
        raise ValueError("need at least one report to aggregate")

    def stats(values: list[float]) -> tuple[float, float]:
        arr = np.array(values, dtype=np.float64)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return float(arr.mean()), std

    acc = stats([r.accuracy for r in reports])
    dsp = stats([r.delta_dsp for r in reports])
    deo = stats([r.delta_deo for r in reports])
    return RunAggregate(
        k=len(reports),
        accuracy_mean=acc[0],
        accuracy_std=acc[1],
        delta_dsp_mean=dsp[0],
        delta_dsp_std=dsp[1],
        delta_deo_mean=deo[0],
        delta_deo_std=deo[1],
    )
