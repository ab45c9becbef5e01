"""The composite training objective.

Four terms plus weight regularization, combined as

    total = classification + mu * group_parity
            + lambda * (cross_context + modulation + weights)

All sums run over training nodes (not means); the parity and cross-context
terms restrict the low/high degree groups to their training intersections.

Each term is one autodiff op, and so one tape entry: the classification
term is ``nll_rows``, the group-parity term ``group_mean_gap``, and the
cross-context term, the modulation term and the weight norm are each one
``sq_norm`` over several tensors (the cross-context term over the per-layer
``film_debias`` outputs it builds first). The total is a ``weighted_sum``
of the terms. A caller that only needs a term's value (for example, to
report a term whose coefficient is zero) evaluates it under
:func:`degfair.autodiff.no_grad`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from degfair.autodiff import (
    Tensor,
    _indices,
    film_debias,
    group_mean_gap,
    nll_rows,
    sq_norm,
    weighted_sum,
)
from degfair.layers import ForwardTrace, ModelParams

__all__ = [
    "LossBreakdown",
    "classification_loss",
    "fairness_loss",
    "debias_constraint",
    "film_constraint",
    "weight_regularizer",
    "total_loss",
]

PROB_FLOOR = 1e-12  # clamp before log; keeps L1 finite without visible bias


@dataclass
class LossBreakdown:
    """Scalar values of every objective term for one forward pass."""

    l1: float
    l2: float
    l3: float
    l4: float
    omega_reg: float
    total: float


def classification_loss(probs: Tensor, labels: np.ndarray, train_idx: np.ndarray) -> Tensor:
    """Summed cross-entropy of the true class over training nodes.

    Probabilities are clamped to >= 1e-12 before the log.
    """
    train_idx = _indices(train_idx, probs.shape[0], "train_idx")
    if train_idx.size == 0:
        raise ValueError("classification loss needs a nonempty training set")
    return nll_rows(probs, train_idx, np.asarray(labels)[train_idx], PROB_FLOOR)


def fairness_loss(h_final: Tensor, low_tr: np.ndarray, high_tr: np.ndarray) -> Tensor:
    """Squared distance between the two groups' mean output rows."""
    if np.size(low_tr) == 0 or np.size(high_tr) == 0:
        warnings.warn(
            "one degree group has no training nodes; group-parity loss is 0",
            stacklevel=2,
        )
        return Tensor([[0.0]])
    return group_mean_gap(h_final, low_tr, high_tr)


def debias_constraint(trace: ForwardTrace, low_tr: np.ndarray, high_tr: np.ndarray) -> Tensor:
    """Cross-group context penalty, summed over layers.

    Low-degree training nodes penalize the high-group context they do not
    use, and vice versa; both should be near zero for the opposite group.
    The opposite contexts are built here by ``film_debias`` from each
    layer's trace, routed to the other group's net on the training rows of
    the two groups and to -1 everywhere else, so only those rows are built.
    """
    n = trace.degree_inverse.shape[0]
    opposite = np.full(n, -1, dtype=np.int64)
    opposite[_indices(low_tr, n, "low_tr")] = 1
    opposite[_indices(high_tr, n, "high_tr")] = 0
    return sq_norm(*[
        film_debias(entry.ctx, opposite, entry.debias, entry.scale_u, entry.shift_u,
                    trace.degree_inverse)
        for entry in trace.layers
    ])


def film_constraint(trace: ForwardTrace, train_idx: np.ndarray) -> Tensor:
    """Squared norms of the scaling and shifting rows over training nodes.

    A training node's rows are those of its degree, so the sum runs over
    the unique-degree rows, each weighted by its count of training nodes:
    sum_d count_train(d) * (|scale_u[d]|^2 + |shift_u[d]|^2).
    """
    train_idx = _indices(train_idx, trace.degree_inverse.shape[0], "train_idx")
    unique = trace.layers[0].scale_u.shape[0]
    counts = np.bincount(trace.degree_inverse[train_idx], minlength=unique)
    rows = [t for entry in trace.layers for t in (entry.scale_u, entry.shift_u)]
    return sq_norm(*rows, row_weights=counts)


def weight_regularizer(params: ModelParams, include_debias: bool = True) -> Tensor:
    """Sum of squared entries of every weight matrix; biases excluded."""
    return sq_norm(*params.weight_tensors(include_debias=include_debias))


def total_loss(
    l1: Tensor,
    l2: Tensor,
    l3: Tensor,
    l4: Tensor,
    omega_reg: Tensor,
    mu: float,
    lam: float,
) -> tuple[Tensor, LossBreakdown]:
    """Combine the terms; returns the taped scalar and its float breakdown."""
    if not all(math.isfinite(c) and c >= 0 for c in (mu, lam)):
        raise ValueError(f"mu and lambda must be finite and non-negative, got {mu}, {lam}")
    constrained = weighted_sum([l3, l4, omega_reg], [1.0, 1.0, 1.0])
    total = weighted_sum([l1, l2, constrained], [1.0, mu, lam])
    breakdown = LossBreakdown(
        l1=l1.item(),
        l2=l2.item(),
        l3=l3.item(),
        l4=l4.item(),
        omega_reg=omega_reg.item(),
        total=total.item(),
    )
    return total, breakdown
