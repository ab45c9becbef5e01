"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np

from degfair.autodiff import Tensor

__all__ = ["Adam"]


class Adam:
    """Standard Adam over a fixed list of parameter tensors.

    Moment buffers live in the optimizer; ``step()`` requires every
    parameter to carry a gradient buffer (call ``zero_grad()`` before the
    backward pass so untouched parameters read as zero gradient). Only the
    learning rate is settable.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Tensor], lr: float = 0.01):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            if p.grad is not None and p.grad.shape == p.data.shape:
                p.grad.fill(0.0)
            else:
                p.grad = np.zeros_like(p.data)

    def step(self) -> None:
        missing = [i for i, p in enumerate(self.params) if p.grad is None]
        if missing:
            raise RuntimeError(
                f"parameter {missing[0]} has no gradient; run zero_grad() and "
                "backward() before step()"
            )
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        scale = self.lr / bc1
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            denom = np.sqrt(v / bc2)
            denom += self.eps
            np.divide(m, denom, out=denom)
            denom *= scale
            p.data -= denom
