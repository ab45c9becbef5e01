"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np

from degfair.autodiff import Tensor

__all__ = ["Adam"]

# Floats per block of the update: a block of all five state vectors (1.3 MB)
# stays in a core's L2 cache across the elementwise ops.
_BLOCK = 32768


class Adam:
    """Standard Adam over a fixed list of parameter tensors, held in one flat vector.

    The parameters are copied, in list order, into the fp64 vector ``data``,
    and each tensor's ``.data`` becomes a view of it; after ``zero_grad()``
    each ``.grad`` is a view of ``grad``, so the backward pass sums into it.
    Rebinding a parameter's ``.data`` detaches it: write into the array
    instead. ``step()`` requires every parameter to carry a gradient (one
    bound to another array is copied into its view first). Only the
    learning rate is settable.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Tensor], lr: float = 0.01):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.data = np.concatenate([p.data.ravel() for p in self.params] or [np.empty(0)])
        self.grad, self.m, self.v, self._buf = (np.zeros_like(self.data) for _ in range(4))
        self._grads, start = [], 0
        for p in self.params:
            stop = start + p.data.size
            p.data = self.data[start:stop].reshape(p.data.shape)
            self._grads.append(self.grad[start:stop].reshape(p.data.shape))
            start = stop
        state = (self.grad, self.m, self.v, self._buf, self.data)
        self._blocks = [[a[lo : lo + _BLOCK] for a in state] for lo in range(0, start, _BLOCK)]

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        for p, grad in zip(self.params, self._grads):
            p.grad = grad

    def step(self) -> None:
        for i, (p, grad) in enumerate(zip(self.params, self._grads)):
            if p.grad is None:
                raise RuntimeError(
                    f"parameter {i} has no gradient; run zero_grad() and backward() before step()"
                )
            if p.grad is not grad:
                grad[...] = p.grad
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for g, m, v, buf, data in self._blocks:
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=buf)
            v *= self.beta2
            v += np.multiply(np.multiply(g, g, out=buf), 1.0 - self.beta2, out=buf)
            np.sqrt(np.divide(v, bc2, out=buf), out=buf)
            buf += self.eps
            data -= np.multiply(np.divide(m, buf, out=buf), self.lr / bc1, out=buf)
