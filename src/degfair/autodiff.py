"""Dense fp64 tensors with reverse-mode gradients on an explicit tape.

Everything is 2-D (scalars are 1x1, biases are 1xd rows). Ops executed
while a :class:`Tape` is active are recorded in execution order; the
backward pass replays the record in exact reverse, accumulating adjoints
into ``.grad`` buffers. Outside a tape, or inside :func:`no_grad`, ops are
plain forward evaluation.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
from scipy import sparse as _sparse

__all__ = [
    "Tensor",
    "Tape",
    "TapeError",
    "no_grad",
    "FixedSparse",
    "as_tensor",
    "matmul",
    "add",
    "sub",
    "mul",
    "scalar_mul",
    "relu",
    "leaky_relu",
    "softmax_rows",
    "log",
    "clamp_min",
    "sum_all",
    "mean_rows",
    "sq_norm",
    "masked_sq_norm",
    "gather_rows",
    "segment_softmax",
    "affine",
    "add_scaled",
    "film_debias",
    "sparse_matmul",
    "edge_matmul",
    "dropout",
    "fd_check",
]


class TapeError(RuntimeError):
    """Misuse of the tape (repeated backward, loss not recorded)."""


class Tensor:
    """A 2-D fp64 array, optionally tracked for gradients.

    ``grad`` is populated by :meth:`Tape.backward` and has the same shape
    as ``data``. Scalars passed in are promoted to 1x1, 1-D arrays to a
    single row.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ValueError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scalar_mul(self, float(other))

    def __rmul__(self, other):
        return scalar_mul(self, float(other))

    def __neg__(self):
        return scalar_mul(self, -1.0)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_tls = threading.local()


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


class Tape:
    """Execution-ordered record of differentiable ops for one context.

    Use as a context manager around the forward computation, then call
    :meth:`backward` on the resulting scalar loss. A tape can run backward
    once; build a fresh tape per training step.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, list]] = []
        self._used = False

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _stack().pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Populate ``.grad`` on every tensor the loss depends on."""
        if self._used:
            raise TapeError("backward was already run on this tape")
        if not isinstance(loss, Tensor) or loss.shape != (1, 1):
            raise ValueError("loss must be a 1x1 tensor")
        if not loss.requires_grad:
            raise TapeError("loss is not connected to any tracked tensor")
        self._used = True
        loss.grad = np.ones((1, 1))
        # Identity-style vjps can hand the same buffer to several tensors;
        # copy on first assignment if the buffer is already owned.
        owned: set[int] = set()
        for out, pairs in reversed(self._entries):
            g = out.grad
            if g is None:
                continue
            owned.add(id(g))
            for parent, vjp in pairs:
                contrib = vjp(g)
                if parent.grad is None:
                    if id(contrib) in owned:
                        contrib = contrib.copy()
                    parent.grad = contrib
                    owned.add(id(contrib))
                elif id(parent.grad) in owned:
                    parent.grad = parent.grad + contrib
                    owned.add(id(parent.grad))
                else:
                    # Pre-existing buffer (a zeroed parameter grad) is owned
                    # by the parent alone; accumulate in place.
                    np.add(parent.grad, contrib, out=parent.grad)
                    owned.add(id(parent.grad))


@contextlib.contextmanager
def no_grad():
    """Evaluate ops without recording them, even while a Tape is active.

    A ``None`` on the tape stack marks the region; a Tape entered inside it
    records as usual.
    """
    stack = _stack()
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()


def _record(out: Tensor, pairs) -> Tensor:
    stack = _stack()
    if not stack or stack[-1] is None:
        return out
    tracked = [(p, vjp) for p, vjp in pairs if p.requires_grad]
    if tracked:
        out.requires_grad = True
        stack[-1]._entries.append((out, tracked))
    return out


# ------------------------------------------------------------------ core ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    return _record(
        out,
        [(a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)],
    )


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also be a 1xd bias row broadcast over rows."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape == b.shape:
        out = Tensor(a.data + b.data)
        return _record(out, [(a, lambda g: g), (b, lambda g: g)])
    if b.shape == (1, a.shape[1]):
        out = Tensor(a.data + b.data)
        return _record(
            out,
            [(a, lambda g: g), (b, lambda g: g.sum(axis=0, keepdims=True))],
        )
    raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"sub shape mismatch: {a.shape} - {b.shape}")
    out = Tensor(a.data - b.data)
    return _record(out, [(a, lambda g: g), (b, lambda g: -g)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    out = Tensor(a.data * b.data)
    return _record(out, [(a, lambda g: g * b.data), (b, lambda g: g * a.data)])


def scalar_mul(a: Tensor, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c)
    return _record(out, [(a, lambda g: g * c)])


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))
    return _record(out, [(x, lambda g: g * mask)])


def leaky_relu(x: Tensor, alpha: float = 0.2) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, alpha * x.data))
    return _record(out, [(x, lambda g: g * np.where(mask, 1.0, alpha))])


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax, computed with row-max subtraction for stability."""
    x = as_tensor(x)
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)
    return _record(
        out,
        [(x, lambda g: p * (g - (g * p).sum(axis=1, keepdims=True)))],
    )


def log(x: Tensor) -> Tensor:
    """Natural log; inputs must be strictly positive (clamp first)."""
    x = as_tensor(x)
    if np.any(x.data <= 0):
        raise ValueError("log of non-positive value; clamp probabilities first")
    out = Tensor(np.log(x.data))
    return _record(out, [(x, lambda g: g / x.data)])


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """Raise entries below ``floor`` to it; NaN passes through unchanged."""
    x = as_tensor(x)
    mask = ~(x.data <= floor)
    out = Tensor(np.where(mask, x.data, floor))
    return _record(out, [(x, lambda g: g * mask)])


def sum_all(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum())
    return _record(out, [(x, lambda g: np.full(x.shape, g[0, 0]))])


def mean_rows(x: Tensor) -> Tensor:
    """Column means: (n x d) -> (1 x d)."""
    x = as_tensor(x)
    n = x.shape[0]
    out = Tensor(x.data.mean(axis=0, keepdims=True))
    return _record(out, [(x, lambda g: np.repeat(g / n, n, axis=0))])


def sq_norm(x: Tensor) -> Tensor:
    """Sum of squared entries (squared Frobenius / L2 norm), as 1x1."""
    x = as_tensor(x)
    out = Tensor(np.einsum("ij,ij->", x.data, x.data))
    return _record(out, [(x, lambda g: 2.0 * g[0, 0] * x.data)])


def masked_sq_norm(x: Tensor, row_weights: np.ndarray) -> Tensor:
    """Sum of squared entries, row i weighted by ``row_weights[i]``.

    A 0/1 mask keeps the rows where it is set; counts weight each row by
    how many times it stands in for a larger set of rows.
    """
    x = as_tensor(x)
    weights = np.asarray(row_weights, dtype=np.float64).reshape(-1)
    if weights.shape[0] != x.shape[0]:
        raise ValueError("row weight count does not match the row count")
    out = Tensor(np.einsum("ij,ij,i->", x.data, x.data, weights))
    col = weights[:, None]
    return _record(out, [(x, lambda g: (2.0 * g[0, 0]) * (col * x.data))])


def _scatter_rows(idx: np.ndarray, g: np.ndarray, rows: int) -> np.ndarray:
    """Adjoint of the row gather ``x[idx]``: add row k of ``g`` into row idx[k].

    One flat bincount is much faster than np.add.at and accumulates
    duplicates in input order (deterministic).
    """
    cols = g.shape[1]
    flat = (idx[:, None] * cols + np.arange(cols)[None, :]).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=rows * cols).reshape(rows, cols)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of ``x`` by index; adjoint scatter-adds back."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(x.data[idx])
    return _record(out, [(x, lambda g: _scatter_rows(idx, g, x.shape[0]))])


def segment_softmax(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Softmax over contiguous segments of a column vector (n x 1)."""
    x = as_tensor(x)
    if x.shape[1] != 1:
        raise ValueError(f"segment_softmax needs an (n, 1) input, got {x.shape}")
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets[-1] != x.shape[0]:
        raise ValueError("segment offsets do not cover the input rows")
    nseg = offsets.shape[0] - 1
    seg_id = np.repeat(np.arange(nseg), np.diff(offsets))
    v = x.data[:, 0]
    m = np.full(nseg, -np.inf)
    np.maximum.at(m, seg_id, v)
    e = np.exp(v - m[seg_id])
    denom = np.bincount(seg_id, weights=e, minlength=nseg)
    p = e / denom[seg_id]

    def vjp(g):
        gv = g[:, 0]
        dot = np.bincount(seg_id, weights=gv * p, minlength=nseg)
        return (p * (gv - dot[seg_id]))[:, None]

    out = Tensor(p[:, None])
    return _record(out, [(x, vjp)])


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fully connected layer in one op: x @ w + b (b is a 1xd bias row)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ValueError(f"affine shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    out = Tensor(x.data @ w.data + b.data)
    return _record(
        out,
        [
            (x, lambda g: g @ w.data.T),
            (w, lambda g: x.data.T @ g),
            (b, lambda g: g.sum(axis=0, keepdims=True)),
        ],
    )


def add_scaled(a: Tensor, b: Tensor, c: float) -> Tensor:
    """a + c * b in one op, same shapes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"add_scaled shape mismatch: {a.shape} + {c} * {b.shape}")
    c = float(c)
    out = Tensor(a.data + c * b.data)
    return _record(out, [(a, lambda g: g), (b, lambda g: c * g)])


def film_debias(
    ctx: Tensor,
    route: np.ndarray,
    nets,
    scale_u: Tensor,
    shift_u: Tensor,
    degree_inverse: np.ndarray,
) -> Tensor:
    """Routed fully connected layers under degree-conditioned FiLM, in one op.

    Row i is ``(scale_u[d] + 1) * (ctx[i] @ w + b) + shift_u[d]``, where
    ``(w, b) = nets[route[i]]`` and ``d = degree_inverse[i]``. ``nets`` is a
    sequence of ``(w, b)`` pairs with one output width; a row routed to -1
    gets a zero net output, so it holds ``shift_u[d]``. Each net runs on its
    own rows only. ``scale_u`` / ``shift_u`` hold one row per unique degree
    and are never expanded to a tracked per-row tensor: their adjoints
    reduce straight onto the unique-degree rows.
    """
    ctx, scale_u, shift_u = as_tensor(ctx), as_tensor(scale_u), as_tensor(shift_u)
    nets = [(as_tensor(w), as_tensor(b)) for w, b in nets]
    n, width = ctx.shape[0], nets[0][0].shape[1]
    for w, b in nets:
        if w.shape != (ctx.shape[1], width) or b.shape != (1, width):
            raise ValueError(
                f"film_debias shape mismatch: {ctx.shape} @ {w.shape} + {b.shape}"
            )
    if scale_u.shape != shift_u.shape or scale_u.shape[1] != width:
        raise ValueError(
            f"film_debias needs scale/shift rows of width {width}, "
            f"got {scale_u.shape} and {shift_u.shape}"
        )
    route = np.asarray(route).reshape(-1)
    inv = np.asarray(degree_inverse, dtype=np.int64).reshape(-1)
    if route.shape[0] != n or inv.shape[0] != n:
        raise ValueError("route and degree_inverse lengths must match the row count")
    if n and (route.min() < -1 or route.max() >= len(nets)):
        raise ValueError(f"route values must lie in [-1, {len(nets)})")
    if n and (inv.min() < 0 or inv.max() >= scale_u.shape[0]):
        raise ValueError(f"degree_inverse values must lie in [0, {scale_u.shape[0]})")
    parts = [np.flatnonzero(route == k) for k in range(len(nets))]
    raw = np.zeros((n, width))
    for rows, (w, b) in zip(parts, nets):
        part = ctx.data[rows] @ w.data
        part += b.data
        raw[rows] = part
    scale1 = scale_u.data[inv]
    scale1 += 1.0
    out = scale1 * raw
    out += shift_u.data[inv]

    # g * (scale + 1), split by net, is formed once and shared by the
    # adjoints of ctx and of every net (a tape replays each entry once).
    scaled_parts: list[np.ndarray] = []

    def net_grads(g):
        if not scaled_parts:
            scaled = g * scale1
            scaled_parts.extend(scaled[rows] for rows in parts)
        return scaled_parts

    def vjp_ctx(g):
        gx = np.zeros(ctx.shape)
        for rows, gk, (w, _) in zip(parts, net_grads(g), nets):
            gx[rows] = gk @ w.data.T
        return gx

    pairs = [(ctx, vjp_ctx)]
    for k, (rows, (w, b)) in enumerate(zip(parts, nets)):
        pairs.append((w, lambda g, k=k, rows=rows: ctx.data[rows].T @ net_grads(g)[k]))
        pairs.append((b, lambda g, k=k: net_grads(g)[k].sum(axis=0, keepdims=True)))
    unique = scale_u.shape[0]
    pairs.append((scale_u, lambda g: _scatter_rows(inv, g * raw, unique)))
    pairs.append((shift_u, lambda g: _scatter_rows(inv, g, unique)))
    return _record(Tensor(out), pairs)


class FixedSparse:
    """A constant sparse matrix used as a linear operator on the tape.

    Holds one CSR copy, ``fwd``. The adjoint of ``y = S @ x`` is ``S.T @ g``,
    and ``S.T`` is a CSC view of the same arrays, so no transpose is stored.
    """

    def __init__(self, mat):
        self.fwd = _sparse.csr_matrix(mat)


def sparse_matmul(op: FixedSparse, x: Tensor) -> Tensor:
    """``op.fwd @ x``; its backward multiplies by the view ``op.fwd.T``."""
    x = as_tensor(x)
    if op.fwd.shape[1] != x.shape[0]:
        raise ValueError(f"sparse_matmul shape mismatch: {op.fwd.shape} @ {x.shape}")
    out = Tensor(op.fwd @ x.data)
    return _record(out, [(x, lambda g: op.fwd.T @ g)])


def edge_matmul(values: Tensor, op: FixedSparse, x: Tensor) -> Tensor:
    """``S @ x`` for the matrix S with ``op.fwd``'s pattern and learned entries.

    ``values`` (nnz x 1) holds S's entries in ``op.fwd``'s CSR order; the
    operator's own values are not read. The adjoint of ``x`` is ``S.T @ g``
    (a CSC view, as in :func:`sparse_matmul`); the adjoint of entry (i, j)
    is the dot product of ``g[i]`` and ``x[j]``.
    """
    values, x = as_tensor(values), as_tensor(x)
    pattern = op.fwd
    if values.shape != (pattern.nnz, 1):
        raise ValueError(f"edge_matmul needs ({pattern.nnz}, 1) values, got {values.shape}")
    if pattern.shape[1] != x.shape[0]:
        raise ValueError(f"edge_matmul shape mismatch: {pattern.shape} @ {x.shape}")
    mat = _sparse.csr_matrix(
        (values.data[:, 0], pattern.indices, pattern.indptr), shape=pattern.shape
    )
    out = Tensor(mat @ x.data)

    def vjp_values(g):
        rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
        return np.einsum("ij,ij->i", g[rows], x.data[pattern.indices])[:, None]

    return _record(out, [(values, vjp_values), (x, lambda g: mat.T @ g)])


def dropout(x: Tensor, p: float, train: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability p, scale survivors.

    In eval mode (or p=0) this is a bit-exact identity and consumes no
    randomness.
    """
    x = as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    keep = rng.random(x.shape) >= p
    scale = keep / (1.0 - p)
    out = Tensor(x.data * scale)
    return _record(out, [(x, lambda g: g * scale)])


# --------------------------------------------------------- gradient checking


def fd_check(
    program,
    params,
    eps: float = 1e-5,
    rng: np.random.Generator | None = None,
    min_coords: int = 32,
) -> float:
    """Compare taped gradients of ``program()`` against central differences.

    ``program`` must be a deterministic closure returning a scalar Tensor
    (disable dropout). For each parameter, up to ``min_coords`` coordinates
    are sampled and perturbed by +/- eps; returns the maximum over sampled
    coordinates of ``|ad - fd| / max(1e-8, |ad| + |fd|)``.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = program()
    if loss.requires_grad:
        tape.backward(loss)

    worst = 0.0
    for p in params:
        size = p.data.size
        chosen = rng.choice(size, size=min(min_coords, size), replace=False)
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        for flat in chosen:
            idx = np.unravel_index(int(flat), p.data.shape)
            orig = p.data[idx]
            p.data[idx] = orig + eps
            f_plus = program().item()
            p.data[idx] = orig - eps
            f_minus = program().item()
            p.data[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            ad = float(grad[idx])
            err = abs(ad - fd) / max(1e-8, abs(ad) + abs(fd))
            worst = max(worst, err)
    return worst
