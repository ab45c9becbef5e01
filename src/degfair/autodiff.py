"""Dense fp64 tensors with reverse-mode gradients on an explicit tape.

Everything is 2-D (scalars are 1x1, biases are 1xd rows). Ops executed
while a :class:`Tape` is active are recorded in execution order; the
backward pass replays the record in exact reverse, accumulating adjoints
into ``.grad`` buffers. It frees each entry once replayed: the entry's
vjp closures, with every array they captured, and its output's ``.grad``
go, so after backward only the leaves (tensors created with
``requires_grad=True``) hold a ``.grad``. Every vjp of an entry runs
before any of its contributions is summed: a vjp returns ``g`` or a fresh
array, a second parent handed ``g`` gets a copy, and each parent then
takes its contribution or adds it in place, so no two tensors share a
grad buffer. Outside a tape, or inside :func:`no_grad`, ops are plain
forward evaluation.
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
    "relu",
    "softmax_rows",
    "sq_norm",
    "nll_rows",
    "group_mean_gap",
    "weighted_sum",
    "affine",
    "film_debias",
    "sparse_matmul",
    "attention_matmul",
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
        self._replayed = 0
        self._used = False

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _stack().pop()
        assert popped is self

    def __len__(self) -> int:
        """Ops recorded, those that backward has replayed and freed included."""
        return len(self._entries) + self._replayed

    def backward(self, loss: Tensor) -> None:
        """Populate ``.grad`` on every leaf the loss depends on.

        Each entry is freed once replayed, and its output's ``.grad`` with
        it, so the tape's memory goes as the replay proceeds.
        """
        if self._used:
            raise TapeError("backward was already run on this tape")
        if not isinstance(loss, Tensor) or loss.shape != (1, 1):
            raise ValueError("loss must be a 1x1 tensor")
        if not loss.requires_grad:
            raise TapeError("loss is not connected to any tracked tensor")
        self._used = True
        loss.grad = np.ones((1, 1))
        # A vjp returns ``g`` or a fresh array; all reads of ``g`` end before
        # any in-place sum; ``g`` is held by at most one tensor.
        entries = self._entries
        while entries:
            out, pairs = entries.pop()
            self._replayed += 1
            g = out.grad
            if g is None:
                continue
            out.grad = None
            contribs = [vjp(g) for _, vjp in pairs]
            shared = [k for k, c in enumerate(contribs) if c is g]
            for k in shared[1:]:
                contribs[k] = g.copy()
            for (parent, _), contrib in zip(pairs, contribs):
                if parent.grad is None:
                    parent.grad = contrib
                else:
                    np.add(parent.grad, contrib, out=parent.grad)


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


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))
    return _record(out, [(x, lambda g: g * mask)])


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


def sq_norm(*tensors: Tensor, row_weights=None) -> Tensor:
    """Sum of squared entries of every tensor, summed in order, as 1x1.

    With ``row_weights``, row i of each tensor is weighted by
    ``row_weights[i]``: a 0/1 mask keeps the rows where it is set; counts
    weight each row by how many times it stands in for a larger set of rows.
    """
    tensors = [as_tensor(t) for t in tensors]
    col = None if row_weights is None else np.asarray(row_weights, dtype=np.float64).reshape(-1, 1)
    total, weighted = 0.0, []
    for t in tensors:
        if col is not None and t.shape[0] != col.shape[0]:
            raise ValueError(f"{col.shape[0]} row weights for {t.shape[0]} rows")
        w = t.data if col is None else col * t.data
        total += np.einsum("ij,ij->", t.data, w)
        weighted.append(w)
    return _record(Tensor(total),
                   [(t, lambda g, w=w: (2.0 * g[0, 0]) * w) for t, w in zip(tensors, weighted)])


def weighted_sum(terms, coeffs) -> Tensor:
    """``coeffs[0] * terms[0] + coeffs[1] * terms[1] + ...``, summed in order.

    Every term has the first term's shape or is a 1xd bias row, added to
    every row. A term with coefficient 1 is added unscaled and its adjoint
    is ``g`` itself; another gets ``g * c``. A bias row gets the column sum
    of its scaled ``g``.
    """
    terms = [as_tensor(t) for t in terms]
    coeffs = [float(c) for c in coeffs]
    if not terms or len(coeffs) != len(terms):
        raise ValueError(f"weighted_sum got {len(coeffs)} coefficients for {len(terms)} terms")
    shape = terms[0].shape
    if any(t.shape not in (shape, (1, shape[1])) for t in terms):
        raise ValueError(f"weighted_sum terms differ in shape: {[t.shape for t in terms]}")
    scaled = (t.data if c == 1.0 else t.data * c for t, c in zip(terms, coeffs))
    total = next(scaled) + next(scaled, 0.0)
    for part in scaled:
        total += part

    def vjp(t, c):
        scale = (lambda g: g) if c == 1.0 else (lambda g: g * c)
        return scale if t.shape == shape else lambda g: scale(g).sum(axis=0, keepdims=True)

    return _record(Tensor(total), [(t, vjp(t, c)) for t, c in zip(terms, coeffs)])


def _scatter_matrix(idx: np.ndarray, rows: int) -> _sparse.csr_matrix:
    """The 0/1 matrix ``S`` (rows x len(idx)) with ``S @ g`` adding row k of g into row idx[k].

    Row r of ``S`` lists the k with idx[k] == r in increasing order (a stable
    argsort), so the CSR product sums duplicates in input order, as a
    ``np.bincount`` over the rows would, and builds no per-entry index.
    """
    order = np.argsort(idx, kind="stable")
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=rows), out=indptr[1:])
    return _sparse.csr_matrix((np.ones(idx.size), order, indptr), shape=(rows, idx.size))


def _indices(idx, bound: int, what: str, low: int = 0) -> np.ndarray:
    """``idx`` as a flat int64 array, every entry an integer in [low, bound)."""
    idx = np.asarray(idx).reshape(-1)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got {idx.dtype}")
    if idx.size and (idx.min() < low or idx.max() >= bound):
        raise ValueError(f"{what} must lie in [{low}, {bound})")
    return idx.astype(np.int64, copy=False)


def nll_rows(probs: Tensor, idx, labels, floor: float) -> Tensor:
    """Summed negative log of ``probs[idx[k], labels[k]]`` over k, as 1x1.

    A probability at or below ``floor`` is raised to it before the log and
    gets no adjoint; a NaN one passes through, so it gives a NaN sum. The
    other picked entries get ``-g / p``, and a row picked more than once
    sums its adjoints in index order.
    """
    probs = as_tensor(probs)
    n, classes = probs.shape
    idx = _indices(idx, n, "row indices")
    labels = _indices(labels, classes, "labels")
    if labels.size != idx.size:
        raise ValueError(f"nll_rows got {labels.size} labels for {idx.size} row indices")
    if not floor > 0:
        raise ValueError(f"the probability floor must be positive, got {floor}")
    picked = probs.data[idx, labels]
    kept = ~(picked <= floor)
    clamped = np.where(kept, picked, floor)

    def vjp(g):
        grad = np.zeros((idx.size, classes))
        grad[np.arange(idx.size), labels] = np.where(kept, (-g[0, 0]) / clamped, 0.0)
        return _scatter_matrix(idx, n) @ grad

    return _record(Tensor(-np.log(clamped).sum()), [(probs, vjp)])


def group_mean_gap(h: Tensor, low, high) -> Tensor:
    """Squared distance between the mean rows of ``h[low]`` and ``h[high]``, as 1x1.

    Both groups must be nonempty, and a row may be listed more than once.
    The adjoint gives each listed row ``2 g d / size`` (``d`` the gap, negated
    for ``high``), summed back onto ``h``: the high rows first, then the low.
    """
    h = as_tensor(h)
    low, high = _indices(low, h.shape[0], "low rows"), _indices(high, h.shape[0], "high rows")
    if low.size == 0 or high.size == 0:
        raise ValueError("group_mean_gap needs two nonempty groups")
    gap = h.data[low].mean(axis=0, keepdims=True) + -1.0 * h.data[high].mean(axis=0, keepdims=True)

    def spread(rows, sign):
        return lambda g: _scatter_matrix(rows, h.shape[0]) @ np.repeat(
            (sign * (2.0 * g[0, 0] * gap)) / rows.size, rows.size, axis=0)

    return _record(Tensor(np.einsum("ij,ij->", gap, gap)),
                   [(h, spread(high, -1.0)), (h, spread(low, 1.0))])


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
    sequence of ``(w, b)`` pairs with one output width. A row routed to -1
    is left out: the output holds the routed rows only, in row order. Each
    net runs on its own rows only. ``scale_u`` / ``shift_u`` hold one row
    per unique degree and are never expanded to a tracked per-row tensor:
    their adjoints reduce straight onto the unique-degree rows.
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
    route = _indices(route, len(nets), "route values", low=-1)
    inv = _indices(degree_inverse, scale_u.shape[0], "degree_inverse values")
    if route.shape[0] != n or inv.shape[0] != n:
        raise ValueError("route and degree_inverse lengths must match the row count")
    routed = np.flatnonzero(route >= 0)
    route, inv = route[routed], inv[routed]
    # parts[k]: net k's output rows; sources[k]: the ctx rows they read.
    parts = [np.flatnonzero(route == k) for k in range(len(nets))]
    sources = [routed[rows] for rows in parts]
    raw = np.empty((routed.size, width))  # every output row belongs to one part
    for rows, src, (w, b) in zip(parts, sources, nets):
        part = ctx.data[src] @ w.data
        part += b.data
        raw[rows] = part
    scale1 = scale_u.data[inv]
    scale1 += 1.0
    out = scale1 * raw
    out += shift_u.data[inv]

    # g * (scale + 1), split by net, is formed once and shared by the
    # adjoints of ctx and of every net; the degree-row reduction is built
    # once for scale and shift (a tape replays each entry once).
    scaled_parts: list[np.ndarray] = []
    by_degree: list[_sparse.csr_matrix] = []

    def net_grads(g):
        if not scaled_parts:
            scaled = g * scale1
            scaled_parts.extend(scaled[rows] for rows in parts)
        return scaled_parts

    def degree_sum(g):
        if not by_degree:
            by_degree.append(_scatter_matrix(inv, scale_u.shape[0]))
        return by_degree[0] @ g

    def vjp_ctx(g):
        gx = np.zeros(ctx.shape)
        for src, gk, (w, _) in zip(sources, net_grads(g), nets):
            gx[src] = gk @ w.data.T
        return gx

    pairs = [(ctx, vjp_ctx)]
    for k, (src, (w, b)) in enumerate(zip(sources, nets)):
        pairs.append((w, lambda g, k=k, src=src: ctx.data[src].T @ net_grads(g)[k]))
        pairs.append((b, lambda g, k=k: net_grads(g)[k].sum(axis=0, keepdims=True)))
    pairs.append((scale_u, lambda g: degree_sum(g * raw)))
    pairs.append((shift_u, degree_sum))
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


def attention_matmul(s_self: Tensor, s_nbr: Tensor, op: FixedSparse, x: Tensor) -> Tensor:
    """GAT attention in one op: ``S @ x`` for S on ``op.fwd``'s pattern.

    Entry (i, j) scores ``s_self[i] + s_nbr[j]`` through GAT's leaky ReLU
    (slope 0.2 below 0), and each row of S is the softmax of its scores, row
    maximum subtracted first; the operator's values are not read. The adjoint of
    ``x`` is ``S.T @ g`` (a CSC view, as in :func:`sparse_matmul`).

    The score adjoint of entry (i, j) is ``q_ij * (g[i] . x[j] - dot[i])``,
    with ``q = p * slope`` on the pattern and ``dot[i] = g[i] . y[i]`` for
    the output ``y``. Scores are additive, so its row and column sums are
    two sparse products and no per-entry row is formed: with Q the CSR
    matrix of ``q``, ``s_self`` gets ``rowdot(g, Q @ x) - dot * rowsum(Q)``
    and ``s_nbr`` gets ``rowdot(x, Q.T @ g) - Q.T @ dot``.
    """
    s_self, s_nbr, x = as_tensor(s_self), as_tensor(s_nbr), as_tensor(x)
    pattern = op.fwd
    n, m = pattern.shape
    if s_self.shape != (n, 1) or s_nbr.shape != (m, 1):
        raise ValueError(f"attention_matmul needs ({n}, 1) and ({m}, 1) scores, "
                         f"got {s_self.shape} and {s_nbr.shape}")
    if x.shape[0] != m:
        raise ValueError(f"attention_matmul shape mismatch: {pattern.shape} @ {x.shape}")
    rows, cols = np.repeat(np.arange(n), np.diff(pattern.indptr)), pattern.indices
    logits = s_self.data[rows, 0] + s_nbr.data[cols, 0]
    positive = logits > 0
    v = np.where(positive, logits, 0.2 * logits)
    row_max = np.full(n, -np.inf)
    np.maximum.at(row_max, rows, v)
    e = np.exp(v - row_max[rows])
    p = e / np.bincount(rows, weights=e, minlength=n)[rows]
    mat = _sparse.csr_matrix((p, cols, pattern.indptr), shape=pattern.shape)
    out = Tensor(mat @ x.data)
    shared: list = []  # Q, rowsum(Q) and dot, formed once for both score halves

    def score_terms(g):
        if not shared:
            q = p * np.where(positive, 1.0, 0.2)
            shared.extend((_sparse.csr_matrix((q, cols, pattern.indptr), shape=pattern.shape),
                           np.bincount(rows, weights=q, minlength=n),
                           np.einsum("ij,ij->i", g, out.data)))
        return shared

    def vjp_self(g):
        q, q_rows, dot = score_terms(g)
        return (np.einsum("ij,ij->i", g, q @ x.data) - dot * q_rows)[:, None]

    def vjp_nbr(g):
        q, _, dot = score_terms(g)
        return (np.einsum("ij,ij->i", x.data, q.T @ g) - q.T @ dot)[:, None]

    return _record(out, [(s_self, vjp_self), (s_nbr, vjp_nbr), (x, lambda g: mat.T @ g)])


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability p, scale survivors.

    At p=0 this is a bit-exact identity and consumes no randomness.
    """
    x = as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
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
