"""Dense fp64 tensors with reverse-mode gradients on an explicit tape.

Everything is 2-D (scalars are 1x1, biases are 1xd rows). Ops executed
while a :class:`Tape` is active are recorded in execution order. A tape
entry holds no tensor: it holds the grad slot of the op's output (the
output's ``_node``, one ``grad`` field) and, per tracked input, that
input's slot and vjp; a leaf (a tensor created with ``requires_grad=True``)
is its own slot. So an output's array lives only while the forward code or
a vjp that reads it holds it, and a vjp keeps only what its adjoint reads.
It reads its inputs' ``.data`` at backward time: ``matmul`` its operands,
``film_debias`` its scale rows, gathered again from ``scale_u.data``. The
backward pass replays the record in exact reverse, accumulating adjoints
into the slots, and frees each entry once replayed: its vjp closures, with
every array they captured, and its slot's grad go, so after backward only
the leaves hold a ``.grad``. Every vjp of an entry runs before any of its
contributions is summed: a vjp returns ``g`` or a fresh array, a second
parent handed ``g`` gets a copy, and each parent then takes its
contribution or adds it in place, so no two grad slots share a buffer.
Outside a tape, or inside :func:`no_grad`, ops are plain forward
evaluation.
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


class _Slot:
    """Where backward sums the adjoint of one recorded op's output."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Tensor:
    """A 2-D fp64 array, optionally tracked for gradients.

    ``grad`` is populated by :meth:`Tape.backward` on leaves and has the
    same shape as ``data``; a recorded op's output sums its adjoint in its
    grad slot, ``_node``, instead. Scalars passed in are promoted to 1x1,
    1-D arrays to a single row.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

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
        self._node: _Slot | None = None

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
    :meth:`backward` on the resulting scalar loss. It may be entered more
    than once before backward; each entry appends to the one record, as the
    output's grad slot and its tracked inputs' ``(slot, vjp)`` pairs. A tape
    can run backward once; build a fresh tape per training step.
    """

    def __init__(self):
        self._entries: list[tuple[_Slot, list]] = []
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

        Each entry is freed once replayed, and its slot's grad with it, so
        the tape's memory goes as the replay proceeds.
        """
        if self._used:
            raise TapeError("backward was already run on this tape")
        if not isinstance(loss, Tensor) or loss.shape != (1, 1):
            raise ValueError("loss must be a 1x1 tensor")
        if not loss.requires_grad:
            raise TapeError("loss is not connected to any tracked tensor")
        self._used = True
        (loss._node or loss).grad = np.ones((1, 1))
        # A vjp returns ``g`` or a fresh array; all reads of ``g`` end before
        # any in-place sum; ``g`` is held by at most one slot.
        entries = self._entries
        while entries:
            slot, pairs = entries.pop()
            self._replayed += 1
            g = slot.grad
            if g is None:
                continue
            slot.grad = None
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
    tracked = [(p._node or p, vjp) for p, vjp in pairs if p.requires_grad]
    if tracked:
        out.requires_grad, out._node = True, _Slot()
        stack[-1]._entries.append((out._node, tracked))
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


_ROW_BLOCK = 1 << 15  # floats per block of scaled or modulated rows (256 KB)


def _add_scaled(total: np.ndarray, x, c: float) -> None:
    """``total += x * c``; with ``c`` not 1, a block of ``x``'s rows at a time."""
    if c == 1.0 or x.shape[0] == 1:
        total += x if c == 1.0 else x * c
        return
    step = max(1, _ROW_BLOCK // max(1, x.shape[1]))
    for lo in range(0, x.shape[0], step):
        total[lo : lo + step] += x[lo : lo + step] * c


def weighted_sum(terms, coeffs) -> Tensor:
    """``coeffs[0] * terms[0] + coeffs[1] * terms[1] + ...``, summed in order.

    Every term has the first term's shape or is a 1xd bias row, added to
    every row. A term with coefficient 1 is added unscaled and its adjoint
    is ``g`` itself; another is scaled a block of rows at a time as it is
    added, so it forms no full-size scaled copy, and its adjoint is
    ``g * c``. A bias row gets the column sum of its scaled ``g``.
    """
    terms = [as_tensor(t) for t in terms]
    coeffs = [float(c) for c in coeffs]
    if not terms or len(coeffs) != len(terms):
        raise ValueError(f"weighted_sum got {len(coeffs)} coefficients for {len(terms)} terms")
    shape = terms[0].shape
    if any(t.shape not in (shape, (1, shape[1])) for t in terms):
        raise ValueError(f"weighted_sum terms differ in shape: {[t.shape for t in terms]}")
    # The trailing (0.0, 1.0) gives a lone term a second one: it is summed
    # with 0.0 into a fresh array, as the first two terms are summed.
    pairs = [(t.data, c) for t, c in zip(terms, coeffs)] + [(0.0, 1.0)]
    (x0, c0), (x1, c1) = pairs[:2]
    if c0 == c1 == 1.0:
        total = x0 + x1
    else:
        total = x0 * c0 if c0 != 1.0 else x0.copy()
        _add_scaled(total, x1, c1)
    for x, c in pairs[2:-1]:
        _add_scaled(total, x, c)

    def vjp(t, c):
        scale = (lambda g: g) if c == 1.0 else (lambda g: g * c)
        return scale if t.shape == shape else lambda g: scale(g).sum(axis=0, keepdims=True)

    return _record(Tensor(total), [(t, vjp(t, c)) for t, c in zip(terms, coeffs)])


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
        picks = np.where(kept, (-g[0, 0]) / clamped, 0.0)
        return np.bincount(idx * classes + labels, picks, n * classes).reshape(n, classes)

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

    def spread(g, rows, sign):
        grad = np.zeros(h.shape)
        np.add.at(grad, rows, (sign * (2.0 * g[0, 0] * gap)) / rows.size)
        return grad

    return _record(Tensor(np.einsum("ij,ij->", gap, gap)),
                   [(h, lambda g: spread(g, high, -1.0)), (h, lambda g: spread(g, low, 1.0))])


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
    x: Tensor,
    route: np.ndarray,
    nets,
    scale_u: Tensor,
    shift_u: Tensor,
    degree_inverse: np.ndarray,
    op: FixedSparse | None = None,
) -> Tensor:
    """Routed fully connected layers under degree-conditioned FiLM, in one op.

    Row i is ``(scale_u[d] + 1) * (ctx[i] @ w + b) + shift_u[d]``, where
    ``(w, b) = nets[route[i]]`` and ``d = degree_inverse[i]``. ``nets`` is a
    sequence of ``(w, b)`` pairs with one output width. A row routed to -1
    is left out: the output holds the routed rows only, in row order.
    Without ``op``, ``ctx`` is ``x`` and each net runs on its own rows only,
    in one GEMM that writes straight into that net's slice of one net-major
    buffer. With ``op``, ``ctx`` is ``op.fwd @ x``, projected before the
    mean: one ``op.fwd @ (x @ [w_0 | w_1 | ...])`` at the nets' joint width,
    of which each routed row reads its own net's columns into that buffer;
    the adjoints of ``x`` and every ``w`` share one ``op.fwd.T`` product.
    The modulation reads the buffer back in row order, one block of rows at
    a time, so it forms no per-row copy of the scale and shift rows.
    ``scale_u`` / ``shift_u`` hold one row per unique degree and are never
    expanded to a tracked per-row tensor: their adjoints reduce straight
    onto the unique-degree rows.
    """
    x, scale_u, shift_u = as_tensor(x), as_tensor(scale_u), as_tensor(shift_u)
    nets = [(as_tensor(w), as_tensor(b)) for w, b in nets]
    if op is not None and op.fwd.shape[1] != x.shape[0]:
        raise ValueError(f"film_debias operator shape mismatch: {op.fwd.shape} @ {x.shape}")
    n, width = (x.shape[0] if op is None else op.fwd.shape[0]), nets[0][0].shape[1]
    for w, b in nets:
        if w.shape != (x.shape[1], width) or b.shape != (1, width):
            raise ValueError(
                f"film_debias shape mismatch: {x.shape} @ {w.shape} + {b.shape}"
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
    # raw holds the nets' rows net after net, and net_row[i] is where output
    # row i sits in it. cols[k]: net k's columns of the joint width.
    parts = [np.flatnonzero(route == k) for k in range(len(nets))]
    sources = [routed[rows] for rows in parts]
    net_row = np.empty(routed.size, dtype=np.int64)
    net_row[np.concatenate(parts)] = np.arange(routed.size)
    cols = [slice(k * width, (k + 1) * width) for k in range(len(nets))]
    if op is not None:
        w_all = np.hstack([w.data for w, _ in nets])
        projected = op.fwd @ (x.data @ w_all)
    raw = np.empty((routed.size, width))
    lo = 0
    for src, col, (w, b) in zip(sources, cols, nets):
        part = raw[lo : lo + src.size]
        if op is None:
            np.matmul(x.data[src], w.data, out=part)
            part += b.data
        else:
            np.add(projected[src, col], b.data, out=part)
        lo += src.size
    scale1 = scale_u.data + 1.0
    out = np.empty((routed.size, width))
    step = max(1, _ROW_BLOCK // max(1, width))
    for lo in range(0, routed.size, step):
        blk = slice(lo, lo + step)
        np.multiply(scale1[inv[blk]], raw[net_row[blk]], out=out[blk])
        out[blk] += shift_u.data[inv[blk]]

    # g * (scale + 1), split by net, is formed once and shared by the
    # adjoints of x and of every net, and so, with op, is its product with
    # op.fwd.T; the degree-row reduction is built once for scale and shift
    # (a tape replays each entry once).
    scaled_parts: list[np.ndarray] = []
    through_op: list[np.ndarray] = []
    by_degree: list[_sparse.csr_matrix] = []

    def net_grads(g):
        if not scaled_parts:
            scaled_parts.extend((scale_u.data[inv[rows]] + 1.0) * g[rows] for rows in parts)
        return scaled_parts

    def op_grad(g):
        # op.fwd.T @ G, where row i of G holds row i's scaled g in its net's columns.
        if not through_op:
            spread = np.zeros((n, len(nets) * width))
            for src, col, gk in zip(sources, cols, net_grads(g)):
                spread[src, col] = gk
            through_op.append(op.fwd.T @ spread)
        return through_op[0]

    def degree_sum(g):
        # The 0/1 matrix whose row u picks the rows of degree u, in row order.
        if not by_degree:
            by_degree.append(_sparse.csr_matrix((np.ones(inv.size), (inv, np.arange(inv.size))),
                                                shape=(scale_u.shape[0], inv.size)))
        return by_degree[0] @ g

    def vjp_x(g):
        if op is not None:
            return op_grad(g) @ w_all.T
        gx = np.zeros(x.shape)
        for src, gk, (w, _) in zip(sources, net_grads(g), nets):
            gx[src] = gk @ w.data.T
        return gx

    def vjp_w(k):
        if op is not None:
            return lambda g: x.data.T @ op_grad(g)[:, cols[k]]
        return lambda g: x.data[sources[k]].T @ net_grads(g)[k]

    def vjp_scale(g):
        in_order = raw[net_row]  # g * raw in row order, in one n x d array
        return degree_sum(np.multiply(g, in_order, out=in_order))

    # Scale and shift come first: vjp_scale's n x d product is reduced to
    # the degree rows and freed before the scaled parts exist.
    pairs = [(scale_u, vjp_scale), (shift_u, degree_sum), (x, vjp_x)]
    for k, (w, b) in enumerate(nets):
        pairs.append((w, vjp_w(k)))
        pairs.append((b, lambda g, k=k: net_grads(g)[k].sum(axis=0, keepdims=True)))
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
    survivor = 1.0 / (1.0 - p)
    out = Tensor(x.data * (keep * survivor))
    return _record(out, [(x, lambda g: g * (keep * survivor))])


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
