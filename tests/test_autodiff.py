import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from degfair import autodiff as ad
from degfair.autodiff import Tape, TapeError, Tensor
from degfair.optim import Adam


def tensor(rng, rows, cols, avoid_kinks=False, positive=False):
    x = rng.standard_normal((rows, cols))
    if avoid_kinks:
        x = np.sign(x) * (np.abs(x) + 0.2)  # keep |x| >= 0.2, away from 0
    if positive:
        x = np.abs(x) + 0.5
    return Tensor(x, requires_grad=True)


def contract(out, cot):
    """<out, cot> as a 1x1 tensor whose adjoint for ``out`` is ``g * cot``.

    Turns an op's output into a scalar loss for tests; ``cot`` is a fixed
    cotangent (a Tensor or an array).
    """
    cot = cot.data if isinstance(cot, Tensor) else np.asarray(cot)
    return ad._record(Tensor((out.data * cot).sum()), [(out, lambda g: g[0, 0] * cot)])


# ------------------------------------------------------------- forward values


def test_softmax_uniform():
    p = ad.softmax_rows(Tensor([[0.0, 0.0]]))
    assert np.allclose(p.data, [[0.5, 0.5]])


def test_softmax_ln2():
    p = ad.softmax_rows(Tensor([[math.log(2.0), 0.0]]))
    assert np.allclose(p.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_relu_values():
    out = ad.relu(Tensor([[-1.0, 0.0, 2.0]]))
    assert out.data.tolist() == [[0.0, 0.0, 2.0]]


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = Tensor(rng.standard_normal((6, 5)) * 30)
        p = ad.softmax_rows(x)
        assert np.all(p.data > 0)
        assert np.all(np.abs(p.data.sum(axis=1) - 1.0) <= 1e-12)


def test_shape_errors():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError):
        ad.weighted_sum([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))], [1.0, 1.0])


def _film_debias_2_rows(route, degree_inverse):
    nets = [(Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))))]
    ad.film_debias(Tensor(np.ones((2, 3))), route, nets, Tensor(np.zeros((2, 2))),
                   Tensor(np.zeros((2, 2))), degree_inverse)


def _film_debias_with_bad_net():
    nets = [(Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2)))),
            (Tensor(np.ones((2, 2))), Tensor(np.ones((1, 2))))]
    rows = np.zeros(2, dtype=np.int64)
    ad.film_debias(Tensor(np.ones((2, 3))), rows, nets, Tensor(np.zeros((1, 2))),
                   Tensor(np.zeros((1, 2))), rows)


def _backward_on_untracked_loss():
    with Tape() as tape:
        loss = ad.sq_norm(Tensor(np.ones((2, 2))))
    tape.backward(loss)


def _attention_2x3(self_rows, self_cols, nbr_rows, x_rows):
    # A 2 x 3 pattern needs (2, 1) and (3, 1) score halves and 3 rows of x.
    ad.attention_matmul(Tensor(np.ones((self_rows, self_cols))), Tensor(np.ones((nbr_rows, 1))),
                        ad.FixedSparse(np.ones((2, 3))), Tensor(np.ones((x_rows, 2))))


ONES_2X3, ONES_3X2 = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))

REJECTIONS = [
    pytest.param(lambda: ad.affine(ONES_2X3, ONES_3X2, ONES_2X3), ValueError, "affine shape",
                 id="affine"),
    pytest.param(lambda: ad.sparse_matmul(ad.FixedSparse(np.eye(3)), ONES_2X3), ValueError,
                 "sparse_matmul shape", id="sparse_matmul"),
    pytest.param(lambda: _attention_2x3(3, 1, 3, 3), ValueError,
                 r"\(2, 1\) and \(3, 1\) scores, got \(3, 1\)", id="attention_matmul-self-rows"),
    pytest.param(lambda: _attention_2x3(2, 2, 3, 3), ValueError,
                 r"\(2, 1\) and \(3, 1\) scores, got \(2, 2\)", id="attention_matmul-self-width"),
    pytest.param(lambda: _attention_2x3(2, 1, 2, 3), ValueError,
                 r"got \(2, 1\) and \(2, 1\)", id="attention_matmul-nbr-rows"),
    pytest.param(lambda: _attention_2x3(2, 1, 3, 2), ValueError,
                 r"attention_matmul shape mismatch: \(2, 3\) @ \(2, 2\)", id="attention_matmul-x"),
    pytest.param(lambda: ad.sq_norm(ONES_2X3, ONES_3X2, row_weights=np.ones(2)), ValueError,
                 "2 row weights for 3 rows", id="sq_norm-row-weights"),
    pytest.param(lambda: ad.nll_rows(ONES_2X3, [0, 1], [0], 1e-12), ValueError,
                 "got 1 labels for 2 row indices", id="nll_rows-label-count"),
    pytest.param(lambda: ad.nll_rows(ONES_2X3, [-1], [0], 1e-12), ValueError,
                 r"row indices must lie in \[0, 2\)", id="nll_rows-negative-index"),
    pytest.param(lambda: ad.nll_rows(ONES_2X3, [2], [0], 1e-12), ValueError,
                 r"row indices must lie in \[0, 2\)", id="nll_rows-index-past-end"),
    pytest.param(lambda: ad.nll_rows(ONES_2X3, [0], [3], 1e-12), ValueError,
                 r"labels must lie in \[0, 3\)", id="nll_rows-label"),
    pytest.param(lambda: ad.nll_rows(ONES_2X3, [0], [0], 0.0), ValueError,
                 "floor must be positive", id="nll_rows-floor"),
    pytest.param(lambda: ad.nll_rows(ONES_2X3, [0.9, 1.2], [1, 0], 1e-12), ValueError,
                 "row indices must be integers", id="nll_rows-float-index"),
    pytest.param(lambda: ad.nll_rows(ONES_2X3, [True, False], [1, 0], 1e-12), ValueError,
                 "row indices must be integers", id="nll_rows-bool-index"),
    pytest.param(lambda: ad.nll_rows(ONES_2X3, [0, 1], [1.7, 0], 1e-12), ValueError,
                 "labels must be integers", id="nll_rows-float-label"),
    pytest.param(lambda: ad.group_mean_gap(ONES_2X3, [], [1]), ValueError,
                 "two nonempty groups", id="group_mean_gap-empty"),
    pytest.param(lambda: ad.group_mean_gap(ONES_2X3, [0], [-1]), ValueError,
                 r"high rows must lie in \[0, 2\)", id="group_mean_gap-index"),
    pytest.param(lambda: ad.group_mean_gap(ONES_2X3, [0.5], [1.5]), ValueError,
                 "low rows must be integers", id="group_mean_gap-float-index"),
    pytest.param(lambda: ad.weighted_sum([ONES_2X3, ONES_2X3], [1.0]), ValueError,
                 "got 1 coefficients for 2 terms", id="weighted_sum-count"),
    pytest.param(lambda: ad.weighted_sum([ONES_2X3, ONES_3X2], [1.0, 1.0]), ValueError,
                 "terms differ in shape", id="weighted_sum-shape"),
    pytest.param(lambda: ad.weighted_sum([ONES_2X3, Tensor(np.ones((1, 2)))], [1.0, 1.0]),
                 ValueError, "terms differ in shape", id="weighted_sum-bias-width"),
    pytest.param(_film_debias_with_bad_net, ValueError, "film_debias shape", id="film_debias-net"),
    pytest.param(lambda: _film_debias_2_rows([0.5, 0], [0, 1]), ValueError,
                 "route values must be integers", id="film_debias-float-route"),
    pytest.param(lambda: _film_debias_2_rows([0, 2], [0, 1]), ValueError,
                 r"route values must lie in \[-1, 1\)", id="film_debias-route"),
    pytest.param(lambda: _film_debias_2_rows([0, 0], [0.0, 1.0]), ValueError,
                 "degree_inverse values must be integers", id="film_debias-float-degree"),
    pytest.param(lambda: Tensor(np.ones((1, 1, 1))), ValueError, "ndim=3", id="tensor-ndim"),
    pytest.param(lambda: ONES_2X3.item(), ValueError, "1x1", id="item"),
    pytest.param(_backward_on_untracked_loss, TapeError, "not connected", id="backward-untracked"),
]


@pytest.mark.parametrize("call,error,message", REJECTIONS)
def test_rejects_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_empty_index_lists_are_accepted():
    # An empty list has numpy's default float dtype, but no entry to check.
    assert ad.nll_rows(ONES_2X3, [], [], 1e-12).item() == 0.0
    nets = [(Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))))]
    out = ad.film_debias(Tensor(np.ones((0, 3))), [], nets, Tensor(np.zeros((1, 2))),
                         Tensor(np.zeros((1, 2))), [])
    assert out.shape == (0, 2)


def test_nll_rows_propagates_nan():
    # Entry 0 is NaN; entries 1 and 2 lie at and below the floor.
    probs = Tensor([[np.nan, 0.01, 0.05, 0.5]], requires_grad=True)
    with Tape() as tape:
        loss = ad.nll_rows(probs, [0, 0, 0, 0], [0, 1, 2, 3], 0.05)
    assert np.isnan(loss.item())
    tape.backward(loss)
    assert np.isnan(probs.grad[0, 0])
    assert probs.grad[0, 1:].tolist() == [0.0, 0.0, -2.0]
    floored = ad.nll_rows(probs, [0, 0, 0], [1, 2, 3], 0.05)
    assert floored.item() == pytest.approx(-(2.0 * math.log(0.05) + math.log(0.5)), rel=1e-15)


def test_film_debias_values_and_rows():
    def param(a):
        return Tensor(a, requires_grad=True)

    x = param([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    nets = [(param(np.eye(2)), param([[1.0, 1.0]])),
            (param(2 * np.eye(2)), param([[0.0, 0.0]])),
            (param(np.ones((2, 2))), param([[9.0, 9.0]]))]
    # Zero modulation: the routed net outputs alone; the -1 row is left out.
    scale, shift = param(np.zeros((1, 2))), param(np.zeros((1, 2)))
    inv = np.zeros(3, dtype=np.int64)
    with Tape() as tape:
        out = ad.film_debias(x, np.array([1, -1, 0]), nets, scale, shift, inv)
        loss = contract(out, np.ones(out.shape))
    assert out.data.tolist() == [[2.0, 4.0], [6.0, 7.0]]
    tape.backward(loss)
    assert x.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]
    assert nets[0][0].grad.tolist() == [[5.0, 5.0], [6.0, 6.0]]
    assert nets[1][1].grad.tolist() == [[1.0, 1.0]]
    assert np.array_equal(nets[2][0].grad, np.zeros((2, 2)))  # no rows routed to it
    assert np.array_equal(nets[2][1].grad, np.zeros((1, 2)))
    assert scale.grad.tolist() == [[8.0, 11.0]]  # sum of the net outputs
    assert shift.grad.tolist() == [[2.0, 2.0]]  # one per routed row

    # Two unique degrees: rows 0 and 2 share row 0 of scale/shift.
    x.grad = None
    scale, shift = param([[1.0, 0.0], [2.0, 2.0]]), param([[0.5, -0.5], [1.0, 1.0]])
    inv = np.array([0, 1, 0])
    with Tape() as tape:
        out = ad.film_debias(x, np.array([1, -1, 0]), nets, scale, shift, inv)
        loss = contract(out, np.ones(out.shape))
    assert out.data.tolist() == [[4.5, 3.5], [12.5, 6.5]]
    tape.backward(loss)
    assert x.grad.tolist() == [[4.0, 2.0], [0.0, 0.0], [2.0, 1.0]]
    assert scale.grad.tolist() == [[8.0, 11.0], [0.0, 0.0]]
    assert shift.grad.tolist() == [[2.0, 2.0], [0.0, 0.0]]  # degree 1's only row is left out

    for route, inv in (([0, 3, 0], [0, 0, 0]), ([0, 1], [0, 0]),
                       ([0, 1, 0], [0, 2, 0]), ([0, 1, 0], [0, -1, 0])):
        with pytest.raises(ValueError):
            ad.film_debias(x, np.array(route), nets, scale, shift, np.array(inv))
    with pytest.raises(ValueError):
        ad.film_debias(x, np.zeros(3, dtype=int), nets, scale, param(np.zeros((2, 3))),
                       np.zeros(3, dtype=int))


def film_debias_oracle(x, route, nets, scale_u, shift_u, inv):
    """Row by row over the routed rows: (scale_u[d] + 1) * (x[i] @ w + b) + shift_u[d]."""
    rows = []
    for i in np.flatnonzero(route >= 0):
        w, b = nets[route[i]]
        rows.append((scale_u[inv[i]] + 1.0) * (x[i] @ w + b[0]) + shift_u[inv[i]])
    return np.array(rows).reshape(-1, scale_u.shape[1])


def bincount_scatter(idx, g, rows):
    """Reference scatter-add: one flat ``np.bincount``, duplicates in input order."""
    cols = g.shape[1]
    flat = (idx[:, None] * cols + np.arange(cols)[None, :]).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=rows * cols).reshape(rows, cols)


@st.composite
def film_debias_cases(draw):
    n = draw(st.integers(0, 7))
    d_in, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    num_nets = draw(st.integers(1, 3))
    unique = draw(st.integers(1, 4))
    # The routed rows are none, all or a mix; routes may leave a net without
    # rows, and degree rows may repeat or all be one.
    lowest, highest = {"none": (-1, -1), "all": (0, num_nets - 1), "mixed": (-1, num_nets - 1)}[
        draw(st.sampled_from(["none", "all", "mixed"]))]
    route = draw(st.lists(st.integers(lowest, highest), min_size=n, max_size=n))
    inv = draw(st.lists(st.integers(0, unique - 1), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, d_in, width, num_nets, unique, np.array(route, dtype=np.int64), \
        np.array(inv, dtype=np.int64), seed


@settings(max_examples=80, deadline=None)
@given(film_debias_cases())
@example(case=(6, 3, 2, 2, 3, np.array([0, 0, 1, 1, 0, 0]), np.array([2, 0, 1, 2, 2, 2]), 717848))
@example(case=(4, 2, 3, 2, 2, np.array([-1, -1, -1, -1]), np.array([0, 1, 1, 0]), 5))
@example(case=(5, 2, 3, 2, 2, np.array([1, -1, 0, -1, 1]), np.array([0, 1, 1, 0, 0]), 9))
def test_film_debias_property_matches_dense_oracle_and_fd(case):
    n, d_in, width, num_nets, unique, route, inv, seed = case
    rng = np.random.default_rng(seed)
    x = tensor(rng, n, d_in) if n else Tensor(np.zeros((0, d_in)), requires_grad=True)
    nets = [(tensor(rng, d_in, width), tensor(rng, 1, width)) for _ in range(num_nets)]
    scale_u, shift_u = tensor(rng, unique, width), tensor(rng, unique, width)
    routed = np.flatnonzero(route >= 0)
    cot = Tensor(rng.standard_normal((routed.size, width)))

    with Tape() as tape:
        out = ad.film_debias(x, route, nets, scale_u, shift_u, inv)
        loss = contract(out, cot)
    expected = film_debias_oracle(
        x.data, route, [(w.data, b.data) for w, b in nets], scale_u.data,
        shift_u.data, inv,
    )
    assert out.shape == (routed.size, width)
    assert np.allclose(out.data, expected, rtol=1e-12, atol=1e-12)
    # Leaving a row out is the same as not passing it, bit for bit.
    alone = ad.film_debias(Tensor(x.data[routed]), route[routed], nets, scale_u, shift_u,
                           inv[routed])
    assert np.array_equal(out.data, alone.data)
    # The shift adjoint is the cotangent summed by degree row, in row order.
    tape.backward(loss)
    assert np.array_equal(shift_u.grad, bincount_scatter(inv[routed], cot.data, unique))

    def program():
        return contract(ad.film_debias(x, route, nets, scale_u, shift_u, inv), cot)

    params = [scale_u, shift_u] + [t for net in nets for t in net] + ([x] if n else [])
    # Each coordinate enters the program linearly, so central differences are
    # exact at any step; a large one keeps their rounding below the bound on
    # tiny gradients (the pinned case reads 2.0e-6 at the default 1e-5).
    assert ad.fd_check(program, params, eps=1e-2, rng=rng) < 1e-6
    # Unique-degree rows no routed node uses, and ctx rows routed to -1, get a
    # zero adjoint.
    unused = np.setdiff1d(np.arange(unique), inv[routed])
    assert np.array_equal(scale_u.grad[unused], np.zeros((unused.size, width)))
    assert np.array_equal(shift_u.grad[unused], np.zeros((unused.size, width)))
    if n:
        assert not x.grad[route == -1].any()


@st.composite
def nll_rows_cases(draw):
    rows, classes = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["empty", "every row", "duplicates"]))
    if kind == "empty":
        idx = []
    elif kind == "every row":
        idx = draw(st.permutations(range(rows)))
    else:
        idx = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=12))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=len(idx), max_size=len(idx)))
    return (rows, classes, np.array(idx, dtype=np.int64), np.array(labels, dtype=np.int64),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(nll_rows_cases())
def test_nll_rows_property_adjoint_matches_dense_oracle_and_bincount(case):
    rows, classes, idx, labels, seed = case
    rng = np.random.default_rng(seed)
    # Probabilities over 14 decades make the summation order of a row picked
    # more than once visible; those at or below the floor get no adjoint.
    floor = 1e-12
    probs = Tensor(10.0 ** rng.uniform(-14, 0, (rows, classes)), requires_grad=True)
    coeff = rng.standard_normal() * 10.0 ** rng.integers(-8, 9)
    with Tape() as tape:
        out = ad.nll_rows(probs, idx, labels, floor)
        loss = ad.weighted_sum([out], [coeff])
    picked = probs.data[idx, labels]
    assert out.item() == pytest.approx(-np.log(np.maximum(picked, floor)).sum(), rel=1e-12)
    tape.backward(loss)
    cot = np.zeros((idx.size, classes))
    cot[np.arange(idx.size), labels] = np.where(picked > floor, -coeff / picked, 0.0)
    one_hot = np.zeros((idx.size, rows))
    one_hot[np.arange(idx.size), idx] = 1.0
    dense = one_hot.T @ cot
    assert np.allclose(probs.grad, dense, rtol=1e-12,
                       atol=1e-12 * (1.0 + np.abs(cot).max(initial=0.0)))
    assert np.array_equal(probs.grad, bincount_scatter(idx, cot, rows))


@st.composite
def attention_matmul_cases(draw):
    rows, cols, width = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(1, 4))
    # Density 0 gives nnz = 0; lower densities leave rows with no entries.
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return rows, cols, width, density, seed


def _attention_scores(rng, mask):
    """A pattern and score halves whose logits lie at least 0.25 from the kink.

    Even columns score positive, odd ones negative, and a row with two or
    more entries gets columns 0 and 1, so its logits take both signs. (A row
    whose logits share a sign has a softmax that does not move with
    s_self[i]: the adjoint is exactly 0 and central differences read only
    rounding, which ``fd_check``'s relative error cannot certify.)
    """
    rows, cols = mask.shape
    mask = mask.copy()
    if cols > 1:
        mask[mask.sum(axis=1) > 1, :2] = True
    sign = np.where(np.arange(cols) % 2 == 0, 1.0, -1.0)[:, None]
    s_self = Tensor(rng.uniform(-0.25, 0.25, (rows, 1)), requires_grad=True)
    s_nbr = Tensor(sign * rng.uniform(0.5, 1.0, (cols, 1)), requires_grad=True)
    return _pattern_operator(mask), s_self, s_nbr


def _dense_attention(mask, s_self, s_nbr, x, cot):
    """Output and the three adjoints of GAT attention on the mask, row by row."""
    logits = s_self + s_nbr.T
    slope = np.where(logits > 0, 1.0, 0.2)
    probs = np.zeros(mask.shape)
    g_logits = np.zeros(mask.shape)
    g_probs = cot @ x.T
    for i in range(mask.shape[0]):
        on = mask[i]
        if on.any():
            v = logits[i, on] * slope[i, on]
            e = np.exp(v - v.max())
            p = e / e.sum()
            probs[i, on] = p
            g_logits[i, on] = p * (g_probs[i, on] - p @ g_probs[i, on]) * slope[i, on]
    return (probs @ x, g_logits.sum(axis=1, keepdims=True),
            g_logits.sum(axis=0)[:, None], probs.T @ cot)


@settings(max_examples=60, deadline=None)
@given(attention_matmul_cases())
@example(case=(3, 2, 2, 0.0, 0))
def test_attention_matmul_property_matches_dense_oracle_and_fd(case):
    rows, cols, width, density, seed = case
    rng = np.random.default_rng(seed)
    op, s_self, s_nbr = _attention_scores(rng, rng.random((rows, cols)) < density)
    mask = op.fwd.toarray() != 0
    x = tensor(rng, cols, width)
    cot = rng.standard_normal((rows, width))
    logits = s_self.data + s_nbr.data.T
    assert np.all(np.abs(logits[mask]) >= 0.25)
    expect, g_self, g_nbr, g_x = _dense_attention(mask, s_self.data, s_nbr.data, x.data, cot)

    def program():
        return contract(ad.attention_matmul(s_self, s_nbr, op, x), cot)

    out = ad.attention_matmul(s_self, s_nbr, op, x)
    assert out.shape == (rows, width)
    assert np.allclose(out.data, expect, rtol=0.0, atol=1e-12)
    with Tape() as tape:
        loss = program()
    tape.backward(loss)
    for got, want in ((s_self.grad, g_self), (s_nbr.grad, g_nbr), (x.grad, g_x)):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    # The program is linear in x, so central differences are exact at any
    # step and a large one keeps their rounding small. On the scores a step
    # of 1e-4 balances rounding against truncation, and every logit is at
    # least 2500 steps from the kink.
    assert ad.fd_check(program, [x], eps=1e-2, rng=rng) < 1e-6
    assert ad.fd_check(program, [s_self, s_nbr], eps=1e-4, rng=rng) < 1e-6


def test_attention_matmul_subtracts_the_row_max():
    # Row 0 has one entry (weight 1); row 1's equal logits of 1000 give
    # weights 1/2, exactly, however large they are.
    op = _pattern_operator(np.array([[True, False], [True, True]]))
    x = Tensor([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]])
    out = ad.attention_matmul(Tensor([[5.0], [500.0]]), Tensor([[500.0], [500.0]]), op, x)
    assert out.data.tolist() == [[1.0] * 3, [2.0] * 3]


def _random_pattern(rng, n, sizes):
    """An n x n CSR pattern whose row i holds ``sizes[i]`` distinct columns."""
    cols = [np.sort(rng.choice(n, size, replace=False)) for size in sizes]
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    return ad.FixedSparse(sparse.csr_matrix(
        (np.ones(indptr[-1]), np.concatenate(cols).astype(np.int32), indptr), shape=(n, n)))


def _per_entry_score_adjoints(pattern, s_self, s_nbr, x, g):
    """The score adjoints as first written: one nnz x d gather per side.

    Entry (i, j) gets ``p * (gp - dot[i]) * slope`` with ``gp = g[i] . x[j]``
    and ``dot[i]`` the p-weighted row sum of gp, summed by row and by column.
    """
    n, m = pattern.shape
    rows, cols = np.repeat(np.arange(n), np.diff(pattern.indptr)), pattern.indices
    logits = s_self[rows, 0] + s_nbr[cols, 0]
    slope = np.where(logits > 0, 1.0, 0.2)
    v = logits * slope
    row_max = np.full(n, -np.inf)
    np.maximum.at(row_max, rows, v)
    e = np.exp(v - row_max[rows])
    p = e / np.bincount(rows, weights=e, minlength=n)[rows]
    gp = np.einsum("ij,ij->i", g[rows], x[cols])
    dot = np.bincount(rows, weights=gp * p, minlength=n)
    entry = p * (gp - dot[rows]) * slope
    # Each entry's magnitude bound, |q| (|g[i]| . |x[j]|), gives the tolerances.
    size = p * slope * np.einsum("ij,ij->i", np.abs(g[rows]), np.abs(x[cols]))
    return (np.bincount(rows, weights=entry, minlength=n),
            np.bincount(cols, weights=entry, minlength=m),
            np.bincount(rows, weights=size, minlength=n),
            np.bincount(cols, weights=size, minlength=m))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("width", [1, 2, 64])
def test_attention_matmul_score_adjoints_match_the_per_entry_formula(width, seed):
    rng = np.random.default_rng(seed)
    n = 300
    # Empty rows, one-entry rows and rows of up to 40 entries.
    sizes = rng.choice([0, 1, 2, 5, 12, 40], n)
    op = _random_pattern(rng, n, sizes)
    # A third of the rows score every entry above 0, or every entry below
    # it: their softmax does not move with s_self[i], whose exact adjoint is 0.
    s_nbr = rng.standard_normal((n, 1))
    one_sign = rng.choice([-10.0, 0.0, 10.0], (n, 1))
    s_self = np.where(one_sign == 0.0, rng.standard_normal((n, 1)), one_sign)
    x, g = rng.standard_normal((n, width)), rng.standard_normal((n, width))
    want_self, want_nbr, size_self, size_nbr = _per_entry_score_adjoints(
        op.fwd, s_self, s_nbr, x, g)
    t_self, t_nbr = Tensor(s_self, requires_grad=True), Tensor(s_nbr, requires_grad=True)
    with Tape() as tape:
        loss = contract(ad.attention_matmul(t_self, t_nbr, op, Tensor(x)), g)
    tape.backward(loss)
    assert np.all(np.abs(t_self.grad[:, 0] - want_self) <= 1e-12 * size_self)
    assert np.all(np.abs(t_nbr.grad[:, 0] - want_nbr) <= 1e-12 * size_nbr)
    flat = (one_sign[:, 0] != 0.0) | (sizes <= 1)
    assert np.all(np.abs(t_self.grad[flat, 0]) <= 1e-12 * size_self[flat])
    assert np.all(t_self.grad[sizes == 0] == 0.0)


def test_attention_matmul_backward_forms_no_entry_by_width_array():
    # About 21 entries per row at n=2000 and width 64: one nnz x d float64
    # array is 21.5 MB, and the score adjoints once gathered two of them.
    rng = np.random.default_rng(3)
    n, width = 2000, 64
    op = _random_pattern(rng, n, np.full(n, 21))
    s_self, s_nbr = tensor(rng, n, 1), tensor(rng, n, 1)
    x, cot = tensor(rng, n, width), rng.standard_normal((n, width))
    with Tape() as tape:
        loss = contract(ad.attention_matmul(s_self, s_nbr, op, x), cot)
    tracemalloc.start()
    try:
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < op.fwd.nnz * width * 8
    assert all(t.grad is not None for t in (s_self, s_nbr, x))


@st.composite
def weighted_sum_cases(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    full, biases = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    # Term k reads tensor picks[k]: the first ``full`` tensors have the
    # output's shape, the rest are bias rows. Picks may repeat.
    picks = [draw(st.integers(0, full - 1))] + draw(
        st.lists(st.integers(0, full + biases - 1), max_size=5))
    coeffs = draw(st.lists(st.sampled_from([1.0, 1.0, -1.0, 0.5, 0.0, -2.75, 1e-3]),
                           min_size=len(picks), max_size=len(picks)))
    return rows, cols, full, biases, picks, coeffs, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(weighted_sum_cases())
@example(case=(3, 2, 2, 1, [0, 0, 1], [1.0, 1.0, 1.0], 0))
@example(case=(3, 2, 1, 2, [0, 1, 2, 1], [1.0, 1.0, -0.5, 2.0], 1))
def test_weighted_sum_property_adjoint_matches_the_dot_product_identity(case):
    # <J v, u> = <v, J^T u> for tangents v and a cotangent u. The op is
    # linear in its terms, so J v is the op applied to the tangents.
    rows, cols, full, biases, picks, coeffs, seed = case
    rng = np.random.default_rng(seed)
    shapes = [(rows, cols)] * full + [(1, cols)] * biases
    leaves = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
    tangents = [rng.standard_normal(shape) for shape in shapes]
    u = rng.standard_normal((rows, cols))
    with Tape() as tape:
        out = ad.weighted_sum([leaves[k] for k in picks], coeffs)
        loss = contract(out, u)
    expect = sum(c * leaves[k].data for k, c in zip(picks, coeffs))
    assert np.array_equal(out.data, expect)  # the same sums, in the same order
    tape.backward(loss)
    grads = [t.grad if t.grad is not None else np.zeros(t.shape) for t in leaves]
    jv = ad.weighted_sum([tangents[k] for k in picks], coeffs).data
    lhs = np.einsum("ij,ij->", jv, u)
    rhs = sum(np.einsum("ij,ij->", v, gr) for v, gr in zip(tangents, grads))
    bound = sum(abs(c) * np.abs(tangents[k] * u).sum() for k, c in zip(picks, coeffs))
    assert abs(lhs - rhs) <= 1e-12 * bound
    held = [t.grad for t in leaves if t.grad is not None]
    assert not any(np.shares_memory(x, y) for i, x in enumerate(held) for y in held[i + 1:])


# ----------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    a, b = Tensor([[2.0]], requires_grad=True), Tensor([[-3.0]], requires_grad=True)
    with Tape() as tape:
        loss = ad.weighted_sum([a, b], [1.0, 1.0])
    assert loss.item() == -1.0
    tape.backward(loss)
    assert a.grad.tolist() == [[1.0]] and b.grad.tolist() == [[1.0]]


def test_backward_sq_norm_gives_2w():
    w = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    with Tape() as tape:
        loss = ad.sq_norm(w)
    tape.backward(loss)
    assert np.array_equal(w.grad, 2.0 * w.data)


def test_backward_three_layer_composite_matches_fd():
    rng = np.random.default_rng(42)
    w1 = tensor(rng, 4, 6)
    w2 = tensor(rng, 6, 5)
    w3 = tensor(rng, 5, 3)
    x = Tensor(rng.standard_normal((7, 4)))

    def program():
        h = ad.relu(ad.matmul(x, w1))
        h = ad.relu(ad.matmul(h, w2))
        return ad.sq_norm(ad.softmax_rows(ad.matmul(h, w3)))

    err = ad.fd_check(program, [w1, w2, w3], rng=np.random.default_rng(1))
    assert err < 1e-7


def test_backward_rejects_non_scalar():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        out = ad.weighted_sum([w], [2.0])
    with pytest.raises(ValueError):
        tape.backward(out)


def test_backward_twice_is_an_error():
    w = Tensor(np.ones((1, 1)), requires_grad=True)
    with Tape() as tape:
        loss = ad.sq_norm(w)
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_backward_frees_the_tape_as_it_replays_it():
    rng = np.random.default_rng(5)
    w, v = tensor(rng, 3, 4), tensor(rng, 5, 4)
    x = Tensor(rng.standard_normal((5, 3)))
    scale = rng.standard_normal((5, 4))
    want_w, want_v = x.data.T @ scale, 2.0 * scale
    captured = weakref.ref(scale)
    with Tape() as tape:
        outputs = [ad.matmul(x, w)]
        outputs.append(ad.weighted_sum([outputs[-1], v], [1.0, 1.0]))
        outputs.append(ad.weighted_sum([outputs[-1], v], [1.0, 1.0]))
        outputs.append(contract(outputs[-1], scale))  # only this op's vjp holds `scale`
    del scale
    recorded = len(tape)
    assert recorded == 4 and captured() is not None
    tape.backward(outputs[-1])
    assert len(tape) == recorded
    assert captured() is None
    assert all(t.grad is None for t in outputs)
    # Leaf grads against the dense oracle: d/dw sum((x @ w) * scale) = x.T @ scale,
    # and v enters twice with identity adjoints into buffers of its own.
    assert np.allclose(w.grad, want_w, rtol=1e-12, atol=1e-12)
    assert np.array_equal(v.grad, want_v)
    assert not np.shares_memory(v.grad, w.grad)
    with pytest.raises(TapeError):
        tape.backward(outputs[-1])
    assert len(tape) == recorded


def test_backward_hands_an_identity_grad_to_one_parent_only():
    # A coefficient-1 term's adjoint is the output's own grad: the first parent
    # takes the buffer, the second gets a copy, so no two grads share memory.
    rng = np.random.default_rng(9)
    a, b, v = tensor(rng, 3, 2), tensor(rng, 3, 2), tensor(rng, 3, 2)
    cot = rng.standard_normal((3, 2))
    with Tape() as tape:
        loss = contract(ad.weighted_sum([a, b], [1.0, 1.0]), cot)
    tape.backward(loss)
    assert np.array_equal(a.grad, cot) and np.array_equal(b.grad, cot)
    assert not np.shares_memory(a.grad, b.grad)
    # The same parent twice: the second contribution adds into the taken buffer.
    with Tape() as tape:
        loss = contract(ad.weighted_sum([v, v], [1.0, 1.0]), cot)
    tape.backward(loss)
    assert np.array_equal(v.grad, 2.0 * cot)


@pytest.mark.parametrize("order", ["aab", "aba", "baa", "aaabb"])
def test_backward_keeps_a_handed_out_grad_intact(order):
    # The first "a" takes the output's grad buffer. A repeated "a" must not
    # add into that buffer while the entry's later terms still read it.
    rng = np.random.default_rng(4)
    leaves = {"a": tensor(rng, 3, 2), "b": tensor(rng, 3, 2)}
    cot = rng.standard_normal((3, 2))
    with Tape() as tape:
        loss = contract(ad.weighted_sum([leaves[k] for k in order], [1.0] * len(order)), cot)
    tape.backward(loss)
    a, b = leaves["a"], leaves["b"]
    assert np.array_equal(a.grad, order.count("a") * cot)
    assert np.array_equal(b.grad, order.count("b") * cot)
    assert not np.shares_memory(a.grad, b.grad)


def test_backward_is_linear():
    rng = np.random.default_rng(3)
    w = tensor(rng, 3, 3)
    x = Tensor(rng.standard_normal((3, 3)))

    def grad_of(a, b):
        w.grad = None
        with Tape() as tape:
            f = ad.sq_norm(ad.matmul(x, w))
            g = ad.sq_norm(w)
            loss = ad.weighted_sum([f, g], [a, b])
        tape.backward(loss)
        return w.grad.copy()

    ga = grad_of(1.0, 0.0)
    gb = grad_of(0.0, 1.0)
    combined = grad_of(2.5, -1.5)
    assert np.all(np.abs(combined - (2.5 * ga - 1.5 * gb)) < 1e-10)


def test_no_tape_means_no_tracking():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    out = ad.sq_norm(w)
    assert not out.requires_grad
    assert w.grad is None


def test_no_grad_records_nothing_inside_a_tape():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        ad.sq_norm(w)
        recorded = len(tape)
        with ad.no_grad():
            out = ad.sq_norm(ad.sq_norm(w))
            with ad.no_grad():
                ad.sq_norm(w)
            ad.sq_norm(w)
            assert len(tape) == recorded
            assert not out.requires_grad
        loss = ad.sq_norm(w)
        assert len(tape) == recorded + 1
    tape.backward(loss)
    assert np.array_equal(w.grad, 2.0 * w.data)


def test_no_grad_restores_the_stack_and_allows_an_inner_tape():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as outer:
        with ad.no_grad():
            with Tape() as inner:
                ad.sq_norm(w)
            assert len(inner) == 1
            with pytest.raises(KeyError):
                with ad.no_grad():
                    raise KeyError("leaves the region")
            ad.sq_norm(w)
        ad.sq_norm(w)
    assert len(outer) == 1
    assert not ad.sq_norm(w).requires_grad  # no tape left active


# ------------------------------------------------------- per-op adjoint sweep


def _random_csr(rng, rows, cols):
    mat = sparse.random(rows, cols, density=0.4, random_state=np.random.RandomState(7))
    return ad.FixedSparse(mat)


def _pattern_operator(mask):
    return ad.FixedSparse(sparse.csr_matrix(mask.astype(np.float64)))


def op_programs(rng):
    """One scalar program per op, built on fresh random tensors."""
    n, d, k = int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(2, 7))
    a = tensor(rng, n, d)
    b = tensor(rng, d, k)
    c = tensor(rng, n, d)
    bias = tensor(rng, 1, d)
    # Positive "probabilities", one of them below the floor of 0.05, picked
    # from rows of which some repeat (n + 2 picks from n rows).
    probs = tensor(rng, n, d, positive=True)
    labels = rng.integers(0, d, size=n + 2)
    kinky = tensor(rng, n, d, avoid_kinks=True)
    cot = Tensor(rng.standard_normal((n, d)))  # fixed cotangent
    cot_k = Tensor(rng.standard_normal((n, k)))
    idx = rng.integers(0, n, size=n + 2)
    probs.data[idx[0], labels[0]] = 0.01
    low, high = rng.integers(0, n, size=n + 1), rng.integers(0, n, size=3)
    counts = rng.integers(0, 3, size=n).astype(float)
    sp = _random_csr(rng, n + 1, n)
    sp_cot = Tensor(rng.standard_normal((n + 1, d)))
    # Attention on a random pattern whose row 0 is empty.
    mask = rng.random((n + 1, n)) < 0.5
    mask[0] = False
    score_op, s_self, s_nbr = _attention_scores(rng, mask)
    bias_k = tensor(rng, 1, k)
    # Rows 0-2 go to net 0, net 1 and nowhere; net 2 gets no rows at all.
    # Rows 0 and 3 share a degree row; degree row 3 is used by no row.
    route = np.concatenate([[0, 1, -1], rng.integers(-1, 2, size=n)])
    inv = np.concatenate([[0, 1, 2, 0], rng.integers(0, 3, size=n - 1)])
    routed_x = tensor(rng, n + 3, d)
    routed_nets = [(tensor(rng, d, k), tensor(rng, 1, k)) for _ in range(3)]
    scale_u, shift_u = tensor(rng, 4, k), tensor(rng, 4, k)
    routed_cot = Tensor(rng.standard_normal((np.count_nonzero(route >= 0), k)))

    return {
        "matmul": (lambda: contract(ad.matmul(a, b), cot_k), [a, b]),
        "relu": (lambda: contract(ad.relu(kinky), cot), [kinky]),
        "softmax_rows": (lambda: contract(ad.softmax_rows(a), cot), [a]),
        "sq_norm": (lambda: ad.sq_norm(a), [a]),
        "sq_norm_several": (lambda: ad.sq_norm(a, c, bias), [a, c, bias]),
        "sq_norm_row_weights": (lambda: ad.sq_norm(a, c, row_weights=counts), [a, c]),
        "weighted_sum": (lambda: contract(ad.weighted_sum([a, c, a], [0.5, -1.3, 2.0]), cot),
                         [a, c]),
        "weighted_sum_unit": (lambda: contract(ad.weighted_sum([a, a, c], [1.0] * 3), cot),
                              [a, c]),
        "weighted_sum_bias": (
            lambda: contract(ad.weighted_sum([a, bias, c, bias], [1.0, 1.0, -0.7, 2.0]), cot),
            [a, bias, c],
        ),
        "weighted_sum_one_term": (lambda: contract(ad.weighted_sum([a], [-1.7]), cot), [a]),
        "nll_rows": (lambda: ad.nll_rows(probs, idx, labels, 0.05), [probs]),
        "group_mean_gap": (lambda: ad.group_mean_gap(a, low, high), [a]),
        "attention_matmul": (
            lambda: contract(ad.attention_matmul(s_self, s_nbr, score_op, a), sp_cot),
            [s_self, s_nbr, a],
        ),
        "sparse_matmul": (lambda: contract(ad.sparse_matmul(sp, a), sp_cot), [a]),
        "affine": (lambda: contract(ad.affine(a, b, Tensor(np.zeros((1, k)))
                                             if not bias_k.requires_grad else bias_k),
                                   cot_k), [a, b, bias_k]),
        "film_debias": (
            lambda: contract(
                ad.film_debias(routed_x, route, routed_nets, scale_u, shift_u, inv),
                routed_cot,
            ),
            [routed_x, scale_u, shift_u] + [t for net in routed_nets for t in net],
        ),
        "dropout": (
            lambda: contract(
                ad.dropout(a, 0.4, np.random.default_rng(123)), cot
            ),
            [a],
        ),
    }


def test_every_op_adjoint_passes_fd():
    # >= 100 random shape/seed trials across the op suite.
    rng = np.random.default_rng(2024)
    trials = 0
    for _ in range(6):
        for name, (program, params) in op_programs(rng).items():
            err = ad.fd_check(program, params, rng=rng)
            assert err < 1e-5, f"{name} adjoint failed fd check: {err}"
            trials += 1
    assert trials >= 100


@pytest.mark.parametrize("width", [1, 3, 64])
def test_sparse_matmul_adjoint_equals_stored_transpose(width):
    from scipy import sparse

    # Non-symmetric and rectangular, with an empty row (4) and column (2);
    # dense enough that summation order would show in the low bits.
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((30, 20)) * (rng.random((30, 20)) < 0.6)
    dense[4, :] = 0.0
    dense[:, 2] = 0.0
    op = ad.FixedSparse(sparse.csr_matrix(dense))
    x = Tensor(rng.standard_normal((20, width)), requires_grad=True)
    cot = rng.standard_normal((30, width))
    with Tape() as tape:
        loss = contract(ad.sparse_matmul(op, x), cot)
    tape.backward(loss)
    assert np.array_equal(x.grad, sparse.csr_matrix(dense.T) @ cot)
    assert not x.grad[2].any()


def test_fd_check_constant_function():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    err = ad.fd_check(lambda: Tensor([[3.0]]), [w])
    assert err == 0.0


# ------------------------------------------------------------------- dropout


def test_dropout_identity_when_p_zero():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 4)))
    out = ad.dropout(x, 0.0, np.random.default_rng(1))
    assert out is x


def test_dropout_scales_survivors():
    x = Tensor(np.ones((20, 20)))
    out = ad.dropout(x, 0.5, np.random.default_rng(7))
    vals = np.unique(out.data)
    assert set(vals.tolist()) == {0.0, 2.0}


def test_dropout_rejects_bad_rate():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.dropout(x, 1.0, np.random.default_rng(0))


# ---------------------------------------------------------------------- adam


def test_adam_zero_grad_leaves_params():
    p = Tensor(np.full((2, 2), 5.0), requires_grad=True)
    opt = Adam([p], lr=0.1)
    opt.zero_grad()
    opt.step()
    assert np.array_equal(p.data, np.full((2, 2), 5.0))


def test_adam_first_step_is_about_lr():
    # Bias-corrected first step with g=1: m_hat = v_hat = 1, so the update
    # is lr / (1 + eps) ~= lr.
    p = Tensor([[1.0]], requires_grad=True)
    opt = Adam([p], lr=0.01)
    p.grad = np.array([[1.0]])
    opt.step()
    assert p.data[0, 0] == pytest.approx(1.0 - 0.01, abs=1e-9)


def test_adam_missing_grad_is_state_error():
    p = Tensor([[1.0]], requires_grad=True)
    opt = Adam([p])
    with pytest.raises(RuntimeError):
        opt.step()


def test_adam_keeps_parameters_and_gradients_in_flat_vectors():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((4, 3)))
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((1, 2)), requires_grad=True)
    ref_w, ref_b = (Tensor(t.data.copy(), requires_grad=True) for t in (w, b))
    with Tape() as tape:
        loss = ad.sq_norm(ad.affine(x, ref_w, ref_b))
    tape.backward(loss)

    opt = Adam([w, b], lr=0.1)
    assert np.array_equal(opt.data, np.concatenate([ref_w.data.ravel(), ref_b.data.ravel()]))
    assert np.shares_memory(w.data, opt.data) and np.shares_memory(b.data, opt.data)
    opt.zero_grad()
    with Tape() as tape:
        loss = ad.sq_norm(ad.affine(x, w, b))
    tape.backward(loss)
    # The backward summed into the views, so the flat vector holds the gradient.
    assert np.array_equal(opt.grad, np.concatenate([ref_w.grad.ravel(), ref_b.grad.ravel()]))
    assert not np.shares_memory(w.grad, b.grad)
    opt.step()
    assert np.array_equal(np.concatenate([w.data.ravel(), b.data.ravel()]), opt.data)
    assert not np.array_equal(w.data, ref_w.data)


def test_adam_matches_a_per_tensor_reference_across_blocks():
    # 90107 floats span three of the update's blocks, and the tensors straddle
    # block boundaries. The update is the per-tensor reference's arithmetic,
    # op for op, so the parameters agree bit for bit.
    rng = np.random.default_rng(5)
    shapes = [(300, 129), (1, 7), (257, 200)]
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    ref = [p.data.copy() for p in params]
    m, v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
    opt = Adam(params, lr=0.05)
    for t in range(1, 4):
        grads = [rng.standard_normal(s) for s in shapes]
        opt.zero_grad()
        params[0].grad[...] = grads[0]
        params[1].grad = grads[1]  # bound elsewhere: copied into its view
        params[2].grad[...] = grads[2]
        opt.step()
        bc1, bc2 = 1.0 - Adam.beta1**t, 1.0 - Adam.beta2**t
        for r, mt, vt, g in zip(ref, m, v, grads):
            mt *= Adam.beta1
            mt += (1.0 - Adam.beta1) * g
            vt *= Adam.beta2
            vt += (1.0 - Adam.beta2) * (g * g)
            r -= (mt / (np.sqrt(vt / bc2) + Adam.eps)) * (0.05 / bc1)
    for p, r in zip(params, ref):
        assert np.array_equal(p.data, r)


def test_adam_deterministic_trajectory():
    def run():
        rng = np.random.default_rng(11)
        p = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((5, 3)))
        opt = Adam([p], lr=0.05)
        for _ in range(10):
            opt.zero_grad()
            with Tape() as tape:
                loss = ad.sq_norm(ad.matmul(x, p))
            tape.backward(loss)
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())
