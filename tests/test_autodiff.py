import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    with pytest.raises(ValueError):
        ad.log(Tensor([[1.0, -1.0]]))


def test_clamp_min_propagates_nan():
    x = Tensor([[np.nan, 0.01, 0.05, 0.5]], requires_grad=True)
    with Tape() as tape:
        out = ad.clamp_min(x, 0.05)
        loss = ad.sum_all(ad.mul(out, Tensor([[1.0, 2.0, 3.0, 4.0]])))
    assert np.isnan(out.data[0, 0])
    assert out.data[0, 1:].tolist() == [0.05, 0.05, 0.5]
    tape.backward(loss)
    assert x.grad[0, 1:].tolist() == [0.0, 0.0, 4.0]


def test_film_debias_values_and_rows():
    def param(a):
        return Tensor(a, requires_grad=True)

    x = param([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    nets = [(param(np.eye(2)), param([[1.0, 1.0]])),
            (param(2 * np.eye(2)), param([[0.0, 0.0]])),
            (param(np.ones((2, 2))), param([[9.0, 9.0]]))]
    # Zero modulation: the routed net outputs alone, a -1 row is zero.
    scale, shift = param(np.zeros((1, 2))), param(np.zeros((1, 2)))
    inv = np.zeros(3, dtype=np.int64)
    with Tape() as tape:
        out = ad.film_debias(x, np.array([1, -1, 0]), nets, scale, shift, inv)
        loss = ad.sum_all(out)
    assert out.data.tolist() == [[2.0, 4.0], [0.0, 0.0], [6.0, 7.0]]
    tape.backward(loss)
    assert x.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]
    assert nets[0][0].grad.tolist() == [[5.0, 5.0], [6.0, 6.0]]
    assert nets[1][1].grad.tolist() == [[1.0, 1.0]]
    assert np.array_equal(nets[2][0].grad, np.zeros((2, 2)))  # no rows routed to it
    assert np.array_equal(nets[2][1].grad, np.zeros((1, 2)))
    assert scale.grad.tolist() == [[8.0, 11.0]]  # sum of the net outputs
    assert shift.grad.tolist() == [[3.0, 3.0]]  # one per row, the -1 row too

    # Two unique degrees: rows 0 and 2 share row 0 of scale/shift.
    x.grad = None
    scale, shift = param([[1.0, 0.0], [2.0, 2.0]]), param([[0.5, -0.5], [1.0, 1.0]])
    inv = np.array([0, 1, 0])
    with Tape() as tape:
        out = ad.film_debias(x, np.array([1, -1, 0]), nets, scale, shift, inv)
        loss = ad.sum_all(out)
    assert out.data.tolist() == [[4.5, 3.5], [1.0, 1.0], [12.5, 6.5]]
    tape.backward(loss)
    assert x.grad.tolist() == [[4.0, 2.0], [0.0, 0.0], [2.0, 1.0]]
    assert scale.grad.tolist() == [[8.0, 11.0], [0.0, 0.0]]
    assert shift.grad.tolist() == [[2.0, 2.0], [1.0, 1.0]]

    for route, inv in (([0, 3, 0], [0, 0, 0]), ([0, 1], [0, 0]),
                       ([0, 1, 0], [0, 2, 0]), ([0, 1, 0], [0, -1, 0])):
        with pytest.raises(ValueError):
            ad.film_debias(x, np.array(route), nets, scale, shift, np.array(inv))
    with pytest.raises(ValueError):
        ad.film_debias(x, np.zeros(3, dtype=int), nets, scale, param(np.zeros((2, 3))),
                       np.zeros(3, dtype=int))


def film_debias_oracle(x, route, nets, scale_u, shift_u, inv):
    """Row by row: (scale_u[d] + 1) * (x[i] @ w + b) + shift_u[d]."""
    out = np.zeros((x.shape[0], scale_u.shape[1]))
    for i in range(x.shape[0]):
        d = inv[i]
        raw = 0.0
        if route[i] >= 0:
            w, b = nets[route[i]]
            raw = x[i] @ w + b[0]
        out[i] = (scale_u[d] + 1.0) * raw + shift_u[d]
    return out


@st.composite
def film_debias_cases(draw):
    n = draw(st.integers(0, 7))
    d_in, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    num_nets = draw(st.integers(1, 3))
    unique = draw(st.integers(1, 4))
    # Routes may leave a net without rows or put every row at -1; degree
    # rows may repeat or all be one.
    route = draw(st.lists(st.integers(-1, num_nets - 1), min_size=n, max_size=n))
    inv = draw(st.lists(st.integers(0, unique - 1), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, d_in, width, num_nets, unique, np.array(route, dtype=np.int64), \
        np.array(inv, dtype=np.int64), seed


@settings(max_examples=60, deadline=None)
@given(film_debias_cases())
def test_film_debias_property_matches_dense_oracle_and_fd(case):
    n, d_in, width, num_nets, unique, route, inv, seed = case
    rng = np.random.default_rng(seed)
    x = tensor(rng, n, d_in) if n else Tensor(np.zeros((0, d_in)), requires_grad=True)
    nets = [(tensor(rng, d_in, width), tensor(rng, 1, width)) for _ in range(num_nets)]
    scale_u, shift_u = tensor(rng, unique, width), tensor(rng, unique, width)
    cot = Tensor(rng.standard_normal((n, width)))

    out = ad.film_debias(x, route, nets, scale_u, shift_u, inv)
    expected = film_debias_oracle(
        x.data, route, [(w.data, b.data) for w, b in nets], scale_u.data,
        shift_u.data, inv,
    )
    assert out.shape == (n, width)
    assert np.allclose(out.data, expected, rtol=1e-12, atol=1e-12)
    assert np.array_equal(out.data[route == -1], shift_u.data[inv[route == -1]])

    def program():
        return ad.sum_all(ad.mul(ad.film_debias(x, route, nets, scale_u, shift_u, inv), cot))

    params = [scale_u, shift_u] + [t for net in nets for t in net] + ([x] if n else [])
    assert ad.fd_check(program, params, rng=rng) < 1e-6
    # Unique-degree rows no node uses get a zero adjoint.
    unused = np.setdiff1d(np.arange(unique), inv)
    assert np.array_equal(scale_u.grad[unused], np.zeros((unused.size, width)))
    assert np.array_equal(shift_u.grad[unused], np.zeros((unused.size, width)))


@st.composite
def edge_matmul_cases(draw):
    rows, cols, width = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(1, 4))
    # Density 0 gives nnz = 0; lower densities leave rows with no entries.
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return rows, cols, width, density, seed


@settings(max_examples=60, deadline=None)
@given(edge_matmul_cases())
def test_edge_matmul_property_matches_dense_oracle_and_fd(case):
    from scipy import sparse

    rows, cols, width, density, seed = case
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < density
    op = _pattern_operator(mask)
    values = tensor(rng, op.fwd.nnz, 1)
    x = tensor(rng, cols, width)
    cot = rng.standard_normal((rows, width))
    dense = np.zeros((rows, cols))
    row_ids = np.repeat(np.arange(rows), np.diff(op.fwd.indptr))
    dense[row_ids, op.fwd.indices] = values.data[:, 0]

    def program():
        return ad.sum_all(ad.mul(ad.edge_matmul(values, op, x), Tensor(cot)))

    out = ad.edge_matmul(values, op, x)
    assert out.shape == (rows, width)
    assert np.allclose(out.data, dense @ x.data, rtol=0.0, atol=1e-12)
    with Tape() as tape:
        loss = program()
    tape.backward(loss)
    assert np.array_equal(x.grad, sparse.csr_matrix(dense).T @ cot)
    assert np.allclose(values.grad[:, 0], (cot @ x.data.T)[row_ids, op.fwd.indices],
                       rtol=0.0, atol=1e-12)
    assert ad.fd_check(program, [values, x], rng=rng) < 1e-6


def test_edge_matmul_rejects_bad_values_and_shapes():
    op = _pattern_operator(np.array([[True, False], [True, True]]))
    x = Tensor(np.ones((2, 3)))
    assert ad.edge_matmul(Tensor([[1.0], [2.0], [3.0]]), op, x).data.tolist() == \
        [[1.0] * 3, [5.0] * 3]
    with pytest.raises(ValueError):
        ad.edge_matmul(Tensor([[1.0], [2.0]]), op, x)
    with pytest.raises(ValueError):
        ad.edge_matmul(Tensor([[1.0], [2.0], [3.0]]), op, Tensor(np.ones((3, 3))))


# ----------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(w)
    tape.backward(loss)
    assert np.array_equal(w.grad, np.ones((2, 2)))


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
        out = ad.scalar_mul(w, 2.0)
    with pytest.raises(ValueError):
        tape.backward(out)


def test_backward_twice_is_an_error():
    w = Tensor(np.ones((1, 1)), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(w)
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_backward_is_linear():
    rng = np.random.default_rng(3)
    w = tensor(rng, 3, 3)
    x = Tensor(rng.standard_normal((3, 3)))

    def grad_of(a, b):
        w.grad = None
        with Tape() as tape:
            f = ad.sq_norm(ad.matmul(x, w))
            g = ad.sum_all(ad.mul(w, w))
            loss = ad.add(ad.scalar_mul(f, a), ad.scalar_mul(g, b))
        tape.backward(loss)
        return w.grad.copy()

    ga = grad_of(1.0, 0.0)
    gb = grad_of(0.0, 1.0)
    combined = grad_of(2.5, -1.5)
    assert np.all(np.abs(combined - (2.5 * ga - 1.5 * gb)) < 1e-10)


def test_no_tape_means_no_tracking():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    out = ad.sum_all(w)
    assert not out.requires_grad
    assert w.grad is None


def test_no_grad_records_nothing_inside_a_tape():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        ad.sum_all(w)
        recorded = len(tape)
        with ad.no_grad():
            out = ad.sum_all(ad.sq_norm(w))
            with ad.no_grad():
                ad.sum_all(w)
            ad.sum_all(w)
            assert len(tape) == recorded
            assert not out.requires_grad
        loss = ad.sum_all(w)
        assert len(tape) == recorded + 1
    tape.backward(loss)
    assert np.array_equal(w.grad, np.ones((2, 2)))


def test_no_grad_restores_the_stack_and_allows_an_inner_tape():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as outer:
        with ad.no_grad():
            with Tape() as inner:
                ad.sum_all(w)
            assert len(inner) == 1
            with pytest.raises(KeyError):
                with ad.no_grad():
                    raise KeyError("leaves the region")
            ad.sum_all(w)
        ad.sum_all(w)
    assert len(outer) == 1
    assert not ad.sum_all(w).requires_grad  # no tape left active


# ------------------------------------------------------- per-op adjoint sweep


def _random_csr(rng, rows, cols):
    from scipy import sparse

    mat = sparse.random(rows, cols, density=0.4, random_state=np.random.RandomState(7))
    return ad.FixedSparse(mat)


def _pattern_operator(mask):
    from scipy import sparse

    return ad.FixedSparse(sparse.csr_matrix(mask.astype(np.float64)))


def op_programs(rng):
    """One scalar program per op, built on fresh random tensors."""
    n, d, k = int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(2, 7))
    a = tensor(rng, n, d)
    b = tensor(rng, d, k)
    c = tensor(rng, n, d)
    bias = tensor(rng, 1, d)
    col = tensor(rng, n, 1)
    pos = tensor(rng, n, d, positive=True)
    kinky = tensor(rng, n, d, avoid_kinks=True)
    cot = Tensor(rng.standard_normal((n, d)))  # fixed cotangent
    cot_k = Tensor(rng.standard_normal((n, k)))
    idx = rng.integers(0, n, size=n + 2)
    smax_cot = Tensor(rng.standard_normal((n, 1)))
    sp = _random_csr(rng, n + 1, n)
    sp_cot = Tensor(rng.standard_normal((n + 1, d)))
    # Learned entries on a random pattern whose row 0 is empty.
    mask = rng.random((n + 1, n)) < 0.5
    mask[0] = False
    edge_op = _pattern_operator(mask)
    edge_vals = tensor(rng, edge_op.fwd.nnz, 1)
    gathered_cot = Tensor(rng.standard_normal((idx.size, d)))
    mean_cot = Tensor(rng.standard_normal((1, d)))
    bias_k = tensor(rng, 1, k)
    # Rows 0-2 go to net 0, net 1 and nowhere; net 2 gets no rows at all.
    # Rows 0 and 3 share a degree row; degree row 3 is used by no row.
    route = np.concatenate([[0, 1, -1], rng.integers(-1, 2, size=n)])
    inv = np.concatenate([[0, 1, 2, 0], rng.integers(0, 3, size=n - 1)])
    routed_x = tensor(rng, n + 3, d)
    routed_nets = [(tensor(rng, d, k), tensor(rng, 1, k)) for _ in range(3)]
    scale_u, shift_u = tensor(rng, 4, k), tensor(rng, 4, k)
    routed_cot = Tensor(rng.standard_normal((n + 3, k)))

    def through(out, co):
        return ad.sum_all(ad.mul(out, co))

    return {
        "matmul": (lambda: through(ad.matmul(a, b), cot_k), [a, b]),
        "add": (lambda: through(ad.add(a, c), cot), [a, c]),
        "add_bias": (lambda: through(ad.add(a, bias), cot), [a, bias]),
        "sub": (lambda: through(ad.sub(a, c), cot), [a, c]),
        "mul": (lambda: through(ad.mul(a, c), cot), [a, c]),
        "scalar_mul": (lambda: through(ad.scalar_mul(a, -1.7), cot), [a]),
        "relu": (lambda: through(ad.relu(kinky), cot), [kinky]),
        "leaky_relu": (lambda: through(ad.leaky_relu(kinky), cot), [kinky]),
        "softmax_rows": (lambda: through(ad.softmax_rows(a), cot), [a]),
        "log": (lambda: through(ad.log(pos), cot), [pos]),
        "clamp_min": (lambda: through(ad.clamp_min(kinky, 0.05), cot), [kinky]),
        "sum_all": (lambda: ad.scalar_mul(ad.sum_all(a), 1.3), [a]),
        "mean_rows": (lambda: through(ad.mean_rows(a), mean_cot), [a]),
        "sq_norm": (lambda: ad.sq_norm(a), [a]),
        "gather_rows": (lambda: through(ad.gather_rows(a, idx), gathered_cot), [a]),
        "edge_matmul": (
            lambda: through(ad.edge_matmul(edge_vals, edge_op, a), sp_cot),
            [edge_vals, a],
        ),
        "segment_softmax": (
            lambda: through(ad.segment_softmax(col, np.array([0, 1, n])), smax_cot),
            [col],
        ),
        "sparse_matmul": (lambda: through(ad.sparse_matmul(sp, a), sp_cot), [a]),
        "affine": (lambda: through(ad.affine(a, b, Tensor(np.zeros((1, k)))
                                             if not bias_k.requires_grad else bias_k),
                                   cot_k), [a, b, bias_k]),
        "add_scaled": (lambda: through(ad.add_scaled(a, c, -0.7), cot), [a, c]),
        "film_debias": (
            lambda: through(
                ad.film_debias(routed_x, route, routed_nets, scale_u, shift_u, inv),
                routed_cot,
            ),
            [routed_x, scale_u, shift_u] + [t for net in routed_nets for t in net],
        ),
        "dropout": (
            lambda: through(
                ad.dropout(a, 0.4, True, np.random.default_rng(123)), cot
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
        loss = ad.sum_all(ad.mul(ad.sparse_matmul(op, x), Tensor(cot)))
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
    out = ad.dropout(x, 0.0, True, np.random.default_rng(1))
    assert out is x


def test_dropout_identity_in_eval():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 4)))
    out = ad.dropout(x, 0.9, False, np.random.default_rng(1))
    assert out is x
    assert np.array_equal(out.data, x.data)


def test_dropout_scales_survivors():
    x = Tensor(np.ones((20, 20)))
    out = ad.dropout(x, 0.5, True, np.random.default_rng(7))
    vals = np.unique(out.data)
    assert set(vals.tolist()) == {0.0, 2.0}


def test_dropout_rejects_bad_rate():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.dropout(x, 1.0, True, np.random.default_rng(0))


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
