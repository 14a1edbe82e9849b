import ast
import inspect
import itertools
import math
import weakref
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from petl_lab import NonFiniteError, ShapeError, StaleGraphError, Tensor
from petl_lab import tensor as T

from conftest import broadcast_to, transpose


def numeric_grad(f, tensors, eps=1e-5):
    """Central differences of a scalar-valued builder over leaf tensors."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f().item()
            flat[i] = orig - eps
            down = f().item()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


def check_op_grads(f, tensors, eps=1e-5, tol=1e-4):
    """Spec formula: max |analytic - numeric| / max(1e-8, |numeric|) < tol."""
    for t in tensors:
        t.zero_grad()
    loss = f()
    loss.backward()
    numeric = numeric_grad(f, tensors, eps=eps)
    worst = 0.0
    for t, num in zip(tensors, numeric):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        err = np.abs(analytic - num) / np.maximum(1e-8, np.abs(num))
        worst = max(worst, err.max())
    assert worst < tol, f"gradient mismatch: {worst:.3e}"


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    out = T.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])


def test_matmul_hand_case():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_matches_triple_loop(rng):
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    expected = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                expected[i, j] += a[i, k] * b[k, j]
    out = T.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_matmul_batched_broadcast(rng):
    a = rng.normal(size=(3, 2, 4))
    b = rng.normal(size=(4, 5))
    out = T.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, a @ b, atol=1e-14)


# -- softmax and GELU as graph ops ---------------------------------------------


def softmax(t, axis=-1):
    """The softmax kernel :func:`T.attention` runs, as a graph op of its own."""
    y = T._softmax(t.data, axis)
    node = t._node

    def backward_fn(g):
        node._accum_grad(T._softmax_backward(g, y, axis))

    return T._make_op(y, (t,), backward_fn, "softmax")


def gelu(t):
    """The GELU kernel :func:`T.mlp` runs, as a graph op of its own."""
    x = t.data
    data, cdf = T._gelu(x)
    node = t._node

    def backward_fn(g):
        node._accum_grad(g * T._gelu_derivative(x, cdf))

    return T._make_op(data, (t,), backward_fn, "gelu")


# -- softmax ------------------------------------------------------------------


def test_softmax_symmetry():
    out = T._softmax(np.zeros(3), -1)
    np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)


def test_softmax_no_overflow():
    out = T._softmax(np.array([1000.0, 0.0]), -1)
    assert abs(out[0] - 1.0) < 1e-12
    assert abs(out[1]) < 1e-12


def test_softmax_matches_high_precision_oracle():
    # Frozen input; oracle is exp/sum at 50 significant digits.
    vals = [0.31, -1.7, 2.45, 0.02, -0.9, 1.13]
    with mp.workdps(50):
        exps = [mp.exp(mp.mpf(repr(v))) for v in vals]
        total = mp.fsum(exps)
        expected = [float(e / total) for e in exps]
    out = T._softmax(np.array(vals), -1)
    np.testing.assert_allclose(out, expected, rtol=1e-14, atol=0)


def test_softmax_rows_sum_to_one(rng):
    for _ in range(20):
        shape = tuple(rng.integers(1, 6, size=int(rng.integers(1, 4))))
        axis = int(rng.integers(0, len(shape)))
        x = rng.normal(scale=5.0, size=shape)
        out = T._softmax(x, axis)
        np.testing.assert_allclose(out.sum(axis=axis), 1.0, atol=1e-12)
        assert (out >= 0).all()


# -- layer norm ---------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    out = T.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), Tensor(np.ones(4)),
                       Tensor(np.zeros(4)), eps=1e-5)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized():
    out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                       eps=1e-12)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_statistics(rng):
    x = rng.normal(loc=2.0, scale=3.0, size=(1, 64))
    out = T.layer_norm(Tensor(x), Tensor(np.ones(64)), Tensor(np.zeros(64)), eps=1e-8)
    assert abs(out.data.mean()) < 1e-12
    assert abs(out.data.var() - 1.0) < 1e-6


def test_layer_norm_affine_shape_error():
    with pytest.raises(ShapeError):
        T.layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(4)))


# -- activations --------------------------------------------------------------


def test_relu_values():
    out = T.relu(Tensor([-1.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 2.0])


def test_tanh_values(rng):
    assert T.tanh(Tensor([0.0])).data[0] == 0.0
    # float64 rounds tanh to exactly +-1 beyond |x| ~ 19; stay below that
    out = T.tanh(Tensor(np.clip(rng.normal(scale=5, size=100), -15, 15)))
    assert np.all(out.data > -1.0) and np.all(out.data < 1.0)
    odd = T.tanh(Tensor([-1.3])).data[0] + T.tanh(Tensor([1.3])).data[0]
    assert abs(odd) < 1e-15


def test_gelu_matches_high_precision_oracle():
    vals = [-2.3, -0.7, -0.05, 0.0, 0.4, 1.9, 3.3]
    with mp.workdps(50):
        expected = [float(mp.mpf(repr(v)) * mp.ncdf(mp.mpf(repr(v)))) for v in vals]
    out, _ = T._gelu(np.array(vals))
    np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-16)


# -- backward ----------------------------------------------------------------


def test_backward_sum_gives_ones(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    T.tsum(x).backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_half_square_gives_x(rng):
    data = rng.normal(size=7)
    x = Tensor(data, requires_grad=True)
    T.mul(T.tsum(T.mul(x, x)), 0.5).backward()
    np.testing.assert_allclose(x.grad, data, atol=1e-15)


def test_backward_composed_model_vs_finite_differences(rng):
    w1 = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b1 = Tensor(rng.normal(size=4), requires_grad=True)
    w2 = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    g = Tensor(np.ones(4), requires_grad=True)
    be = Tensor(np.zeros(4), requires_grad=True)
    x = Tensor(rng.normal(size=(3, 5)))

    def f():
        h = T.layer_norm(T.add(T.matmul(x, w1), b1), g, be, eps=1e-5)
        h = gelu(h)
        out = softmax(T.matmul(h, w2), axis=-1)
        return T.tsum(T.mul(out, out))

    check_op_grads(f, [w1, b1, w2, g, be])


@pytest.mark.parametrize("case", [
    "add", "add_broadcast", "mul", "mul_broadcast", "matmul",
    "matmul_batched", "reshape", "transpose", "concat", "gather", "sum_axis",
    "mean", "softmax", "log_softmax", "layer_norm", "relu", "gelu", "tanh",
    "broadcast_to", "gather_axis", "transpose_negative", "linear", "attention", "mlp",
])
def test_per_op_gradients(case, rng):
    # random small shapes (<= 64 elements per operand)
    a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    row = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    m = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    batched = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    m2 = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    gamma = Tensor(rng.normal(size=6) + 2.0, requires_grad=True)
    beta = Tensor(rng.normal(size=6), requires_grad=True)
    pos = Tensor(np.abs(rng.normal(size=(4, 6))) + 0.2, requires_grad=True)
    sign = rng.choice([-1.0, 1.0], size=(4, 6))
    weight = Tensor(rng.normal(size=(4, 6)) + 0.1 * sign)
    idx = rng.integers(0, 4, size=5)
    window_idx = np.array([[2, 0], [2, 1], [0, 0]])  # a (G, n) index with repeats
    # drawn after every other operand, so the older cases keep their values
    cube = Tensor(rng.normal(size=(3, 3, 3)), requires_grad=True)
    cube_weight = Tensor(rng.normal(size=(3, 3, 3)))
    bias = Tensor(rng.normal(size=2), requires_grad=True)
    keys = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    values = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    att_bias = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)  # (n, m, heads)
    w1 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b1 = Tensor(rng.normal(size=5), requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    b2 = Tensor(rng.normal(size=2), requires_grad=True)

    cases = {
        "add": (lambda: T.tsum(T.mul(T.add(a, b), T.add(a, b))), [a, b]),
        "add_broadcast": (lambda: T.tsum(T.mul(T.add(a, row), T.add(a, row))), [a, row]),
        "mul": (lambda: T.tsum(T.mul(T.mul(a, b), b)), [a, b]),
        "mul_broadcast": (lambda: T.tsum(T.mul(T.mul(a, row), a)), [a, row]),
        "matmul": (lambda: T.tsum(T.mul(T.matmul(a, m), T.matmul(a, m))), [a, m]),
        "matmul_batched": (lambda: T.tsum(T.mul(T.matmul(batched, m2),
                                                T.matmul(batched, m2))), [batched, m2]),
        "reshape": (lambda: T.tsum(T.mul(T.reshape(a, (2, 12)), T.reshape(a, (2, 12)))), [a]),
        "transpose": (lambda: T.tsum(T.mul(transpose(a, (1, 0)), transpose(b, (1, 0)))),
                      [a, b]),
        "concat": (lambda: T.tsum(T.mul(T.concat([a, b], axis=0), T.concat([b, a], axis=0))),
                   [a, b]),
        "gather": (lambda: T.tsum(T.mul(T.gather_rows(a, idx), T.gather_rows(a, idx))), [a]),
        "sum_axis": (lambda: T.tsum(T.mul(T.tsum(a, axis=1), T.tsum(a, axis=1))), [a]),
        "mean": (lambda: T.tsum(T.mul(T.tmean(a, axis=0), T.tmean(a, axis=0))), [a]),
        "softmax": (lambda: T.tsum(T.mul(softmax(a, axis=-1), weight)), [a]),
        "log_softmax": (lambda: T.tsum(T.mul(T.log_softmax(a, axis=-1), weight)), [a]),
        "layer_norm": (lambda: T.tsum(T.mul(T.layer_norm(a, gamma, beta, 1e-5),
                                            weight)), [a, gamma, beta]),
        "relu": (lambda: T.tsum(T.mul(T.relu(T.mul(pos, Tensor(sign))), weight)), [pos]),
        "gelu": (lambda: T.tsum(T.mul(gelu(a), weight)), [a]),
        "tanh": (lambda: T.tsum(T.mul(T.tanh(a), weight)), [a]),
        "broadcast_to": (lambda: T.tsum(T.mul(broadcast_to(row, (2, 4, 6)),
                                              broadcast_to(a, (2, 4, 6)))), [row, a]),
        "gather_axis": (lambda: T.tsum(T.mul(T.gather_rows(batched, window_idx, axis=-2),
                                             T.gather_rows(batched, window_idx, axis=-2))),
                        [batched]),
        "transpose_negative": (lambda: T.tsum(T.mul(transpose(cube, (-1, 0, 1)),
                                                    cube_weight)), [cube]),
        "linear": (lambda: T.tsum(T.mul(T.linear(batched, m2, bias),
                                        T.linear(batched, m2, bias))), [batched, m2, bias]),
        "attention": (lambda: T.tsum(T.mul(T.attention(batched, keys, values, att_bias, 2),
                                           batched)), [batched, keys, values, att_bias]),
        "mlp": (lambda: T.tsum(T.mul(T.mlp(batched, w1, b1, w2, b2),
                                     T.mlp(batched, w1, b1, w2, b2))),
                [batched, w1, b1, w2, b2]),
    }
    f, leaves = cases[case]
    check_op_grads(f, leaves)


# -- property: gradients against central differences on random shapes ---------


def assert_grads_match_central_differences(f, leaves):
    """Backward of the scalar builder ``f`` equals its central differences."""
    loss = f()
    loss.backward()
    for leaf, numeric in zip(leaves, numeric_grad(f, leaves)):
        analytic = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad
        assert isinstance(analytic, np.ndarray) and analytic.shape == leaf.shape
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


def leaf(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def weighted_sum(build, rng):
    """A scalar builder that every entry of ``build()`` reaches with its own fixed weight."""
    weight = Tensor(rng.normal(size=build().shape))
    return lambda: T.tsum(T.mul(build(), weight))


SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def broadcast_source(draw, target):
    """A shape that broadcasts to ``target`` without enlarging it: some of its
    trailing axes, each kept or set to 1."""
    rank = draw(st.integers(0, len(target)))
    return tuple(draw(st.sampled_from((1, n))) for n in target[len(target) - rank:])


@settings(max_examples=60, deadline=None)
@given(op=st.sampled_from(("add", "mul")),
       shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3,
                                                min_side=1, max_side=3),
       seed=SEEDS)
def test_broadcasting_binary_op_gradients_property(op, shapes, seed):
    rng = np.random.default_rng(seed)
    a, b = (leaf(rng, shape) for shape in shapes.input_shapes)
    weight = Tensor(rng.normal(size=shapes.result_shape))
    f = lambda: T.tsum(T.mul(getattr(T, op)(a, b), weight))
    assert_grads_match_central_differences(f, [a, b])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), lead=hnp.array_shapes(min_dims=0, max_dims=1, min_side=1, max_side=3),
       n=st.integers(1, 3), d_in=st.integers(1, 3), d_out=st.integers(1, 3), seed=SEEDS)
def test_linear_gradients_property(data, lead, n, d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    bias_shape = data.draw(broadcast_source((*lead, n, d_out)), label="bias")
    x, w, b = leaf(rng, (*lead, n, d_in)), leaf(rng, (d_in, d_out)), leaf(rng, bias_shape)
    weight = Tensor(rng.normal(size=(*lead, n, d_out)))
    assert_grads_match_central_differences(
        lambda: T.tsum(T.mul(T.linear(x, w, b), weight)), [x, w, b])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), target=SHAPES, seed=SEEDS)
def test_broadcast_to_gradients_property(data, target, seed):
    rng = np.random.default_rng(seed)
    source = leaf(rng, data.draw(broadcast_source(target), label="source"))
    weight = Tensor(rng.normal(size=target))
    assert_grads_match_central_differences(
        lambda: T.tsum(T.mul(broadcast_to(source, target), weight)), [source])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), op=st.sampled_from(("tsum", "tmean", "softmax", "concat")),
       shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3), seed=SEEDS)
def test_axis_op_gradients_on_negative_axes_property(data, op, shape, seed):
    rng = np.random.default_rng(seed)
    axis = data.draw(st.integers(-len(shape), -1), label="axis")
    x = leaf(rng, shape)
    leaves = [x]
    if op == "softmax":
        build = lambda: softmax(x, axis=axis)
    elif op == "concat":
        other = list(shape)
        other[axis] = data.draw(st.integers(1, 3), label="other extent")
        y = leaf(rng, other)
        leaves.append(y)
        build = lambda: T.concat([x, y], axis=axis)
    else:
        keepdims = data.draw(st.booleans(), label="keepdims")
        build = lambda: getattr(T, op)(x, axis=axis, keepdims=keepdims)
    weight = Tensor(rng.normal(size=build().shape))
    assert_grads_match_central_differences(lambda: T.tsum(T.mul(build(), weight)), leaves)


@settings(max_examples=40, deadline=None)
@given(leads=hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=2,
                                               min_side=1, max_side=3),
       n=st.integers(1, 3), k=st.integers(1, 3), m=st.integers(1, 3), seed=SEEDS)
def test_matmul_gradients_on_broadcast_leads_property(leads, n, k, m, seed):
    rng = np.random.default_rng(seed)
    lead_a, lead_b = leads.input_shapes
    a, b = leaf(rng, (*lead_a, n, k)), leaf(rng, (*lead_b, k, m))
    assert_grads_match_central_differences(weighted_sum(lambda: T.matmul(a, b), rng), [a, b])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=3),
       seed=SEEDS)
def test_transpose_gradients_on_random_permutations_property(data, shape, seed):
    rng = np.random.default_rng(seed)
    ndim = len(shape)
    perm = data.draw(st.permutations(range(ndim)), label="permutation")
    axes = [a - ndim if data.draw(st.booleans(), label="negative") else a for a in perm]
    x = leaf(rng, shape)
    assert_grads_match_central_differences(
        weighted_sum(lambda: transpose(x, axes), rng), [x])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3),
       seed=SEEDS)
def test_gather_rows_gradients_on_repeated_indices_property(data, shape, seed):
    rng = np.random.default_rng(seed)
    axis = data.draw(st.integers(-len(shape), len(shape) - 1), label="axis")
    n = shape[axis]
    rows = data.draw(st.lists(st.integers(-n, n - 1), min_size=1, max_size=4), label="rows")
    index = np.array(rows + rows[:1])  # the first row twice, maybe under both signs
    if len(index) % 2 == 0 and data.draw(st.booleans(), label="2-d index"):
        index = index.reshape(2, -1)
    x = leaf(rng, shape)
    assert_grads_match_central_differences(
        weighted_sum(lambda: T.gather_rows(x, index, axis=axis), rng), [x])


@settings(max_examples=40, deadline=None)
@given(shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4), seed=SEEDS)
def test_layer_norm_gradients_property(shape, seed):
    rng = np.random.default_rng(seed)
    x, gamma, beta = leaf(rng, shape), leaf(rng, shape[-1:]), leaf(rng, shape[-1:])
    assert_grads_match_central_differences(
        weighted_sum(lambda: T.layer_norm(x, gamma, beta, 1e-5), rng), [x, gamma, beta])


@settings(max_examples=30, deadline=None)
@given(shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3),
       data=st.data(), seed=SEEDS)
def test_reshape_gradients_property(shape, data, seed):
    rng = np.random.default_rng(seed)
    target = (*data.draw(st.permutations(shape), label="target"),
              *data.draw(st.lists(st.just(1), max_size=1), label="unit axis"))
    x = leaf(rng, shape)
    assert_grads_match_central_differences(weighted_sum(lambda: T.reshape(x, target), rng), [x])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
       seed=SEEDS)
def test_log_softmax_gradients_property(data, shape, seed):
    rng = np.random.default_rng(seed)
    axis = data.draw(st.integers(-len(shape), len(shape) - 1), label="axis")
    x = leaf(rng, shape)
    assert_grads_match_central_differences(
        weighted_sum(lambda: T.log_softmax(x, axis=axis), rng), [x])


@settings(max_examples=30, deadline=None)
@given(op=st.sampled_from(("relu", "tanh")), shape=SHAPES, seed=SEEDS)
def test_relu_and_tanh_gradients_property(op, shape, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=shape)
    # at least 0.1 from relu's kink, far beyond the central-difference step
    x = Tensor(np.sign(u) * (0.1 + np.abs(u)) + (u == 0), requires_grad=True)
    assert_grads_match_central_differences(weighted_sum(lambda: getattr(T, op)(x), rng), [x])


@settings(max_examples=25, deadline=None)
@given(data=st.data(), lead=hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=2),
       n=st.integers(1, 3), m=st.integers(1, 3), heads=st.integers(1, 2),
       hd=st.integers(1, 2), r=st.integers(0, 2), seed=SEEDS)
def test_attention_gradients_property(data, lead, n, m, heads, hd, r, seed):
    rng = np.random.default_rng(seed)
    d = heads * hd
    q, k, v = leaf(rng, (*lead, n, d)), leaf(rng, (*lead, m, d)), leaf(rng, (*lead, m, d))
    leaves = [q, k, v]
    bias = extra_k = extra_v = None
    if data.draw(st.booleans(), label="bias"):
        shape = data.draw(broadcast_source((*lead, n, m, heads)), label="bias shape")
        bias = leaf(rng, (1,) * (3 - len(shape)) + shape)  # the table layout's three axes
        leaves.append(bias)
    if r:
        extra_k, extra_v = leaf(rng, (r, d)), leaf(rng, (r, d))
        leaves += [extra_k, extra_v]
    assert_grads_match_central_differences(
        weighted_sum(lambda: T.attention(q, k, v, bias, heads, extra_k, extra_v), rng), leaves)


@settings(max_examples=25, deadline=None)
@given(lead=hnp.array_shapes(min_dims=0, max_dims=1, min_side=1, max_side=3),
       n=st.integers(1, 3), d_in=st.integers(1, 3), hidden=st.integers(1, 4),
       d_out=st.integers(1, 3), seed=SEEDS)
def test_mlp_gradients_property(lead, n, d_in, hidden, d_out, seed):
    rng = np.random.default_rng(seed)
    leaves = [leaf(rng, s) for s in ((*lead, n, d_in), (d_in, hidden), (hidden,),
                                     (hidden, d_out), (d_out,))]
    assert_grads_match_central_differences(weighted_sum(lambda: T.mlp(*leaves), rng), leaves)


def test_gather_rows_validates_and_wraps_indices(rng):
    x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    for bad in [[0, 4], [-5, 1], [1.7], [True, False, True, False],
                np.array([2**64 - 1], dtype=np.uint64), np.array([4], dtype=np.uint8)]:
        with pytest.raises(ShapeError):
            T.gather_rows(x, bad, axis=1)
    unsigned = T.gather_rows(x, np.array([3, 0, 3], dtype=np.uint16), axis=1)
    assert np.array_equal(unsigned.data, T.gather_rows(x, np.array([3, 0, 3]), axis=1).data)
    # -1 and 3 name the same row: it repeats, so its gradients must add
    index = [-1, 3, 0]
    y = T.gather_rows(x, index, axis=1)
    assert np.array_equal(y.data, np.take(x.data, index, axis=1))
    w = rng.normal(size=y.shape)
    T.tsum(T.mul(y, Tensor(w))).backward()
    expected = np.zeros_like(x.data)
    np.add.at(expected, (slice(None), [3, 3, 0]), w)
    assert np.array_equal(x.grad, expected)


@pytest.mark.parametrize("w_grad,b_grad", list(itertools.product([True, False], repeat=2)))
def test_linear_equals_add_of_matmul_bitwise(w_grad, b_grad, rng):
    x0, w0, b0 = rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(4, 6)), rng.normal(size=6)
    weight = Tensor(rng.normal(size=(2, 3, 5, 6)))
    routes = []
    for op in (lambda x, w, b: T.linear(x, w, b),
               lambda x, w, b: T.add(T.matmul(x, w), b)):  # the two-op reference
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=w_grad)
        b = Tensor(b0, requires_grad=b_grad)
        out = op(x, w, b)
        T.tsum(T.mul(out, weight)).backward()
        routes.append([out.data] + [t.grad for t in (x, w, b)])
    for fused, reference in zip(*routes):
        if reference is None:
            assert fused is None
        else:
            assert fused.tobytes() == reference.tobytes()


def test_linear_rejects_bad_shapes():
    x, w = Tensor(np.zeros((5, 4))), Tensor(np.zeros((4, 6)))
    for bad_x, bad_w, bad_b in [(x, Tensor(np.zeros((3, 6))), np.zeros(6)),
                                (x, w, np.zeros(5)),          # does not broadcast
                                (x, w, np.zeros((2, 5, 6)))]:  # would enlarge the output
        with pytest.raises(ShapeError):
            T.linear(bad_x, bad_w, Tensor(bad_b))


# -- fused attention and MLP ----------------------------------------------------


def attention_op_by_op(q, k, v, bias, heads, extra_k=None, extra_v=None):
    """The op-by-op graph :func:`T.attention` replaces."""
    *lead, n, d = q.shape
    r = 0 if extra_k is None else extra_k.shape[0]
    if r:
        k = T.concat([broadcast_to(extra_k, (*lead, r, d)), k], axis=-2)
        v = T.concat([broadcast_to(extra_v, (*lead, r, d)), v], axis=-2)
    m, hd, b = k.shape[-2], d // heads, len(lead)
    heads_first = (*range(b), b + 1, b, b + 2)
    qh = transpose(T.reshape(q, (*lead, n, heads, hd)), heads_first)
    kh = transpose(T.reshape(k, (*lead, m, heads, hd)), (*range(b), b + 1, b + 2, b))
    vh = transpose(T.reshape(v, (*lead, m, heads, hd)), heads_first)
    logits = T.mul(T.matmul(qh, kh), 1.0 / math.sqrt(hd))
    if bias is not None:
        c = bias.data.ndim  # the table layout (..., n, m, heads) to (..., heads, n, m)
        bias = transpose(bias, (*range(c - 3), c - 1, c - 3, c - 2))
        if r:  # the shared rows get no bias
            bias = T.concat([Tensor(np.zeros((*bias.shape[:-1], r))), bias], axis=-1)
        logits = T.add(logits, bias)
    out = T.matmul(softmax(logits, axis=-1), vh)
    return T.reshape(transpose(out, heads_first), (*lead, n, d))


def mlp_op_by_op(x, w1, b1, w2, b2):
    """The op-by-op graph :func:`T.mlp` replaces."""
    return T.linear(gelu(T.linear(x, w1, b1)), w2, b2)


def assert_fused_equals_op_by_op_bitwise(fused, reference, arrays):
    """Output and every input gradient of ``fused`` equal ``reference``'s bit for
    bit, for every subset of tracked inputs (``None`` entries stay None)."""
    tracked_subsets = [flags for flags in itertools.product([True, False], repeat=len(arrays))
                       if any(flags)]
    for flags in tracked_subsets:
        routes = []
        for op in (fused, reference):
            inputs = [None if a is None else Tensor(a, requires_grad=f)
                      for a, f in zip(arrays, flags)]
            out = op(*inputs)
            weight = Tensor(np.random.default_rng(0).normal(size=out.shape))
            T.tsum(T.mul(out, weight)).backward()
            routes.append([out.data] + [None if t is None else t.grad for t in inputs])
        for fused_value, reference_value in zip(*routes):
            if reference_value is None:
                assert fused_value is None, flags
            else:
                assert fused_value.tobytes() == reference_value.tobytes(), flags


@pytest.mark.parametrize("lead,n,m,heads,bias_shape", [
    ((), 4, 4, 2, (4, 4, 2)),
    ((2, 3), 4, 4, 2, (3, 4, 4, 2)),   # (B, G) lead, one bias per window shared by clips
    ((3,), 4, 6, 2, (3, 4, 6, 2)),     # more keys than queries
    ((2, 3), 5, 7, 4, (3, 5, 7, 4)),
    ((2,), 4, 5, 1, None),             # no bias
])
def test_attention_equals_op_by_op_bitwise(lead, n, m, heads, bias_shape, rng):
    d = 8
    arrays = [rng.normal(size=(*lead, n, d)), rng.normal(size=(*lead, m, d)),
              rng.normal(size=(*lead, m, d))]
    if bias_shape is not None:
        arrays.append(rng.normal(size=bias_shape))
    ops = [lambda q, k, v, bias=None, op=op: op(q, k, v, bias, heads)
           for op in (T.attention, attention_op_by_op)]
    assert_fused_equals_op_by_op_bitwise(*ops, arrays)


@pytest.mark.parametrize("r", [1, 3])
def test_attention_with_shared_rows_equals_op_by_op_bitwise(r, rng):
    # a (B, G) lead, one table-layout bias per window shared by clips, and r
    # rows shared by every window: broadcast, concat and a zero bias pad
    lead, n, heads, d = (2, 3), 4, 2, 8
    arrays = [rng.normal(size=(*lead, n, d)), rng.normal(size=(*lead, n, d)),
              rng.normal(size=(*lead, n, d)), rng.normal(size=(3, n, n, heads)),
              rng.normal(size=(r, d)), rng.normal(size=(r, d))]
    ops = [lambda q, k, v, bias, extra_k, extra_v, op=op: op(q, k, v, bias, heads,
                                                             extra_k, extra_v)
           for op in (T.attention, attention_op_by_op)]
    assert_fused_equals_op_by_op_bitwise(*ops, arrays)


@pytest.mark.parametrize("lead", [(5,), (2, 3, 5)])
def test_mlp_equals_op_by_op_bitwise(lead, rng):
    arrays = [rng.normal(size=(*lead, 4)), rng.normal(size=(4, 16)), rng.normal(size=16),
              rng.normal(size=(16, 4)), rng.normal(size=4)]
    assert_fused_equals_op_by_op_bitwise(T.mlp, mlp_op_by_op, arrays)


def saved_arrays(out, inputs):
    """The arrays a node's backward rule holds that own their memory (not views)
    and are not the data of one of its ``inputs``."""
    return [c.cell_contents for c in out._node._backward_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.base is None
            and not any(c.cell_contents is t.data for t in inputs)]


def test_fused_ops_keep_only_what_backward_reads(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    frozen = [Tensor(rng.normal(size=s)) for s in ((4, 8), (8,), (8, 4), (4,))]
    kept = saved_arrays(T.mlp(x, *frozen), [x, *frozen])
    assert [a.shape for a in kept] == [(3, 8)]  # the GELU derivative alone
    with T.no_grad():
        assert T.mlp(x, *frozen)._node._backward_fn is None
    trained_w2 = Tensor(frozen[2].data, requires_grad=True)
    kept = saved_arrays(T.mlp(x, frozen[0], frozen[1], trained_w2, frozen[3]),
                        [x, *frozen, trained_w2])
    assert [a.shape for a in kept] == [(3, 8), (3, 8)]  # and the GELU output

    q = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=(3, 3, 2)))
    kept = saved_arrays(T.attention(q, q, q, bias, 2), [q, bias])
    assert [a.shape for a in kept] == [(2, 2, 3, 3)]  # the softmax alone; q, k, v as views


def kept_when_tracked(pairs):
    """The inputs the graph keeps: ``i`` for each pair ``(i, j)`` whose input ``j``
    is tracked."""
    return lambda tracked: {i for i, j in pairs if tracked[j]}


KEEPS_NOTHING = kept_when_tracked(())

# name -> (op over input tensors, input shapes, the inputs whose arrays the graph
# keeps given which inputs are tracked, whether it keeps the output array)
OP_CASES = {
    "add": (T.add, [(3, 4), (1, 4)], KEEPS_NOTHING, False),
    "mul": (T.mul, [(3, 4), (1, 4)], kept_when_tracked([(0, 1), (1, 0)]), False),
    "matmul": (T.matmul, [(2, 3, 4), (4, 5)], kept_when_tracked([(0, 1), (1, 0)]), False),
    "linear": (T.linear, [(3, 4), (4, 5), (5,)], kept_when_tracked([(0, 1), (1, 0)]),
               False),
    "reshape": (lambda x: T.reshape(x, (4, 3)), [(3, 4)], KEEPS_NOTHING, False),
    "concat": (lambda a, b: T.concat([a, b], axis=0), [(2, 3), (1, 3)], KEEPS_NOTHING, False),
    "gather_rows": (lambda x: T.gather_rows(x, [0, 2, 2]), [(4, 3)], KEEPS_NOTHING, False),
    "tsum": (lambda x: T.tsum(x, axis=1), [(3, 4)], KEEPS_NOTHING, False),
    "tmean": (lambda x: T.tmean(x, axis=0), [(3, 4)], KEEPS_NOTHING, False),
    "log_softmax": (T.log_softmax, [(3, 4)], KEEPS_NOTHING, False),
    "layer_norm": (T.layer_norm, [(3, 4), (4,), (4,)], kept_when_tracked([(1, 0)]), False),
    "relu": (T.relu, [(3, 4)], KEEPS_NOTHING, False),  # a boolean mask instead
    "tanh": (T.tanh, [(3, 4)], KEEPS_NOTHING, True),
    "mlp": (T.mlp, [(3, 4), (4, 6), (6,), (6, 2), (2,)],
            kept_when_tracked([(0, 1), (1, 0), (3, 0), (3, 1), (3, 2)]), False),
    "attention": (lambda q, k, v, bias: T.attention(q, k, v, bias, 2),
                  [(2, 3, 4), (2, 5, 4), (2, 5, 4), (3, 5, 2)],
                  kept_when_tracked([(0, 1), (1, 0), (2, 0), (2, 1), (2, 3)]), False),
    # with shared rows the keys and values are kept as their concatenation, a new array
    "attention_rows": (lambda q, k, v, bias, extra_k, extra_v:
                       T.attention(q, k, v, bias, 2, extra_k, extra_v),
                       [(2, 3, 4), (2, 5, 4), (2, 5, 4), (3, 5, 2), (2, 4), (2, 4)],
                       kept_when_tracked([(0, 1), (0, 4)]), False),
}


def tracked_patterns(n):
    return list(itertools.product([False, True], repeat=n))


@pytest.mark.parametrize("name", OP_CASES)
def test_each_op_keeps_only_the_arrays_its_backward_reads(name):
    op, shapes, keeps, keeps_output = OP_CASES[name]
    for tracked in tracked_patterns(len(shapes)):
        rng = np.random.default_rng(0)
        # a tracked input is an op output, so that only the rules can keep its array
        inputs = [T.mul(Tensor(rng.normal(size=s), requires_grad=True), 1.0) if f
                  else Tensor(rng.normal(size=s)) for s, f in zip(shapes, tracked)]
        alive = [weakref.ref(t.data) for t in inputs]
        out = op(*inputs)
        out_alive = weakref.ref(out.data)
        root = T.tsum(T.mul(out, Tensor(rng.normal(size=out.shape))))
        del inputs, out
        expected = keeps(tracked) if any(tracked) else set()
        assert {i for i, ref in enumerate(alive) if ref() is not None} == expected, tracked
        assert (out_alive() is not None) == (keeps_output and any(tracked)), tracked
        if any(tracked):
            root.backward()  # frees every array the graph kept
            assert all(ref() is None for ref in [*alive, out_alive]), tracked


@pytest.mark.parametrize("name", OP_CASES)
def test_input_gradients_do_not_depend_on_which_other_inputs_train(name):
    op, shapes, _, _ = OP_CASES[name]
    grads = {}
    for tracked in tracked_patterns(len(shapes))[1:]:
        rng = np.random.default_rng(1)
        inputs = [Tensor(rng.normal(size=s), requires_grad=f) for s, f in zip(shapes, tracked)]
        out = op(*inputs)
        T.tsum(T.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
        for i, t in enumerate(inputs):
            assert (t.grad is not None) == tracked[i], (tracked, i)
            if t.grad is not None:
                first = grads.setdefault(i, t.grad.tobytes())
                assert t.grad.tobytes() == first, (tracked, i)


def fault_cases():
    """(name, fused op, op-by-op form, finite inputs, input to spoil) per input."""
    q, kv, bias = np.ones((2, 3, 4)), np.ones((2, 5, 4)), np.zeros((3, 5, 2))
    x, w1, b1, w2, b2 = np.ones((3, 4)), np.ones((4, 6)), np.zeros(6), np.ones((6, 2)), np.zeros(2)
    att = [("attention", T.attention, attention_op_by_op, [q, kv, kv, bias], i)
           for i in range(4)]
    ffn = [("mlp", T.mlp, mlp_op_by_op, [x, w1, b1, w2, b2], i) for i in range(5)]
    return att + ffn


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name,fused,reference,arrays,which", fault_cases(),
                         ids=[f"{c[0]}-input{c[4]}" for c in fault_cases()])
def test_fused_ops_reject_nonfinite_inputs(name, fused, reference, arrays, which, bad):
    # a leaf written after construction, as a diverged weight would be
    heads = (2,) if name == "attention" else ()
    for op in (fused, reference):  # the op-by-op checks raise in the same cases
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        inputs[which].data.reshape(-1)[1] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NonFiniteError):
                op(*inputs, *heads)


def test_fused_ops_reject_overflowing_intermediates():
    big = Tensor(np.full((2, 4), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        for op in (T.attention, attention_op_by_op):  # q k^T overflows
            with pytest.raises(NonFiniteError):
                op(big, big, Tensor(np.ones((2, 4))), None, 2)
        qk = Tensor(np.full((2, 4), 1.2e153))  # scaled logits 2.04e306, finite
        for op in (T.attention, attention_op_by_op):  # logits + bias overflows
            with pytest.raises(NonFiniteError):
                op(qk, qk, Tensor(np.ones((2, 4))), Tensor(np.full((2, 2, 2), 1.79e308)), 2)
        for op in (T.mlp, mlp_op_by_op):  # the hidden layer overflows
            with pytest.raises(NonFiniteError):
                op(big, big.data.T, np.zeros(2), np.ones((2, 3)), np.zeros(3))


def test_attention_rejects_bad_shapes():
    q, kv = Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 4)))
    for args in [(q, kv, kv, None, 3),                      # 4 channels, 3 heads
                 (q, kv, Tensor(np.zeros((6, 4))), None, 2),  # keys and values differ
                 (q, Tensor(np.zeros((5, 2))), Tensor(np.zeros((5, 2))), None, 2),
                 (q, kv, kv, Tensor(np.zeros((3, 4, 2))), 2),  # bias is not (n, m, heads)
                 (q, kv, kv, Tensor(np.zeros((2, 3, 5, 2))), 2),  # bias would enlarge
                 (q, kv, kv, Tensor(np.zeros((5, 2))), 2),  # bias has no query axis
                 (q, kv, kv, None, 2, Tensor(np.zeros((2, 4))), None),  # unpaired rows
                 (q, kv, kv, None, 2, Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4)))),
                 (q, kv, kv, None, 2, Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))]:
        with pytest.raises(ShapeError):
            T.attention(*args)


def test_gather_scatter_without_repeats_equals_add_at(rng):
    x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
    perm = rng.permutation(6)
    for index in (perm, perm.reshape(2, 3)):  # a permutation, then a (G, n) index
        x.zero_grad()
        y = T.gather_rows(x, index, axis=-2)
        w = rng.normal(size=y.shape)
        T.tsum(T.mul(y, Tensor(w))).backward()
        expected = np.zeros_like(x.data)
        np.add.at(expected, (slice(None), index), w)  # the accumulating reference
        # equal, not bitwise: assignment keeps a -0.0 that add.at on zeros makes +0.0
        assert np.array_equal(x.grad, expected)


def test_leaves_never_share_gradients(rng):
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    T.tsum(T.add(a, b)).backward()
    assert a.grad is not b.grad
    a.grad += 1.0
    assert np.array_equal(b.grad, np.ones((3, 2)))
    a.zero_grad()
    w = rng.normal(size=(3, 2))
    T.tsum(T.mul(T.add(a, a), Tensor(w))).backward()
    assert np.array_equal(a.grad, 2.0 * w)


def test_interior_nodes_borrowing_one_gradient_stay_independent(rng):
    # add(p, q) hands one array to both p and q; each later receives a second
    # contribution, which must not be added into the array the other borrowed
    x = Tensor(rng.normal(size=3), requires_grad=True)
    z = Tensor(rng.normal(size=3), requires_grad=True)
    w, v = rng.normal(size=3), rng.normal(size=3)
    p, q = T.mul(x, 2.0), T.mul(z, 3.0)
    s = T.add(p, q)
    T.tsum(T.add(T.mul(s, Tensor(w)), T.add(T.mul(p, Tensor(v)), q))).backward()
    np.testing.assert_allclose(x.grad, 2.0 * (w + v), rtol=1e-15)
    np.testing.assert_allclose(z.grad, 3.0 * (w + 1.0), rtol=1e-15)


def test_backward_frees_the_graph(rng):
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    hidden = T.tanh(x)
    saved = weakref.ref(hidden.data)
    loss = T.tsum(T.mul(hidden, hidden))
    del hidden
    loss.backward()
    assert saved() is None  # freed while the root is still referenced
    assert not loss.is_leaf
    np.testing.assert_allclose(x.grad, 2.0 * np.tanh(x.data) * (1.0 - np.tanh(x.data) ** 2))
    with pytest.raises(StaleGraphError, match="already consumed"):
        loss.backward()


# -- determinism and error states ---------------------------------------------


def test_kernels_bitwise_deterministic(rng):
    a = rng.normal(size=(16, 16))
    b = rng.normal(size=(16, 16))
    g = rng.normal(size=16)
    one = T.matmul(Tensor(a), Tensor(b)).data
    two = T.matmul(Tensor(a), Tensor(b)).data
    assert one.tobytes() == two.tobytes()
    assert T._softmax(a, -1).tobytes() == T._softmax(a, -1).tobytes()
    assert T._gelu(a)[0].tobytes() == T._gelu(a)[0].tobytes()
    ln1 = T.layer_norm(Tensor(a), Tensor(g), Tensor(g), 1e-5).data
    ln2 = T.layer_norm(Tensor(a), Tensor(g), Tensor(g), 1e-5).data
    assert ln1.tobytes() == ln2.tobytes()


def zeros(*shape):
    return Tensor(np.zeros(shape))


# name -> (the failing call, text its message must hold)
SHAPE_ERROR_CASES = {
    "reshape": (lambda: T.reshape(zeros(2, 3), (5,)), ["reshape", "(2, 3)", "(5,)"]),
    "concat-extent": (lambda: T.concat([zeros(2, 3), zeros(2, 4)], axis=0),
                      ["concat", "(2, 3)", "(2, 4)"]),
    "concat-axis": (lambda: T.concat([zeros(2, 3), zeros(2, 3)], axis=5), ["concat", "axis 5"]),
    "add": (lambda: T.add(zeros(2, 3), zeros(4)), ["add", "(2, 3)", "(4,)"]),
    "mul": (lambda: T.mul(zeros(2, 3), zeros(4)), ["mul", "(2, 3)", "(4,)"]),
    "tsum-axis": (lambda: T.tsum(zeros(2, 3), axis=3), ["sum", "axis 3", "(2, 3)"]),
    "tsum-float-axis": (lambda: T.tsum(zeros(2, 3), axis=1.5), ["sum", "axis 1.5", "(2, 3)"]),
    "concat-float-axis": (lambda: T.concat([zeros(2, 3), zeros(2, 3)], axis=0.5),
                          ["concat", "axis 0.5"]),
    "log_softmax-float-axis": (lambda: T.log_softmax(zeros(2, 3), axis=0.5),
                               ["log_softmax", "axis 0.5", "(2, 3)"]),
    "tmean-axis": (lambda: T.tmean(zeros(2, 3), axis=3), ["mean", "axis 3", "(2, 3)"]),
    "tmean-float-axis": (lambda: T.tmean(zeros(2, 3), axis=1.5),
                         ["mean", "axis 1.5", "(2, 3)"]),
    "tmean-tuple-axis": (lambda: T.tmean(zeros(2, 3), axis=(0, 3)),
                         ["mean", "axis (0, 3)", "(2, 3)"]),
    "tmean-repeated-axis": (lambda: T.tmean(zeros(2, 3), axis=(1, -1)), ["sum", "(2, 3)"]),
    "gather_rows-float-axis": (lambda: T.gather_rows(zeros(2, 3), [0], axis=1.5),
                               ["gather_rows", "axis 1.5", "(2, 3)"]),
    "layer_norm-0d": (lambda: T.layer_norm(zeros(), zeros(1), zeros(1)), ["layer_norm", "()"]),
    "log_softmax-axis": (lambda: T.log_softmax(zeros(2), axis=3), ["log_softmax", "axis 3"]),
    "tmean-empty-axis": (lambda: T.tmean(zeros(0, 3), axis=0), ["mean", "axis 0", "(0, 3)"]),
    "attention-rows": (lambda: T.attention(zeros(3, 4), zeros(5, 4), zeros(5, 4), None, 2,
                                           zeros(2, 3), zeros(2, 3)),
                       ["extra key/value rows", "(2, 3)", "(r, 4)"]),
    "attention-bias": (lambda: T.attention(zeros(3, 4), zeros(5, 4), zeros(5, 4),
                                           zeros(3, 4, 2), 2),
                       ["attention bias", "(3, 4, 2)", "(3, 5, 2)"]),
}


@pytest.mark.parametrize("name", SHAPE_ERROR_CASES)
def test_bad_shapes_raise_shape_error(name):
    call, words = SHAPE_ERROR_CASES[name]
    with pytest.raises(ShapeError) as exc:
        call()
    assert all(w in str(exc.value) for w in words), str(exc.value)


@pytest.mark.parametrize("axis", [(0, 1), (-1, 0), (2,), (), None, 1])
@pytest.mark.parametrize("keepdims", [False, True])
def test_tmean_takes_the_axes_of_tsum(axis, keepdims):
    x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 4)), requires_grad=True)
    y = T.tmean(x, axis=axis, keepdims=keepdims)
    want = np.mean(x.data, axis=axis, keepdims=keepdims)
    assert y.shape == want.shape
    np.testing.assert_allclose(y.data, want, rtol=1e-15, atol=0)
    T.tsum(y).backward()
    assert np.all(x.grad == 1.0 / (x.data.size // want.size))


def test_nonfinite_construction_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.inf])
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])


def test_nonfinite_operation_rejected():
    big = Tensor([1e308])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            T.mul(big, 10.0)


def test_layer_norm_rejects_an_overflowing_variance():
    # layer norm is scale-invariant, so the right answer is about
    # [1.29, -1.50, 0.31, -0.10]; an overflowed variance gave zeros
    x = Tensor([[1e200, -1e200, 3e199, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="layer_norm variance"):
        T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))


def test_second_backward_rejected(rng):
    x = Tensor(rng.normal(size=4), requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    loss.backward()
    with pytest.raises(StaleGraphError):
        loss.backward()


def test_backward_through_consumed_interior_rejected(rng):
    x = Tensor(rng.normal(size=4), requires_grad=True)
    y = T.mul(x, x)
    T.tsum(y).backward()
    z = T.tsum(T.mul(y, 2.0))
    with pytest.raises(StaleGraphError):
        z.backward()


def test_backward_needs_scalar(rng):
    x = Tensor(rng.normal(size=4), requires_grad=True)
    with pytest.raises(ShapeError):
        T.mul(x, 2.0).backward()


def test_backward_on_untracked_rejected():
    with pytest.raises(StaleGraphError):
        Tensor([1.0]).backward()


def test_grad_accumulates_across_graphs(rng):
    x = Tensor(rng.normal(size=3), requires_grad=True)
    T.tsum(x).backward()
    T.tsum(x).backward()
    np.testing.assert_allclose(x.grad, 2.0 * np.ones(3))


def test_no_grad_disables_recording(rng):
    x = Tensor(rng.normal(size=3), requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y.is_leaf
    # leaves keep their flag for later tracked use
    assert x.requires_grad
    z = T.tsum(T.mul(x, 3.0))
    z.backward()
    np.testing.assert_allclose(x.grad, 3.0)


# -- the engine's surface --------------------------------------------------------


def test_every_public_op_has_a_caller_in_the_program():
    """Each public function of the engine is used by another module of the
    package (``grad_enabled`` is the tracking flag's reader), and ``Tensor``
    has no operator sugar: reference compositions live in the tests."""
    package = Path(T.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name == "tensor.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                   for a in node.names if a.name == "tensor"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor":
                used.update(a.name for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                used.add(node.attr)
    public = {name for name, obj in vars(T).items()
              if inspect.isfunction(obj) and obj.__module__ == T.__name__
              and not name.startswith("_")}
    assert public - {"grad_enabled"} - used == set()
    sugar = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
             "__matmul__", "__rmatmul__", "__truediv__", "__rtruediv__", "__pow__")
    assert [name for name in sugar if hasattr(Tensor, name)] == []
