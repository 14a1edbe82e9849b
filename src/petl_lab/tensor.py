"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value flowing through the models in this package is a :class:`Tensor`:
a numpy float64 array plus, when it is tracked, a node of the autodiff
graph. Calling :meth:`Tensor.backward` on a scalar walks the recorded nodes
in reverse topological order and accumulates ``d(loss)/d(leaf)`` into every
tracked leaf.

Design constraints honored throughout:

* float64 only -- finite-difference gradient verification needs the headroom;
* non-finite values raise :class:`~petl_lab.errors.NonFiniteError`. Outside
  any scope every operation checks its output. Inside a :func:`scoped`
  call, operations skip that check and the scope checks its result once.
  The few ops that can turn a non-finite input into a finite output keep a
  check of their own: ``relu`` and ``tanh`` check their input, ``layer_norm``
  its variance, and the fused ops below one intermediate each. So a scope
  raises wherever the per-op checks would, and the message names the
  dotted scope;
* fixed reduction orderings (numpy's deterministic kernels, single-threaded
  accumulation in backward) so reruns are bit-identical;
* a graph may be differentiated once; a second backward over the same
  recorded operations raises :class:`~petl_lab.errors.StaleGraphError`.

The graph holds nodes and the arrays that rules read, never an op's output
tensor. A node records the requires-grad flag, the gradient, the parent
nodes, the backward rule and the consumed mark. A leaf tensor is its own
node; an op output keeps its node apart, so its array is freed as soon as
the forward code drops it unless some rule reads it. Each rule decides when
it is recorded which arrays it reads, from which inputs require a gradient:

* ``matmul`` and ``linear`` keep an operand only if the other one trains,
  and ``mul`` keeps the other operand only for a tracked side (a number
  factor stays a number);
* ``add``, ``reshape``, ``concat``, ``gather_rows`` and ``tsum`` keep only
  shapes and indices;
* ``relu`` keeps a boolean mask, ``tanh`` its output, ``log_softmax`` its
  softmax, and ``layer_norm`` the normalized input, plus the inverse
  deviation and gamma if its input trains.

A recorded rule sends gradients only to the inputs that required one when
it was recorded. An op under :func:`no_grad`, or on inputs none of which
requires a gradient, returns its output as a leaf before it builds a rule.

Backward consumes its graph. A leaf owns its ``grad``: it copies the first
contribution and adds later ones in place. An interior node borrows the
array it is handed (made C-contiguous, as a copy would be) and adds a second
contribution out of place, so no backward rule may write into a gradient it
received. As soon as a node's rule has run, its gradient, rule and parents
are dropped, so saved arrays are freed while backward walks the graph; the
node keeps only its consumed mark.

Ownership: an op or a rule may overwrite an array it created, or an array
its rule saved at the last point the rule reads it, never a gradient it
received. So the kernels below write into buffers they own instead of
allocating a temporary per step, as long as no array they hand on is a view
of a buffer they go on writing.

Two fused ops keep less than the op-by-op graphs they replace. Each gives
the same output and gradients bit for bit, and checks for non-finite values
exactly where the per-op checks would have raised. The op-by-op reference
graphs live in the tests, built on the softmax and GELU kernels these ops
run, so each formula has one copy:

* :func:`attention` (multi-head scaled dot-product attention, with the
  bias in the bias table's layout and the key/value rows that every window
  shares) keeps the softmax output, and q, k and v as views only where a
  gradient reads them. It checks the biased logits (finite there means the
  product, its scaling and the bias were finite, and a softmax of finite
  logits lies in [0, 1]) and, outside a scope, its output.
* :func:`mlp` (linear, exact GELU, linear) keeps the GELU derivative,
  computed in forward only when a gradient flows below the GELU, and the
  GELU output only if the second weight requires a gradient. It checks the
  pre-activation (GELU of a finite value is finite) and, outside a scope,
  its output.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import NonFiniteError, ShapeError, StaleGraphError

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _State(threading.local):
    """Per-thread engine state: the tracking flag and the open scopes, innermost last."""

    def __init__(self):
        self.grad_enabled = True
        self.scopes: list[str] = []


_state = _State()


def grad_enabled() -> bool:
    return _state.grad_enabled


@contextmanager
def no_grad():
    """Disable operation recording inside the block (pure inference)."""
    prev = grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


def _ensure_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        where = f" in scope '{'.'.join(_state.scopes)}'" if _state.scopes else ""
        raise NonFiniteError(f"operation '{op}' produced non-finite values{where}")


def scoped(name: str, fn: Callable[..., Tensor], *args) -> Tensor:
    """Run ``fn(*args)`` as the model scope ``name`` and check its result once.

    Scopes nest; a scope's full name joins the open names with dots. Inside
    a scope, ops skip their own output check (see the module docstring), so
    every non-finite value raises :class:`~petl_lab.errors.NonFiniteError`
    naming the scope, either from one of the checks ops keep or from this
    check of the returned tensor.
    """
    scopes = _state.scopes
    scopes.append(name)
    try:
        out = fn(*args)
        if not np.isfinite(out.data).all():
            raise NonFiniteError(f"scope '{'.'.join(scopes)}' produced non-finite values")
    finally:
        scopes.pop()
    return out


class _Node:
    """One record of the autodiff graph; it refers to nodes, never to an op's output."""

    __slots__ = ("requires_grad", "grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, requires_grad: bool, parents: tuple[_Node, ...] = (),
                 backward_fn: Callable[[np.ndarray], None] | None = None):
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward_fn = backward_fn
        self._consumed = False

    def _accum_grad(self, g: np.ndarray) -> None:
        if self._backward_fn is None:  # a leaf owns its gradient, an array even if 0-d
            if self.grad is None:
                self.grad = np.array(g, order="C")
            else:
                self.grad += g
        elif self.grad is None:  # an interior node borrows it; 0-d stays 0-d
            self.grad = np.asarray(g, order="C")
        else:
            self.grad = np.add(self.grad, g, order="C")


class Tensor(_Node):
    """A dense float64 array with optional gradient tracking.

    A leaf is its own graph node. A recorded op output keeps its node in
    ``_op``; its own node fields then stay unused, except ``requires_grad``.
    """

    __slots__ = ("data", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _ensure_finite(arr, "tensor construction")
        super().__init__(bool(requires_grad))
        self.data = arr
        self._op: _Node | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def is_leaf(self) -> bool:
        return self._op is None

    @property
    def _node(self) -> _Node:
        """This tensor's graph node: itself for a leaf."""
        return self if self._op is None else self._op

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- gradient bookkeeping -------------------------------------------

    def _accum_grad(self, g: np.ndarray) -> None:
        _Node._accum_grad(self._node, g)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Fill ``grad`` on every tracked leaf reachable from this scalar.

        Consumes the graph: each interior node drops its gradient, backward
        rule and parents once its rule has run, so the arrays it read are
        freed unless the caller still holds them. Leaves keep their ``grad``.
        A second backward from this root, or from a graph built on any
        consumed node, raises :class:`~petl_lab.errors.StaleGraphError`.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        root = self._node
        if root._consumed:
            raise StaleGraphError("graph already consumed by a previous backward pass")
        if root._backward_fn is None:
            raise StaleGraphError("backward() on an untracked value; no operations recorded")

        # Post-order DFS with an explicit stack; reversal gives reverse
        # topological order. Iterative to survive deep graphs.
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._consumed:
                raise StaleGraphError("graph already consumed by a previous backward pass")
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()  # root first: every consumer runs before its inputs
            if node._backward_fn is None:
                continue
            if node.grad is not None:
                node._backward_fn(node.grad)
            node.grad = None
            node._backward_fn = None
            node._parents = ()
            node._consumed = True


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))


def _tracked(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` is recorded for backward."""
    return grad_enabled() and any(p.requires_grad for p in parents)


def _wants(t: Tensor | None) -> _Node | None:
    """The node a tracked op sends ``t``'s gradient to, or None (also for no ``t``)."""
    return t._node if t is not None and t.requires_grad else None


def _make_op(data: np.ndarray, parents: Sequence[Tensor],
             backward_fn: Callable[[np.ndarray], None] | None, op: str) -> Tensor:
    """Assemble an operation output, recording a node only when tracking is on.

    Outside any scope the output is checked for finite values. The node's
    parents are the nodes of the inputs that require a gradient, in the
    order given; ``backward_fn`` may close over input tensors. An op that
    :func:`_tracked` rules out passes no parents and no rule.
    """
    if not _state.scopes:
        _ensure_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = ()
    out._backward_fn = None
    out._consumed = False
    if backward_fn is not None and _tracked(parents):
        out.requires_grad = True
        out._op = _Node(True, tuple(p._node for p in parents if p.requires_grad), backward_fn)
    else:
        out.requires_grad = False
        out._op = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise arithmetic ----------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add of shapes {a.shape} and {b.shape} does not broadcast") from exc
    if not _tracked((a, b)):
        return _make_op(data, (), None, "add")
    ga, gb = _wants(a), _wants(b)
    sa, sb = a.data.shape, b.data.shape

    def backward_fn(g):
        if ga is not None:
            ga._accum_grad(_unbroadcast(g, sa))
        if gb is not None:
            gb._accum_grad(_unbroadcast(g, sb))

    return _make_op(data, (a, b), backward_fn, "add")


def mul(a, b) -> Tensor:
    """Elementwise product; ``b`` may be a number, a constant factor that is no tensor."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        data = a.data * b
        if not _tracked((a,)):
            return _make_op(data, (), None, "mul")
        node = a._node

        def scale_fn(g):
            node._accum_grad(g * b)

        return _make_op(data, (a,), scale_fn, "mul")
    b = _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul of shapes {a.shape} and {b.shape} does not broadcast") from exc
    if not _tracked((a, b)):
        return _make_op(data, (), None, "mul")
    ga, gb = _wants(a), _wants(b)
    sa, sb = a.data.shape, b.data.shape
    a_data = a.data if gb is not None else None
    b_data = b.data if ga is not None else None

    def backward_fn(g):
        if ga is not None:
            ga._accum_grad(_unbroadcast(g * b_data, sa))
        if gb is not None:
            gb._accum_grad(_unbroadcast(g * a_data, sb))

    return _make_op(data, (a, b), backward_fn, "mul")


# -- linear algebra -------------------------------------------------------


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    return a @ b


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``x @ weight + bias``, the bias added in place into the product."""
    data = _product(x, weight)
    try:
        data += bias
    except ValueError as exc:
        raise ShapeError(f"linear bias {bias.shape} does not broadcast to {data.shape}") from exc
    return data


def _left_grad(g: np.ndarray, b: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of ``a`` (of ``shape``) in ``a @ b``."""
    return _unbroadcast(g @ np.swapaxes(b, -1, -2), shape)


def _right_grad(a: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of ``b`` (of ``shape``) in ``a @ b``."""
    return _unbroadcast(np.swapaxes(a, -1, -2) @ g, shape)


def _affine_rule(x: Tensor, weight: Tensor, bias: Tensor | None) -> Callable[[np.ndarray], None]:
    """The backward rule of ``x @ weight (+ bias)``.

    It keeps ``x`` only if ``weight`` requires a gradient and ``weight`` only
    if ``x`` does; the bias contributes its shape.
    """
    gx, gw = _wants(x), _wants(weight)
    gb = _wants(bias)
    sx, sw = x.data.shape, weight.data.shape
    sb = None if bias is None else bias.data.shape
    x_data = x.data if gw is not None else None
    w_data = weight.data if gx is not None else None

    def backward_fn(g):
        if gx is not None:
            gx._accum_grad(_left_grad(g, w_data, sx))
        if gw is not None:
            gw._accum_grad(_right_grad(x_data, g, sw))
        if gb is not None:
            gb._accum_grad(_unbroadcast(g, sb))

    return backward_fn


def matmul(a, b) -> Tensor:
    """Batched matrix product ``a @ b`` with numpy broadcasting on batch dims."""
    a, b = _as_tensor(a), _as_tensor(b)
    data = _product(a.data, b.data)
    if not _tracked((a, b)):
        return _make_op(data, (), None, "matmul")
    return _make_op(data, (a, b), _affine_rule(a, b, None), "matmul")


def linear(x, weight, bias) -> Tensor:
    """Affine map ``x @ weight + bias`` recorded as one operation.

    Output and gradients equal ``add(matmul(x, weight), bias)`` bit for bit:
    the bias is added in place into the product, and backward applies the
    rules of :func:`matmul` and :func:`add`. The graph keeps one node and one
    array where the two-op form keeps two. ``bias`` must broadcast to the
    product's shape without enlarging it.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    data = _affine(x.data, weight.data, bias.data)
    if not _tracked((x, weight, bias)):
        return _make_op(data, (), None, "linear")
    return _make_op(data, (x, weight, bias), _affine_rule(x, weight, bias), "linear")


# -- shape manipulation ----------------------------------------------------


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        data = t.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape of shape {t.shape} to {shape}: {exc}") from exc
    if not _tracked((t,)):
        return _make_op(data, (), None, "reshape")
    node, source = t._node, t.data.shape

    def backward_fn(g):
        node._accum_grad(g.reshape(source))

    return _make_op(data, (t,), backward_fn, "reshape")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of zero tensors")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except (TypeError, ValueError) as exc:  # a float axis; np.exceptions.AxisError
        raise ShapeError(f"concat of shapes {[t.shape for t in tensors]} on axis {axis}: "
                         f"{exc}") from exc
    if not _tracked(tensors):
        return _make_op(data, (), None, "concat")
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    nodes = [_wants(t) for t in tensors]

    def backward_fn(g):
        for node, piece in zip(nodes, np.split(g, offsets, axis=axis)):
            if node is not None:
                node._accum_grad(piece)

    return _make_op(data, tuple(tensors), backward_fn, "concat")


def gather_rows(t: Tensor, index, axis: int = 0) -> Tensor:
    """Select entries along ``axis``: ``out[..., i, ...] = t[..., index[i], ...]``.

    ``index`` may have any shape; it replaces ``axis`` in the output shape
    (``np.take`` semantics, negative entries count from the end). An index
    that does not hold integers, or an entry outside [-n, n), raises
    :class:`~petl_lab.errors.ShapeError`; ``np.take`` checks the bounds of
    signed entries, so a fixed layout index costs no reduction per call.
    Backward scatters by assignment, or accumulates with ``np.add.at`` where
    ``index`` repeats an entry.
    """
    try:
        n = t.data.shape[axis]
    except (IndexError, TypeError) as exc:
        raise ShapeError(f"gather_rows axis {axis!r} invalid for shape {t.shape}") from exc
    axis = axis % t.data.ndim
    given = np.asarray(index)
    if given.size and given.dtype.kind not in "iu":
        raise ShapeError(f"gather_rows index must hold integers, got dtype {given.dtype}")
    try:
        if given.dtype.kind == "u" and given.size and given.max() >= n:
            raise IndexError  # cast to intp, 2**64 - 1 would wrap to -1
        idx = given.astype(np.intp, copy=False)
        data = t.data.take(idx, axis=axis)
    except IndexError as exc:
        raise ShapeError(f"gather_rows index {given.min()}..{given.max()} outside [{-n}, {n}) "
                         f"on axis {axis} of shape {t.shape}") from exc
    if not _tracked((t,)):
        return _make_op(data, (), None, "gather_rows")
    if idx.size and idx.min() < 0:  # the repeat count below needs entries in [0, n)
        idx = np.where(idx < 0, idx + n, idx)
    node, source = t._node, t.data.shape

    def backward_fn(g):
        buf = np.zeros(source)
        where = (slice(None),) * axis + (idx,)
        if np.bincount(idx.reshape(-1), minlength=n).max(initial=0) > 1:
            np.add.at(buf, where, g)
        else:
            buf[where] = g
        node._accum_grad(buf)

    return _make_op(data, (t,), backward_fn, "gather_rows")


# -- reductions ------------------------------------------------------------


def tsum(t: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    try:
        data = t.data.sum(axis=axis, keepdims=keepdims)
    except (TypeError, ValueError) as exc:  # a float axis; np.exceptions.AxisError
        raise ShapeError(f"sum on axis {axis} of shape {t.shape}: {exc}") from exc
    data = np.asarray(data)
    if not _tracked((t,)):
        return _make_op(data, (), None, "sum")
    node, source = t._node, t.data.shape

    def backward_fn(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        node._accum_grad(np.broadcast_to(gg, source).copy())

    return _make_op(data, (t,), backward_fn, "sum")


def tmean(t: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis``: an int, a tuple of ints, or None for every axis, as :func:`tsum`."""
    axes = range(t.data.ndim) if axis is None else axis if isinstance(axis, tuple) else (axis,)
    try:
        n = math.prod(t.data.shape[a] for a in axes)
    except (IndexError, TypeError) as exc:
        raise ShapeError(f"mean on axis {axis} of shape {t.shape}: {exc}") from exc
    if n == 0:
        raise ShapeError(f"mean on axis {axis} of shape {t.shape}: no entries to average")
    return mul(tsum(t, axis=axis, keepdims=keepdims), 1.0 / n)


# -- normalization and attention kernels ------------------------------------


def _softmax(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Stable softmax of ``x`` along ``axis``, computed in ``out`` (``x`` itself
    may be given) or, by default, in one new buffer."""
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_backward(g: np.ndarray, y: np.ndarray, axis: int, out: np.ndarray | None = None,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """Input gradient of a softmax along ``axis`` whose output is ``y``.

    It is computed in ``out`` (``g`` itself may be given), and the product of
    ``y`` and the row sums in ``scratch`` (``y`` itself may be given); each
    defaults to a new buffer, so by default no input is written.
    """
    gy = np.multiply(g, y, out=out)
    gy -= np.multiply(y, gy.sum(axis=axis, keepdims=True), out=scratch)
    return gy


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    x = t.data
    try:
        m = x.max(axis=axis, keepdims=True)
    except (TypeError, ValueError) as exc:  # a float axis; np.exceptions.AxisError
        raise ShapeError(f"log_softmax axis {axis} invalid for shape {t.shape}: {exc}") from exc
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    if not _tracked((t,)):
        return _make_op(data, (), None, "log_softmax")
    sm = np.exp(data)
    node = t._node

    def backward_fn(g):
        node._accum_grad(g - sm * g.sum(axis=axis, keepdims=True))

    return _make_op(data, (t,), backward_fn, "log_softmax")


def layer_norm(t: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    A variance that is not finite raises
    :class:`~petl_lab.errors.NonFiniteError`: an overflowed one would
    normalize its row to zeros. Forward writes the normalized input over the
    squares it took the variance of, and the output over the centered input;
    the input gradient takes two new buffers. Each element sees the
    operations of ``xhat * gamma + beta`` and of
    ``inv_std * (gx - mean(gx) - xhat * mean(gx * xhat))``, in their order.
    """
    try:
        d = t.data.shape[-1]
    except IndexError as exc:
        raise ShapeError(f"layer_norm needs at least one axis, got shape {t.shape}") from exc
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last extent {d}")
    # np.add.reduce, then / d: the ufunc calls ndarray.mean makes, without its wrapper
    mu = np.add.reduce(t.data, axis=-1, keepdims=True) / d
    centered = t.data - mu
    squares = centered * centered
    var = np.add.reduce(squares, axis=-1, keepdims=True) / d
    _ensure_finite(var, "layer_norm variance")
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(centered, inv_std, out=squares)
    data = np.multiply(xhat, gamma.data, out=centered)
    data += beta.data
    if not _tracked((t, gamma, beta)):
        return _make_op(data, (), None, "layer_norm")
    gt, gg, gb = _wants(t), _wants(gamma), _wants(beta)
    kept_xhat = xhat if gt is not None or gg is not None else None
    kept_inv_std, gamma_data = (inv_std, gamma.data) if gt is not None else (None, None)

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        if gb is not None:
            gb._accum_grad(g.sum(axis=lead))
        if gg is not None:
            gg._accum_grad((g * kept_xhat).sum(axis=lead))
        if gt is not None:
            gx = g * gamma_data
            tmp = gx * kept_xhat
            m2 = np.add.reduce(tmp, axis=-1, keepdims=True) / d
            gx -= np.add.reduce(gx, axis=-1, keepdims=True) / d
            gx -= np.multiply(kept_xhat, m2, out=tmp)
            gx *= kept_inv_std
            gt._accum_grad(gx)

    return _make_op(data, (t, gamma, beta), backward_fn, "layer_norm")


# -- activations -------------------------------------------------------------


def relu(t: Tensor) -> Tensor:
    _ensure_finite(t.data, "relu input")  # relu(-inf) is finite
    data = np.maximum(t.data, 0.0)
    if not _tracked((t,)):
        return _make_op(data, (), None, "relu")
    node = t._node
    mask = t.data > 0.0

    def backward_fn(g):
        node._accum_grad(g * mask)

    return _make_op(data, (t,), backward_fn, "relu")


def tanh(t: Tensor) -> Tensor:
    _ensure_finite(t.data, "tanh input")  # tanh(inf) is finite
    data = np.tanh(t.data)
    if not _tracked((t,)):
        return _make_op(data, (), None, "tanh")
    node = t._node

    def backward_fn(g):
        node._accum_grad(g * (1.0 - data * data))

    return _make_op(data, (t,), backward_fn, "tanh")


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact GELU ``x * Phi(x)`` and the Gaussian CDF ``Phi(x)`` it used."""
    cdf = x / _SQRT_2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_derivative(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """``d gelu / dx = Phi(x) + x * phi(x)``, computed in one new buffer."""
    slope = -0.5 * x
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT_2PI  # the pdf
    slope *= x
    slope += cdf
    return slope


# -- fused blocks -------------------------------------------------------------


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """Two-layer perceptron: linear, exact GELU ``x * Phi(x)``, linear, as one op.

    Output and gradients equal the three-op form bit for bit. When ``x``,
    ``w1`` or ``b1`` requires a gradient, the graph keeps the GELU
    derivative, computed in forward, and ``w2``. It keeps ``x`` only if
    ``w1`` requires a gradient, ``w1`` only if ``x`` does, and the GELU
    output only if ``w2`` does. The pre-activation ``h`` is checked for
    finite values, as every op's output is outside a scope; GELU of a finite
    value is finite. Backward scales the hidden gradient by the derivative
    in place.
    """
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    h = _affine(x.data, w1.data, b1.data)
    _ensure_finite(h, "mlp hidden")
    hidden, cdf = _gelu(h)
    data = _affine(hidden, w2.data, b2.data)
    if not _tracked((x, w1, b1, w2, b2)):
        return _make_op(data, (), None, "mlp")
    g_w2, g_b2 = _wants(w2), _wants(b2)
    below = _tracked((x, w1, b1))
    first = _affine_rule(x, w1, b1)
    slope = _gelu_derivative(h, cdf) if below else None
    w2_data = w2.data if below else None
    kept_hidden = hidden if g_w2 is not None else None
    s_w2, s_b2 = w2.data.shape, b2.data.shape

    def backward_fn(g):
        if below:
            g_hidden = _left_grad(g, w2_data, slope.shape)
        if g_w2 is not None:
            g_w2._accum_grad(_right_grad(kept_hidden, g, s_w2))
        if g_b2 is not None:
            g_b2._accum_grad(_unbroadcast(g, s_b2))
        if below:
            g_hidden *= slope  # a new array from _left_grad
            first(g_hidden)

    return _make_op(data, (x, w1, b1, w2, b2), backward_fn, "mlp")


def attention(q, k, v, bias, heads: int, extra_k=None, extra_v=None) -> Tensor:
    """Multi-head scaled dot-product attention as one op.

    ``q`` is (..., n, d) and ``k``/``v`` are (..., m, d); the last axis
    splits into ``heads`` heads of ``d / heads`` channels. ``extra_k`` and
    ``extra_v`` are None or a matching pair of (r, d) rows, prepended to the
    keys and values of every lead. Per head the output is
    ``softmax(q k^T / sqrt(d / heads) + bias) v`` over the r + m keys, with
    the heads merged back into (..., n, d). ``bias`` is None or in the bias
    table's layout, broadcasting to (..., n, m, heads) without enlarging it;
    it biases the m own keys, and the shared rows get none.

    Output and gradients equal the op-by-op form (broadcast and concat of the
    rows, a zero bias pad, reshape and transpose of q, k, v and the bias,
    matmul, scale, bias add, softmax, matmul, merge) bit for bit. The graph
    keeps the softmax output and, as views, q only if the keys or rows
    require a gradient, the keys only if q does, and the values only if q,
    the keys, the rows or the bias does; with rows, it keeps the keys and
    values as their concatenation with the rows. The biased logits are
    checked for finite values, as every op's output is outside a scope:
    finite biased logits mean the product, the scaled product and the bias
    were finite, and a softmax of finite logits lies in [0, 1].

    The softmax overwrites the logits. Backward computes the values'
    gradient first, since it reads the softmax output, and sends it last,
    where the op-by-op graph does. The softmax backward then runs in the new
    ``g_out @ vh^T``, with the softmax output as its scratch, and that
    gradient is scaled in place; a bias gradient that would be a view of it
    is copied first.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim < 2:
        raise ShapeError(f"attention queries need >=2 axes, got {q.shape}")
    *lead, n, d = q.data.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"token dim {d} not divisible by {heads} heads")
    m = k.data.shape[-2] if k.data.ndim >= 2 else -1
    if k.data.shape != v.data.shape or k.data.shape != (*lead, m, d):
        raise ShapeError(f"attention keys {k.shape} and values {v.shape} do not match "
                         f"queries {q.shape}")
    if extra_k is not None or extra_v is not None:
        if extra_k is None or extra_v is None or extra_k.data.shape != extra_v.data.shape:
            raise ShapeError("extra key/value rows must come in matching pairs")
        if extra_k.data.ndim != 2 or extra_k.data.shape[1] != d:
            raise ShapeError(f"extra key/value rows {extra_k.shape} are not (r, {d})")
    r = 0 if extra_k is None else extra_k.data.shape[0]
    k_all, v_all = k.data, v.data
    if r:
        k_all = np.concatenate([np.broadcast_to(extra_k.data, (*lead, r, d)), k_all], axis=-2)
        v_all = np.concatenate([np.broadcast_to(extra_v.data, (*lead, r, d)), v_all], axis=-2)
    else:  # zero rows attach nothing
        extra_k = extra_v = None
    hd = d // heads
    scale = 1.0 / math.sqrt(hd)
    b = len(lead)
    split = (*range(b), b + 1, b, b + 2)  # (..., rows, heads, hd) <-> (..., heads, rows, hd)
    k_split = (*range(b), b + 1, b + 2, b)  # (..., m, heads, hd) -> (..., heads, hd, m)
    qh = q.data.reshape(*lead, n, heads, hd).transpose(split)
    kh = k_all.reshape(*lead, r + m, heads, hd).transpose(k_split)
    vh = v_all.reshape(*lead, r + m, heads, hd).transpose(split)

    logits = _product(qh, kh)
    logits *= scale
    if bias is not None:
        bias = _as_tensor(bias)
        c = bias.data.ndim  # the table layout (..., n, m, heads) -> (..., heads, n, m)
        try:  # fewer than three axes do not transpose
            bias_h = bias.data.transpose(*range(c - 3), c - 1, c - 3, c - 2)
            logits[..., r:] += bias_h
        except ValueError as exc:
            raise ShapeError(f"attention bias {bias.shape} does not broadcast to "
                             f"{(*lead, n, m, heads)}") from exc
    _ensure_finite(logits, "attention logits")
    att = _softmax(logits, -1, out=logits)
    data = _product(att, vh).transpose(split).reshape(*lead, n, d)
    parents = tuple(t for t in (q, extra_k, k, bias, extra_v, v)  # the op-by-op visiting order
                    if t is not None)
    if not _tracked(parents):
        return _make_op(data, (), None, "attention")

    g_q, g_k, g_v, g_bias = _wants(q), _wants(k), _wants(v), _wants(bias)
    g_rk, g_rv = _wants(extra_k), _wants(extra_v)
    keys_train = g_k is not None or g_rk is not None
    values_train = g_v is not None or g_rv is not None
    to_logits = g_q is not None or keys_train or g_bias is not None
    kept_qh = qh if keys_train else None
    kept_kh = kh if g_q is not None else None
    kept_vh = vh if to_logits else None
    s_q, s_all = q.data.shape, (*lead, r + m, d)
    s_qh, s_kh, s_vh = qh.shape, kh.shape, vh.shape
    s_bias_h, from_heads = ((None, None) if g_bias is None
                            else (bias_h.shape, (*range(c - 3), c - 2, c - 1, c - 3)))
    k_merge = (*range(b), b + 2, b, b + 1)

    def to_inputs(g_all, own, shared):
        """Send the (..., r + m, d) gradient of the keys or values to its two sources."""
        if shared is not None:
            shared._accum_grad(_unbroadcast(g_all[..., :r, :], (r, d)))
        if own is not None:
            own._accum_grad(g_all[..., r:, :])

    def backward_fn(g):
        # the merge undone, into the C-contiguous copy the op-by-op graph fed its matmuls;
        # it may be a view of g, which no rule writes
        g_out = np.ascontiguousarray(g.reshape(*lead, n, heads, hd).transpose(split))
        if values_train:  # read att before the softmax backward overwrites it; sent last
            g_vh = _right_grad(att, g_out, s_vh)
        if to_logits:
            # in the new g_out @ vh^T, with att, at its last read, as the scratch
            g_logits = _left_grad(g_out, kept_vh, att.shape)
            _softmax_backward(g_logits, att, -1, out=g_logits, scratch=att)
            if g_bias is not None:
                g_b = _unbroadcast(g_logits[..., r:], s_bias_h).transpose(from_heads)
                if np.may_share_memory(g_b, g_logits):  # the bias may borrow it; scaled below
                    g_b = g_b.copy()
                g_bias._accum_grad(g_b)
            g_logits *= scale
        if g_q is not None:
            g_qh = _left_grad(g_logits, kept_kh, s_qh)
            g_q._accum_grad(g_qh.transpose(split).reshape(s_q))
        if keys_train:
            g_kh = _right_grad(kept_qh, g_logits, s_kh)
            to_inputs(g_kh.transpose(k_merge).reshape(s_all), g_k, g_rk)
        if values_train:
            to_inputs(g_vh.transpose(split).reshape(s_all), g_v, g_rv)

    return _make_op(data, parents, backward_fn, "attention")
