"""Dense tensors with reverse-mode automatic differentiation.

Every operation that participates in differentiation records a TapeNode on
its output; ``backward`` linearizes the nodes reachable from a scalar loss
into a GradientTape (creation order == topological order) and walks it in
reverse, accumulating gradients additively over fan-out. The graph is
rebuilt on every forward pass, and a node may be consumed by at most one
backward pass.

Storage is dense row-major float64. Broadcasting is limited to the
leading-batch case: the smaller operand's shape must be a trailing suffix of
the larger one's. Grad mode (``no_grad``) is per thread.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

_node_counter = itertools.count()


class _GradMode(threading.local):
    enabled = True  # every thread starts with recording on


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Disable tape recording in the calling thread inside the block
    (inference mode)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class TapeNode:
    """Record of one differentiable operation: kind, parents, backward rule."""

    __slots__ = ("op", "parents", "backward_fn", "out", "seq", "spent")

    def __init__(self, op: str, parents: tuple, backward_fn, out: "Tensor"):
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn
        self.out = out
        self.seq = next(_node_counter)
        self.spent = False


class Tensor:
    """N-dimensional array, optionally attached to the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node: TapeNode | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def make_op(op: str, data: np.ndarray, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Create the output tensor of a custom differentiable operation.

    ``backward_fn`` maps the output gradient to one gradient (or None) per
    parent. Recording is skipped when grads are disabled or no parent
    participates in differentiation.
    """
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad or p.node is not None for p in parents):
        out.requires_grad = True
        out.node = TapeNode(op, tuple(parents), backward_fn, out)
    return out


class GradientTape:
    """Execution-ordered linearization of the nodes reachable from an output."""

    def __init__(self, nodes: list[TapeNode]):
        self.nodes = nodes

    @classmethod
    def from_output(cls, out: Tensor) -> "GradientTape":
        if out.node is None:
            return cls([])
        seen: set[int] = set()
        nodes: list[TapeNode] = []
        stack = [out.node]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            for p in node.parents:
                if p.node is not None:
                    stack.append(p.node)
        nodes.sort(key=lambda n: n.seq)
        return cls(nodes)


def backward(loss: Tensor, params: Iterable[Tensor] | None = None) -> dict[int, np.ndarray]:
    """Reverse-mode pass from a scalar loss.

    Returns a map from ``id(leaf)`` to its gradient for every leaf tensor
    with ``requires_grad`` reached by the pass; leaves listed in ``params``
    but unreachable from the loss get zero gradients. Also stores each
    gradient on the leaf's ``.grad``.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise ContractError("loss is not connected to a gradient tape")

    tape = GradientTape.from_output(loss)
    for node in tape.nodes:
        if node.spent:
            raise ContractError("backward was already run through part of this tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    result: dict[int, np.ndarray] = {}
    leaves: dict[int, Tensor] = {}

    def _collect(t: Tensor, g: np.ndarray) -> None:
        if t.requires_grad and t.node is None:
            leaves[id(t)] = t
            if id(t) in result:
                result[id(t)] = result[id(t)] + g
            else:
                result[id(t)] = g.copy()

    for node in reversed(tape.nodes):
        node.spent = True
        g_out = grads.pop(id(node.out), None)
        if g_out is None:
            continue
        parent_grads = node.backward_fn(g_out)
        for parent, g in zip(node.parents, parent_grads):
            if g is None:
                continue
            if g.shape != parent.data.shape:
                raise ShapeError(
                    f"{node.op} backward produced gradient shape {g.shape} "
                    f"for parent of shape {parent.data.shape}")
            if parent.node is not None:
                key = id(parent)
                grads[key] = grads[key] + g if key in grads else g
            else:
                _collect(parent, g)

    if params is not None:
        for p in params:
            if id(p) not in result:
                result[id(p)] = np.zeros_like(p.data)
                leaves[id(p)] = p

    for key, leaf in leaves.items():
        leaf.grad = result[key]
    return result


# ---------------------------------------------------------------------------
# broadcasting helpers (leading-batch expansion only)

def _check_suffix(big: tuple[int, ...], small: tuple[int, ...], op: str) -> None:
    if big[len(big) - len(small):] != small:
        raise ShapeError(f"{op}: shape {small} is not a trailing suffix of {big}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the leading axes introduced by broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra)))


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> tuple[int, ...]:
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return sa
    if len(sa) >= len(sb):
        _check_suffix(sa, sb, op)
        return sa
    _check_suffix(sb, sa, op)
    return sb


# ---------------------------------------------------------------------------
# arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    return make_op("add", a.data + b.data, (a, b),
                   lambda g: (_reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    return make_op("sub", a.data - b.data, (a, b),
                   lambda g: (_reduce_to(g, a.data.shape), _reduce_to(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    return make_op("mul", a.data * b.data, (a, b),
                   lambda g: (_reduce_to(g * b.data, a.data.shape),
                              _reduce_to(g * a.data, b.data.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "div")
    return make_op("div", a.data / b.data, (a, b),
                   lambda g: (_reduce_to(g / b.data, a.data.shape),
                              _reduce_to(-g * a.data / (b.data * b.data), b.data.shape)))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return make_op("scale", a.data * s, (a,), lambda g: (g * s,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading dimensions are treated as batch dimensions."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for shapes {a.shape} and {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward_fn(g):
        ga = _reduce_to(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
        gb = _reduce_to(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
        return ga, gb

    return make_op("matmul", data, (a, b), backward_fn)


# ---------------------------------------------------------------------------
# elementwise nonlinearities

def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return make_op("relu", np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.data))
    return make_op("sigmoid", s, (a,), lambda g: (g * s * (1.0 - s),))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return make_op("exp", e, (a,), lambda g: (g * e,))


def log(a: Tensor) -> Tensor:
    return make_op("log", np.log(a.data), (a,), lambda g: (g / a.data,))


def abs_(a: Tensor) -> Tensor:
    return make_op("abs", np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "minimum")
    mask = a.data <= b.data  # ties route to the first operand
    return make_op("minimum", np.where(mask, a.data, b.data), (a, b),
                   lambda g: (_reduce_to(g * mask, a.data.shape),
                              _reduce_to(g * ~mask, b.data.shape)))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "maximum")
    mask = a.data >= b.data
    return make_op("maximum", np.where(mask, a.data, b.data), (a, b),
                   lambda g: (_reduce_to(g * mask, a.data.shape),
                              _reduce_to(g * ~mask, b.data.shape)))


# ---------------------------------------------------------------------------
# softmax family (last axis, max-subtracted for stability)

def softmax(a: Tensor) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return make_op("softmax", s, (a,), backward_fn)


def log_softmax(a: Tensor) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def backward_fn(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return make_op("log_softmax", out, (a,), backward_fn)


# ---------------------------------------------------------------------------
# reductions

def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)

    def backward_fn(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return make_op("sum", data, (a,), backward_fn)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    data = a.data.mean(axis=axes, keepdims=keepdims)

    def backward_fn(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, a.data.shape).copy(),)

    return make_op("mean", data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# shape manipulation

def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None or axes == ():
        if a.ndim < 2:
            raise ShapeError(f"transpose needs >=2-d input, got shape {a.shape}")
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return make_op("transpose", np.ascontiguousarray(a.data.transpose(axes)), (a,),
                   lambda g: (np.ascontiguousarray(g.transpose(inverse)),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {a.shape} into {shape}") from None
    return make_op("reshape", data, (a,), lambda g: (g.reshape(a.data.shape),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    axis = axis % tensors[0].ndim
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        return tuple(np.ascontiguousarray(np.take(g, range(offsets[i], offsets[i + 1]), axis=axis))
                     for i in range(len(tensors)))

    return make_op("concat", data, tuple(tensors), backward_fn)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = axis % a.ndim
    if not (0 <= start <= stop <= a.data.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}] out of bounds for axis {axis} of shape {a.shape}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def backward_fn(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return make_op("slice", a.data[index].copy(), (a,), backward_fn)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Embedding-style lookup: select rows of a 2-d tensor by integer index."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"gather_rows expects 2-d data and 1-d indices, got {a.shape} and {idx.shape}")

    def backward_fn(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return make_op("gather_rows", a.data[idx].copy(), (a,), backward_fn)


def take_last(a: Tensor, idx) -> Tensor:
    """Pick one entry along the last axis per leading position."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != a.data.shape[:-1]:
        raise ShapeError(f"take_last indices {idx.shape} must match leading shape of {a.shape}")
    data = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def backward_fn(g):
        full = np.zeros_like(a.data)
        lead = tuple(np.indices(idx.shape))
        np.add.at(full, lead + (idx,), g)
        return (full,)

    return make_op("take_last", data, (a,), backward_fn)


def expand_batch(a: Tensor, batch: int) -> Tensor:
    """Tile a tensor along a new leading batch axis; backward sums it out."""
    data = np.broadcast_to(a.data, (batch,) + a.data.shape).copy()
    return make_op("expand_batch", data, (a,), lambda g: (g.sum(axis=0),))


# ---------------------------------------------------------------------------
# normalization / regularization

def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply an affine transform."""
    f = a.data.shape[-1]
    if gain.shape != (f,) or bias.shape != (f,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} must be ({f},)")
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    sigma = np.sqrt(var + eps)
    xhat = (a.data - mu) / sigma
    out = xhat * gain.data + bias.data

    def backward_fn(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = (dxhat - m1 - xhat * m2) / sigma
        lead = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return make_op("layer_norm", out, (a, gain, bias), backward_fn)


def dropout(a: Tensor, p: float, rng: np.random.Generator | None = None,
            training: bool = False) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p == 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {p}")
    if rng is None:
        raise ContractError("dropout in training mode needs an explicit rng")
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return make_op("dropout", a.data * mask, (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# convolution (stride-2 backbone stages)

def conv2d(a: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution over [batch, in_ch, h, w] (or unbatched 3-d) input."""
    squeeze = a.ndim == 3
    x = a.data[None] if squeeze else a.data
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/weight, got {a.shape} and {weight.shape}")
    bsz, ic, h, w = x.shape
    oc, wic, kh, kw = weight.shape
    if wic != ic:
        raise ShapeError(f"conv2d channel mismatch: input {a.shape}, weight {weight.shape}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv2d output would be empty for input {a.shape}, kernel {weight.shape}")

    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((bsz, ic, kh, kw, oh, ow), dtype=x.dtype)
    for ki in range(kh):
        for kj in range(kw):
            cols[:, :, ki, kj] = xp[:, :, ki:ki + oh * stride:stride, kj:kj + ow * stride:stride]
    cols2 = cols.reshape(bsz, ic * kh * kw, oh * ow)
    wmat = weight.data.reshape(oc, ic * kh * kw)
    out = (wmat @ cols2).reshape(bsz, oc, oh, ow) + bias.data[None, :, None, None]

    def backward_fn(g):
        if squeeze:
            g = g[None]
        gflat = g.reshape(bsz, oc, oh * ow)
        # contract the batch and pixel axes via BLAS rather than einsum
        gw = (gflat.transpose(1, 0, 2).reshape(oc, -1)
              @ cols2.transpose(1, 0, 2).reshape(ic * kh * kw, -1).T
              ).reshape(weight.data.shape)
        gb = g.sum(axis=(0, 2, 3))
        gcols = np.matmul(wmat.T, gflat).reshape(bsz, ic, kh, kw, oh, ow)
        gxp = np.zeros_like(xp)
        for ki in range(kh):
            for kj in range(kw):
                gxp[:, :, ki:ki + oh * stride:stride, kj:kj + ow * stride:stride] += gcols[:, :, ki, kj]
        gx = gxp[:, :, padding:padding + h, padding:padding + w]
        if squeeze:
            gx = gx[0]
        return np.ascontiguousarray(gx), gw, gb

    res = out[0] if squeeze else out
    return make_op("conv2d", res, (a, weight, bias), backward_fn)


# ---------------------------------------------------------------------------
# gradient verification

def finite_difference_check(f, xs, eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar-valued function with central
    finite differences.

    ``xs`` may be a single tensor or a list; ``f`` is called with fresh
    tensors and must return a scalar Tensor. Returns the max over all
    coordinates of |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    single = isinstance(xs, Tensor)
    xs_list = [xs] if single else list(xs)

    leaves = [Tensor(x.data.copy(), requires_grad=True) for x in xs_list]
    out = f(*leaves)
    grad_map = backward(out, params=leaves)

    worst = 0.0
    values = [x.data.copy() for x in xs_list]
    with no_grad():
        for k, base in enumerate(values):
            analytic = grad_map[id(leaves[k])]
            flat = base.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                args = [Tensor(v) for v in values]
                hi = f(*args).item()
                flat[i] = orig - eps
                args = [Tensor(v) for v in values]
                lo = f(*args).item()
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * eps)
                a = analytic.reshape(-1)[i]
                err = np.abs(a - numeric) / max(1.0, np.abs(a), np.abs(numeric))
                worst = max(worst, float(err))
    return worst
