"""Minimal reverse-mode autodiff over dense float64 arrays.

A :class:`Tape` records every operation applied to :class:`Tensor` objects
while it is active; ``tape.backward(loss)`` then walks the record in reverse
and accumulates ``d loss / d leaf`` into each leaf's ``.grad``. Each op is a
plain function that computes its value in numpy and records one node with its
own adjoint through :func:`_record`; a fused op defined elsewhere (the
Sinkhorn operator in :mod:`diffdag.gumbel`) records itself the same way. The
vocabulary holds only the ops the library calls, with no general
broadcasting: operands are scalars (0-d), vectors (1-d) or matrices (2-d),
and every adjoint is finite-difference checked on its own.

Only leaves get a ``.grad``: the ``requires_grad`` tensors, such as
parameters, that no node of the tape produced. An op output's gradient lives
only inside :meth:`Tape.backward` and is dropped once its node has consumed
it. An adjoint may pass its incoming gradient on unchanged, so the tape
treats every gradient it receives as borrowed and never writes into it: a
second gradient for the same tensor is summed into a new array, and a leaf
gets a copy. An adjoint returns ``None`` for an input that does not require
a gradient instead of computing a result that would be thrown away. Gradients
accumulate across backward calls; callers zero them explicitly between
optimizer steps via :meth:`Tensor.zero_grad`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionError",
    "Tensor",
    "Tape",
    "straight_through",
]


class DimensionError(ValueError):
    """Operands have incompatible shapes for the requested op."""


# Stack of active tapes; ops record onto the innermost one.
_TAPES: list["Tape"] = []


def _active_tape() -> "Tape | None":
    return _TAPES[-1] if _TAPES else None


class Tensor:
    """Dense float64 array plus gradient bookkeeping.

    Tensors without ``requires_grad`` are immutable constants as far as the
    engine is concerned and may be shared freely between tapes.
    """

    __slots__ = ("value", "requires_grad", "grad")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        if self.value.ndim > 2:
            raise DimensionError(f"tensors are at most 2-d, got shape {self.value.shape}")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    @property
    def T(self):
        return transpose(self)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    __slots__ = ("kind", "inputs", "output", "backward_fn", "saved")

    def __init__(self, kind, inputs, output, backward_fn, saved):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.saved = saved


class Tape:
    """Ordered record of ops; creation order is already topological."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def backward(self, loss: Tensor) -> None:
        """Accumulate d loss / d leaf into every requires_grad leaf's ``.grad``.

        Gradients flow through a per-call workspace, so stale ``.grad`` from
        earlier steps leaks only into the final leaf accumulation. An op
        output's entry is popped when its node consumes it; whatever is left
        at the end belongs to leaves. Adjoints such as ``add``'s pass ``g``
        itself on, so a gradient may be shared and is never written to: a
        second write for a tensor is summed into a new array, and a leaf whose
        ``.grad`` is ``None`` gets a copy.
        """
        if loss.value.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {loss.value.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.value)}
        tensors: dict[int, Tensor] = {id(loss): loss}
        for node in reversed(self.nodes):
            g = grads.pop(id(node.output), None)
            if g is None:
                continue
            for inp, gi in zip(node.inputs, node.backward_fn(g, node)):
                if gi is None or not inp.requires_grad:
                    continue
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = gi
                    tensors[key] = inp
        for key, g in grads.items():
            t = tensors[key]
            if not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = np.array(g, dtype=np.float64, copy=True)
            else:  # asarray: a sum of 0-d arrays is a numpy scalar
                t.grad = np.asarray(t.grad + g)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def _record(kind, inputs, value, backward_fn, saved=None) -> Tensor:
    out = Tensor(value)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append(_Node(kind, tuple(inputs), out, backward_fn, saved))
    return out


def _need_same_shape(kind, a, b):
    # Scalars may pair with anything (matrix +/-/* scalar); otherwise exact match.
    if a.value.shape != b.value.shape and a.value.size != 1 and b.value.size != 1:
        raise DimensionError(f"{kind}: shapes {a.value.shape} and {b.value.shape} differ")


def _reduce_like(g, operand_value):
    # Adjoint of the implicit scalar spread in scalar-matrix elementwise ops.
    if operand_value.size == 1:
        return np.sum(g).reshape(operand_value.shape)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(f"matmul: shapes {a.value.shape} and {b.value.shape} incompatible")

    def bw(g, node):
        (ta, tb), (av, bv) = node.inputs, node.saved
        return g @ bv.T if ta.requires_grad else None, av.T @ g if tb.requires_grad else None

    return _record("matmul", (a, b), a.value @ b.value, bw, (a.value, b.value))


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _need_same_shape("add", a, b)

    def bw(g, node):
        av, bv = node.saved
        return _reduce_like(g, av), _reduce_like(g, bv)

    return _record("add", (a, b), a.value + b.value, bw, (a.value, b.value))


def add_row(x: Tensor, b: Tensor) -> Tensor:
    """``x + b`` with the (1, k) row ``b`` added to every row of the (m, k) ``x``."""
    x, b = _as_tensor(x), _as_tensor(b)
    if x.value.ndim != 2 or b.value.shape != (1, x.value.shape[1]):
        raise DimensionError(f"add-row: shapes {x.value.shape} and {b.value.shape} incompatible")

    def bw(g, node):
        # ones.T @ g, not g.sum(axis=0): the same sum, in the same order, as
        # the matmul(ones, b) this op replaced
        return g, node.saved.T @ g if node.inputs[1].requires_grad else None

    return _record("add-row", (x, b), x.value + b.value, bw, np.ones((x.value.shape[0], 1)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _need_same_shape("sub", a, b)

    def bw(g, node):
        av, bv = node.saved
        return _reduce_like(g, av), _reduce_like(-g, bv) if node.inputs[1].requires_grad else None

    return _record("sub", (a, b), a.value - b.value, bw, (a.value, b.value))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _need_same_shape("elementwise-mul", a, b)

    def bw(g, node):
        (ta, tb), (av, bv) = node.inputs, node.saved
        return (
            _reduce_like(g * bv, av) if ta.requires_grad else None,
            _reduce_like(g * av, bv) if tb.requires_grad else None,
        )

    return _record("elementwise-mul", (a, b), a.value * b.value, bw, (a.value, b.value))


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    v = x.value
    # exp(-|v|) once keeps the computation overflow-free in both tails
    e = np.exp(-np.abs(v))
    s = np.where(v >= 0, 1.0, e) / (1.0 + e)

    def bw(g, node):
        sv = node.saved
        return (g * sv * (1.0 - sv),)

    return _record("sigmoid", (x,), s, bw, s)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), finite for every finite x."""
    x = _as_tensor(x)
    v = x.value
    e = np.exp(-np.abs(v))

    def bw(g, node):
        v, e = node.saved
        return (g * np.where(v >= 0, 1.0, e) / (1.0 + e),)

    return _record("softplus", (x,), np.maximum(v, 0.0) + np.log1p(e), bw, (v, e))


def softmax_rows(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.value.ndim != 2:
        raise DimensionError(f"softmax-rows: need a matrix, got shape {x.value.shape}")
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def bw(g, node):
        sv = node.saved
        return (sv * (g - (g * sv).sum(axis=1, keepdims=True)),)

    return _record("softmax-rows", (x,), s, bw, s)


def leaky_relu(x: Tensor, alpha: float = 0.01) -> Tensor:
    # max(x, alpha*x) is the leaky ReLU only for slopes in [0, 1)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"leaky-relu: alpha must lie in [0, 1), got {alpha}")
    x = _as_tensor(x)

    def bw(g, node):
        return (g * node.saved,)

    out = np.maximum(x.value, alpha * x.value)
    if _active_tape() is None or not x.requires_grad:
        return Tensor(out)
    # every entry is exactly 1.0 or alpha, so g * slope is bitwise
    # g * np.where(x > 0, 1.0, alpha)
    positive = x.value > 0
    slope = positive + ~positive * alpha
    return _record("leaky-relu", (x,), out, bw, slope)


def absolute(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def bw(g, node):
        return (g * np.sign(node.saved),)

    return _record("abs", (x,), np.abs(x.value), bw, x.value)


def tsum(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def bw(g, node):
        return (np.full(node.saved, float(g)),)

    return _record("sum", (x,), np.sum(x.value), bw, x.value.shape)


def squared_norm(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def bw(g, node):
        return (2.0 * float(g) * node.saved,)

    return _record("squared-norm", (x,), np.sum(x.value * x.value), bw, x.value)


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.value.ndim != 2:
        raise DimensionError(f"transpose: need a matrix, got shape {x.value.shape}")

    def bw(g, node):
        return (g.T,)

    return _record("transpose", (x,), x.value.T.copy(), bw, None)


def block_matmul(a: Tensor, b: Tensor, blocks: int) -> Tensor:
    """Block-diagonal matmul ``a @ diag(b_0, ..., b_{blocks-1})``.

    ``a`` is (m, blocks*k) and ``b`` is (blocks*k, p): row block i of ``b``
    (k x p) maps column block i of ``a`` (m x k) to column block i of the
    (m, blocks*p) result. The off-diagonal zeros are never formed.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if (
        a.value.ndim != 2
        or b.value.ndim != 2
        or blocks < 1
        or a.value.shape[1] != b.value.shape[0]
        or b.value.shape[0] % blocks
    ):
        raise DimensionError(
            f"block-matmul: shapes {a.value.shape} and {b.value.shape} do not split into {blocks} blocks"
        )
    m, (rows, p) = a.value.shape[0], b.value.shape
    k = rows // blocks
    a3 = a.value.reshape(m, blocks, k).transpose(1, 0, 2)  # (blocks, m, k)
    b3 = b.value.reshape(blocks, k, p)

    def bw(g, node):
        (ta, tb), (av3, bv3) = node.inputs, node.saved
        g3 = g.reshape(m, blocks, p).transpose(1, 0, 2)
        ga = gb = None
        if ta.requires_grad:
            ga = np.matmul(g3, bv3.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(m, rows)
        if tb.requires_grad:
            gb = np.matmul(av3.transpose(0, 2, 1), g3).reshape(rows, p)
        return ga, gb

    out = np.matmul(a3, b3).transpose(1, 0, 2).reshape(m, blocks * p)
    return _record("block-matmul", (a, b), out, bw, (a3, b3))


def straight_through(hard, soft: Tensor) -> Tensor:
    """Forward the detached hard value, route gradients to ``soft`` unchanged."""
    hv = hard.value if isinstance(hard, Tensor) else np.asarray(hard, dtype=np.float64)
    if hv.shape != soft.value.shape:
        raise DimensionError(f"straight-through: shapes {hv.shape} and {soft.value.shape} differ")

    def bw(g, node):
        return (g,)

    return _record("straight-through", (soft,), hv, bw, None)

