"""Minimal reverse-mode autodiff over dense float64 arrays.

A :class:`Tape` records every operation applied to :class:`Tensor` objects
while it is active; ``tape.backward(loss)`` then walks the record in reverse
and accumulates ``d loss / d leaf`` into each leaf's ``.grad``. Each op is a
plain function that computes its value in numpy and records one node with its
own adjoint through :func:`_record`; the two fused ops defined elsewhere
(the Sinkhorn operator and SoftSort in :mod:`diffdag.gumbel`) record
themselves the same way. The vocabulary holds only the ops the library
calls, with no general broadcasting, and every adjoint is
finite-difference checked on its own.
Operands are at most 3-d. Elementwise ops and sums take any rank;
``add``, ``sub`` and ``mul`` pair equal shapes, or a scalar with anything.
``matmul`` and ``add_row`` name the 3-d forms they accept, ``spread`` turns
a matrix into a stack and ``slices_to_columns`` turns a stack of columns
back into a matrix. ``transpose`` takes matrices only.

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
        if self.value.ndim > 3:
            raise DimensionError(f"tensors are at most 3-d, got shape {self.value.shape}")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad = None

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
    """``a @ b`` in one of three forms: (m, k) @ (k, p) -> (m, p);
    (m, k) @ (s, k, p) -> (s, m, p), one matrix times every slice of ``b``;
    and (s, m, k) @ (s, k, p) -> (s, m, p), slice by slice."""
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    forms = av.ndim == 2 and bv.ndim in (2, 3) or av.ndim == bv.ndim == 3 and av.shape[0] == bv.shape[0]
    if not forms or av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul: shapes {av.shape} and {bv.shape} incompatible")

    def bw(g, node):
        (ta, tb), (av, bv) = node.inputs, node.saved
        ga = gb = None
        if ta.requires_grad:
            ga = np.matmul(g, bv.swapaxes(-1, -2))
            if ga.ndim > av.ndim:  # a was shared by every slice
                ga = ga.sum(axis=0)
        if tb.requires_grad:
            gb = np.matmul(av.swapaxes(-1, -2), g)
        return ga, gb

    return _record("matmul", (a, b), np.matmul(av, bv), bw, (av, bv))


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _need_same_shape("add", a, b)

    def bw(g, node):
        (ta, tb), (av, bv) = node.inputs, node.saved
        return (
            _reduce_like(g, av) if ta.requires_grad else None,
            _reduce_like(g, bv) if tb.requires_grad else None,
        )

    return _record("add", (a, b), a.value + b.value, bw, (a.value, b.value))


def add_row(x: Tensor, b: Tensor) -> Tensor:
    """``x + b`` with a row added to every row: the (1, k) ``b`` to the
    (m, k) ``x``, or slice by slice the (s, 1, k) ``b`` to the (s, m, k) ``x``."""
    x, b = _as_tensor(x), _as_tensor(b)
    xs = x.value.shape
    if x.value.ndim not in (2, 3) or b.value.shape != xs[:-2] + (1, xs[-1]):
        raise DimensionError(f"add-row: shapes {xs} and {b.value.shape} incompatible")

    def bw(g, node):
        # ones.T @ g, not a sum over the rows: the same sum, in the same
        # order, as the matmul(ones, b) this op replaced
        return g, np.matmul(node.saved.T, g) if node.inputs[1].requires_grad else None

    return _record("add-row", (x, b), x.value + b.value, bw, np.ones((xs[-2], 1)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _need_same_shape("sub", a, b)

    def bw(g, node):
        (ta, tb), (av, bv) = node.inputs, node.saved
        return (
            _reduce_like(g, av) if ta.requires_grad else None,
            _reduce_like(-g, bv) if tb.requires_grad else None,
        )

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


def spread(x: Tensor, k: int) -> Tensor:
    """(m, n) -> (m, n, k): every entry of the matrix ``x`` repeated along a
    new last axis of length ``k``."""
    x = _as_tensor(x)
    if x.value.ndim != 2 or k < 1:
        raise DimensionError(f"spread: need a matrix and k >= 1, got shape {x.value.shape} and k = {k}")

    def bw(g, node):
        return (g.sum(axis=-1),)

    return _record("spread", (x,), np.repeat(x.value[:, :, None], k, axis=2), bw, None)


def slices_to_columns(x: Tensor) -> Tensor:
    """(s, m, 1) -> (m, s): slice j of ``x`` becomes column j."""
    x = _as_tensor(x)
    if x.value.ndim != 3 or x.value.shape[2] != 1:
        raise DimensionError(f"slices-to-columns: need shape (s, m, 1), got {x.value.shape}")

    def bw(g, node):
        return (g.T[:, :, None],)

    return _record("slices-to-columns", (x,), x.value[:, :, 0].T, bw, None)


def straight_through(hard, soft: Tensor) -> Tensor:
    """Forward the detached hard value, route gradients to ``soft`` unchanged."""
    hv = hard.value if isinstance(hard, Tensor) else np.asarray(hard, dtype=np.float64)
    if hv.shape != soft.value.shape:
        raise DimensionError(f"straight-through: shapes {hv.shape} and {soft.value.shape} differ")

    def bw(g, node):
        return (g,)

    return _record("straight-through", (soft,), hv, bw, None)

