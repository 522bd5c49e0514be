"""Minimal reverse-mode autodiff over dense float64 arrays.

A :class:`Tape` records every operation applied to :class:`Tensor` objects
while it is active; ``tape.backward(loss)`` then walks the record in reverse
and accumulates ``d loss / d leaf`` into each leaf's ``.grad``. This module
is the tape alone: it defines no op. Each op is a plain function elsewhere
that computes its value in numpy and records one node with its own adjoint
through :func:`_record`, one node per operation of the model: the Sinkhorn
operator, SoftSort and the edge relaxation in :mod:`diffdag.gumbel`, the
order mask ``P^T M P`` and the masked adjacency in :mod:`diffdag.model`, and
the per-node mechanism MLPs, the KL term and the loss in
:mod:`diffdag.training`. Every adjoint is finite-difference checked on its
own. Tensors are at most 3-d, because the stacked mechanism parameters are.

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
        at the end belongs to leaves. An adjoint may pass ``g`` itself
        on, so a gradient may be shared and is never written to: a
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


def _record(kind, inputs, value, backward_fn, saved=None) -> Tensor:
    out = Tensor(value)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append(_Node(kind, tuple(inputs), out, backward_fn, saved))
    return out
