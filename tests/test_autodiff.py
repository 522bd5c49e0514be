import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add, assert_grads_close, matmul, mul, squared_norm, sub, transpose, tsum
from diffdag.autodiff import DimensionError, Tape, Tensor
from diffdag.model import _dag_node


def _reference_backward(tape: Tape, loss: Tensor) -> None:
    """Reference: the backward pass that gave every requires_grad tensor,
    intermediates included, a ``.grad`` copy and summed fan-in into fresh
    arrays."""
    grads = {id(loss): np.ones_like(loss.value)}
    tensors = {id(loss): loss}
    for node in reversed(tape.nodes):
        g = grads.get(id(node.output))
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
    for key, t in tensors.items():
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.array(grads[key], dtype=np.float64, copy=True)
            else:
                t.grad = t.grad + grads[key]


# Random op graphs over 3x3 matrices and scalars. Operands are picked from
# everything built so far, so tensors fan out, and graphs mix leaves with
# constants. The test-local ops that hand their incoming gradient on
# unchanged (add, sub's first operand) or a view of it (transpose) are the
# ones whose borrowed buffers the engine must never write to.
_GRAPH_OPS = ("add", "sub", "mul", "matmul", "transpose")


def _build_graph(values, requires, scalars, ops):
    mats = [Tensor(v.copy(), requires_grad=r) for v, r in zip(values, requires)]
    leaves = [t for t in mats if t.requires_grad]
    svals = [Tensor(scalars[0], requires_grad=True), Tensor(scalars[1])]
    leaves.append(svals[0])
    outputs = []
    for op, i, j, flip in ops:
        a, b = mats[i % len(mats)], mats[j % len(mats)]
        if op in ("add", "sub", "mul"):
            fn = {"add": add, "sub": sub, "mul": mul}[op]
            if j % 3 == 0:  # a scalar operand, on either side
                b = svals[j % 2]
            out = fn(b, a) if flip else fn(a, b)
        elif op == "matmul":
            out = matmul(a, b)
        else:
            out = transpose(a)
        mats.append(out)
        outputs.append(out)
    w = Tensor(np.linspace(-1.0, 1.0, 9).reshape(3, 3))
    return tsum(mul(mats[-1], w)), leaves, outputs


def _grad_bytes(t: Tensor):
    return None if t.grad is None else (np.shape(t.grad), np.asarray(t.grad, dtype=np.float64).tobytes())


class TestBackwardEngine:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        requires=st.lists(st.booleans(), min_size=1, max_size=4).map(lambda r: [True] + r),
        ops=st.lists(
            st.tuples(st.sampled_from(_GRAPH_OPS), st.integers(0, 99), st.integers(0, 99), st.booleans()),
            min_size=1,
            max_size=12,
        ),
    )
    def test_leaf_gradients_match_reference(self, seed, requires, ops):
        rng = np.random.default_rng(seed)
        values = [rng.uniform(-1.5, 1.5, (3, 3)) for _ in requires]
        scalars = rng.uniform(-1.5, 1.5, 2)
        runs = []
        for backward in (Tape.backward, _reference_backward):
            grads = []
            with Tape() as tape:
                loss, leaves, outputs = _build_graph(values, requires, scalars, ops)
            # a second call accumulates into the .grad the first one left
            for _ in range(2):
                backward(tape, loss)
                grads.append([_grad_bytes(t) for t in leaves])
            runs.append((grads, leaves, outputs))
        (grads, leaves, outputs), (ref_grads, _, _) = runs
        assert grads == ref_grads
        assert all(t.grad is None for t in outputs)
        held = [t.grad for t in leaves if t.grad is not None]
        # 0-d included: a second call must not turn .grad into a numpy scalar
        assert all(type(t.grad) is np.ndarray and t.grad.shape == t.shape for t in leaves if t.grad is not None)
        assert all(g.dtype == np.float64 for g in held)
        assert not any(np.shares_memory(a, b) for k, a in enumerate(held) for b in held[k + 1 :])

    def test_intermediates_get_no_grad(self, rng):
        w = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
        with Tape() as tape:
            h = add(matmul(w, w), w)
            loss = squared_norm(h)
        tape.backward(loss)
        assert w.grad is not None and h.grad is None and loss.grad is None

    def test_leaves_never_share_a_gradient_buffer(self, rng):
        # add hands g itself to both operands; each leaf needs its own copy
        x = Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True)
        y = Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(add(x, y), Tensor(rng.uniform(-1, 1, (2, 2)))))
        tape.backward(loss)
        assert not np.shares_memory(x.grad, y.grad)

    def test_constant_operands_get_no_adjoint(self, rng):
        w = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (2, 4)))
        cases = [
            (lambda: _dag_node(c, w, c.value, None), 0),
            (lambda: _dag_node(w, c, c.value, None), 1),
            (lambda: mul(c, w), 0),
            (lambda: sub(w, c), 1),
            (lambda: sub(c, w), 0),
            (lambda: add(w, c), 1),
            (lambda: add(c, w), 0),
            (lambda: add(w, Tensor(0.5)), 1),
        ]
        for build, const in cases:
            with Tape() as tape:
                out = build()
            node = tape.nodes[-1]
            adjoints = node.backward_fn(np.ones_like(out.value), node)
            assert adjoints[const] is None and adjoints[1 - const] is not None


class TestForwardValues:
    def test_squared_norm(self):
        assert squared_norm(Tensor([3.0, 4.0])).value == 25.0


class TestBackwardExamples:
    def test_squared_norm_gradient(self):
        x = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            loss = squared_norm(x)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0, 8.0])

    def test_fanout_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = tsum(add(x, x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_grad_accumulates_until_zeroed(self):
        x = Tensor([1.0], requires_grad=True)
        for expected in (1.0, 2.0):
            with Tape() as tape:
                loss = tsum(x)
            tape.backward(loss)
            np.testing.assert_array_equal(x.grad, [expected])
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            y = add(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(3)
        a_val = rng.uniform(-2, 2, (4, 4))
        b_val = rng.uniform(-2, 2, (4, 4))

        def run():
            a = Tensor(a_val, requires_grad=True)
            b = Tensor(b_val, requires_grad=True)
            with Tape() as tape:
                loss = squared_norm(mul(matmul(a, b), b))
            tape.backward(loss)
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


class TestShapeErrors:
    def test_add_mismatch(self):
        with pytest.raises(DimensionError, match="add"):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_rank_four_rejected(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 2, 2, 2)))


class TestGradChecks:
    """Every differentiable op against central finite differences."""

    def test_binary_ops(self, rng):
        a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        assert_grads_close(lambda: tsum(mul(add(a, b), b)), [a, b])
        assert_grads_close(lambda: tsum(mul(sub(a, b), a)), [a, b])

    def test_scalar_operand(self, rng):
        a = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
        s = Tensor(0.7, requires_grad=True)
        assert_grads_close(lambda: tsum(mul(add(a, s), a)), [a, s])
        assert_grads_close(lambda: squared_norm(mul(a, s)), [a, s])

    def test_unary_ops(self, rng):
        x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        assert_grads_close(lambda: squared_norm(x), [x])
