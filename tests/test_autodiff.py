import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_grads_close
from diffdag import autodiff as ad
from diffdag.autodiff import DimensionError, Tape, Tensor, straight_through


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
# constants. The ops that hand their incoming gradient on unchanged (add,
# sub's first operand, straight-through, transpose's view) are the ones whose
# borrowed buffers the engine must never write to.
_GRAPH_OPS = ("add", "sub", "mul", "matmul", "transpose", "straight-through", "sigmoid")


def _build_graph(values, requires, scalars, ops):
    mats = [Tensor(v.copy(), requires_grad=r) for v, r in zip(values, requires)]
    leaves = [t for t in mats if t.requires_grad]
    svals = [Tensor(scalars[0], requires_grad=True), Tensor(scalars[1])]
    leaves.append(svals[0])
    outputs = []
    for op, i, j, flip in ops:
        a, b = mats[i % len(mats)], mats[j % len(mats)]
        if op in ("add", "sub", "mul"):
            fn = {"add": ad.add, "sub": ad.sub, "mul": ad.mul}[op]
            if j % 3 == 0:  # a scalar operand, on either side
                b = svals[j % 2]
            out = fn(b, a) if flip else fn(a, b)
        elif op == "matmul":
            out = ad.matmul(a, b)
        elif op == "transpose":
            out = ad.transpose(a)
        elif op == "straight-through":
            out = straight_through(np.rint(a.value), a)
        else:
            out = ad.sigmoid(a)
        mats.append(out)
        outputs.append(out)
    w = Tensor(np.linspace(-1.0, 1.0, 9).reshape(3, 3))
    return ad.tsum(ad.mul(mats[-1], w)), leaves, outputs


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
            h = ad.add(ad.matmul(w, w), w)
            loss = ad.tsum(ad.sigmoid(h))
        tape.backward(loss)
        assert w.grad is not None and h.grad is None and loss.grad is None

    def test_leaves_never_share_a_gradient_buffer(self, rng):
        # add hands g itself to both operands; each leaf needs its own copy
        x = Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True)
        y = Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(ad.mul(ad.add(x, y), Tensor(rng.uniform(-1, 1, (2, 2)))))
        tape.backward(loss)
        assert not np.shares_memory(x.grad, y.grad)

    def test_constant_operands_get_no_adjoint(self, rng):
        w = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (2, 4)))
        cases = [
            (lambda: ad.matmul(c, ad.transpose(w)), 0),
            (lambda: ad.matmul(ad.transpose(c), w), 0),
            (lambda: ad.mul(c, w), 0),
            (lambda: ad.sub(w, c), 1),
            (lambda: ad.sub(c, w), 0),
            (lambda: ad.add(w, c), 1),
            (lambda: ad.add(c, w), 0),
            (lambda: ad.add(w, Tensor(0.5)), 1),
        ]
        for build, const in cases:
            with Tape() as tape:
                out = build()
            node = tape.nodes[-1]
            adjoints = node.backward_fn(np.ones_like(out.value), node)
            assert adjoints[const] is None and adjoints[1 - const] is not None


class TestForwardValues:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.value, [[1, 2], [3, 4]])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).value == 0.5

    def test_squared_norm(self):
        assert ad.squared_norm(Tensor([3.0, 4.0])).value == 25.0

    def test_softplus_matches_log1p_exp_and_stays_finite(self, rng):
        x = rng.uniform(-30, 30, 200)
        np.testing.assert_allclose(ad.softplus(Tensor(x)).value, np.log1p(np.exp(x)), rtol=1e-14, atol=0)
        big = np.array([-1e300, -1e3, -40.0, 40.0, 1e3, 1e300])
        out = ad.softplus(Tensor(big)).value
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out[3:], big[3:])


class TestBackwardExamples:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [1, 1, 1])

    def test_squared_norm_gradient(self):
        x = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.squared_norm(x)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0, 8.0])

    def test_scaled_sigmoid_gradient(self):
        # sigma'(0) = 0.25, times the constant 4
        w = Tensor(0.0, requires_grad=True)
        with Tape() as tape:
            loss = ad.mul(ad.sigmoid(w), Tensor(4.0))
        tape.backward(loss)
        np.testing.assert_allclose(w.grad, 1.0)

    def test_fanout_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(ad.add(x, x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_grad_accumulates_until_zeroed(self):
        x = Tensor([1.0], requires_grad=True)
        for expected in (1.0, 2.0):
            with Tape() as tape:
                loss = ad.tsum(x)
            tape.backward(loss)
            np.testing.assert_array_equal(x.grad, [expected])
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            y = ad.add(x, x)
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
                loss = ad.tsum(ad.mul(ad.sigmoid(ad.matmul(a, b)), b))
            tape.backward(loss)
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


class TestShapeErrors:
    def test_matmul_mismatch_names_op(self):
        with pytest.raises(DimensionError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_mismatch(self):
        with pytest.raises(DimensionError, match="add"):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    @pytest.mark.parametrize(
        "a, b",
        [
            ((2, 3, 4), (4, 5)),
            ((3, 4), (2, 4, 5)),
            ((2, 3, 4), (2, 4, 5)),
            ((4,), (4, 5)),
            ((3, 4), (4,)),
        ],
    )
    def test_matmul_takes_matrices_only(self, a, b):
        with pytest.raises(DimensionError, match="matmul"):
            ad.matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))

    def test_rank_four_rejected(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 2, 2, 2)))


class TestGradChecks:
    """Every differentiable op against central finite differences."""

    def test_binary_ops(self, rng):
        a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        c = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
        w = Tensor(rng.uniform(-2, 2, (3, 2)))
        assert_grads_close(lambda: ad.tsum(ad.mul(ad.add(a, b), b)), [a, b])
        assert_grads_close(lambda: ad.tsum(ad.mul(ad.sub(a, b), a)), [a, b])
        assert_grads_close(lambda: ad.tsum(ad.mul(ad.matmul(a, c), w)), [a, c])

    def test_scalar_operand(self, rng):
        a = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
        s = Tensor(0.7, requires_grad=True)
        assert_grads_close(lambda: ad.tsum(ad.mul(ad.add(a, s), a)), [a, s])
        assert_grads_close(lambda: ad.squared_norm(ad.mul(a, s)), [a, s])

    def test_unary_ops(self, rng):
        x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-2, 2, (3, 4)))
        for op in (ad.sigmoid, ad.softplus):
            assert_grads_close(lambda: ad.tsum(ad.mul(op(x), w)), [x])
        assert_grads_close(lambda: ad.tsum(ad.mul(ad.transpose(x), ad.transpose(w))), [x])
        assert_grads_close(lambda: ad.squared_norm(x), [x])

    def test_softplus_gradient_is_sigmoid_at_saturation(self):
        x = Tensor([-1e300, -1e3, -40.0, 40.0, 1e3, 1e300], requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(ad.softplus(x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad[3:], 1.0)
        assert np.isfinite(x.grad).all() and (x.grad[:3] >= 0).all() and x.grad[2] < 1e-17


class TestStraightThrough:
    def test_forward_hard_backward_identity(self):
        soft = Tensor([0.9, 0.1], requires_grad=True)
        with Tape() as tape:
            out = straight_through(np.array([1.0, 0.0]), soft)
            loss = ad.tsum(out)
        np.testing.assert_array_equal(out.value, [1.0, 0.0])
        tape.backward(loss)
        np.testing.assert_array_equal(soft.grad, [1.0, 1.0])

    def test_matches_relaxed_graph_fd(self, rng):
        # With a linear readout the straight-through gradient equals the
        # finite-difference gradient of the graph with hard replaced by soft.
        w = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
        c = rng.uniform(-2, 2, (3, 3))

        def st_loss():
            soft = ad.sigmoid(w)
            hard = np.rint(soft.value)
            return ad.tsum(ad.mul(straight_through(hard, soft), Tensor(c)))

        def relaxed_loss():
            return ad.tsum(ad.mul(ad.sigmoid(w), Tensor(c)))

        w.zero_grad()
        with Tape() as tape:
            loss = st_loss()
        tape.backward(loss)
        analytic = w.grad.copy()

        eps = 1e-5
        fd = np.zeros_like(w.value)
        flat, fdf = w.value.reshape(-1), fd.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up = float(relaxed_loss().value)
            flat[k] = orig - eps
            down = float(relaxed_loss().value)
            flat[k] = orig
            fdf[k] = (up - down) / (2 * eps)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-2)
        assert rel.max() <= 1e-4

    def test_degenerate_hard_equals_soft(self):
        soft = Tensor([0.25, 0.5], requires_grad=True)
        out = straight_through(soft, soft)
        np.testing.assert_array_equal(out.value, soft.value)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match="straight-through"):
            straight_through(np.ones(3), Tensor(np.ones(2)))
