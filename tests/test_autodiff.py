import numpy as np
import pytest

from conftest import assert_grads_close
from diffdag import autodiff as ad
from diffdag.autodiff import DimensionError, Tape, Tensor, straight_through


class TestForwardValues:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.value, [[1, 2], [3, 4]])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).value == 0.5

    def test_squared_norm(self):
        assert ad.squared_norm(Tensor([3.0, 4.0])).value == 25.0

    def test_softmax_rows_sums(self, rng):
        x = Tensor(rng.uniform(-3, 3, (4, 6)))
        s = ad.softmax_rows(x).value
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_softplus_matches_log1p_exp_and_stays_finite(self, rng):
        x = rng.uniform(-30, 30, 200)
        np.testing.assert_allclose(ad.softplus(Tensor(x)).value, np.log1p(np.exp(x)), rtol=1e-14, atol=0)
        big = np.array([-1e300, -1e3, -40.0, 40.0, 1e3, 1e300])
        out = ad.softplus(Tensor(big)).value
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out[3:], big[3:])

    def test_block_matmul_is_block_diagonal_product(self, rng):
        blocks, m, k, p = 3, 4, 2, 5
        a = rng.uniform(-2, 2, (m, blocks * k))
        b = rng.uniform(-2, 2, (blocks * k, p))
        dense = np.zeros((blocks * k, blocks * p))
        for i in range(blocks):
            dense[i * k : (i + 1) * k, i * p : (i + 1) * p] = b[i * k : (i + 1) * k]
        out = ad.block_matmul(Tensor(a), Tensor(b), blocks)
        np.testing.assert_allclose(out.value, a @ dense, rtol=0, atol=1e-12)

    def test_leaky_relu_matches_where_form(self, rng):
        x = np.concatenate([rng.uniform(-3, 3, 200), [0.0, -0.0, 1e-300, -1e-300]])
        for alpha in (0.0, 0.01, 0.5, 0.999):
            out = ad.leaky_relu(Tensor(x), alpha).value
            ref = np.where(x > 0, x, alpha * x)
            assert np.array_equal(out, ref) and np.array_equal(np.signbit(out), np.signbit(ref))


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

    def test_block_matmul_mismatched_blocks(self):
        with pytest.raises(DimensionError, match="block-matmul"):
            ad.block_matmul(Tensor(np.ones((2, 6))), Tensor(np.ones((6, 2))), 4)
        with pytest.raises(DimensionError, match="block-matmul"):
            ad.block_matmul(Tensor(np.ones((2, 6))), Tensor(np.ones((4, 2))), 2)

    def test_leaky_relu_rejects_slope_outside_unit_interval(self):
        for alpha in (-0.1, 1.0, 2.0, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                ad.leaky_relu(Tensor(np.ones(3)), alpha)

    def test_rank_three_rejected(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 2, 2)))


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
        cases = [
            ad.sigmoid,
            ad.softplus,
            ad.leaky_relu,
            ad.absolute,
            ad.softmax_rows,
        ]
        for op in cases:
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

    def test_structural_ops(self, rng):
        a = Tensor(rng.uniform(-2, 2, (2, 6)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (6, 2)), requires_grad=True)
        w = Tensor(rng.uniform(-2, 2, (2, 6)))
        assert_grads_close(lambda: ad.tsum(ad.mul(ad.block_matmul(a, b, 3), w)), [a, b])


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
