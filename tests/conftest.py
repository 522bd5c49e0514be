import itertools
import os

import numpy as np
import pytest

from diffdag import autodiff as ad
from diffdag.autodiff import Tape, Tensor


def pytest_report_header(config):
    """numpy's version, its BLAS and the BLAS thread settings: generated
    data, and with it the data-based acceptance criteria, depend on the
    BLAS thread count."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}, {threads}"


# Test-local tape ops that the library no longer needs: a sum readout for
# turning any tensor into a scalar loss, elementwise add, sub and mul, a
# squared norm, and matrix product and transpose for reference chains. Each
# records one node as the library's own ops do.


def tsum(x):
    """Sum of every entry, as a scalar tensor; its adjoint spreads ``g``."""
    return ad._record("sum", (x,), np.sum(x.value), lambda g, node: (np.full(node.saved, float(g)),), x.value.shape)


def _elementwise(kind, a, b, value, ga, gb):
    """One node for an elementwise op on equal shapes, or on a scalar and
    anything; ``ga(g, av, bv)`` and ``gb`` are its partial adjoints before a
    scalar operand's spread is summed back."""
    a, b = (x if isinstance(x, Tensor) else Tensor(x) for x in (a, b))
    if a.value.shape != b.value.shape and a.value.size != 1 and b.value.size != 1:
        raise ad.DimensionError(f"{kind}: shapes {a.value.shape} and {b.value.shape} differ")

    def reduce_like(g, v):
        return np.sum(g).reshape(v.shape) if v.size == 1 else g

    def bw(g, node):
        (ta, tb), (av, bv) = node.inputs, node.saved
        return (
            reduce_like(ga(g, av, bv), av) if ta.requires_grad else None,
            reduce_like(gb(g, av, bv), bv) if tb.requires_grad else None,
        )

    return ad._record(kind, (a, b), value(a.value, b.value), bw, (a.value, b.value))


def add(a, b):
    """``a + b``; its adjoint hands ``g`` itself to both operands."""
    return _elementwise("add", a, b, np.add, lambda g, av, bv: g, lambda g, av, bv: g)


def sub(a, b):
    """``a - b``; its adjoint hands ``g`` itself to ``a``."""
    return _elementwise("sub", a, b, np.subtract, lambda g, av, bv: g, lambda g, av, bv: -g)


def mul(a, b):
    """Elementwise ``a * b``."""
    return _elementwise("elementwise-mul", a, b, np.multiply, lambda g, av, bv: g * bv, lambda g, av, bv: g * av)


def squared_norm(x):
    """Sum of squared entries, as a scalar tensor."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    return ad._record("squared-norm", (x,), np.sum(x.value * x.value), lambda g, node: (2.0 * float(g) * node.saved,), x.value)


def matmul(a, b):
    """``a @ b`` for matrices."""

    def bw(g, node):
        (ta, tb), (av, bv) = node.inputs, node.saved
        return (
            np.matmul(g, bv.T) if ta.requires_grad else None,
            np.matmul(av.T, g) if tb.requires_grad else None,
        )

    return ad._record("matmul", (a, b), np.matmul(a.value, b.value), bw, (a.value, b.value))


def transpose(x):
    """Matrix transpose; its adjoint returns a view of ``g``."""
    return ad._record("transpose", (x,), x.value.T.copy(), lambda g, node: (g.T,))


def bernoulli_kl(p, q):
    """Closed-form KL(Ber(p) || Ber(q)), taking 0 log 0 = 0 at p in {0, 1}:
    the oracle for the training objective's KL term."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ones = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
        zeros = np.where(p < 1, (1.0 - p) * (np.log1p(-p) - np.log1p(-q)), 0.0)
    return ones + zeros


def analytic_grads(build_loss, params):
    """Run one forward/backward and return each param's gradient."""
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    return [None if p.grad is None else p.grad.copy() for p in params]


def numeric_grads(build_loss, params, eps=1e-5):
    """Central finite differences of the loss w.r.t. every param entry."""
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        gf = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up = float(build_loss().value)
            flat[k] = orig - eps
            down = float(build_loss().value)
            flat[k] = orig
            gf[k] = (up - down) / (2.0 * eps)
        grads.append(g)
    return grads


def assert_grads_close(build_loss, params, rtol=1e-4, eps=1e-5, floor=1e-2):
    """Analytic vs central-difference gradients, relative error with a floor."""
    ana = analytic_grads(build_loss, params)
    num = numeric_grads(build_loss, params, eps=eps)
    for p, a, b in zip(params, ana, num):
        assert a is not None, f"no gradient reached param of shape {p.value.shape}"
        rel = np.abs(a - b) / np.maximum(np.abs(b), floor)
        assert rel.max() <= rtol, f"gradient mismatch (max rel {rel.max():.2e}) for shape {p.value.shape}"


def enumerate_dags(n):
    """All labeled DAGs on n nodes as binary matrices (brute force)."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in itertools.product((0, 1), repeat=len(cells)):
        m = np.zeros((n, n), dtype=np.int8)
        for (i, j), b in zip(cells, bits):
            m[i, j] = b
        if _acyclic_ref(m):
            out.append(m)
    return out


def _acyclic_ref(m):
    """Reference acyclicity via nilpotency of the adjacency power."""
    n = m.shape[0]
    p = np.asarray(m, dtype=np.int64)
    acc = p.copy()
    for _ in range(n):
        if np.trace(acc) > 0:
            return False
        acc = (acc @ p > 0).astype(np.int64)
    return True


def auc_roc_oracle(scores, labels):
    """Enumerate every distinct threshold, integrate ROC with trapezoids."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = labels.sum()
    neg = labels.size - pos
    pts = [(0.0, 0.0)]
    for t in sorted(set(scores.tolist()), reverse=True):
        keep = scores >= t
        pts.append((np.sum(keep & (labels == 0)) / neg, np.sum(keep & (labels == 1)) / pos))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def auc_pr_oracle(scores, labels):
    """Enumerate every distinct threshold, step-integrate precision-recall."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = labels.sum()
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        keep = scores >= t
        tp = np.sum(keep & (labels == 1))
        recall = tp / pos
        precision = tp / keep.sum()
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
