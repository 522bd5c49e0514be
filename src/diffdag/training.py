"""Variational training of the DAG model plus per-node causal mechanisms.

The objective per minibatch is

    mean over rows of sum_i (x_i - f_i(A_i * x))^2
    + lambda * sum over allowed pairs of KL(Ber(phi_ij) || Ber(prior_p))

with ``A`` one straight-through DAG sample per step, so gradients reach the
mechanism weights, the edge logits and the permutation scores jointly.
Validation uses the noise-free permutation with soft edge probabilities so
early stopping does not chase sampling noise.

``fit`` (with or without a frozen structure) and ``fit_direct`` share one
step; a non-finite training or validation loss, or a non-finite sampler
parameter after a ``fit_direct`` step, raises ``DivergenceError``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from ._checks import check_count, check_real, check_scale
from .autodiff import Tape, Tensor
from .graphs import AdjacencyMatrix
from .gumbel import SINKHORN, TOPK, GumbelSource, _sigmoid_np
from .model import DpDagModel, _directed_scores, _finite_array, sample_dag, sample_dag_parts, threshold_dag
from .semdata import SemDataset

__all__ = [
    "DivergenceError",
    "TrainConfig",
    "MechanismNet",
    "FitResult",
    "Adam",
    "elbo_loss",
    "validation_loss",
    "fit",
    "fit_direct",
    "predict",
]


class DivergenceError(RuntimeError):
    """A training or validation loss, or a ``fit_direct`` sampler parameter,
    became non-finite; one message argument, so it pickles back intact from
    worker processes."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2
    hidden: int = 16
    perm_mode: str = TOPK
    prior_p: float = 0.05
    lam: float = 0.05
    temperature: float = 1.0
    batch_size: int = 128
    max_epochs: int = 300
    patience: int = 10
    val_check_every: int = 2
    seed: int = 0
    sinkhorn_iters: int = 20

    def __post_init__(self):
        for name in ("hidden", "sinkhorn_iters", "batch_size", "max_epochs", "patience", "val_check_every"):
            check_count(name, getattr(self, name), 1)
        check_count("seed", self.seed, 0)
        check_scale("learning_rate", self.learning_rate)
        check_scale("temperature", self.temperature)
        if self.perm_mode not in (SINKHORN, TOPK):
            raise ValueError(f"perm_mode must be {SINKHORN!r} or {TOPK!r}, got {self.perm_mode!r}")
        check_real("prior_p", self.prior_p)
        check_real("lam", self.lam)
        if not (1e-2 <= self.prior_p <= 1e-1):
            raise ValueError(f"prior_p must lie in [1e-2, 1e-1], got {self.prior_p}")
        if not (0.0 <= self.lam <= 1e-1):
            raise ValueError(f"lam must lie in [0, 1e-1], got {self.lam}")
        if self.max_epochs < self.val_check_every:
            raise ValueError(f"max_epochs must be >= val_check_every, got {self.max_epochs} < {self.val_check_every}")

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _node_shapes(n: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Node i's share of each mechanism parameter, in ``parameters()`` order:
    also the version-1 checkpoint layout of ``layers[i]``."""
    return {
        "w1": (n, hidden),
        "b1": (1, hidden),
        "w2": (hidden, hidden),
        "b2": (1, hidden),
        "w3": (hidden, 1),
        "b3": (1, 1),
    }


class MechanismNet:
    """n independent 3-layer MLPs, one per node (n inputs -> h -> h -> 1).

    Node i's input is the full observation row multiplied by row i of the
    sampled adjacency, so it can only depend on unmasked parents.

    The n networks are six node-major stacks, with axis 0 the node: ``w1``
    (n, n, h), ``b1`` (n, 1, h), ``w2`` (n, h, h), ``b2`` (n, 1, h), ``w3``
    (n, h, 1) and ``b3`` (n, 1, 1), so ``p.value[i]`` is node i's own array
    for every parameter ``p``, in the shape a checkpoint stores it. One
    forward pass computes all n networks in numpy and records one
    ``"mechanisms"`` tape node, whatever n is.

    ``n`` and ``hidden`` must be integers >= 1; anything else raises
    ``ValueError`` naming the argument before any array is allocated.
    """

    def __init__(self, n: int, hidden: int, rng: np.random.Generator):
        self._allocate(n, hidden)
        for i in range(n):  # node by node: node i's three draws, then node i + 1's
            self.w1.value[i] = _he_init(rng, n, hidden)
            self.w2.value[i] = _he_init(rng, hidden, hidden)
            self.w3.value[i] = _he_init(rng, hidden, 1)

    def _allocate(self, n: int, hidden: int) -> None:
        """Zeroed stacks of every parameter, to be filled node by node."""
        check_count("n", n, 1)
        check_count("hidden", hidden, 1)
        self.n, self.hidden = int(n), int(hidden)
        for key, shape in _node_shapes(n, hidden).items():
            setattr(self, key, Tensor(np.zeros((n, *shape)), requires_grad=True))

    def parameters(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def forward_all(self, x: Tensor, mask: Tensor) -> Tensor:
        """Predict every column of the batch ``x`` (b x n) at once; column i
        sees ``x`` through row i of ``mask`` (n x n) only.

        Gradients reach the six parameters and ``mask``, never ``x``: an
        ``x`` that requires a gradient, like a misshapen ``x`` or ``mask``,
        raises ``DimensionError``.
        """
        n = self.n
        if x.value.ndim != 2 or x.value.shape[1] != n:
            raise ad.DimensionError(f"forward_all: x must have shape (b, {n}), got {x.value.shape}")
        if mask.value.shape != (n, n):
            raise ad.DimensionError(f"forward_all: mask must have shape ({n}, {n}), got {mask.value.shape}")
        if x.requires_grad:
            raise ad.DimensionError("forward_all: x must not require a gradient; none reaches the batch")
        xv, m = x.value, mask.value
        # (x * a_i) @ W1_i == x @ (diag(a_i) W1_i): mask the weights, not the batch
        h1, slope1 = _bias_leaky_relu(np.matmul(xv, self.w1.value * m[:, :, None]), self.b1.value)  # (n, b, h)
        h2, slope2 = _bias_leaky_relu(np.matmul(h1, self.w2.value), self.b2.value)
        out = np.matmul(h2, self.w3.value)[:, :, 0].T + self.b3.value[:, 0, 0]

        def bw(g, node):
            # bias sums as ones.T @ g, not .sum(axis): the summation order of
            # the separate matmul/add-row adjoints this node replaced, so seeded
            # fits stay bit-identical; in place only on arrays made here
            w1, _, w2, _, w3, b3, mask = node.inputs
            xv, m, h1, slope1, h2, slope2 = node.saved
            ones_t = np.ones((xv.shape[0], 1)).T
            gb3 = np.matmul(ones_t, g).reshape(b3.value.shape)
            g = g.T[:, :, None]  # (n, b, 1)
            gw3 = np.matmul(h2.swapaxes(-1, -2), g)
            g = np.matmul(g, w3.value.swapaxes(-1, -2))
            g *= slope2
            gb2 = np.matmul(ones_t, g)
            gw2 = np.matmul(h1.swapaxes(-1, -2), g)
            g = np.matmul(g, w2.value.swapaxes(-1, -2))
            g *= slope1
            gb1 = np.matmul(ones_t, g)
            gw1 = np.matmul(xv.T, g)  # d loss / d (w1 * mask)
            gmask = (gw1 * w1.value).sum(axis=-1) if mask.requires_grad else None
            gw1 *= m[:, :, None]
            return gw1, gb1, gw2, gb2, gw3, gb3, gmask

        inputs = (*self.parameters(), mask)
        return ad._record("mechanisms", inputs, out, bw, (xv, m, h1, slope1, h2, slope2))

    def state(self) -> dict:
        """Version-1 checkpoint layout: one ``{w1, b1, w2, b2, w3, b3}`` dict
        per node, holding ``p.value[i]`` of each parameter as nested lists."""
        keys = _node_shapes(self.n, self.hidden)
        layers = [{key: getattr(self, key).value[i].tolist() for key in keys} for i in range(self.n)]
        return {"n": self.n, "hidden": self.hidden, "layers": layers}

    @classmethod
    def from_state(cls, state: dict) -> "MechanismNet":
        """Inverse of :meth:`state`; malformed input raises ValueError naming
        the node and the key at fault."""
        if not isinstance(state, dict) or not {"n", "hidden", "layers"} <= set(state):
            got = sorted(state) if isinstance(state, dict) else type(state).__name__
            raise ValueError(f"mechanism state needs keys n, hidden and layers; got {got}")
        n, hidden, layers = state["n"], state["hidden"], state["layers"]
        # before any allocation, which a huge n would make fail with MemoryError
        if not isinstance(layers, list) or len(layers) != n:
            count = len(layers) if isinstance(layers, list) else type(layers).__name__
            raise ValueError(f"mechanism state: n = {n!r} but layers holds {count}")
        shapes = _node_shapes(n, hidden)
        net = cls.__new__(cls)
        net._allocate(n, hidden)
        for i, layer in enumerate(layers):
            if not isinstance(layer, dict) or set(layer) != set(shapes):
                got = sorted(layer) if isinstance(layer, dict) else type(layer).__name__
                raise ValueError(f"mechanism state: node {i} has keys {got}, expected {list(shapes)}")
            for key, shape in shapes.items():
                getattr(net, key).value[i] = _finite_array(layer[key], f"mechanism state: node {i} key {key!r}", shape)
        return net


def _bias_leaky_relu(h: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leaky ReLU (slope 0.01) of ``h + b``, written into the fresh ``h``, and
    its slope. Every slope is exactly 1.0 or 0.01, so ``h * slope`` is bitwise
    ``max(h, 0.01 * h)``, signed zeros and infinities included."""
    h += b
    slope = np.maximum(h > 0, 0.01, dtype=np.float64)
    h *= slope
    return h, slope


def _he_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return math.sqrt(2.0 / fan_in) * rng.standard_normal((fan_in, fan_out))


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - _BETA1**self.t
        b2c = 1.0 - _BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            # in place, in the operation order of m = b1 * m + (1 - b1) * g
            # and v = b2 * v + (1 - b2) * g * g
            m *= _BETA1
            m += (1.0 - _BETA1) * p.grad
            v *= _BETA2
            v += (1.0 - _BETA2) * p.grad * p.grad
            step = self.lr * (m / b1c) / (np.sqrt(v / b2c) + _EPS)
            # rebound, not written in place: callers hold earlier value arrays
            p.value = p.value - step

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def _kl_term(model: DpDagModel, mask: Tensor, prior_p: float) -> Tensor:
    """sum over mask-allowed pairs of KL(Ber(sigmoid(logit)) || Ber(prior)).

    Written in the logit l as sigmoid(l) (l - logit(prior)) - softplus(l) -
    log(1 - prior), which stays finite for every finite logit; the form in
    probabilities is 0 * inf once sigmoid(l) rounds to 0 or 1. Where
    sigmoid(l) rounds to 1 (l above about 36.7) the entry is its limit
    -log(prior): the two terms of the logit form are then near-equal and,
    past l ~ 1e15, cancel to nothing. Under a tape it records one ``"kl"``
    node on the logits and the mask.
    """
    logits = model.edge_params.logits
    lv = logits.value
    s = _sigmoid_np(lv)
    d = lv - (math.log(prior_p) - math.log1p(-prior_p))
    e = np.exp(-np.abs(lv))
    kl = s * d - (np.maximum(lv, 0.0) + np.log1p(e) + math.log1p(-prior_p))
    kl[s == 1.0] = -math.log(prior_p)

    def bw(g, node):
        # the softplus, sub and sigmoid paths of the op chain this node
        # replaced, summed in its order, so seeded fits stay bit-identical
        (tl, tm), (lv, s, d, e, kl, m) = node.inputs, node.saved
        g = np.full(kl.shape, float(g))
        gm = g * kl if tm.requires_grad else None
        g = g * m
        gl = None
        if tl.requires_grad:
            gl = (-g) * np.where(lv >= 0, 1.0, e) / (1.0 + e) + g * s + g * d * s * (1.0 - s)
        return gl, gm

    m = mask.value
    return ad._record("kl", (logits, mask), np.sum(kl * m), bw, (lv, s, d, e, kl, m))


def elbo_loss(
    batch: np.ndarray,
    model: DpDagModel,
    mechanisms: MechanismNet,
    cfg: TrainConfig,
    noise: GumbelSource | None,
    relaxed: bool = False,
) -> Tensor:
    """Negative ELBO for one minibatch; differentiable w.r.t. all parameters.
    Under a tape it records the draw's four nodes, ``"kl"`` (none at ``lam =
    0``), ``"mechanisms"`` and ``"loss"``."""
    sample = sample_dag_parts(model, noise, relaxed=relaxed)
    kl = _kl_term(model, sample.mask, cfg.prior_p) if cfg.lam > 0 else None
    return _reconstruction_loss(batch, mechanisms, sample.soft, kl, cfg.lam)


def _reconstruction_loss(
    batch: np.ndarray, mechanisms: MechanismNet, mask: Tensor, penalty: Tensor | None = None, lam: float = 0.0
) -> Tensor:
    """Mean over rows of sum_i (x_i - f_i(mask_i * x))^2, plus ``lam *
    penalty`` when a penalty is given, taped."""
    x = Tensor(batch)
    return _loss(x, mechanisms.forward_all(x, mask), 1.0 / batch.shape[0], penalty, lam)


def _loss(a: Tensor, b: Tensor, scale: float, penalty: Tensor | None = None, lam: float = 0.0) -> Tensor:
    """``||a - b||^2 * scale``, plus ``penalty * lam`` when a penalty is
    given, as one ``"loss"`` node. Its arithmetic is that of the op chain it
    replaced, in the same order, so seeded fits stay bit-identical; callers
    keep that chain's operand order, as ``a - b`` fixes the difference's
    memory layout and with it ``np.sum``'s order."""
    d = a.value - b.value
    value = np.sum(d * d) * scale
    if penalty is not None:
        value = value + penalty.value * lam

    def bw(g, node):
        ta, tb = node.inputs[:2]
        t = 2.0 * float(g * scale) * node.saved
        return (t if ta.requires_grad else None, -t if tb.requires_grad else None, g * lam)

    inputs = (a, b) if penalty is None else (a, b, penalty)
    return ad._record("loss", inputs, value, bw, d)


def validation_loss(
    x_val: np.ndarray, model: DpDagModel, mechanisms: MechanismNet, cfg: TrainConfig
) -> float:
    """Objective on held-out rows with the deterministic permutation and soft
    edge probabilities; pure numbers, no tape. The KL term covers every pair
    that permutation allows, as training's covers the sampled order's, even
    one whose edge probability underflows to 0."""
    directed, allowed = _directed_scores(model)
    recon = _masked_reconstruction_error(x_val, mechanisms, directed)
    if cfg.lam > 0:
        recon += cfg.lam * float(_kl_term(model, Tensor(allowed.astype(np.float64)), cfg.prior_p).value)
    return recon


def _masked_reconstruction_error(x: np.ndarray, mechanisms: MechanismNet, adjacency: np.ndarray) -> float:
    xhat = mechanisms.forward_all(Tensor(x), Tensor(adjacency)).value
    return float(np.sum((x - xhat) ** 2) / x.shape[0])


@dataclass
class FitResult:
    model: DpDagModel
    mechanisms: MechanismNet
    history: list[dict] = field(default_factory=list)
    wall_time_seconds: float = 0.0
    best_val_loss: float = math.inf
    best_epoch: int = -1


def fit(
    dataset: SemDataset,
    cfg: TrainConfig,
    fixed_adjacency: AdjacencyMatrix | None = None,
    on_epoch=None,
) -> FitResult:
    """Minibatch Adam on the negative ELBO with early stopping.

    ``fixed_adjacency`` trains mechanisms against a frozen known structure
    (no sampling, no sparsity term); it is the oracle baseline used to bound
    achievable reconstruction error.

    Raises ``DivergenceError`` when a training loss (naming the epoch and the
    batch's first row) or a validation loss (naming the epoch) is not finite.
    """
    if dataset.splits.train.size == 0 or dataset.splits.val.size == 0:
        raise ValueError("dataset needs nonempty train and validation splits")
    n = dataset.n
    rng = np.random.default_rng(cfg.seed)
    noise = GumbelSource(cfg.seed)
    mechanisms = MechanismNet(n, cfg.hidden, rng)
    model = DpDagModel.create(
        n, perm_mode=cfg.perm_mode, temperature=cfg.temperature, sinkhorn_iters=cfg.sinkhorn_iters
    )
    # Zero scores are a saddle of the order objective; tiny seeded noise
    # breaks the tie without biasing any particular ordering.
    model.perm_params.scores.value = 0.1 * rng.standard_normal(model.perm_params.scores.value.shape)
    x_train = dataset.train_X()
    x_val = dataset.val_X()
    params = mechanisms.parameters()
    if fixed_adjacency is None:
        params += model.parameters()
        batch_loss = partial(elbo_loss, model=model, mechanisms=mechanisms, cfg=cfg, noise=noise)
        val_loss = partial(validation_loss, x_val, model, mechanisms, cfg)
    else:
        rows = fixed_adjacency.entries.astype(np.float64)
        batch_loss = partial(_reconstruction_loss, mechanisms=mechanisms, mask=Tensor(rows))
        val_loss = partial(_masked_reconstruction_error, x_val, mechanisms, rows)
    opt = Adam(params, lr=cfg.learning_rate)

    best = math.inf
    best_epoch = -1
    best_state = None
    bad_checks = 0
    history: list[dict] = []
    t0 = time.perf_counter()
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(x_train.shape[0])
        epoch_losses = [
            _step(opt, batch_loss, x_train[order[start : start + cfg.batch_size]], epoch, start)
            for start in range(0, x_train.shape[0], cfg.batch_size)
        ]
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "val_loss": None,
            "wall_time": time.perf_counter() - t0,
        }
        if (epoch + 1) % cfg.val_check_every == 0:
            vloss = val_loss()
            if not math.isfinite(vloss):
                raise DivergenceError(f"validation loss is {vloss} at epoch {epoch}")
            record["val_loss"] = vloss
            if vloss < best - 1e-12:
                best = vloss
                best_epoch = epoch
                best_state = _snapshot(model, mechanisms)
                bad_checks = 0
            else:
                bad_checks += 1
        history.append(record)
        if on_epoch is not None:
            on_epoch(epoch, model, mechanisms)
        if bad_checks >= cfg.patience:
            break
    _restore(model, mechanisms, best_state)  # set: TrainConfig ensures a validation check runs
    return FitResult(
        model=model,
        mechanisms=mechanisms,
        history=history,
        wall_time_seconds=time.perf_counter() - t0,
        best_val_loss=best,
        best_epoch=best_epoch,
    )


def _step(opt: Adam, loss_fn, batch, epoch: int, start: int) -> float:
    """One descent step on ``loss_fn(batch)``; returns the loss. A non-finite
    loss raises before any parameter moves; ``epoch`` and ``start`` (the
    batch's first row) only go into the message."""
    with Tape() as tape:
        loss = loss_fn(batch)
        value = float(loss.value)
        if not math.isfinite(value):
            raise DivergenceError(f"training loss is {value} at epoch {epoch}, batch from row {start}")
        tape.backward(loss)
    opt.step()
    opt.zero_grad()
    return value


def _snapshot(model: DpDagModel, mechanisms: MechanismNet) -> list[np.ndarray]:
    return [p.value.copy() for p in model.parameters() + mechanisms.parameters()]


def _restore(model: DpDagModel, mechanisms: MechanismNet, state: list[np.ndarray]) -> None:
    for p, v in zip(model.parameters() + mechanisms.parameters(), state):
        p.value = v.copy()


def fit_direct(
    truth: AdjacencyMatrix,
    model: DpDagModel,
    lr: float = 1e-2,
    steps: int = 600,
    seed: int = 0,
) -> DpDagModel:
    """Fit the sampler alone against an observed target DAG.

    Each step draws one straight-through sample and descends the mean squared
    difference to the target adjacency. That loss is taken on the hard 0/1
    draw, so it stays finite; a step that leaves a sampler parameter
    non-finite raises ``DivergenceError`` naming the step instead. An ``lr``
    that is not finite and positive, ``steps`` that is not an integer >= 0,
    a ``seed`` that is not an integer >= 0 or a ``truth`` on another number
    of nodes than ``model`` raises ``ValueError`` before any step.
    """
    check_scale("lr", lr)  # lr <= 0 would ascend the loss or not move
    check_count("steps", steps, 0)
    if truth.n != model.n:
        raise ValueError(f"node counts differ: model has {model.n}, truth has {truth.n}")
    noise = GumbelSource(seed)
    target = Tensor(truth.entries.astype(np.float64))
    opt = Adam(model.parameters(), lr=lr)
    scale = 1.0 / (model.n * model.n)

    def loss_fn(target: Tensor) -> Tensor:
        _, soft = sample_dag(model, noise)
        return _loss(soft, target, scale)

    for step in range(steps):
        _step(opt, loss_fn, target, step, 0)
        if not all(np.isfinite(p.value).all() for p in opt.params):
            raise DivergenceError(f"sampler parameters are not finite after step {step}")
    return model


def predict(
    mechanisms: MechanismNet,
    model: DpDagModel | None,
    x: np.ndarray,
    adjacency: AdjacencyMatrix | None = None,
    threshold: float = 0.5,
) -> np.ndarray:
    """Reconstruct every column from its learned parents.

    Uses the thresholded deterministic structure unless an explicit adjacency
    (e.g. the ground truth) is supplied.
    """
    if adjacency is None:
        if model is None:
            raise ValueError("need either a model or an explicit adjacency")
        adjacency = threshold_dag(model, threshold)
    return mechanisms.forward_all(Tensor(x), Tensor(adjacency.entries.astype(np.float64))).value
