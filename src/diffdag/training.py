"""Variational training of the DAG model plus per-node causal mechanisms.

The objective per minibatch is

    mean over rows of sum_i (x_i - f_i(A_i * x))^2
    + lambda * sum over allowed pairs of KL(Ber(phi_ij) || Ber(prior_p))

with ``A`` one straight-through DAG sample per step, so gradients reach the
mechanism weights, the edge logits and the permutation scores jointly.
Validation uses the noise-free permutation with soft edge probabilities so
early stopping does not chase sampling noise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .graphs import AdjacencyMatrix
from .gumbel import SINKHORN, TOPK, GumbelSource
from .model import DpDagModel, edge_scores, sample_dag, sample_dag_parts, threshold_dag
from .semdata import SemDataset

__all__ = [
    "DivergenceError",
    "TrainConfig",
    "MechanismNet",
    "FitResult",
    "Adam",
    "bernoulli_kl",
    "elbo_loss",
    "validation_loss",
    "fit",
    "fit_direct",
    "predict",
]


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


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
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.hidden < 1:
            raise ValueError(f"hidden width must be >= 1, got {self.hidden}")
        if self.perm_mode not in (SINKHORN, TOPK):
            raise ValueError(f"perm_mode must be {SINKHORN!r} or {TOPK!r}, got {self.perm_mode!r}")
        if not (1e-2 <= self.prior_p <= 1e-1):
            raise ValueError(f"prior_p must lie in [1e-2, 1e-1], got {self.prior_p}")
        if not (0.0 <= self.lam <= 1e-1):
            raise ValueError(f"lam must lie in [0, 1e-1], got {self.lam}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.val_check_every < 1:
            raise ValueError(f"val_check_every must be >= 1, got {self.val_check_every}")

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class MechanismNet:
    """n independent 3-layer MLPs, one per node (n inputs -> h -> h -> 1).

    Node i's input is the full observation row multiplied by row i of the
    sampled adjacency, so it can only depend on unmasked parents.

    The n networks are stored as six stacked tensors and node i owns block i
    of each: columns ``i*h:(i+1)*h`` of ``w1`` (n, n*h), ``b1`` and ``b2``
    (1, n*h); rows ``i*h:(i+1)*h`` of ``w2`` (n*h, h) and ``w3`` (n*h, 1);
    column i of ``b3`` (1, n). One forward pass then records the same few
    tape nodes for every n.
    """

    def __init__(self, n: int, hidden: int, rng: np.random.Generator):
        layers = [
            {
                "w1": _he_init(rng, n, hidden),
                "b1": np.zeros((1, hidden)),
                "w2": _he_init(rng, hidden, hidden),
                "b2": np.zeros((1, hidden)),
                "w3": _he_init(rng, hidden, 1),
                "b3": np.zeros((1, 1)),
            }
            for _ in range(n)
        ]
        self._stack(n, hidden, layers)

    def _stack(self, n: int, hidden: int, layers: list[dict[str, np.ndarray]]) -> None:
        self.n = n
        self.hidden = hidden

        def join(key, axis):
            return Tensor(np.concatenate([layer[key] for layer in layers], axis=axis), requires_grad=True)

        self.w1, self.b1 = join("w1", 1), join("b1", 1)
        self.w2, self.b2 = join("w2", 0), join("b2", 1)
        self.w3, self.b3 = join("w3", 0), join("b3", 1)
        # (A^T @ expand)[k, i*h + j] = A[i, k]: row i of the mask spread over node i's columns
        self._expand = Tensor(np.kron(np.eye(n), np.ones((1, hidden))))

    def parameters(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def forward_all(self, x: Tensor, mask: Tensor) -> Tensor:
        """Predict every column of the batch ``x`` (b x n) at once; column i
        sees ``x`` through row i of ``mask`` (n x n) only."""
        ones = Tensor(np.ones((x.value.shape[0], 1)))
        # (x * a_i) @ W1_i == x @ (diag(a_i) W1_i): mask the weights, not the batch
        w1 = ad.mul(self.w1, ad.matmul(ad.transpose(mask), self._expand))
        h = ad.leaky_relu(ad.add(ad.matmul(x, w1), ad.matmul(ones, self.b1)))
        h = ad.leaky_relu(ad.add(ad.block_matmul(h, self.w2, self.n), ad.matmul(ones, self.b2)))
        return ad.add(ad.block_matmul(h, self.w3, self.n), ad.matmul(ones, self.b3))

    def state(self) -> dict:
        """Version-1 checkpoint layout: one ``{w1, b1, w2, b2, w3, b3}`` dict per node."""
        h = self.hidden
        layers = []
        for i in range(self.n):
            block = slice(i * h, (i + 1) * h)
            layer = {
                "w1": self.w1.value[:, block],
                "b1": self.b1.value[:, block],
                "w2": self.w2.value[block, :],
                "b2": self.b2.value[:, block],
                "w3": self.w3.value[block, :],
                "b3": self.b3.value[:, i : i + 1],
            }
            layers.append({k: v.tolist() for k, v in layer.items()})
        return {"n": self.n, "hidden": self.hidden, "layers": layers}

    @classmethod
    def from_state(cls, state: dict) -> "MechanismNet":
        """Inverse of :meth:`state`; malformed input raises ValueError naming
        the node and the key at fault."""
        if not isinstance(state, dict) or not {"n", "hidden", "layers"} <= set(state):
            got = sorted(state) if isinstance(state, dict) else type(state).__name__
            raise ValueError(f"mechanism state needs keys n, hidden and layers; got {got}")
        n, hidden, layers = state["n"], state["hidden"], state["layers"]
        for name, v in (("n", n), ("hidden", hidden)):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"mechanism state: {name} must be a positive integer, got {v!r}")
        if not isinstance(layers, list) or len(layers) != n:
            count = len(layers) if isinstance(layers, list) else type(layers).__name__
            raise ValueError(f"mechanism state: n = {n} but layers holds {count}")
        shapes = {
            "w1": (n, hidden),
            "b1": (1, hidden),
            "w2": (hidden, hidden),
            "b2": (1, hidden),
            "w3": (hidden, 1),
            "b3": (1, 1),
        }
        arrays = []
        for i, layer in enumerate(layers):
            if not isinstance(layer, dict) or set(layer) != set(shapes):
                got = sorted(layer) if isinstance(layer, dict) else type(layer).__name__
                raise ValueError(f"mechanism state: node {i} has keys {got}, expected {list(shapes)}")
            node = {}
            for key, shape in shapes.items():
                try:
                    v = np.array(layer[key], dtype=np.float64)
                except (TypeError, ValueError):
                    raise ValueError(f"mechanism state: node {i} key {key!r} is not a numeric array") from None
                if v.shape != shape:
                    raise ValueError(f"mechanism state: node {i} key {key!r} has shape {v.shape}, expected {shape}")
                if not np.isfinite(v).all():
                    raise ValueError(f"mechanism state: node {i} key {key!r} holds non-finite values")
                node[key] = v
            arrays.append(node)
        net = cls.__new__(cls)
        net._stack(int(n), int(hidden), arrays)
        return net


def _he_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return math.sqrt(2.0 / fan_in) * rng.standard_normal((fan_in, fan_out))


class Adam:
    def __init__(self, params: list[Tensor], lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k, p in enumerate(self.params):
            if p.grad is None:
                continue
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * p.grad
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * p.grad * p.grad
            p.value = p.value - self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def bernoulli_kl(p: float | np.ndarray, q: float | np.ndarray) -> np.ndarray:
    """Closed-form KL(Ber(p) || Ber(q)), taking 0 log 0 = 0 at p in {0, 1}."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ones = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
        zeros = np.where(p < 1, (1.0 - p) * (np.log1p(-p) - np.log1p(-q)), 0.0)
    return ones + zeros


def _kl_term(model: DpDagModel, mask: Tensor, prior_p: float) -> Tensor:
    """sum over mask-allowed pairs of KL(Ber(sigmoid(logit)) || Ber(prior)).

    Written in the logit l as sigmoid(l) (l - logit(prior)) - softplus(l) -
    log(1 - prior), which stays finite for every finite logit; the form in
    probabilities is 0 * inf once sigmoid(l) rounds to 0 or 1.
    """
    logits = model.edge_params.logits
    logit_prior = Tensor(math.log(prior_p) - math.log1p(-prior_p))
    kl = ad.sub(
        ad.mul(ad.sigmoid(logits), ad.sub(logits, logit_prior)),
        ad.add(ad.softplus(logits), Tensor(math.log1p(-prior_p))),
    )
    return ad.tsum(ad.mul(kl, mask))


def elbo_loss(
    batch: np.ndarray,
    model: DpDagModel,
    mechanisms: MechanismNet,
    cfg: TrainConfig,
    noise: GumbelSource | None,
    relaxed: bool = False,
) -> Tensor:
    """Negative ELBO for one minibatch; differentiable w.r.t. all parameters."""
    x = Tensor(batch)
    sample = sample_dag_parts(model, noise, relaxed=relaxed)
    xhat = mechanisms.forward_all(x, sample.soft)
    loss = ad.mul(ad.squared_norm(ad.sub(x, xhat)), Tensor(1.0 / batch.shape[0]))
    if cfg.lam > 0:
        loss = ad.add(loss, ad.mul(_kl_term(model, sample.mask, cfg.prior_p), Tensor(cfg.lam)))
    return loss


def validation_loss(
    x_val: np.ndarray, model: DpDagModel, mechanisms: MechanismNet, cfg: TrainConfig
) -> float:
    """Objective on held-out rows with the deterministic permutation and soft
    edge probabilities; pure numbers, no tape."""
    directed, _ = edge_scores(model)
    recon = _masked_reconstruction_error(x_val, mechanisms, directed)
    if cfg.lam > 0:
        allowed = Tensor((directed > 0).astype(np.float64))
        recon += cfg.lam * float(_kl_term(model, allowed, cfg.prior_p).value)
    return recon


def _masked_reconstruction_error(x: np.ndarray, mechanisms: MechanismNet, adjacency: np.ndarray) -> float:
    xhat = _predict_values(x, mechanisms, adjacency)
    return float(np.sum((x - xhat) ** 2) / x.shape[0])


def _predict_values(x: np.ndarray, mechanisms: MechanismNet, adjacency: np.ndarray) -> np.ndarray:
    return mechanisms.forward_all(Tensor(x), Tensor(adjacency)).value


@dataclass
class FitResult:
    model: DpDagModel
    mechanisms: MechanismNet
    history: list[dict] = field(default_factory=list)
    wall_time_seconds: float = 0.0
    best_val_loss: float = math.inf
    best_epoch: int = -1
    fixed_adjacency: AdjacencyMatrix | None = None

    def history_rows(self) -> list[tuple]:
        return [
            (h["epoch"], h["train_loss"], h["val_loss"], h["wall_time"]) for h in self.history
        ]


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
    params = list(mechanisms.parameters())
    if fixed_adjacency is None:
        params += model.parameters()
    else:
        fixed_rows = fixed_adjacency.entries.astype(np.float64)
    opt = Adam(params, lr=cfg.learning_rate)
    x_train = dataset.train_X()
    x_val = dataset.val_X()

    best = math.inf
    best_epoch = -1
    best_state = None
    bad_checks = 0
    history: list[dict] = []
    t0 = time.perf_counter()
    stop = False
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(x_train.shape[0])
        epoch_losses = []
        for start in range(0, x_train.shape[0], cfg.batch_size):
            batch = x_train[order[start : start + cfg.batch_size]]
            with Tape() as tape:
                if fixed_adjacency is None:
                    loss = elbo_loss(batch, model, mechanisms, cfg, noise)
                else:
                    xt = Tensor(batch)
                    xhat = mechanisms.forward_all(xt, Tensor(fixed_rows))
                    loss = ad.mul(ad.squared_norm(ad.sub(xt, xhat)), Tensor(1.0 / batch.shape[0]))
                if not np.isfinite(loss.value):
                    return _abort_diverged(
                        model, mechanisms, history, best_state, best, best_epoch, t0, fixed_adjacency
                    )
                tape.backward(loss)
            opt.step()
            opt.zero_grad()
            epoch_losses.append(float(loss.value))
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "val_loss": None,
            "wall_time": time.perf_counter() - t0,
        }
        if (epoch + 1) % cfg.val_check_every == 0:
            if fixed_adjacency is None:
                vloss = validation_loss(x_val, model, mechanisms, cfg)
            else:
                vloss = _masked_reconstruction_error(x_val, mechanisms, fixed_rows)
            record["val_loss"] = vloss
            if vloss < best - 1e-12:
                best = vloss
                best_epoch = epoch
                best_state = _snapshot(model, mechanisms)
                bad_checks = 0
            else:
                bad_checks += 1
                if bad_checks >= cfg.patience:
                    stop = True
        history.append(record)
        if on_epoch is not None:
            on_epoch(epoch, model, mechanisms)
        if stop:
            break
    if best_state is not None:
        _restore(model, mechanisms, best_state)
    return FitResult(
        model=model,
        mechanisms=mechanisms,
        history=history,
        wall_time_seconds=time.perf_counter() - t0,
        best_val_loss=best,
        best_epoch=best_epoch,
        fixed_adjacency=fixed_adjacency,
    )


def _abort_diverged(model, mechanisms, history, best_state, best, best_epoch, t0, fixed_adjacency):
    if best_state is not None:
        _restore(model, mechanisms, best_state)
    return FitResult(
        model=model,
        mechanisms=mechanisms,
        history=history,
        wall_time_seconds=time.perf_counter() - t0,
        best_val_loss=best,
        best_epoch=best_epoch,
        fixed_adjacency=fixed_adjacency,
    )


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
    difference to the target adjacency.
    """
    noise = GumbelSource(seed)
    target = Tensor(truth.entries.astype(np.float64))
    opt = Adam(model.parameters(), lr=lr)
    scale = Tensor(1.0 / (model.n * model.n))
    for _ in range(steps):
        with Tape() as tape:
            _, soft = sample_dag(model, noise)
            loss = ad.mul(ad.squared_norm(ad.sub(soft, target)), scale)
            tape.backward(loss)
        opt.step()
        opt.zero_grad()
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
    return _predict_values(x, mechanisms, adjacency.entries.astype(np.float64))
