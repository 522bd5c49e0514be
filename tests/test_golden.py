"""Golden digests: the sha256 of seeded outputs, against a checked-in file.

Tolerance tests pass when a change moves bits by a rounding; these fail on
any moved bit. Each case below hashes one seeded output:

- hard DAG draws in both permutation modes at n = 3, 10, 50 and 200:
  value-only (no tape), taped (relaxed, so the soft adjacency and order
  mask are hashed too) and noise-free, a noisy draw followed by the
  stream's next uniforms;
- short seeded ``fit`` runs in both modes and one oracle fit: parameters,
  ``best_val_loss`` and the ``train_loss`` history;
- ``fit_direct`` in both modes;
- taped ELBO loss and gradients, both modes, relaxed and not, at ``lam``
  0.05 and 0;
- ``edge_scores`` and ``threshold_dag`` in both modes;
- the CSV a small ``diffdag direct`` run writes.

The training data is a seeded linear SEM built here, not ``generate``,
whose bytes depend on the BLAS thread count; over it every digest is the
same at 1 and 2 BLAS threads. The digests hold for one numpy build, BLAS
and CPU (:func:`conftest.numpy_build`, stored in the file); anywhere else
the tests skip with a message naming both.

A change that moves bits on purpose regenerates the file with
``python tests/regen_golden.py`` and names the moved digests and the
reason in ``CHANGES.md``.
"""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest

from conftest import numpy_build
from diffdag.autodiff import Tape
from diffdag.cli import main as cli_main
from diffdag.graphs import AdjacencyMatrix
from diffdag.gumbel import SINKHORN, TOPK, EdgeParams, GumbelSource, PermutationParams
from diffdag.model import DpDagModel, edge_scores, sample_dag, sample_dag_parts, threshold_dag
from diffdag.semdata import SemDataset, make_splits
from diffdag.training import MechanismNet, TrainConfig, elbo_loss, fit, fit_direct

GOLDEN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
MODES = (SINKHORN, TOPK)
# draws per case: enough to reach every branch, within the suite's budget
DRAW_SIZES = {3: 1000, 10: 300, 50: 30, 200: 5}
TAU = 0.7


def _digest(*arrays) -> str:
    """sha256 over each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _model(n, mode, seed):
    rng = np.random.default_rng([seed, n])
    return DpDagModel(
        n=n,
        edge_params=EdgeParams(n=n, logits=rng.normal(scale=2.0, size=(n, n)), temperature=TAU),
        perm_params=PermutationParams(
            n=n, mode=mode, scores=rng.normal(size=(n, n) if mode == SINKHORN else n), temperature=TAU
        ),
    )


def _linear_sem(n=6, rows=200, seed=11) -> SemDataset:
    """A seeded linear-Gaussian SEM on a random DAG, built with elementwise
    arithmetic alone, so no BLAS thread count moves its bits."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    entries = (rng.random((n, n)) < 0.4) & (order[None, :] < order[:, None])  # row i: parents of i
    weights = entries * rng.uniform(0.5, 2.0, size=(n, n)) * rng.choice([-1.0, 1.0], size=(n, n))
    x = np.zeros((rows, n))
    for i in np.argsort(order):
        x[:, i] = sum(weights[i, j] * x[:, j] for j in range(n)) + rng.normal(size=rows)
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    truth = AdjacencyMatrix(entries.astype(np.int8))
    return SemDataset(X=x, truth=truth, splits=make_splits(rows, seed), name="linear-sem")


def _value_only_draws(n, mode):
    model, noise = _model(n, mode, 1), GumbelSource(21)
    hard = [sample_dag(model, noise)[0].entries for _ in range(DRAW_SIZES[n])]
    return (*hard, noise._gen.random(4))


def _taped_draws(n, mode):
    model, noise, out = _model(n, mode, 1), GumbelSource(22), []
    for _ in range(DRAW_SIZES[n]):
        with Tape():
            s = sample_dag_parts(model, noise, relaxed=True)
        out += [s.hard.entries, s.soft.value, s.mask.value]
    return (*out, noise._gen.random(4))


def _noise_free_draws(n, mode):
    model = _model(n, mode, 1)
    with Tape():
        s = sample_dag_parts(model, None, relaxed=True)
    return sample_dag(model)[0].entries, s.hard.entries, s.soft.value, s.mask.value


def _fit_outputs(result):
    params = [p.value for p in result.model.parameters() + result.mechanisms.parameters()]
    losses = np.array([r["train_loss"] for r in result.history])
    return (*params, np.float64(result.best_val_loss), losses)


def _fit(mode):
    cfg = TrainConfig(perm_mode=mode, hidden=8, batch_size=64, max_epochs=4, val_check_every=2, seed=3)
    return _fit_outputs(fit(_linear_sem(), cfg))


def _oracle_fit():
    ds = _linear_sem()
    cfg = TrainConfig(hidden=8, batch_size=64, max_epochs=4, val_check_every=2, seed=3)
    return _fit_outputs(fit(ds, cfg, fixed_adjacency=ds.truth))


def _fit_direct(mode):
    model = DpDagModel.create(6, perm_mode=mode)
    fit_direct(_linear_sem().truth, model, lr=0.1, steps=30, seed=4)
    return tuple(p.value for p in model.parameters())


def _elbo(mode, relaxed, lam):
    ds, model = _linear_sem(), _model(6, mode, 5)
    mechanisms = MechanismNet(6, 8, np.random.default_rng(6))
    cfg = TrainConfig(perm_mode=mode, lam=lam, temperature=TAU)
    with Tape() as tape:
        loss = elbo_loss(ds.train_X()[:64], model, mechanisms, cfg, GumbelSource(7), relaxed=relaxed)
    tape.backward(loss)
    return (loss.value, *(p.grad for p in model.parameters() + mechanisms.parameters()))


def _scores(mode):
    model = _model(10, mode, 8)
    return (*edge_scores(model), threshold_dag(model, 0.5).entries, threshold_dag(model, 0.3).entries)


def _direct_csv():
    with tempfile.TemporaryDirectory() as out:
        argv = ["direct", "--n", "6", "--m", "6", "--graphs", "2", "--lrs", "0.1,0.01", "--steps", "15", "--out", out]
        assert cli_main(argv) == 0
        with open(os.path.join(out, "direct-learning.csv"), "rb") as fh:
            return (np.frombuffer(fh.read(), dtype=np.uint8),)


CASES = {"direct-csv": _direct_csv, "fit-oracle": _oracle_fit}
for _mode in MODES:
    for _n in DRAW_SIZES:
        CASES[f"draw-value-only-{_mode}-n{_n}"] = lambda n=_n, m=_mode: _value_only_draws(n, m)
        CASES[f"draw-taped-{_mode}-n{_n}"] = lambda n=_n, m=_mode: _taped_draws(n, m)
        CASES[f"draw-noise-free-{_mode}-n{_n}"] = lambda n=_n, m=_mode: _noise_free_draws(n, m)
    CASES[f"fit-{_mode}"] = lambda m=_mode: _fit(m)
    CASES[f"fit-direct-{_mode}"] = lambda m=_mode: _fit_direct(m)
    CASES[f"scores-{_mode}"] = lambda m=_mode: _scores(m)
    for _relaxed in (False, True):
        for _lam in (0.05, 0.0):
            name = f"elbo-{_mode}-{'relaxed' if _relaxed else 'straight-through'}-lam{_lam}"
            CASES[name] = lambda m=_mode, r=_relaxed, lam=_lam: _elbo(m, r, lam)


def compute_digests() -> dict:
    """Every case's digest, by name."""
    return {name: _digest(*CASES[name]()) for name in sorted(CASES)}


def _golden() -> dict:
    with open(GOLDEN_FILE) as fh:
        golden = json.load(fh)
    if golden["environment"] != numpy_build():
        pytest.skip(
            f"golden digests hold for {golden['environment']}, not for this build, "
            f"{numpy_build()}: they are compared only on the recorded build"
        )
    return golden["digests"]


def test_the_file_holds_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest(name):
    assert _digest(*CASES[name]()) == _golden()[name], f"{name}: seeded bits moved"
