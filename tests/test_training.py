import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import add, analytic_grads, bernoulli_kl, mul, numeric_grads, squared_norm, tsum
from diffdag import autodiff as ad
from diffdag import gumbel
from diffdag.autodiff import Tape, Tensor
from diffdag.graphs import AdjacencyMatrix, is_acyclic
from diffdag.gumbel import SINKHORN, TOPK, GumbelSource
from diffdag.model import DpDagModel, threshold_dag
from diffdag.semdata import GenSpec, generate
from diffdag.training import (
    Adam,
    DivergenceError,
    MechanismNet,
    TrainConfig,
    elbo_loss,
    fit,
    fit_direct,
    predict,
    validation_loss,
    _bias_leaky_relu,
    _kl_term,
)


def tiny_dataset(n=5, m=5, N=240, seed=3):
    return generate(GenSpec(graph_kind="er", n=n, m=m, N=N, seed=seed))


def tiny_cfg(**kw):
    base = dict(
        learning_rate=1e-2,
        hidden=8,
        perm_mode=TOPK,
        prior_p=0.05,
        lam=0.01,
        batch_size=64,
        max_epochs=8,
        patience=3,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_ranges_enforced(self):
        with pytest.raises(ValueError, match="prior_p"):
            tiny_cfg(prior_p=0.5)
        with pytest.raises(ValueError, match="lam"):
            tiny_cfg(lam=0.5)
        with pytest.raises(ValueError, match="patience"):
            tiny_cfg(patience=0)
        with pytest.raises(ValueError, match="perm_mode"):
            tiny_cfg(perm_mode="other")

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["learning_rate", "temperature"])
    def test_rejects_non_finite_or_nonpositive_rate_and_temperature(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            tiny_cfg(**{name: value})

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_batch_size_below_one(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            tiny_cfg(batch_size=batch_size)

    @pytest.mark.parametrize("iters", [0, -1])
    def test_rejects_sinkhorn_iters_below_one(self, iters):
        # caught here, before a grid builds its tasks, not inside fit
        with pytest.raises(ValueError, match="sinkhorn_iters"):
            tiny_cfg(sinkhorn_iters=iters)

    @pytest.mark.parametrize("value", [2.5, np.float64(4.0), "3", None, True])
    @pytest.mark.parametrize(
        "name", ["hidden", "sinkhorn_iters", "batch_size", "max_epochs", "patience", "val_check_every", "seed"]
    )
    def test_rejects_non_integer_sizes_and_seed(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            tiny_cfg(**{name: value})

    def test_rejects_negative_seed(self):
        # caught here, not by numpy's unnamed error inside fit
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            tiny_cfg(seed=-1)
        assert tiny_cfg(seed=np.uint32(7), hidden=np.int64(4)).seed == 7

    def test_rejects_max_epochs_below_val_check_every(self):
        # no validation check would run, so there would be no best epoch
        with pytest.raises(ValueError, match="max_epochs"):
            tiny_cfg(max_epochs=1, val_check_every=2)
        assert tiny_cfg(max_epochs=2, val_check_every=2).max_epochs == 2


class TestBernoulliKl:
    def test_closed_form_matches_two_term_sum(self, rng):
        for _ in range(1000):
            p = rng.uniform(1e-4, 1 - 1e-4)
            q = rng.uniform(1e-4, 1 - 1e-4)
            direct = p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))
            assert abs(bernoulli_kl(p, q) - direct) <= 1e-10

    def test_reference_value(self):
        # KL(Ber(0.5) || Ber(0.1)) = 0.5 ln 5 + 0.5 ln(5/9)
        assert abs(bernoulli_kl(0.5, 0.1) - 0.5108256) < 1e-6

    def test_zero_at_equal(self):
        assert bernoulli_kl(0.07, 0.07) == 0.0

    def test_finite_at_certain_outcomes(self):
        # 0 log 0 = 0: only the term of the outcome that happens is left
        q = 0.05
        assert abs(bernoulli_kl(1.0, q) + math.log(q)) <= 1e-15
        assert abs(bernoulli_kl(0.0, q) + math.log1p(-q)) <= 1e-15
        np.testing.assert_array_equal(
            bernoulli_kl(np.array([0.0, 1.0]), q), [bernoulli_kl(0.0, q), bernoulli_kl(1.0, q)]
        )


def _kl_and_grad(logits, prior=0.05):
    model = DpDagModel.create(logits.shape[0])
    model.edge_params.logits.value = np.array(logits, dtype=np.float64)
    with Tape() as tape:
        kl = _kl_term(model, Tensor(np.ones(logits.shape)), prior)
    tape.backward(kl)
    return float(kl.value), model.edge_params.logits.grad


class TestKlFromLogits:
    """The KL term is computed from logits, so saturation cannot make it NaN."""

    def test_saturated_logits_give_finite_value_and_gradient(self):
        q = 0.05
        for big in (40.0, 1e3):
            value, grad = _kl_and_grad(np.array([[big, -big], [-big, big]]), q)
            # sigmoid(+big) ~ 1 leaves KL = -log q; sigmoid(-big) ~ 0 leaves -log(1 - q)
            assert abs(value - 2 * (-math.log(q) - math.log1p(-q))) <= 1e-12
            assert np.isfinite(grad).all() and np.abs(grad).max() <= 1e-12

    @pytest.mark.parametrize("big", [40.0, 1e15, 1e17, 1e300])
    def test_logit_whose_sigmoid_rounds_to_one_gives_the_limit(self, big):
        # the logit form's two terms cancel there: 3.0 at 1e15, 0.0 at 1e17
        q = 0.05
        value, grad = _kl_and_grad(np.array([[big]]), q)
        assert abs(value + math.log(q)) <= 1e-12 * -math.log(q)
        assert np.isfinite(grad).all()

    def test_finite_at_extreme_logits(self):
        value, grad = _kl_and_grad(np.array([[-1e300, -1e3], [1e3, 1e300]]))
        assert math.isfinite(value) and np.isfinite(grad).all()

    def test_untaped_call_records_nothing_and_matches(self, rng):
        model = DpDagModel.create(4)
        model.edge_params.logits.value = rng.normal(size=(4, 4))
        mask = Tensor(rng.random((4, 4)), requires_grad=True)
        untaped = _kl_term(model, mask, 0.05)
        with Tape() as tape:
            taped = _kl_term(model, mask, 0.05)
        assert not untaped.requires_grad and [node.kind for node in tape.nodes] == ["kl"]
        assert untaped.value == taped.value

    def test_validation_loss_finite_with_saturated_logits(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(lam=0.1)
        model = DpDagModel.create(ds.n, perm_mode=cfg.perm_mode)
        model.edge_params.logits.value = np.where(np.eye(ds.n) > 0, -1e3, 1e3)
        mech = MechanismNet(ds.n, cfg.hidden, np.random.default_rng(0))
        assert np.isfinite(validation_loss(ds.val_X(), model, mech, cfg))

    def test_validation_kl_keeps_a_pair_whose_probability_underflows(self):
        # sigmoid(-800) is 0, but the order allows the pair, as training's KL does
        n, q = 4, 0.05
        model = DpDagModel.create(n)
        model.perm_params.scores.value = np.arange(n, 0, -1.0).reshape(n, 1)  # order 0, 1, 2, 3
        model.edge_params.logits.value[0, 1] = -800.0
        mech = MechanismNet(n, 4, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(20, n))
        recon = validation_loss(x, model, mech, tiny_cfg(lam=0.0))
        kl = (validation_loss(x, model, mech, tiny_cfg(lam=0.1, prior_p=q)) - recon) / 0.1
        assert kl == pytest.approx(5 * bernoulli_kl(0.5, q) + bernoulli_kl(0.0, q), rel=1e-9)

    def test_validation_check_takes_one_noise_free_permutation(self, monkeypatch):
        calls = []
        for name in ("sinkhorn_operator", "hungarian"):
            original = getattr(gumbel, name)
            monkeypatch.setattr(gumbel, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
        ds = tiny_dataset()
        cfg = tiny_cfg(perm_mode=SINKHORN, lam=0.1)
        model = DpDagModel.create(ds.n, perm_mode=SINKHORN)
        validation_loss(ds.val_X(), model, MechanismNet(ds.n, cfg.hidden, np.random.default_rng(0)), cfg)
        assert calls == ["sinkhorn_operator", "hungarian"]

    @settings(max_examples=150, deadline=None)
    @given(
        logits=st.integers(1, 4).flatmap(
            lambda n: arrays(np.float64, (n, n), elements=st.floats(allow_nan=False, allow_infinity=False))
        ),
        prior=st.floats(1e-2, 1e-1),
    )
    def test_finite_and_nonnegative_for_every_logit(self, logits, prior):
        value, grad = _kl_and_grad(logits, prior)
        assert np.isfinite(value) and np.isfinite(grad).all()
        assert value >= -1e-12 * logits.size  # zero at logit(prior), up to rounding
        moderate = np.clip(logits, -30, 30)
        if np.array_equal(moderate, logits):
            oracle = float(bernoulli_kl(1 / (1 + np.exp(-logits)), prior).sum())
            assert abs(value - oracle) <= 1e-9 * logits.size


class TestTapeNodes:
    """One node per operation of the model: a training step records 7."""

    @staticmethod
    def _elbo_kinds(mode, lam):
        ds = tiny_dataset()
        cfg = tiny_cfg(perm_mode=mode, lam=lam)
        model = DpDagModel.create(ds.n, perm_mode=mode)
        mech = MechanismNet(ds.n, cfg.hidden, np.random.default_rng(0))
        with Tape() as tape:
            elbo_loss(ds.train_X()[:16], model, mech, cfg, GumbelSource(0))
        return [node.kind for node in tape.nodes]

    @pytest.mark.parametrize("mode, relaxation", [(SINKHORN, "sinkhorn"), (TOPK, "softsort")])
    def test_elbo_step(self, mode, relaxation):
        draw = [relaxation, "edges", "order-mask", "dag"]
        assert self._elbo_kinds(mode, 0.05) == draw + ["kl", "mechanisms", "loss"]

    @pytest.mark.parametrize("mode, relaxation", [(SINKHORN, "sinkhorn"), (TOPK, "softsort")])
    def test_lambda_zero_step(self, mode, relaxation):
        draw = [relaxation, "edges", "order-mask", "dag"]
        assert self._elbo_kinds(mode, 0.0) == draw + ["mechanisms", "loss"]

    def test_oracle_step(self, monkeypatch):
        kinds = _recorded_kinds(monkeypatch)
        ds = tiny_dataset()
        fit(ds, tiny_cfg(max_epochs=2, val_check_every=2, batch_size=ds.splits.train.size), fixed_adjacency=ds.truth)
        assert kinds == [["mechanisms", "loss"]] * 2

    @pytest.mark.parametrize("mode, relaxation", [(SINKHORN, "sinkhorn"), (TOPK, "softsort")])
    def test_fit_direct_step(self, mode, relaxation, monkeypatch):
        kinds = _recorded_kinds(monkeypatch)
        truth = AdjacencyMatrix(np.triu(np.ones((4, 4), dtype=np.int8), 1))
        fit_direct(truth, DpDagModel.create(4, perm_mode=mode), steps=1)
        assert kinds == [[relaxation, "edges", "order-mask", "dag", "loss"]]


def _recorded_kinds(monkeypatch) -> list[list[str]]:
    """The node kinds of every tape that ``Tape.backward`` runs from now on."""
    kinds = []
    backward = Tape.backward

    def recording(tape, loss):
        kinds.append([node.kind for node in tape.nodes])
        return backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", recording)
    return kinds


class TestElboLoss:
    def test_lambda_zero_is_pure_reconstruction(self, rng):
        ds = tiny_dataset()
        cfg0 = tiny_cfg(lam=0.0)
        model = DpDagModel.create(ds.n, perm_mode=cfg0.perm_mode)
        mech = MechanismNet(ds.n, cfg0.hidden, np.random.default_rng(0))
        batch = ds.train_X()[:32]
        loss0 = elbo_loss(batch, model, mech, cfg0, GumbelSource(1))
        # manual reconstruction with the same sample
        from diffdag.model import sample_dag_parts

        sample = sample_dag_parts(model, GumbelSource(1))
        xt = Tensor(batch)
        xhat = mech.forward_all(xt, sample.soft)
        recon = float(np.sum((batch - xhat.value) ** 2) / batch.shape[0])
        assert abs(float(loss0.value) - recon) < 1e-9

    def test_kl_vanishes_at_prior(self):
        # logits parked exactly at logit(prior): term (ii) contributes zero
        n, prior = 4, 0.05
        cfg = tiny_cfg(lam=0.1, prior_p=prior)
        model = DpDagModel.create(n)
        model.edge_params.logits.value = np.full((n, n), math.log(prior / (1 - prior)))
        mech = MechanismNet(n, cfg.hidden, np.random.default_rng(0))
        batch = np.random.default_rng(1).normal(size=(16, n))
        with_kl = float(elbo_loss(batch, model, mech, cfg, GumbelSource(2)).value)
        cfg0 = tiny_cfg(lam=0.0, prior_p=prior)
        without = float(elbo_loss(batch, model, mech, cfg0, GumbelSource(2)).value)
        assert abs(with_kl - without) < 1e-9

    def test_residual_noise_floor_with_true_structure(self):
        # with the true graph frozen and converged mechanisms, reconstruction
        # approaches the residual noise power: on standardized columns that is
        # noise_var / column_var per node, well below the predict-zero level 1.0
        ds = tiny_dataset(n=5, m=5, N=600, seed=7)
        cfg = tiny_cfg(max_epochs=150, patience=25, lam=0.0, batch_size=64)
        result = fit(ds, cfg, fixed_adjacency=ds.truth)
        from diffdag.metrics import mechanism_mse

        x_hat = predict(result.mechanisms, None, ds.test_X(), adjacency=ds.truth)
        mse = mechanism_mse(ds.test_X(), x_hat)
        assert mse < 0.8  # kernel-regression floor for this draw is ~0.63

    @pytest.mark.parametrize("mode", [TOPK, SINKHORN])
    def test_gradcheck_full_elbo(self, mode, rng):
        # n=5, h=8 relaxed-path gradients vs central differences
        ds = tiny_dataset(n=5, m=5, N=64, seed=5)
        cfg = tiny_cfg(perm_mode=mode, lam=0.05, hidden=8)
        model = DpDagModel.create(5, perm_mode=mode)
        model.edge_params.logits.value = rng.uniform(-0.5, 0.5, (5, 5))
        if mode == SINKHORN:
            model.perm_params.scores.value = rng.uniform(-0.5, 0.5, (5, 5))
        else:
            model.perm_params.scores.value = rng.uniform(-0.5, 0.5, (5, 1))
        mech = MechanismNet(5, 8, np.random.default_rng(2))
        batch = ds.train_X()[:16]

        def build():
            return elbo_loss(batch, model, mech, cfg, GumbelSource(33), relaxed=True)

        params = model.parameters() + [mech.w1, mech.w2, mech.b3]
        ana = analytic_grads(build, params)
        num = numeric_grads(build, params, eps=1e-5)
        for a, b in zip(ana, num):
            rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-2)
            assert rel.max() <= 1e-3


class TestFit:
    def test_smoke_and_history(self):
        ds = tiny_dataset()
        result = fit(ds, tiny_cfg())
        assert len(result.history) >= 2
        assert all(np.isfinite(h["train_loss"]) for h in result.history)
        assert result.wall_time_seconds > 0
        checked = [h for h in result.history if h["val_loss"] is not None]
        assert checked, "validation must run"
        assert result.best_val_loss <= checked[0]["val_loss"] + 1e-12

    def test_deterministic_history(self):
        ds = tiny_dataset()
        r1 = fit(ds, tiny_cfg(max_epochs=6))
        r2 = fit(ds, tiny_cfg(max_epochs=6))
        l1 = [(h["epoch"], h["train_loss"], h["val_loss"]) for h in r1.history]
        l2 = [(h["epoch"], h["train_loss"], h["val_loss"]) for h in r2.history]
        assert l1 == l2

    def test_intermediate_samples_acyclic(self):
        ds = tiny_dataset()
        seen = []

        def snap(epoch, model, mech):
            hard, _ = __import__("diffdag.model", fromlist=["sample_dag"]).sample_dag(
                model, GumbelSource(epoch)
            )
            seen.append(is_acyclic(hard.entries))

        fit(ds, tiny_cfg(max_epochs=6), on_epoch=snap)
        assert seen and all(seen)

    def test_nan_training_data_raises_at_epoch_0(self):
        ds = tiny_dataset()
        ds.X[:, 0] = np.nan  # every batch produces a non-finite loss
        with pytest.raises(DivergenceError, match="training loss is nan at epoch 0, batch from row 0$"):
            fit(ds, tiny_cfg(max_epochs=4))

    @pytest.mark.parametrize("oracle", [False, True])
    def test_nan_validation_row_raises(self, oracle):
        # one bad held-out row must not pass for a run of bad checks and an early stop
        ds = tiny_dataset()
        ds.X[ds.splits.val[0], 2] = np.nan
        with pytest.raises(DivergenceError, match="validation loss is nan at epoch 1$"):
            fit(ds, tiny_cfg(max_epochs=8), fixed_adjacency=ds.truth if oracle else None)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on the way to inf
    def test_huge_learning_rate_raises(self):
        ds = tiny_dataset()
        with pytest.raises(DivergenceError, match=r"training loss is (nan|inf) at epoch \d+, batch from row \d+$"):
            fit(ds, tiny_cfg(learning_rate=1e150))

    def test_divergence_error_survives_pickling(self):
        # grid workers send it back across a process boundary
        err = DivergenceError("training loss is nan at epoch 3, batch from row 64")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DivergenceError and str(back) == str(err)

    def test_early_stopping_restores_best(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(max_epochs=40, patience=2)
        result = fit(ds, cfg)
        final_val = validation_loss(ds.val_X(), result.model, result.mechanisms, cfg)
        assert abs(final_val - result.best_val_loss) < 1e-9

    def test_pure_reconstruction_converges(self):
        # lam=0 removes the sparsity term entirely; training still descends
        ds = tiny_dataset()
        result = fit(ds, tiny_cfg(lam=0.0, max_epochs=20))
        losses = [h["train_loss"] for h in result.history]
        assert losses[-1] < losses[0]

    def test_gt_structure_mse_ballpark(self):
        # oracle baseline on the standard benchmark: with unit-variance noise
        # the reachable floor sits near 0.8; well below the predict-zero level
        ds = generate(GenSpec(graph_kind="er", n=10, m=10, seed=0))
        cfg = tiny_cfg(hidden=16, lam=0.0, max_epochs=200, patience=20, batch_size=128)
        result = fit(ds, cfg, fixed_adjacency=ds.truth)
        from diffdag.metrics import mechanism_mse

        x_hat = predict(result.mechanisms, None, ds.test_X(), adjacency=ds.truth)
        assert 0.2 < mechanism_mse(ds.test_X(), x_hat) < 0.95


class TestSparsityPull:
    def test_kl_alone_drives_probs_to_prior(self):
        # reconstruction removed: every pair probability drifts to the prior,
        # with the summed KL decreasing monotonically under plain descent
        n, prior = 5, 0.05
        model = DpDagModel.create(n)
        rng = np.random.default_rng(0)
        model.edge_params.logits.value = rng.uniform(-1.5, 1.5, (n, n))
        mask = Tensor(1.0 - np.eye(n))
        values = []
        lr = 0.5
        for _ in range(400):
            with Tape() as tape:
                kl = _kl_term(model, mask, prior)
            values.append(float(kl.value))
            tape.backward(kl)
            g = model.edge_params.logits.grad
            model.edge_params.logits.value = model.edge_params.logits.value - lr * g
            model.edge_params.logits.zero_grad()
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        probs = model.edge_params.probabilities()
        off = ~np.eye(n, dtype=bool)
        assert np.abs(probs[off] - prior).max() < 1e-3


class TestFitDirect:
    def test_empty_truth_drives_logits_negative(self):
        truth = AdjacencyMatrix(np.zeros((5, 5), dtype=np.int8))
        model = DpDagModel.create(5)
        fit_direct(truth, model, lr=5e-2, steps=250, seed=0)
        assert threshold_dag(model, 0.5).edge_count() == 0

    def test_recovers_small_graph(self):
        ds = tiny_dataset(n=5, m=5, seed=11)
        model = DpDagModel.create(5, perm_mode=TOPK)
        fit_direct(ds.truth, model, lr=5e-2, steps=400, seed=1)
        from diffdag.metrics import structure_aucs

        aucs = structure_aucs(model, ds.truth)
        assert aucs["dir_auc_roc"] > 0.9

    # The loss is taken on the hard 0/1 draw and stays finite, so only the
    # parameter check after each step can see a divergence.
    @pytest.mark.parametrize("mode", [TOPK, SINKHORN])
    def test_nan_logits_raise_naming_the_step(self, mode):
        truth = AdjacencyMatrix(np.triu(np.ones((4, 4), dtype=np.int8), 1))
        model = DpDagModel.create(4, perm_mode=mode)
        model.edge_params.logits.value[:] = np.nan
        with pytest.raises(DivergenceError, match="sampler parameters are not finite after step 0$"):
            fit_direct(truth, model, steps=50)

    @pytest.mark.parametrize("mode", [TOPK, SINKHORN])
    def test_huge_learning_rate_stays_finite_until_it_overflows(self, mode):
        truth = AdjacencyMatrix(np.triu(np.ones((4, 4), dtype=np.int8), 1))
        # Adam moves each parameter by at most about lr a step: 50 steps of
        # 1e150 end huge but finite, which is no divergence
        model = fit_direct(truth, DpDagModel.create(4, perm_mode=mode), lr=1e150, steps=50)
        values = np.concatenate([p.value.ravel() for p in model.parameters()])
        assert np.isfinite(values).all() and np.abs(values).max() > 1e150
        # steps of 1e308 overflow to inf within a few steps
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"sampler parameters are not finite after step \d+$"):
                fit_direct(truth, DpDagModel.create(4, perm_mode=mode), lr=1e308, steps=50)


    # lr=-1 once ran gradient ascent, lr=0 trained nothing and steps=-3
    # returned the untrained model, all silently
    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"lr": -1.0}, "lr must be finite and positive"),
            ({"lr": 0.0}, "lr must be finite and positive"),
            ({"lr": float("nan")}, "lr must be finite and positive"),
            ({"lr": float("inf")}, "lr must be finite and positive"),
            ({"steps": -3}, "steps must be an integer >= 0"),
            ({"steps": 2.5}, "steps must be an integer >= 0"),
            ({"steps": True}, "steps must be an integer >= 0"),
        ],
    )
    def test_bad_lr_or_steps_raise_before_any_step(self, kwargs, message):
        truth = AdjacencyMatrix(np.triu(np.ones((4, 4), dtype=np.int8), 1))
        model = DpDagModel.create(4)
        before = [p.value.copy() for p in model.parameters()]
        with pytest.raises(ValueError, match=message):
            fit_direct(truth, model, **kwargs)
        assert all(np.array_equal(a, p.value) for a, p in zip(before, model.parameters()))

    # once numpy's "operands could not be broadcast together" from the loss
    def test_truth_on_other_node_count_is_named(self):
        truth = AdjacencyMatrix(np.triu(np.ones((4, 4), dtype=np.int8), 1))
        with pytest.raises(ValueError, match="^node counts differ: model has 3, truth has 4$"):
            fit_direct(truth, DpDagModel.create(3))

    def test_zero_steps_returns_the_model_unchanged(self):
        truth = AdjacencyMatrix(np.triu(np.ones((4, 4), dtype=np.int8), 1))
        model = DpDagModel.create(4)
        before = model.edge_params.logits.value.copy()
        assert fit_direct(truth, model, steps=0) is model
        assert np.array_equal(model.edge_params.logits.value, before)


class TestPredict:
    def test_empty_structure_gives_constant_columns(self):
        n = 4
        mech = MechanismNet(n, 8, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(10, n))
        out = predict(mech, None, x, adjacency=AdjacencyMatrix(np.zeros((n, n), dtype=np.int8)))
        assert np.allclose(out, out[0:1, :])  # every row identical

    def test_requires_model_or_adjacency(self):
        mech = MechanismNet(3, 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="adjacency"):
            predict(mech, None, np.zeros((4, 3)))


def seed_format_state(n, hidden, rng):
    """Mechanism weights in the version-1 checkpoint layout: one dict of
    per-node arrays (as nested lists) per node."""
    shapes = {
        "w1": (n, hidden),
        "b1": (1, hidden),
        "w2": (hidden, hidden),
        "b2": (1, hidden),
        "w3": (hidden, 1),
        "b3": (1, 1),
    }
    layers = [{k: rng.normal(size=shape).tolist() for k, shape in shapes.items()} for _ in range(n)]
    return {"n": n, "hidden": hidden, "layers": layers}


def reference_forward(state, x, mask, g=None):
    """Plain-numpy per-node loop: node i's MLP on ``x`` masked by row i.

    With ``g``, the upstream gradient of the (b, n) output, it also returns
    the per-node adjoint: a dict of per-node parameter gradients (version-1
    layout) per node, and the mask's gradient, taken through the masked batch
    ``x * mask[i]`` rather than through the masked weights.
    """
    def slope(v):
        return np.where(v > 0, 1.0, 0.01)

    cols, grads = [], []
    gmask = np.zeros_like(mask)
    for i, layer in enumerate(state["layers"]):
        p = {k: np.array(v) for k, v in layer.items()}
        xi = x * mask[i]
        z1 = xi @ p["w1"] + p["b1"]
        h1 = z1 * slope(z1)
        z2 = h1 @ p["w2"] + p["b2"]
        h2 = z2 * slope(z2)
        cols.append(h2 @ p["w3"] + p["b3"])
        if g is None:
            continue
        gy = g[:, i : i + 1]
        gz2 = (gy @ p["w3"].T) * slope(z2)
        gz1 = (gz2 @ p["w2"].T) * slope(z1)
        grads.append(
            {
                "w1": xi.T @ gz1,
                "b1": gz1.sum(axis=0, keepdims=True),
                "w2": h1.T @ gz2,
                "b2": gz2.sum(axis=0, keepdims=True),
                "w3": h2.T @ gy,
                "b3": gy.sum(axis=0, keepdims=True),
            }
        )
        gmask[i] = ((gz1 @ p["w1"].T) * x).sum(axis=0)
    out = np.concatenate(cols, axis=1)
    return out if g is None else (out, grads, gmask)


def node_blocks(mech, j):
    """Node j's slice of each stacked parameter, in parameters() order."""
    return [(p, j) for p in mech.parameters()]


class TestStackedMechanisms:
    def test_init_stacks_per_node_draws_in_order(self):
        n, h = 4, 3
        mech = MechanismNet(n, h, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        for i in range(n):
            w1 = np.sqrt(2.0 / n) * rng.standard_normal((n, h))
            w2 = np.sqrt(2.0 / h) * rng.standard_normal((h, h))
            w3 = np.sqrt(2.0 / h) * rng.standard_normal((h, 1))
            layer = mech.state()["layers"][i]
            assert np.array_equal(layer["w1"], w1)
            assert np.array_equal(layer["w2"], w2)
            assert np.array_equal(layer["w3"], w3)
            assert not np.any(layer["b1"]) and not np.any(layer["b2"]) and not np.any(layer["b3"])
        assert len(mech.parameters()) == 6

    @pytest.mark.parametrize("make", ["init", "from_state"])
    def test_every_parameter_is_node_major_in_the_state_layout(self, make):
        n, h = 4, 3
        rng = np.random.default_rng(9)
        mech = MechanismNet(n, h, rng) if make == "init" else MechanismNet.from_state(seed_format_state(n, h, rng))
        shapes = {"w1": (n, h), "b1": (1, h), "w2": (h, h), "b2": (1, h), "w3": (h, 1), "b3": (1, 1)}
        layers = mech.state()["layers"]
        for p, (key, shape) in zip(mech.parameters(), shapes.items()):
            assert p is getattr(mech, key) and p.value.shape == (n, *shape)
            for i in range(n):
                assert p.value[i].tolist() == layers[i][key]

    @pytest.mark.parametrize("hard", [True, False])
    def test_matches_per_node_reference(self, hard):
        rng = np.random.default_rng(4)
        n, h = 6, 5
        state = seed_format_state(n, h, rng)
        mech = MechanismNet.from_state(state)
        x = rng.normal(size=(32, n))
        mask = rng.random((n, n))
        if hard:
            mask = (mask < 0.5).astype(np.float64)
        out = mech.forward_all(Tensor(x), Tensor(mask)).value
        np.testing.assert_allclose(out, reference_forward(state, x, mask), rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        h=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_reference_for_any_mask(self, n, h, seed):
        rng = np.random.default_rng(seed)
        state = seed_format_state(n, h, rng)
        mask = rng.integers(0, 2, (n, n)).astype(np.float64)
        x = rng.normal(size=(7, n))
        out = MechanismNet.from_state(state).forward_all(Tensor(x), Tensor(mask)).value
        assert out.shape == (7, n)
        np.testing.assert_allclose(out, reference_forward(state, x, mask), rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        h=st.integers(1, 6),
        b=st.integers(1, 9),
        hard=st.booleans(),
        mask_grad=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_gradients_match_per_node_adjoint(self, n, h, b, hard, mask_grad, seed):
        rng = np.random.default_rng(seed)
        state = seed_format_state(n, h, rng)
        mech = MechanismNet.from_state(state)
        x = rng.normal(size=(b, n))
        mask = rng.random((n, n))
        if hard:
            mask = (mask < 0.5).astype(np.float64)
        g = rng.normal(size=(b, n))
        held = [a.copy() for a in [x, mask, g] + [p.value for p in mech.parameters()]]
        with Tape() as tape:
            out = mech.forward_all(Tensor(x), Tensor(mask, requires_grad=mask_grad))
        (node,) = tape.nodes
        got = node.backward_fn(g, node)
        ref_out, ref_grads, ref_gmask = reference_forward(state, x, mask, g)
        np.testing.assert_allclose(out.value, ref_out, rtol=0, atol=1e-12)
        for key, grad in zip(["w1", "b1", "w2", "b2", "w3", "b3"], got):
            for i in range(n):
                np.testing.assert_allclose(grad[i], ref_grads[i][key], rtol=0, atol=1e-12)
        if mask_grad:
            np.testing.assert_allclose(got[6], ref_gmask, rtol=0, atol=1e-12)
        else:
            assert got[6] is None
        # neither pass writes into its inputs, nor the backward into g
        for before, after in zip(held, [x, mask, g] + [p.value for p in mech.parameters()]):
            assert np.array_equal(before, after)

    def test_activation_is_bitwise_the_max_form(self, rng):
        z = np.concatenate([rng.uniform(-3, 3, 200), [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]])
        b = rng.uniform(-1, 1, z.size)
        b[-7:] = 0.0
        out, slope = _bias_leaky_relu(z.copy(), b)
        want = np.maximum(z + b, 0.01 * (z + b))
        assert np.array_equal(out, want, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(want))
        assert np.array_equal(slope, np.where(z + b > 0, 1.0, 0.01))

    @pytest.mark.parametrize(
        "x_shape, mask_shape, x_grad, match",
        [
            ((8, 4), (4, 5), False, "x must have shape"),
            ((8,), (5, 5), False, "x must have shape"),
            ((8, 5), (1, 5), False, "mask must have shape"),
            ((8, 5), (5, 5), True, "must not require a gradient"),
        ],
    )
    def test_rejects_bad_inputs(self, x_shape, mask_shape, x_grad, match):
        mech = MechanismNet(5, 3, np.random.default_rng(0))
        x = Tensor(np.ones(x_shape), requires_grad=x_grad)
        with pytest.raises(ad.DimensionError, match=f"forward_all: .*{match}"):
            mech.forward_all(x, Tensor(np.ones(mask_shape)))

    def test_node_blocks_only_move_their_column(self):
        rng = np.random.default_rng(5)
        n, h = 5, 4
        mech = MechanismNet(n, h, rng)
        x = Tensor(rng.normal(size=(16, n)))
        mask = Tensor(rng.random((n, n)))
        base = mech.forward_all(x, mask).value
        for j in range(n):
            saved = [p.value.copy() for p in mech.parameters()]
            for p, idx in node_blocks(mech, j):
                p.value[idx] += rng.normal(size=p.value[idx].shape)
            out = mech.forward_all(x, mask).value
            for p, v in zip(mech.parameters(), saved):
                p.value = v
            others = [c for c in range(n) if c != j]
            assert np.array_equal(out[:, others], base[:, others])
            assert not np.allclose(out[:, j], base[:, j])

    def test_masked_out_inputs_do_not_reach_column(self):
        rng = np.random.default_rng(6)
        n = 6
        mech = MechanismNet(n, 4, rng)
        mask = (rng.random((n, n)) < 0.5).astype(np.float64)
        x = rng.normal(size=(16, n))
        base = mech.forward_all(Tensor(x), Tensor(mask)).value
        for i in range(n):
            for k in range(n):
                if mask[i, k] == 0:
                    moved = x.copy()
                    moved[:, k] += 10.0 * rng.normal(size=16)
                    out = mech.forward_all(Tensor(moved), Tensor(mask)).value
                    assert np.array_equal(out[:, i], base[:, i])

    def test_column_gradient_reaches_only_its_node(self):
        rng = np.random.default_rng(8)
        n, h = 5, 3
        mech = MechanismNet(n, h, rng)
        x = Tensor(rng.normal(size=(16, n)))
        mask = Tensor(rng.random((n, n)), requires_grad=True)
        for j in range(n):
            pick = np.zeros((16, n))
            pick[:, j] = rng.normal(size=16)
            grads = analytic_grads(
                lambda: tsum(mul(mech.forward_all(x, mask), Tensor(pick))), mech.parameters() + [mask]
            )
            for (p, idx), g in zip(node_blocks(mech, j), grads):
                outside = g.copy()
                outside[idx] = 0.0
                assert not np.any(outside), "gradient leaked outside node j's block"
                assert np.any(g[idx])
            mask_grad = grads[-1]
            assert not np.any(np.delete(mask_grad, j, axis=0)) and np.any(mask_grad[j])

    def test_tape_size_does_not_grow_with_n(self):
        def nodes(n):
            rng = np.random.default_rng(0)
            mech = MechanismNet(n, 4, rng)
            with Tape() as tape:
                mech.forward_all(Tensor(rng.normal(size=(8, n))), Tensor(rng.random((n, n)), requires_grad=True))
            return len(tape.nodes)

        assert nodes(5) == nodes(50) == 1


class TestMechanismCheckpoint:
    def test_seed_format_round_trips_bit_exactly(self):
        state = seed_format_state(4, 3, np.random.default_rng(1))
        assert MechanismNet.from_state(state).state() == state

    def test_state_round_trip_keeps_parameters(self):
        mech = MechanismNet(5, 4, np.random.default_rng(2))
        back = MechanismNet.from_state(mech.state())
        for a, b in zip(mech.parameters(), back.parameters()):
            assert np.array_equal(a.value, b.value) and b.requires_grad

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda s: s.update(n=3), "n = 3 but layers holds 4"),
            (lambda s: s.update(n=0), "n = 0 but layers holds 4"),
            (lambda s: s.update(n=0, layers=[]), "n must be an integer >= 1, got 0"),
            (lambda s: s.update(n=4.0), "n must be an integer >= 1, got 4.0"),
            (lambda s: s.update(n=10**6), "n = 1000000 but layers holds 4"),
            (lambda s: s.update(hidden="3"), "hidden must be an integer >= 1"),
            (lambda s: s.update(hidden=2), "node 0 key 'w1' has shape"),
            (lambda s: s.pop("layers"), "needs keys n, hidden and layers"),
            (lambda s: s["layers"][2].pop("b2"), "node 2 has keys"),
            (lambda s: s["layers"][1].update(extra=[[0.0]]), "node 1 has keys"),
            (lambda s: s["layers"][3].update(w2=[[0.0] * 3] * 2), "node 3 key 'w2' has shape"),
            (lambda s: s["layers"][1].update(b3=[[float("nan")]]), "node 1 key 'b3' holds non-finite"),
            (lambda s: s["layers"][0].update(w3=[[1.0], [float("inf")], [0.0]]), "node 0 key 'w3' holds non-finite"),
            (lambda s: s["layers"][2].update(b1=[[1.0, "a", 2.0]]), "node 2 key 'b1' is not a numeric"),
        ],
    )
    def test_malformed_state_names_node_and_key(self, corrupt, match):
        state = seed_format_state(4, 3, np.random.default_rng(3))
        corrupt(state)
        with pytest.raises(ValueError, match=match):
            MechanismNet.from_state(state)


class TestAdam:
    def test_descends_quadratic(self):
        # a vector and a 0-d parameter, stepped by one optimizer
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        s = Tensor(4.0, requires_grad=True)
        opt = Adam([p, s], lr=0.1)
        for _ in range(300):
            with Tape() as tape:
                loss = add(squared_norm(p), squared_norm(s))
            tape.backward(loss)
            opt.step()
            opt.zero_grad()
        assert np.abs(p.value).max() < 1e-2
        assert s.value.shape == () and abs(s.value) < 1e-2
