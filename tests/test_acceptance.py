"""End-to-end acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints
a PASS/FAIL line (visible with ``pytest -s`` and in captured output).
Heavier criteria reuse one shared training fixture; the whole module runs
in minutes on a single core.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import add, assert_grads_close, auc_pr_oracle, auc_roc_oracle, bernoulli_kl, enumerate_dags, mul, squared_norm, sub, tsum
from diffdag.autodiff import Tensor
from diffdag.graphs import AdjacencyMatrix, PermutationMatrix, compose, decompose, is_acyclic
from diffdag.gumbel import (
    SINKHORN,
    TOPK,
    EdgeParams,
    GumbelSource,
    PermutationParams,
    _hard_permutation,
    hungarian,
    sample_edges,
    sinkhorn_operator,
    softsort,
)
from diffdag.metrics import (
    auc_pr,
    auc_roc,
    bench_sampling,
    mechanism_mse,
    perturbation_confidence,
    structure_aucs,
)
from diffdag.model import DpDagModel, _dag_node, _order_mask_node, sample_dag
from diffdag.semdata import GenSpec, gen_graph, generate
from diffdag.training import (
    MechanismNet,
    TrainConfig,
    _kl_term,
    _loss,
    elbo_loss,
    fit,
    fit_direct,
    predict,
)
from conftest import analytic_grads, numeric_grads


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _vi_config(seed=0):
    return TrainConfig(
        learning_rate=1e-2,
        hidden=16,
        perm_mode=SINKHORN,
        prior_p=0.05,
        lam=0.01,
        batch_size=128,
        max_epochs=400,
        patience=10,
        val_check_every=2,
        seed=seed,
    )


@pytest.fixture(scope="module")
def vi_runs():
    """Criterion-3 trainings, shared with criteria 8 and 9."""
    runs = []
    t0 = time.perf_counter()
    for seed in (0, 1, 2):
        ds = generate(GenSpec(graph_kind="er", n=10, m=10, seed=seed))
        result = fit(ds, _vi_config())
        runs.append((ds, result))
    return runs, time.perf_counter() - t0


class TestCriterion1AnyTimeValidity:
    def test_all_samples_acyclic(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        total = 0
        bad = 0
        # random parameters across sizes and both modes
        counts = {5: 1600, 20: 1000, 100: 600}
        for mode in (SINKHORN, TOPK):
            for n, reps in counts.items():
                shape = (n, n) if mode == SINKHORN else n
                model = DpDagModel(
                    n=n,
                    edge_params=EdgeParams(n=n, logits=rng.normal(size=(n, n))),
                    perm_params=PermutationParams(n=n, mode=mode, scores=rng.normal(size=shape)),
                )
                noise = GumbelSource(n)
                for _ in range(reps):
                    hard, _ = sample_dag(model, noise)
                    total += 1
                    bad += not is_acyclic(hard.entries)
        # mid-training snapshots from live optimization
        ds = generate(GenSpec(graph_kind="er", n=10, m=10, seed=3, N=400))
        for mode in (SINKHORN, TOPK):
            cfg = _vi_config()
            cfg.perm_mode = mode
            cfg.max_epochs = 30
            cfg.patience = 30

            def snap(epoch, model, mech, _state={"k": 0}):
                nonlocal total, bad
                noise = GumbelSource(1000 + epoch)
                for _ in range(60):
                    hard, _ = sample_dag(model, noise)
                    total += 1
                    bad += not is_acyclic(hard.entries)

            fit(ds, cfg, on_epoch=snap)
        elapsed = time.perf_counter() - t0
        _report(
            "criterion 1 (any-time DAG validity)",
            total >= 10_000 and bad == 0 and elapsed < 60,
            f"{total} samples, {bad} cyclic, {elapsed:.1f}s",
        )


class TestCriterion2DirectLearning:
    LRS = (1.0, 0.1, 0.01, 0.001)
    STEPS = 1200

    def _sweep(self, kind, n, m, mode, graphs=10):
        prs, rocs = [], []
        for g in range(graphs):
            truth = gen_graph(GenSpec(graph_kind=kind, n=n, m=m, seed=g))
            for lr in self.LRS:
                model = DpDagModel.create(n, perm_mode=mode)
                fit_direct(truth, model, lr=lr, steps=self.STEPS, seed=g)
                aucs = structure_aucs(model, truth)
                prs.append(aucs["dir_auc_pr"])
                rocs.append(aucs["dir_auc_roc"])
        return float(np.mean(prs)), float(np.mean(rocs))

    def test_er_10_10_both_samplers(self):
        results = {mode: self._sweep("er", 10, 10, mode) for mode in (TOPK, SINKHORN)}
        ok = all(pr >= 0.95 and roc >= 0.97 for pr, roc in results.values())
        _report(
            "criterion 2a (direct learning er-10-10)",
            ok,
            "; ".join(f"{m}: PR={pr:.3f} ROC={roc:.3f}" for m, (pr, roc) in results.items())
            + " (need PR>=0.95, ROC>=0.97)",
        )

    def test_sf_20_20_topk(self):
        pr, roc = self._sweep("sf", 20, 20, TOPK)
        _report(
            "criterion 2b (direct learning sf-20-20)",
            roc >= 0.90,
            f"topk: PR={pr:.3f} ROC={roc:.3f} (need ROC>=0.90)",
        )


class TestCriterion3StructureRecovery:
    def test_er_10_10_recovery(self, vi_runs):
        runs, elapsed = vi_runs
        scores = [structure_aucs(r.model, ds.truth) for ds, r in runs]
        ok = (
            all(s["un_auc_roc"] >= 0.85 for s in scores)
            and all(s["un_auc_pr"] >= 0.65 for s in scores)
            and elapsed <= 600
        )
        _report(
            "criterion 3 (variational structure recovery)",
            ok,
            "; ".join(f"un_pr={s['un_auc_pr']:.3f} un_roc={s['un_auc_roc']:.3f}" for s in scores)
            + f"; {elapsed:.0f}s total (need un_roc>=0.85, un_pr>=0.65, <=600s)",
        )


class TestCriterion4SamplingTime:
    SIZES = (10, 25, 50, 100, 200)

    def _times(self):
        """Min-of-3 draw time per size for each mode. The modes alternate
        within every size, so load on a shared host hits both alike."""
        best = {SINKHORN: [], TOPK: []}
        for n in self.SIZES:
            models = {mode: DpDagModel.create(n, perm_mode=mode) for mode in best}
            runs = {mode: [] for mode in best}
            for r in range(3):
                for mode, model in models.items():
                    runs[mode].append(bench_sampling(model, repetitions=20, warmup=3, seed=r)[0])
            for mode in best:
                # min over repeated runs: robust against scheduler noise
                best[mode].append(min(runs[mode]))
        return best[SINKHORN], best[TOPK]

    def test_time_ordering_and_slopes(self):
        sink, topk = self._times()
        slope_sink = float(np.polyfit(np.log(self.SIZES), np.log(sink), 1)[0])
        slope_topk = float(np.polyfit(np.log(self.SIZES), np.log(topk), 1)[0])
        ok = (
            sink[-1] < 1.0
            and topk[-1] < 1.0
            and topk[-1] < sink[-1]
            and topk[0] < topk[-1]
            and sink[0] < sink[-1]
            and slope_sink > slope_topk
        )
        _report(
            "criterion 4 (sampling time ordering)",
            ok,
            f"n=200: sinkhorn {sink[-1] * 1e3:.1f}ms, topk {topk[-1] * 1e3:.1f}ms; "
            f"log-log slopes {slope_sink:.2f} vs {slope_topk:.2f}",
        )


class TestCriterion5OracleEquivalences:
    def test_hungarian_vs_brute_force(self):
        rng = np.random.default_rng(42)
        perms_by_n = {n: np.array(list(itertools.permutations(range(n)))) for n in range(2, 8)}
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            profit = rng.uniform(-10, 10, (n, n))
            pm = hungarian(profit)
            got = profit[pm.perm, np.arange(n)].sum()
            all_perms = perms_by_n[n]
            best = profit[all_perms, np.arange(n)].sum(axis=1).max()
            worst = max(worst, abs(got - best))
            if got != best:
                break
        _report("criterion 5a (assignment oracle)", worst == 0.0, f"1000 instances, max |gap|={worst}")

    def test_auc_vs_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            size = int(rng.integers(4, 31))
            scores = rng.choice(np.linspace(0, 1, 7), size=size)
            labels = rng.integers(0, 2, size=size)
            if labels.sum() in (0, size):
                continue
            worst = max(
                worst,
                abs(auc_roc(scores, labels) - auc_roc_oracle(scores, labels)),
                abs(auc_pr(scores, labels) - auc_pr_oracle(scores, labels)),
            )
        _report("criterion 5b (auc oracle)", worst <= 1e-12, f"max |gap|={worst:.2e}")

    def test_bernoulli_kl_closed_form(self):
        # the objective's KL term, one edge at a time: a one-node model whose
        # single logit is logit(p), against the two-term closed form
        rng = np.random.default_rng(1)
        model = DpDagModel.create(1)
        mask = Tensor(np.ones((1, 1)))
        worst = 0.0
        for _ in range(1000):
            p = rng.uniform(1e-4, 1 - 1e-4)
            q = rng.uniform(1e-4, 1 - 1e-4)
            model.edge_params.logits.value = np.array([[math.log(p) - math.log1p(-p)]])
            worst = max(worst, abs(float(_kl_term(model, mask, q).value) - float(bernoulli_kl(p, q))))
        _report("criterion 5c (bernoulli kl)", worst <= 1e-10, f"max |gap|={worst:.2e}")

    def test_factorization_round_trip_all_4_node_dags(self):
        dags = enumerate_dags(4)
        ok = len(dags) == 543
        for m in dags:
            a = AdjacencyMatrix(m)
            pi, u = decompose(a)
            ok = ok and compose(pi, u) == a
        _report("criterion 5d (factorization round trip)", ok, f"{len(dags)} four-node DAGs")

    def test_sinkhorn_double_stochasticity(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for n in (5, 20, 50):
            for _ in range(40):
                p = sinkhorn_operator(rng.uniform(-5, 5, (n, n))).value
                worst = max(
                    worst, np.abs(p.sum(axis=1) - 1).max(), np.abs(p.sum(axis=0) - 1).max()
                )
        _report("criterion 5e (sinkhorn doubly stochastic)", worst <= 1e-4, f"max dev={worst:.2e}")


class TestCriterion6GradientChecks:
    def test_all_op_gradients(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        y = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        w34 = Tensor(rng.uniform(-2, 2, (3, 4)))
        s = Tensor(0.6, requires_grad=True)
        sq = Tensor(rng.uniform(-2, 2, (4, 4)), requires_grad=True)
        w44 = Tensor(rng.uniform(-2, 2, (4, 4)))
        scores = Tensor(rng.uniform(-2, 2, (4, 1)), requires_grad=True)
        # the mechanism MLPs (n = 4, h = 3) on a batch of 3 rows through a
        # soft mask, with every parameter moved off its initial value
        mech = MechanismNet(4, 3, rng)
        for p in mech.parameters():
            p.value = rng.uniform(-1, 1, p.value.shape)
        batch = Tensor(rng.uniform(-2, 2, (3, 4)))
        soft_mask = Tensor(rng.uniform(0, 1, (4, 4)), requires_grad=True)
        # the draw's nodes on their relaxed values: edges under fixed noise,
        # P^T M P of a soft permutation, E * mask, and the KL term
        model = DpDagModel.create(4, temperature=0.7)
        model.edge_params.logits.value = rng.uniform(-2, 2, (4, 4))
        logits = model.edge_params.logits
        perm = Tensor(rng.uniform(0, 1, (4, 4)), requires_grad=True)
        edges = Tensor(rng.uniform(0, 1, (4, 4)), requires_grad=True)
        cases = [
            ("add", lambda: tsum(mul(add(x, y), y)), [x, y]),
            ("sub", lambda: tsum(mul(sub(x, y), x)), [x, y]),
            ("elementwise-mul", lambda: squared_norm(mul(x, y)), [x, y]),
            ("scalar-mix", lambda: tsum(mul(add(x, s), y)), [x, s]),
            ("squared-norm", lambda: squared_norm(x), [x]),
            (
                "mechanisms",
                lambda: tsum(mul(mech.forward_all(batch, soft_mask), w34)),
                mech.parameters() + [soft_mask],
            ),
            ("sinkhorn", lambda: tsum(mul(sinkhorn_operator(sq, iters=8, tol=0.0), w44)), [sq]),
            ("softsort", lambda: tsum(mul(softsort(scores, tau=0.5), w44)), [scores]),
            ("edges", lambda: tsum(mul(sample_edges(model.edge_params, GumbelSource(3))[1], w44)), [logits]),
            ("order-mask", lambda: tsum(mul(_order_mask_node(perm, None)[0], w44)), [perm]),
            ("dag", lambda: tsum(mul(_dag_node(edges, soft_mask, soft_mask.value, None), w44)), [edges, soft_mask]),
            ("kl", lambda: _kl_term(model, soft_mask, 0.05), [logits, soft_mask]),
            ("loss", lambda: _loss(x, y, 0.3), [x, y]),
            ("loss with a penalty", lambda: _loss(x, y, 0.3, s, 0.7), [x, y, s]),
        ]
        failures = []
        for name, build, params in cases:
            try:
                assert_grads_close(build, params, rtol=1e-3)
            except AssertionError:
                failures.append(name)
        _report(
            "criterion 6a (op-level gradient checks)",
            not failures,
            f"{len(cases)} ops checked" + (f", failing: {failures}" if failures else ""),
        )

    def test_full_elbo_gradients(self):
        ds = generate(GenSpec(graph_kind="er", n=5, m=5, N=64, seed=5))
        worst = 0.0
        for mode in (TOPK, SINKHORN):
            rng = np.random.default_rng(9)
            cfg = TrainConfig(
                learning_rate=1e-2, hidden=8, perm_mode=mode, prior_p=0.05, lam=0.05, seed=0
            )
            model = DpDagModel.create(5, perm_mode=mode)
            model.edge_params.logits.value = rng.uniform(-0.5, 0.5, (5, 5))
            model.perm_params.scores.value = rng.uniform(
                -0.5, 0.5, model.perm_params.scores.value.shape
            )
            mech = MechanismNet(5, 8, np.random.default_rng(2))
            batch = ds.train_X()[:16]

            def build():
                return elbo_loss(batch, model, mech, cfg, GumbelSource(33), relaxed=True)

            params = model.parameters() + [mech.w1, mech.w2, mech.b3]
            ana = analytic_grads(build, params)
            num = numeric_grads(build, params, eps=1e-5)
            for a, b in zip(ana, num):
                rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-2)
                worst = max(worst, float(rel.max()))
        _report("criterion 6b (full elbo gradient check)", worst <= 1e-3, f"max rel err={worst:.2e}")


class TestCriterion7Distributions:
    def test_uniform_topk_permutations(self):
        # drawn as untaped sample_dag draws its orders: the value-only hard draw
        params = PermutationParams(n=3, mode=TOPK)
        noise = GumbelSource(17)
        draws = 100_000
        counts = {}
        for _ in range(draws):
            key = tuple(_hard_permutation(params, noise).perm.tolist())
            counts[key] = counts.get(key, 0) + 1
        freqs = {k: c / draws for k, c in counts.items()}
        ok = len(freqs) == 6 and all(abs(f - 1 / 6) <= 0.01 for f in freqs.values())
        _report(
            "criterion 7a (uniform permutation frequencies)",
            ok,
            f"freqs={sorted(round(f, 4) for f in freqs.values())} (need 1/6 +- 0.01)",
        )

    def test_zero_logit_edge_frequency(self):
        params = EdgeParams(n=32)
        noise = GumbelSource(23)
        total, count = 0.0, 0
        while count < 100_000:
            hard, _ = sample_edges(params, noise)
            total += hard.sum()
            count += hard.size
        freq = total / count
        _report(
            "criterion 7b (zero-logit edge frequency)",
            abs(freq - 0.5) <= 0.01,
            f"freq={freq:.4f} over {count} pair draws (need 0.5 +- 0.01)",
        )


class TestCriterion8PerturbationConfidence:
    def test_confidence_strictly_decreasing(self, vi_runs):
        runs, _ = vi_runs
        ds, result = runs[0]
        means = [
            perturbation_confidence(result.model, ds.truth, k_moved=k, trials=10, seed=1)[0]
            for k in (0, 2, 4, 8)
        ]
        ok = all(b < a for a, b in zip(means, means[1:]))
        _report(
            "criterion 8 (perturbed-graph confidence)",
            ok,
            "means over k in {0,2,4,8}: " + ", ".join(f"{m:.3f}" for m in means),
        )


class TestCriterion9ThresholdInsensitivity:
    def test_mse_flat_except_near_one(self, vi_runs):
        runs, _ = vi_runs
        ds, result = runs[0]
        x_test = ds.test_X()
        mse = {}
        for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.95):
            mse[t] = mechanism_mse(x_test, predict(result.mechanisms, result.model, x_test, threshold=t))
        flat = [mse[t] for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)]
        rel_spread = (max(flat) - min(flat)) / min(flat)
        ok = rel_spread < 0.20 and mse[0.95] > mse[0.5]
        _report(
            "criterion 9 (threshold insensitivity)",
            ok,
            f"spread over t in [0.1,0.8] = {rel_spread:.1%} (<20%); "
            f"mse@0.95={mse[0.95]:.3f} > mse@0.5={mse[0.5]:.3f}",
        )
