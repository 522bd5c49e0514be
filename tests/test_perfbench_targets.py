"""perfbench's own code, run from Tier-1 so that a library change which would
break the benchmark fails here first.

The tracer wraps library attributes by name (``owner.__dict__[attr]``); a
refactor that drops or moves one of them would crash ``run.py --trace 1``.
The output checks (``workloads.check_evaluation`` and ``Sampler.draw``)
count a failed checkpoint round trip or a cyclic draw as a failed
operation. Nothing under ``perfbench/`` changes."""

import importlib
import os

import numpy as np

from diffdag import GenSpec, TrainConfig, generate

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_trace_target_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    originals = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]  # KeyError if one is gone
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = [owner.__dict__[attr] is not f for (owner, attr, _), f in zip(spans.TARGETS, originals)]
    finally:
        restored = tracer.uninstall()
    assert all(wrapped) and restored


def test_output_checks_pass_on_a_tiny_fit(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    checks = workloads.Checks()
    ds = generate(GenSpec("er", 5, 5, N=80, seed=3))
    cfg = TrainConfig(hidden=4, batch_size=32, max_epochs=4, patience=4, seed=1)
    _, result, _ = workloads.timed_fit(ds, cfg, checks, "tiny fit")
    workloads.check_evaluation(workloads.evaluate(ds, result), result, checks, str(tmp_path), "tiny fit")
    sampler = workloads.Sampler(workloads.build_samplers(6, rng_seed=2), noise_seed=4)
    sampler.draw(12, checks)
    assert checks.failed == 0, checks.failures
    # two checks of the fit, three of its evaluation, one per draw
    assert checks.attempted == 2 + 3 + 2 * 12 and sampler.drawn() == 12
