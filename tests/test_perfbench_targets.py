"""perfbench's tracer wraps library attributes by name (``owner.__dict__[attr]``);
a refactor that drops or moves one of them would crash ``run.py --trace 1``.
This checks every target still exists and is put back, and changes nothing
under ``perfbench/``."""

import importlib
import os

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
