"""In-memory span tracer that wraps diffdag's public entry points from outside.

Each wrapped call appends one span ``[name, start, end, parent]`` (times from
``time.perf_counter``, ``parent`` the index of the enclosing span or -1).
Spans stay in memory until the run ends; :func:`reduce_spans` turns them into
per-name call counts, inclusive milliseconds and self milliseconds (duration
minus the part covered by child spans).

Wrappers are installed by replacing module or class attributes, which works
because diffdag resolves these names at call time (module globals for
functions, the class for methods); the benchmark itself calls ``generate``,
``fit`` and ``structure_aucs`` through their modules for the same reason.
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import diffdag.autodiff as autodiff
import diffdag.gumbel as gumbel
import diffdag.metrics as metrics
import diffdag.model as model
import diffdag.semdata as semdata
import diffdag.training as training

# (owner, attribute, span name). One span name may cover several owners when
# the same function is looked up through more than one module.
TARGETS = [
    (semdata, "generate", "semdata.generate"),
    (metrics, "structure_aucs", "metrics.structure_aucs"),
    (training, "fit", "training.fit"),
    (training, "elbo_loss", "training.elbo_loss"),
    (training, "validation_loss", "training.validation_loss"),
    (training, "sample_dag_parts", "model.sample_dag_parts"),
    (model, "sample_dag_parts", "model.sample_dag_parts"),
    (model, "sample_edges", "gumbel.sample_edges"),
    (model, "sample_permutation", "gumbel.sample_permutation"),
    (gumbel, "sinkhorn_operator", "gumbel.sinkhorn_operator"),
    (gumbel, "hungarian", "gumbel.hungarian"),
    (gumbel, "softsort", "gumbel.softsort"),
    (training.MechanismNet, "forward_all", "training.MechanismNet.forward_all"),
    (training.Adam, "step", "training.Adam.step"),
    (autodiff.Tape, "backward", "autodiff.Tape.backward"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.node_kinds: Counter = Counter()  # tape nodes by kind, summed over backward calls
        self.backward_calls = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        counts_nodes = name == "autodiff.Tape.backward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_nodes:
                # counted before the span opens, so the count is not timed
                self.node_kinds.update(node.kind for node in args[0].nodes)
                self.backward_calls += 1
            record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> bool:
        """Restore every original; True when each attribute is back in place."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        ok = all(owner.__dict__[attr] is original for owner, attr, original in self._saved)
        self._saved.clear()
        return ok


def reduce_spans(spans: list[list]) -> dict[str, dict]:
    """Per span name: ``calls``, inclusive ``ms`` and ``self_ms``."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for (name, start, end, _), covered in zip(spans, child_s):
        row = out[name]
        row["calls"] += 1
        row["ms"] += 1e3 * (end - start)
        row["self_ms"] += 1e3 * (end - start - covered)
    return dict(out)
