"""diffdag benchmark: fit time, training throughput, recovery quality and DAG
sampling latency, with per-layer spans taken from outside the library.

    python3 perfbench/run.py --workload fit-er10-sinkhorn --seed 1 --seconds 25 --trace 0

Run from the repository root. The library is imported from ``src/`` next to
this directory, never from an installed copy. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps diffdag's entry points, prints the
per-layer metrics and the tracing overhead, and checks that tracing left
every fit bit-identical. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a record of the run (the
environment, all metrics and, for a traced run, every span) goes to
``.perfbench_out/``. See ``perfbench/README.md`` for the workloads and what
each metric is for.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter

# One BLAS thread, set before numpy loads. diffdag's matrices are small: on a
# two-core host a second OpenBLAS thread made n=50 fits slower and their
# times far noisier. With one thread the order of floating-point sums, and so
# every seeded result, also stops depending on the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Seeds 1..10 tuned this benchmark; confirm a later claim on this one as well.
HELD_OUT_SEED = 7919

# Tape node kinds reported one by one; any other kind is counted as "other".
NODE_KINDS = [
    "matmul", "add", "sub", "elementwise-mul", "sigmoid", "softmax-rows", "log", "exp",
    "leaky-relu", "abs", "sum", "squared-norm", "transpose", "logsumexp-rows", "concat",
    "slice", "straight-through",
]

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "train_rows_per_s": "1/s",
    "un_auc_roc": "ratio",
    "un_auc_pr": "ratio",
    "test_mse": "var",
    "sinkhorn_sample_ms_p50": "ms",
    "sinkhorn_sample_ms_p95": "ms",
    "topk_sample_ms_p50": "ms",
    "topk_sample_ms_p95": "ms",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but left out of the result line and so of the bounds
# in BENCHMARK.json: on a shared two-core host their run-to-run spread (0.14
# to 0.45 of the median over ten seeds) exceeded the largest bound allowed.
NOT_GATED = {"sinkhorn_sample_ms_p95", "topk_sample_ms_p95"}


def import_library():
    if not os.path.isfile(os.path.join(SRC, "diffdag", "__init__.py")):
        raise SystemExit(f"perfbench: no diffdag source under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import diffdag

    if not os.path.realpath(diffdag.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: imported diffdag from {diffdag.__file__}, not from {SRC}")


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def source_digest() -> str:
    """sha256 over src/ (paths and contents), which names the code even without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def blas_threads(np) -> int | str:
    """Thread count of numpy's bundled OpenBLAS, else the environment's setting."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def run_plain(w, seed: int, seconds: float, checks):
    """The untraced run: every end-to-end metric."""
    import workloads as wl

    inputs = wl.make_inputs(w, seed)
    datasets, samplers, setup_seconds = wl.set_up(w, inputs)
    sampler = wl.Sampler(samplers, inputs.noise_seed)
    per_round = math.ceil(w.min_draws / w.datasets)
    firsts, fit_seconds, pair_seconds = {}, [], []
    t0 = time.perf_counter()
    i = 0
    while i < w.datasets or sampler.drawn() < w.min_draws or time.perf_counter() - t0 < seconds:
        k = i % w.datasets
        cfg = inputs.configs[k]
        secs, result, stamps = wl.timed_fit(datasets[k], cfg, checks, f"fit {i} (dataset {k})")
        fit_seconds.append(secs)
        pair_seconds += wl.epoch_pair_seconds(stamps, cfg.val_check_every)
        if k in firsts:
            checks.check(
                wl.param_bytes(result) == wl.param_bytes(firsts[k]),
                f"fit {i}: repeat of dataset {k} gave different parameters",
            )
        else:
            firsts[k] = result
        sampler.draw(per_round, checks)
        i += 1
    evals = []
    for k, result in sorted(firsts.items()):
        ev = wl.evaluate(datasets[k], result)
        wl.check_evaluation(ev, result, checks, OUT, f"dataset {k}")
        evals.append(ev)
    rows_per_pair = inputs.configs[0].val_check_every * datasets[0].splits.train.size
    metrics = {
        "setup_s": wl.median(setup_seconds),
        "fit_s": min(fit_seconds),
        "train_rows_per_s": rows_per_pair / wl.windowed_min(pair_seconds, wl.EPOCH_WINDOW),
        **{key: wl.median(ev[key] for ev in evals) for key in ("un_auc_roc", "un_auc_pr", "test_mse")},
    }
    for mode, draws in sampler.seconds.items():
        for q in (50, 95):
            metrics[f"{mode}_sample_ms_p{q}"] = 1e3 * wl.windowed_min(draws, wl.DRAW_WINDOW[q], q)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = {
        "fits": len(fit_seconds),
        "fit_seconds": fit_seconds,
        "epoch_pairs": len(pair_seconds),
        "datasets": w.datasets,
        **{f"{mode}_draws": len(draws) for mode, draws in sampler.seconds.items()},
        "draw_seconds": sampler.seconds,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, counts, None


def run_traced(w, seed: int, checks):
    """The traced run: a fixed amount of work, so that per-layer totals compare
    across commits. Set-up is traced; then, per dataset, one untraced fit, the
    same fit traced, its evaluation and a share of the draws, traced."""
    import workloads as wl
    from spans import Tracer, reduce_spans

    tracer = Tracer()
    inputs = wl.make_inputs(w, seed)
    tracer.install()
    try:
        datasets, samplers, _ = wl.set_up(w, inputs)
    finally:
        checks.check(tracer.uninstall(), "tracing wrappers were not all removed")
    sampler = wl.Sampler(samplers, inputs.noise_seed)
    per_round = math.ceil(w.min_draws / w.datasets)
    plain_s = traced_s = 0.0
    epochs = 0
    for k, (ds, cfg) in enumerate(zip(datasets, inputs.configs)):
        secs, plain, _ = wl.timed_fit(ds, cfg, checks, f"untraced fit (dataset {k})")
        plain_s += secs
        plain_eval = wl.evaluate(ds, plain)
        tracer.install()
        try:
            secs, traced, _ = wl.timed_fit(ds, cfg, checks, f"traced fit (dataset {k})")
            traced_eval = wl.evaluate(ds, traced)
            sampler.draw(per_round, checks)
        finally:
            checks.check(tracer.uninstall(), "tracing wrappers were not all removed")
        traced_s += secs
        epochs += len(traced.history)
        checks.check(
            wl.param_bytes(traced) == wl.param_bytes(plain)
            and len(traced.history) == len(plain.history)
            and traced_eval == plain_eval,
            f"dataset {k}: tracing changed the fit",
        )
        wl.check_evaluation(plain_eval, plain, checks, OUT, f"dataset {k}")

    by_name = reduce_spans(tracer.spans)

    def total(name, key="ms"):
        return by_name.get(name, {}).get(key, 0)

    steps = max(tracer.backward_calls, 1)
    generate = by_name["semdata.generate"]
    layer = {"semdata.generate_s": (generate["ms"] / generate["calls"] / 1e3, "s")}
    for name in ("gumbel.sinkhorn_operator", "gumbel.hungarian", "gumbel.softsort", "gumbel.sample_edges",
                 "training.validation_loss", "metrics.structure_aucs"):
        layer[f"{name}.ms"] = (total(name), "ms")
        layer[f"{name}.calls"] = (total(name, "calls"), "count")
    layer["gumbel.sample_permutation.ms"] = (total("gumbel.sample_permutation"), "ms")
    layer["model.sample_dag_parts.self_ms"] = (total("model.sample_dag_parts", "self_ms"), "ms")
    layer["model.sample_dag_parts.calls"] = (total("model.sample_dag_parts", "calls"), "count")
    layer["training.MechanismNet.forward_all.ms"] = (total("training.MechanismNet.forward_all"), "ms")
    layer["training.Adam.step.ms"] = (total("training.Adam.step"), "ms")
    layer["training.elbo_loss.self_ms"] = (total("training.elbo_loss", "self_ms"), "ms")
    layer["training.fit.ms"] = (total("training.fit"), "ms")
    layer["training.fit.self_ms"] = (total("training.fit", "self_ms"), "ms")
    layer["training.steps"] = (tracer.backward_calls, "count")
    layer["training.epochs"] = (epochs, "count")
    layer["autodiff.Tape.backward.ms"] = (total("autodiff.Tape.backward"), "ms")
    layer["autodiff.tape_nodes_per_step"] = (sum(tracer.node_kinds.values()) / steps, "count")
    other = Counter(tracer.node_kinds)
    for kind in NODE_KINDS:
        layer[f"autodiff.nodes.{kind}"] = (other.pop(kind, 0) / steps, "count")
    layer["autodiff.nodes.other"] = (sum(other.values()) / steps, "count")
    layer["trace.fit_overhead"] = (traced_s / plain_s, "ratio")
    layer["trace.spans"] = (len(tracer.spans), "count")
    counts = {
        "datasets": w.datasets,
        **{f"{mode}_draws": len(draws) for mode, draws in sampler.seconds.items()},
        "untraced_fit_s_total": plain_s,
        "traced_fit_s_total": traced_s,
    }
    return layer, counts, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_library()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    env = environment(w.name, args.seed)
    print("env " + json.dumps(env), flush=True)

    checks = wl.Checks()
    if args.trace:
        metrics, counts, spans = run_traced(w, args.seed, checks)
    else:
        metrics, counts, spans = run_plain(w, args.seed, args.seconds, checks)

    for what in checks.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}" + ("  (not gated)" if name in NOT_GATED else ""))
    ratio = checks.failed / max(checks.attempted, 1)
    print(f"{'failed_ratio':<40} {ratio:>14.6g} ratio ({checks.failed} of {checks.attempted} checks)")
    record = {
        "environment": env,
        "counts": counts,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "spans": spans,
    }
    record_path = os.path.join(OUT, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: m for name, m in record["metrics"].items() if name not in NOT_GATED},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
