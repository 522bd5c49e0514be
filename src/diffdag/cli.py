"""Command-line pipeline: generate | train | eval | bench | direct | grid.

Every run is fully determined by its flags plus explicit seeds (nothing is
seeded from the clock), and every artifact directory gets a manifest
recording the configuration that ran, its hash, the seed and the library
version: the command's flags but the output root, with every ``TrainConfig``
field filled in for ``train`` and for ``grid`` (which records its swept lists
instead of ``perm_mode``, ``prior_p`` and ``lam``), and every ``GenSpec``
field for ``generate``.

Each training flag sets the ``TrainConfig`` field it is stored under, and
each of ``generate``'s dataset flags the ``GenSpec`` field, with no default
of its own. The config object is the only place that checks such a value:
one it rejects is a usage error (exit 2, one ``error:`` line), reported
before any file is read or written. A failure while running exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from ._checks import check_choice, check_same_n
from .graphs import load_edge_list
from .gumbel import PERM_MODES, TOPK
from .metrics import bench_sampling, mechanism_mse, shd, structure_aucs
from .model import DpDagModel, load_checkpoint, save_checkpoint, threshold_dag
from .semdata import GRAPH_KINDS, GenSpec, gen_graph, generate, load_dataset, save_dataset
from .training import DivergenceError, MechanismNet, TrainConfig, fit, fit_direct, predict

OUT_ENV = "DIFFDAG_OUT"
SHD_THRESHOLDS = (0.1, 0.3, 0.5, 0.7)


def _out_root(explicit: str | None) -> str:
    return explicit or os.environ.get(OUT_ENV, "runs")


def _write_manifest(directory: str, command: str, config: dict, **fields) -> None:
    """Create ``directory`` and write its manifest; a config value JSON
    cannot encode raises rather than being recorded as its ``str``."""
    os.makedirs(directory, exist_ok=True)
    payload = json.dumps(config, sort_keys=True)
    manifest = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(payload.encode()).hexdigest(),
        "seed": config.get("seed"),
        "diffdag_version": __version__,
        **fields,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def _run_config(args) -> dict:
    """Every parsed flag but the output root and argparse's ``command`` and ``func``."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}


class _UsageError(Exception):
    """A flag value that the config it sets rejects; ``main`` reports it as argparse would."""


def _config(cls, args, **fixed):
    """``cls`` built from the flags stored under its field names, plus ``fixed``,
    over its defaults; a value ``cls`` rejects is a usage error."""
    given = vars(args) | fixed
    try:
        return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given})
    except ValueError as exc:
        raise _UsageError(exc) from None


def _write_csv(path: str, rows: list[dict]) -> None:
    """One header from the first row's keys, then every row."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        v = int(text)
        if v < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
        return v

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # numpy's generators take no negative seed


def _nonempty(items: list, text: str) -> list:
    # an empty list would leave a command nothing to run and nothing to report
    if not items:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of at least one value, got {text!r}")
    return items


def _float_list(text: str) -> list[float]:
    return _nonempty([float(t) for t in text.split(",") if t], text)


def _size_list(text: str) -> list[int]:
    # a graph of fewer than two nodes has no edge to sample
    return _nonempty([_int_at_least(2)(t) for t in text.split(",") if t], text)


def _perm_mode(text: str) -> str:
    check_choice("perm_mode", text, PERM_MODES, argparse.ArgumentTypeError)
    return text


def _mode_list(text: str) -> list[str]:
    return _nonempty([_perm_mode(t.strip()) for t in text.split(",") if t.strip()], text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    root = _out_root(args.out)
    for k in range(args.seeds):
        spec = _config(GenSpec, args, seed=args.first_seed + k)
        ds = generate(spec)
        directory = os.path.join(root, ds.name)
        save_dataset(ds, directory)
        _write_manifest(directory, "generate", vars(spec))
        print(f"wrote {directory} ({ds.X.shape[0]}x{ds.X.shape[1]}, {ds.truth.edge_count()} edges)")
    return 0


def cmd_train(args) -> int:
    cfg = _config(TrainConfig, args)
    dataset = load_dataset(args.dataset)
    fixed = dataset.truth if args.gt_dag else None
    out_dir = os.path.join(_out_root(args.out), f"train-{dataset.name}-seed{cfg.seed}")
    config = cfg.to_dict() | _run_config(args)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the divergence check reports it
            result = fit(dataset, cfg, fixed_adjacency=fixed)
    except DivergenceError as exc:
        for stale in ("checkpoint.json", "history.csv"):  # an earlier run's, in a reused --out
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, stale))
        _write_manifest(out_dir, "train", config, diverged=str(exc))
        raise
    # the wall time goes to the manifest, so equal flags write equal checkpoint bytes
    _write_manifest(out_dir, "train", config, train_seconds=result.wall_time_seconds)
    extras = {
        "mechanisms": result.mechanisms.state(),
        "best_val_loss": result.best_val_loss,
        "best_epoch": result.best_epoch,
        "dataset": dataset.name,
        "gt_dag": bool(args.gt_dag),
        "train_config": cfg.to_dict(),
    }
    save_checkpoint(result.model, os.path.join(out_dir, "checkpoint.json"), extras=extras)
    _write_csv(os.path.join(out_dir, "history.csv"), result.history)  # val_loss None is written ""
    print(
        f"trained {dataset.name}: best val loss {result.best_val_loss:.4f} "
        f"at epoch {result.best_epoch} in {result.wall_time_seconds:.1f}s -> {out_dir}"
    )
    return 0


def _train_seconds(checkpoint: str, extras: dict):
    """The training wall time: from the train run's manifest beside
    ``checkpoint``, else from an older checkpoint's ``extras``, else None."""
    try:
        with open(os.path.join(os.path.dirname(checkpoint), "manifest.json")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):  # no manifest, or not JSON
        manifest = None
    if isinstance(manifest, dict) and "train_seconds" in manifest:
        return manifest["train_seconds"]
    return extras.get("train_seconds")


def cmd_eval(args) -> int:
    dataset = load_dataset(args.dataset)
    model, extras = load_checkpoint(args.checkpoint)
    if "mechanisms" not in extras:
        raise ValueError(f"{args.checkpoint} carries no mechanism weights; train first")
    mechanisms = MechanismNet.from_state(extras["mechanisms"])
    for what, n in (("model", model.n), ("mechanisms", mechanisms.n)):
        check_same_n(f"{args.checkpoint} {what}", n, dataset.name, dataset.n)
    gt_dag = bool(extras.get("gt_dag"))
    row: dict = {"dataset": dataset.name, "seed": extras.get("train_config", {}).get("seed")}
    if gt_dag:
        x_hat = predict(mechanisms, None, dataset.test_X(), adjacency=dataset.truth)
    else:
        row.update(structure_aucs(model, dataset.truth))
        for t in SHD_THRESHOLDS:
            row[f"shd@{t}"] = shd(threshold_dag(model, t), dataset.truth)
        x_hat = predict(mechanisms, model, dataset.test_X())
    row["mse"] = mechanism_mse(dataset.test_X(), x_hat)
    row["train_seconds"] = _train_seconds(args.checkpoint, extras)
    if not gt_dag:
        sample_mean, _ = bench_sampling(model, repetitions=args.bench_reps)
        row["sample_seconds"] = sample_mean
    out_dir = _out_root(args.out)
    _write_manifest(out_dir, "eval", _run_config(args))
    base = os.path.join(out_dir, f"metrics-{dataset.name}")
    with open(base + ".json", "w") as fh:
        json.dump(row, fh, indent=2)
    _write_csv(base + ".csv", [row])
    print(json.dumps(row, indent=2))
    return 0


def cmd_bench(args) -> int:
    rows = []
    for mode in args.modes:
        for n in args.sizes:
            model = DpDagModel.create(n, perm_mode=mode)
            mean_s, sd_s = bench_sampling(model, repetitions=args.reps, seed=args.seed)
            rows.append({"n": n, "mode": mode, "mean_seconds": mean_s, "sd_seconds": sd_s})
            print(f"n={n:4d} mode={mode:9s} {mean_s * 1e3:8.2f} ms/sample (sd {sd_s * 1e3:.2f})")
    out_dir = _out_root(args.out)
    _write_manifest(out_dir, "bench", _run_config(args))
    path = os.path.join(out_dir, "sampling-times.csv")
    _write_csv(path, rows)
    print(f"wrote {path}")
    return 0


def cmd_direct(args) -> int:
    if args.truth:
        truths = [(load_edge_list(args.truth), os.path.basename(args.truth))]
    else:
        truths = []
        for k in range(args.graphs):
            spec = _config(GenSpec, args, graph_kind=args.kind, seed=args.first_seed + k)
            truths.append((gen_graph(spec), spec.name))
    per_run = []
    for truth, name in truths:
        for lr in args.lrs:
            model = DpDagModel.create(truth.n, perm_mode=args.perm_mode)
            with np.errstate(over="ignore", invalid="ignore"):
                fit_direct(truth, model, lr=lr, steps=args.steps, seed=args.seed)
            aucs = structure_aucs(model, truth)
            per_run.append({"graph": name, "lr": lr, **aucs})
    mean_pr = float(np.mean([r["dir_auc_pr"] for r in per_run]))
    mean_roc = float(np.mean([r["dir_auc_roc"] for r in per_run]))
    out_dir = _out_root(args.out)
    _write_manifest(out_dir, "direct", _run_config(args))
    path = os.path.join(out_dir, "direct-learning.csv")
    _write_csv(path, per_run)
    print(f"{args.perm_mode}: mean AUC-PR {mean_pr:.3f}, mean AUC-ROC {mean_roc:.3f} over {len(per_run)} runs")
    print(f"wrote {path}")
    return 0


def _grid_worker(task):
    dataset_dir, cfg_dict = task
    dataset = load_dataset(dataset_dir)
    cfg = TrainConfig(**cfg_dict)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = fit(dataset, cfg)
    except DivergenceError as exc:
        raise DivergenceError(f"perm_mode={cfg.perm_mode} prior_p={cfg.prior_p} lam={cfg.lam}: {exc}") from None
    return cfg_dict, result.best_val_loss, result.wall_time_seconds


def cmd_grid(args) -> int:
    tasks = [
        (args.dataset, _config(TrainConfig, args, perm_mode=mode, prior_p=prior, lam=lam).to_dict())
        for mode in args.modes
        for prior in args.priors
        for lam in args.lams
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_grid_worker, tasks))
    else:
        results = [_grid_worker(t) for t in tasks]
    results.sort(key=lambda r: r[1])
    report = {
        "dataset": args.dataset,
        "runs": [
            {"perm_mode": c["perm_mode"], "prior_p": c["prior_p"], "lam": c["lam"],
             "val_loss": v, "seconds": s}
            for c, v, s in results
        ],
        "best": results[0][0],
        "best_val_loss": results[0][1],
    }
    out_dir = _out_root(args.out)
    fixed = {k: v for k, v in tasks[0][1].items() if k not in ("perm_mode", "prior_p", "lam")}
    _write_manifest(out_dir, "grid", fixed | _run_config(args))
    path = os.path.join(out_dir, "grid-report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    best = results[0][0]
    print(
        f"best config: mode={best['perm_mode']} prior={best['prior_p']} lam={best['lam']} "
        f"(val loss {results[0][1]:.4f}); wrote {path}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffdag",
        description="Differentiable DAG sampling and structure learning pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"diffdag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate synthetic SEM datasets")
    about = "each sets a GenSpec field; one left out keeps the field's default"
    g = p.add_argument_group("dataset", about, argument_default=argparse.SUPPRESS)
    g.add_argument("--kind", dest="graph_kind", required=True, help=" or ".join(GRAPH_KINDS))
    g.add_argument("--n", type=int, required=True, help="node count")
    g.add_argument("--m", type=int, required=True, help="edge count")
    g.add_argument("--samples", dest="N", type=int, help="observations per dataset")
    g.add_argument("--noise-std", type=float)
    g.add_argument("--root-std", type=float)
    p.add_argument("--seeds", type=_positive_int, default=1, help="number of datasets (consecutive seeds)")
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--out", default=None, help=f"output root (default ${OUT_ENV} or ./runs)")
    p.set_defaults(func=cmd_generate)

    def add_train_flags(q, swept=False):
        # an omitted flag stays out of the namespace, so _config keeps the field's default
        about = "each sets a TrainConfig field; one left out keeps the field's default"
        g = q.add_argument_group("training", about, argument_default=argparse.SUPPRESS)
        g.add_argument("--lr", dest="learning_rate", type=float)
        g.add_argument("--hidden", type=int)
        if not swept:
            g.add_argument("--perm-mode", help=" or ".join(PERM_MODES))
            g.add_argument("--prior", dest="prior_p", type=float)
            g.add_argument("--lam", type=float)
        g.add_argument("--tau", dest="temperature", type=float)
        g.add_argument("--batch-size", type=int)
        g.add_argument("--max-epochs", type=int)
        g.add_argument("--patience", type=int)
        g.add_argument("--val-check-every", type=int)
        g.add_argument("--sinkhorn-iters", type=int)
        g.add_argument("--seed", type=int)
        q.add_argument("--out", default=None)

    p = sub.add_parser("train", help="train the variational model on a dataset directory")
    p.add_argument("--dataset", required=True, help="dataset directory (data.csv/truth.edges/meta.json)")
    p.add_argument("--gt-dag", action="store_true", help="freeze the true structure (oracle baseline)")
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metrics for a trained checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--bench-reps", type=_positive_int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="sampling-time sweep over graph sizes")
    p.add_argument("--sizes", type=_size_list, default=[10, 25, 50, 100, 200])
    p.add_argument("--modes", type=_mode_list, default=list(PERM_MODES))
    p.add_argument("--reps", type=_positive_int, default=30)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("direct", help="fit the sampler against observed target DAGs")
    p.add_argument("--truth", default=None, help="edge-list file; otherwise generate graphs")
    p.add_argument("--kind", default="er", help=" or ".join(GRAPH_KINDS))
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--graphs", type=_positive_int, default=10, help="number of generated target graphs")
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--perm-mode", type=_perm_mode, default=TOPK, help=" or ".join(PERM_MODES))
    p.add_argument("--lrs", type=_float_list, default=[1.0, 0.1, 0.01, 0.001])
    p.add_argument("--steps", type=int, default=600)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_direct)

    p = sub.add_parser("grid", help="grid search over mode x prior x lambda on one dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--modes", type=_mode_list, default=list(PERM_MODES))
    p.add_argument("--priors", type=_float_list, default=[0.01, 0.05, 0.1])
    p.add_argument("--lams", type=_float_list, default=[0.0, 0.01, 0.1])
    p.add_argument("--workers", type=_positive_int, default=1)
    add_train_flags(p, swept=True)
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))  # exits 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
