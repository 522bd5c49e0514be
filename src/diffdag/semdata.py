"""Synthetic SEM benchmarks and dataset I/O.

Graphs come from two families: uniform order-consistent edge picks ("er")
and preferential attachment ("sf"). Mechanisms are one fresh draw of a
smooth random function per non-root node: a multivariate normal over the
observed parent vectors with RBF covariance exp(-||a - b||^2 / 2), plus
independent zero-mean Gaussian noise. Columns are standardized to zero mean
and unit variance before anything trains on them; the flag is recorded in
the dataset metadata because downstream error scales depend on it.

On disk a dataset is a directory ``{name}/data.csv, truth.edges, meta.json``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .graphs import AdjacencyMatrix, decompose, load_edge_list, save_edge_list

__all__ = [
    "GenerationError",
    "ParseError",
    "GenSpec",
    "Splits",
    "SemDataset",
    "gen_graph",
    "gen_mechanisms_and_sample",
    "generate",
    "load_csv",
    "save_dataset",
    "load_dataset",
]

ER = "er"
SF = "sf"


class GenerationError(RuntimeError):
    """Dataset generation failed (e.g. covariance factorization)."""


class ParseError(ValueError):
    """Malformed observation CSV or truth file."""


@dataclass
class GenSpec:
    graph_kind: str
    n: int
    m: int
    N: int = 1000
    noise_std: float = 1.0
    root_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        self.graph_kind = self.graph_kind.lower()
        if self.graph_kind not in (ER, SF):
            raise ValueError(f"graph_kind must be {ER!r} or {SF!r}, got {self.graph_kind!r}")
        for name in ("n", "m", "N", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("noise_std", "root_std"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):  # NaN passes a bare v <= 0 check
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        max_edges = self.n * (self.n - 1) // 2
        if self.graph_kind == ER and not (1 <= self.m <= max_edges):
            raise ValueError(f"er edge count must lie in 1..{max_edges}, got {self.m}")
        if self.graph_kind == SF and self.m < 1:
            raise ValueError(f"sf edge count must be >= 1, got {self.m}")
        if self.N < 3:
            raise ValueError(f"N must be >= 3, got {self.N}")

    @property
    def name(self) -> str:
        return f"{self.graph_kind}-{self.n}-{self.m}-seed{self.seed}"


@dataclass
class Splits:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def as_lists(self):
        return {"train": self.train.tolist(), "val": self.val.tolist(), "test": self.test.tolist()}


@dataclass
class SemDataset:
    X: np.ndarray
    truth: AdjacencyMatrix
    splits: Splits
    name: str
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def train_X(self) -> np.ndarray:
        return self.X[self.splits.train]

    def val_X(self) -> np.ndarray:
        return self.X[self.splits.val]

    def test_X(self) -> np.ndarray:
        return self.X[self.splits.test]


def make_splits(N: int, seed: int) -> Splits:
    """Shuffled 80/10/10 partition of 0..N-1 (sizes +-1 by rounding)."""
    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(N)
    n_train = int(round(0.8 * N))
    n_val = int(round(0.1 * N))
    return Splits(
        train=np.sort(order[:n_train]),
        val=np.sort(order[n_train : n_train + n_val]),
        test=np.sort(order[n_train + n_val :]),
    )


def gen_graph(spec: GenSpec) -> AdjacencyMatrix:
    """Random DAG with the requested size."""
    rng = np.random.default_rng([spec.seed, 0])
    if spec.graph_kind == ER:
        return _er_graph(spec.n, spec.m, rng)
    return _sf_graph(spec.n, spec.m, rng)


def _er_graph(n: int, m: int, rng: np.random.Generator) -> AdjacencyMatrix:
    # Uniform node order, then m distinct order-consistent pairs uniformly.
    order = rng.permutation(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = rng.choice(len(pairs), size=m, replace=False)
    a = np.zeros((n, n), dtype=np.int8)
    for k in chosen:
        p, q = pairs[k]
        u, v = order[p], order[q]  # u earlier than v, edge u -> v
        a[v, u] = 1
    return AdjacencyMatrix(a, validate=False)


def _sf_graph(n: int, m: int, rng: np.random.Generator) -> AdjacencyMatrix:
    # Preferential attachment with m/n edges per arriving node, oriented from
    # the new node to existing ones, then relabeled uniformly.
    k = max(1, int(round(m / n)))
    a = np.zeros((n, n), dtype=np.int8)
    repeated: list[int] = list(range(k))  # seed nodes, degree-1 weight each
    for t in range(k, n):
        targets: set[int] = set()
        while len(targets) < min(k, t):
            pick = int(repeated[rng.integers(len(repeated))])
            targets.add(pick)
        for v in targets:
            a[v, t] = 1  # edge t -> v (t is a parent of the older node v)
            repeated.append(v)
        repeated.extend([t] * max(1, len(targets)))
    relabel = rng.permutation(n)
    a = a[np.ix_(relabel, relabel)]
    return AdjacencyMatrix(a, validate=False)


def _rbf_gram(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-0.5 * d2)


def gp_function_sample(parent_values: np.ndarray, rng: np.random.Generator, seed_echo=None) -> np.ndarray:
    """One random smooth function evaluated at the given parent vectors.

    Duplicate rows are collapsed before factorizing the covariance so equal
    inputs map to exactly equal outputs, then scattered back.
    """
    uniq, inverse = np.unique(parent_values, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).ravel()
    gram = _rbf_gram(uniq)
    z = rng.standard_normal(uniq.shape[0])
    jitter = 1e-8
    while jitter <= 1e-2:
        try:
            chol = np.linalg.cholesky(gram + jitter * np.eye(uniq.shape[0]))
            return (chol @ z)[inverse]
        except np.linalg.LinAlgError:
            jitter *= 2.0
    raise GenerationError(f"covariance factorization failed up to jitter 1e-2 (seed={seed_echo})")


def gen_mechanisms_and_sample(truth: AdjacencyMatrix, spec: GenSpec) -> SemDataset:
    """Draw observations from the SEM induced by ``truth``."""
    rng = np.random.default_rng([spec.seed, 1])
    n, N = truth.n, spec.N
    perm, _ = decompose(truth)
    x = np.zeros((N, n))
    # Ranks put sinks first, so descending rank order visits parents first.
    for i in np.argsort(-perm.perm):
        parents = np.flatnonzero(truth.entries[i])
        if parents.size == 0:
            x[:, i] = spec.root_std * rng.standard_normal(N)
        else:
            eps = spec.noise_std * rng.standard_normal(N)
            x[:, i] = gp_function_sample(x[:, parents], rng, seed_echo=spec.seed) + eps
    x = _standardize(x)
    meta = {
        "generator": {
            "graph_kind": spec.graph_kind,
            "n": spec.n,
            "m": spec.m,
            "N": spec.N,
            "noise_std": spec.noise_std,
            "root_std": spec.root_std,
            "seed": spec.seed,
        },
        "standardized": True,
        "edge_count": truth.edge_count(),
    }
    return SemDataset(X=x, truth=truth, splits=make_splits(N, spec.seed), name=spec.name, meta=meta)


def generate(spec: GenSpec) -> SemDataset:
    return gen_mechanisms_and_sample(gen_graph(spec), spec)


def _standardize(x: np.ndarray) -> np.ndarray:
    std = x.std(axis=0)
    std[std == 0] = 1.0
    return (x - x.mean(axis=0)) / std


def load_csv(path, truth_path, seed: int = 0, name: str | None = None, standardize: bool = True) -> SemDataset:
    """Ingest an external observation CSV plus a truth edge list."""
    rows = []
    width = None
    with open(path) as fh:
        lines = fh.readlines()
    if not any(line.strip() for line in lines):
        raise ParseError(f"{path}: file is empty")
    start = 0
    first = lines[0].strip().split(",")
    if not _all_numeric(first):
        start = 1  # header row
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = line.strip().split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} columns, found {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric cell in {line.strip()!r}") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    x = np.asarray(rows, dtype=np.float64)
    truth = load_edge_list(truth_path, n=x.shape[1])
    if standardize:
        x = _standardize(x)
    meta = {"source": str(path), "standardized": bool(standardize)}
    return SemDataset(
        X=x,
        truth=truth,
        splits=make_splits(x.shape[0], seed),
        name=name or os.path.splitext(os.path.basename(str(path)))[0],
        meta=meta,
    )


def _all_numeric(cells) -> bool:
    try:
        [float(c) for c in cells]
        return True
    except ValueError:
        return False


def save_dataset(ds: SemDataset, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    np.savetxt(os.path.join(directory, "data.csv"), ds.X, delimiter=",", fmt="%.17g")
    save_edge_list(ds.truth, os.path.join(directory, "truth.edges"))
    meta = dict(ds.meta)
    meta["name"] = ds.name
    meta["splits"] = ds.splits.as_lists()
    meta["shape"] = list(ds.X.shape)
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)


def load_dataset(directory) -> SemDataset:
    """Inverse of :func:`save_dataset`. A ``shape`` in meta.json that differs
    from data.csv's, or split indices that are not integers, fall outside
    the rows or appear twice (within a split or across two), raise
    ValueError naming the field."""
    with open(os.path.join(directory, "meta.json")) as fh:
        meta = json.load(fh)
    x = np.loadtxt(os.path.join(directory, "data.csv"), delimiter=",", ndmin=2)
    if "shape" in meta and list(meta["shape"]) != list(x.shape):
        raise ValueError(f"{directory}: meta.json shape {meta['shape']} does not match data.csv's {list(x.shape)}")
    truth = load_edge_list(os.path.join(directory, "truth.edges"), n=x.shape[1])
    splits = _load_splits(directory, meta["splits"], x.shape[0])
    name = meta.get("name", os.path.basename(os.path.normpath(str(directory))))
    body = {k: v for k, v in meta.items() if k not in ("splits", "name", "shape")}
    return SemDataset(X=x, truth=truth, splits=splits, name=name, meta=body)


_SPLITS = ("train", "val", "test")


def _load_splits(directory, splits: dict, rows: int) -> Splits:
    owner = np.full(rows, -1)  # position in _SPLITS of the split holding each row
    parts = {}
    for k, part in enumerate(_SPLITS):
        idx = np.asarray(splits[part])
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise ValueError(f"{directory}: splits.{part} must be a list of integer row indices")
        idx = idx.astype(np.int64)
        outside = idx[(idx < 0) | (idx >= rows)]
        if outside.size:
            raise ValueError(f"{directory}: splits.{part} index {outside[0]} is outside data.csv's {rows} rows")
        values, counts = np.unique(idx, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"{directory}: splits.{part} lists row {values[counts > 1][0]} twice")
        taken = idx[owner[idx] >= 0]
        if taken.size:
            other = _SPLITS[owner[taken[0]]]
            raise ValueError(f"{directory}: splits.{other} and splits.{part} both hold row {taken[0]}")
        owner[idx] = k
        parts[part] = idx
    return Splits(**parts)
