"""Synthetic SEM benchmarks and dataset I/O.

Graphs come from two families: uniform order-consistent edge picks ("er")
and preferential attachment ("sf"). Mechanisms are one fresh draw of a
smooth random function per non-root node: a multivariate normal over the
observed parent vectors with RBF covariance exp(-||a - b||^2 / 2), plus
independent zero-mean Gaussian noise. One such draw over N distinct parent
vectors holds the N x N covariance, one more N x N array while building it,
and numpy's own two while factorizing it; that is the peak memory of
generation. Columns are standardized to zero mean and unit variance before
anything trains on them; the flag is recorded in the dataset metadata
because downstream error scales depend on it.

On disk a dataset is a directory ``{name}/data.csv, truth.edges, meta.json``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from ._checks import check_choice, check_count, check_scale
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
GRAPH_KINDS = (ER, SF)


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
        check_choice("graph_kind", self.graph_kind, GRAPH_KINDS)
        for name, least in (("n", 2), ("m", 1), ("N", 3), ("seed", 0)):
            check_count(name, getattr(self, name), least)
        check_scale("noise_std", self.noise_std)
        check_scale("root_std", self.root_std)
        max_edges = self.n * (self.n - 1) // 2
        if self.m > max_edges:  # both kinds: sf would attach round(m / n) >= n edges a node, none
            raise ValueError(f"m must be an edge count in 1..{max_edges} for n = {self.n}, got {self.m}")

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
    earlier, later = np.triu_indices(n, 1)  # every position pair p < q, row by row
    chosen = rng.choice(earlier.size, size=m, replace=False)
    a = np.zeros((n, n), dtype=np.int8)
    a[order[later[chosen]], order[earlier[chosen]]] = 1  # edge u -> v, u earlier than v
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
    """exp(-||a - b||^2 / 2) between the rows of ``x``, built in place.

    Two N x N arrays are live while ``x @ x.T`` is folded into the squared
    distances; the result is the second one. Each step is the same IEEE
    operation as ``exp(-0.5 * max(sq_a + sq_b - 2 (x x^T), 0))``.
    """
    sq = np.sum(x * x, axis=1)
    g = x @ x.T
    g *= 2.0
    d2 = np.add(sq[:, None], sq[None, :])
    d2 -= g
    del g
    np.maximum(d2, 0.0, out=d2)
    d2 *= -0.5
    np.exp(d2, out=d2)
    return d2


def gp_function_sample(parent_values: np.ndarray, rng: np.random.Generator, seed_echo=None) -> np.ndarray:
    """One random smooth function evaluated at the given parent vectors.

    Duplicate rows are collapsed before factorizing the covariance so equal
    inputs map to exactly equal outputs, then scattered back. Over N
    distinct rows a draw holds the N x N gram, one more N x N array while
    it builds the gram, and numpy's own two (a work copy and the factor)
    while it factorizes. A failed factorization retries with the jitter
    doubled, written onto the diagonal from the un-jittered one, so each
    try sees the gram plus exactly that jitter.
    """
    uniq, inverse = np.unique(parent_values, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).ravel()
    gram = _rbf_gram(uniq)
    z = rng.standard_normal(uniq.shape[0])
    diag = gram.diagonal().copy()
    jitter = 1e-8
    while jitter <= 1e-2:
        # equals gram + jitter * I: off the diagonal that adds +0.0, which
        # changes no entry because exp never returns -0.0
        np.fill_diagonal(gram, diag + jitter)
        try:
            chol = np.linalg.cholesky(gram)
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
        "generator": asdict(spec),
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
            row = [float(c) for c in cells]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric cell in {line.strip()!r}") from None
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{path}:{lineno}: non-finite cell in {line.strip()!r}")
        rows.append(row)
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
    """Inverse of :func:`save_dataset`. A non-finite value in data.csv (naming
    its first such row), a ``shape`` in meta.json that differs from data.csv's,
    missing splits, or split indices that are not integers, fall outside the
    rows or appear twice (within a split or across two), raise ValueError
    naming the file or the field."""
    with open(os.path.join(directory, "meta.json")) as fh:
        meta = json.load(fh)
    data_path = os.path.join(directory, "data.csv")
    x = np.loadtxt(data_path, delimiter=",", ndmin=2)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"{data_path}: row {bad[0]} holds a non-finite value")
    if "shape" in meta and list(meta["shape"]) != list(x.shape):
        raise ValueError(f"{directory}: meta.json shape {meta['shape']} does not match data.csv's {list(x.shape)}")
    if "splits" not in meta:
        raise ValueError(f"{directory}: meta.json has no splits")
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
        if not isinstance(splits, dict) or part not in splits:
            raise ValueError(f"{directory}: meta.json has no splits.{part}")
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
