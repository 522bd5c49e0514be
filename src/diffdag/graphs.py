"""DAG, permutation and triangular-edge types plus the order factorization.

Adjacency convention used everywhere in this package: ``entries[i][j] = 1``
means a directed edge j -> i, so row i is the parent indicator of node i and
masking a sample row with ``A[i]`` keeps exactly the parent values. Edge-list
files on disk use the conventional "u v" (u -> v, 1-based) direction; the
loader converts at the boundary.

Every DAG factors as ``A[i][j] = U[perm[i]][perm[j]]`` for some node
ranking ``perm`` and strictly upper-triangular ``U`` (matrix form
``A = P^T U P`` with ``P[perm[i], i] = 1``). ``compose``/``decompose``
implement the two directions; ``decompose`` is deterministic (Kahn's
algorithm, lowest index first).
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "AcyclicityError",
    "AdjacencyMatrix",
    "PermutationMatrix",
    "UpperTriangularEdges",
    "compose",
    "decompose",
    "is_acyclic",
    "find_cycle",
    "load_edge_list",
    "save_edge_list",
    "strict_upper_mask",
]


class AcyclicityError(ValueError):
    """Raised when a matrix that must be a DAG contains a directed cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"matrix is cyclic, e.g. cycle through nodes {self.cycle}")


def _as_binary_square(entries) -> np.ndarray:
    m = np.asarray(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    if not np.isin(m, (0, 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    return m.astype(np.int8)


class AdjacencyMatrix:
    """Binary n x n parent-indicator matrix of a DAG (row i = parents of i).

    ``validate=True`` checks input from outside: a square 0/1 matrix with a
    zero diagonal and no cycle. ``validate=False`` means the caller built a
    square 0/1 int8 DAG itself, so nothing is checked. Either way the object
    holds its own read-only copy.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries, validate: bool = True):
        m = _as_binary_square(entries) if validate else np.array(entries, dtype=np.int8)
        if validate:
            if np.diagonal(m).any():
                raise ValueError("adjacency diagonal must be zero (no self-loops)")
            cyc = find_cycle(m)
            if cyc is not None:
                raise AcyclicityError(cyc)
        m.setflags(write=False)
        self.n = m.shape[0]
        self.entries = m

    def edge_count(self) -> int:
        return int(self.entries.sum())

    def __eq__(self, other):
        return isinstance(other, AdjacencyMatrix) and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(self.entries.tobytes())

    def __repr__(self):
        return f"AdjacencyMatrix(n={self.n}, edges={self.edge_count()})"


class PermutationMatrix:
    """Node ranking; ``perm[v]`` is the position of node v.

    The induced matrix puts a 1 at ``(perm[v], v)``, which makes
    ``P^T U P`` equal the index form ``U[perm[i]][perm[j]]``.
    """

    __slots__ = ("n", "perm")

    def __init__(self, perm):
        p = np.asarray(perm, dtype=np.int64)
        if p.ndim != 1 or not np.array_equal(np.sort(p), np.arange(p.size)):
            raise ValueError(f"perm must be a bijection on 0..n-1, got {perm!r}")
        p.setflags(write=False)
        self.n = p.size
        self.perm = p

    @classmethod
    def identity(cls, n: int) -> "PermutationMatrix":
        return cls(np.arange(n))

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        m[self.perm, np.arange(self.n)] = 1.0
        return m

    def inverse(self) -> "PermutationMatrix":
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.perm] = np.arange(self.n)
        return PermutationMatrix(inv)

    def __eq__(self, other):
        return isinstance(other, PermutationMatrix) and np.array_equal(self.perm, other.perm)

    def __hash__(self):
        return hash(self.perm.tobytes())

    def __repr__(self):
        return f"PermutationMatrix({self.perm.tolist()})"


class UpperTriangularEdges:
    """Binary strictly upper-triangular edge matrix."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        m = _as_binary_square(entries)
        if np.tril(m).any():
            raise ValueError("entries must be strictly upper triangular")
        m.setflags(write=False)
        self.n = m.shape[0]
        self.entries = m

    def __eq__(self, other):
        return isinstance(other, UpperTriangularEdges) and np.array_equal(self.entries, other.entries)

    def __repr__(self):
        return f"UpperTriangularEdges(n={self.n}, edges={int(self.entries.sum())})"


def strict_upper_mask(n: int) -> np.ndarray:
    """All-ones strictly upper triangular matrix."""
    return np.triu(np.ones((n, n)), 1)


def compose(pi: PermutationMatrix, u: UpperTriangularEdges) -> AdjacencyMatrix:
    """Relabel triangular edges through the ranking: A[i][j] = U[perm[i]][perm[j]]."""
    if pi.n != u.n:
        raise ValueError(f"size mismatch: permutation n={pi.n}, edges n={u.n}")
    a = u.entries[np.ix_(pi.perm, pi.perm)]
    return AdjacencyMatrix(a, validate=False)


def _kahn_order(m: np.ndarray) -> np.ndarray:
    """Peel sinks first, lowest index first; returns each node's rank, or -1
    for the nodes left unpeeled (on or upstream of a cycle)."""
    n = m.shape[0]
    counts = m.sum(axis=0).astype(np.int64)  # children of v = {i : m[i][v] = 1}
    ready = [v for v in range(n) if counts[v] == 0]
    heapq.heapify(ready)
    rank = np.full(n, -1, dtype=np.int64)
    k = 0
    while ready:
        v = heapq.heappop(ready)
        rank[v] = k
        k += 1
        for j in np.flatnonzero(m[v]):
            counts[j] -= 1
            if counts[j] == 0:
                heapq.heappush(ready, int(j))
    return rank


def is_acyclic(entries) -> bool:
    """True iff Kahn's sort consumes all nodes."""
    m = _as_binary_square(entries)
    if np.diagonal(m).any():
        return False
    return bool((_kahn_order(m) >= 0).all())


def find_cycle(entries):
    """Return one directed cycle as a node list, or None if acyclic."""
    m = _as_binary_square(entries)
    if np.diagonal(m).any():
        v = int(np.flatnonzero(np.diagonal(m))[0])
        return [v, v]
    alive = _kahn_order(m) < 0
    if not alive.any():
        return None
    # Every node left after peeling has at least one child left; walk child
    # pointers until a node repeats.
    seen = {}
    path = []
    v = int(np.flatnonzero(alive)[0])
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = int(np.flatnonzero(m[:, v] & alive)[0])  # first alive child
    return path[seen[v] :] + [v]


def decompose(a: AdjacencyMatrix) -> tuple[PermutationMatrix, UpperTriangularEdges]:
    """Invert compose: deterministic ranking plus the relabeled edge matrix."""
    rank = _kahn_order(a.entries)
    if (rank < 0).any():
        raise AcyclicityError(find_cycle(a.entries))
    pi = PermutationMatrix(rank)
    inv = pi.inverse().perm
    u = a.entries[np.ix_(inv, inv)]
    return pi, UpperTriangularEdges(u)


def load_edge_list(path, n: int | None = None) -> AdjacencyMatrix:
    """Read "u v" lines (1-based, meaning u -> v) into an adjacency matrix.

    A self-loop raises ``ValueError`` naming ``path:line`` and the node; a
    cycle raises :class:`AcyclicityError` naming ``path`` and the cycle in
    the file's 1-based ids.
    """
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer node id in {line!r}") from None
            pairs.append((lineno, u, v))
    if n is None:
        if not pairs:
            raise ValueError(f"{path}: empty edge list and no node count given")
        n = max(max(u, v) for _, u, v in pairs)
    m = np.zeros((n, n), dtype=np.int8)
    for lineno, u, v in pairs:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"{path}:{lineno}: node id out of range 1..{n} in '{u} {v}'")
        if u == v:
            raise ValueError(f"{path}:{lineno}: self-loop on node {u}")
        m[v - 1, u - 1] = 1  # u -> v means u is a parent of v
    cycle = find_cycle(m)
    if cycle is not None:
        err = AcyclicityError([v + 1 for v in cycle])
        err.args = (f"{path}: edge list is cyclic, e.g. cycle through nodes {err.cycle}",)
        raise err
    return AdjacencyMatrix(m, validate=False)


def save_edge_list(a: AdjacencyMatrix, path) -> None:
    with open(path, "w") as fh:
        for i in range(a.n):
            for j in range(a.n):
                if a.entries[i, j]:
                    fh.write(f"{j + 1} {i + 1}\n")  # j -> i
