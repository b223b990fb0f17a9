"""Graph ingestion, knapsack cost assignment, and synthetic instance generation.

Graphs are immutable CSR-style adjacency structures over node ids that are
densely re-indexed to ``0..n-1``. Edge-list input follows the usual
plain-text convention: one whitespace-separated ``u v`` pair per line,
``#`` starting a comment line, optional gzip compression by file suffix.
"""

from __future__ import annotations

import dataclasses
import gzip
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParseError

DEFAULT_COST_ALPHA = 1.0 / 20.0


@dataclass(frozen=True, eq=False)
class Graph:
    """Compressed adjacency with per-node costs, each finite and positive.

    ``indices[indptr[v]:indptr[v+1]]`` are the neighbors of ``v`` (out-neighbors
    in directed mode). Undirected edges are stored in both directions, which
    is checked here; self loops are dropped by ``from_edges`` and rejected
    here. ``orig_ids[v]`` maps a dense id back to the id found in the source
    file, when the graph came from one.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    directed: bool = False
    costs: np.ndarray = None
    orig_ids: np.ndarray = None

    def __post_init__(self):
        if self.n < 0:
            raise InputError("node count must be non-negative")
        for name in ("indptr", "indices"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1:
                raise InputError(f"{name} must be a 1-D array")
            if arr.dtype.kind not in "iu" and arr.size:
                raise InputError(f"{name} must hold integers, got dtype {arr.dtype}")
            if arr.dtype.kind != "i":
                # an empty list converts to floats; unsigned arrays would wrap
                # in the checks below (values past 2^63 become negative here)
                arr = arr.astype(np.int64)
            object.__setattr__(self, name, arr)
        if self.costs is None:
            object.__setattr__(self, "costs", np.ones(self.n, dtype=np.float64))
        costs = np.asarray(self.costs, dtype=np.float64)
        if not (np.isfinite(costs).all() and (costs > 0).all()):
            raise InputError("costs must be finite and positive")
        if len(self.indptr) != self.n + 1:
            raise InputError("indptr length must be n + 1")
        if (self.indptr[0] != 0 or self.indptr[-1] != self.indices.size
                or np.any(np.diff(self.indptr) < 0)):
            raise InputError("indptr must rise from 0 to the length of indices")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n):
            raise InputError("neighbor id out of range")
        # arc keys u * n + v fit in 32 bits up to n = 2^16, and sort twice as fast
        key = np.uint32 if self.n <= 1 << 16 else np.int64
        src = np.repeat(np.arange(self.n, dtype=key), np.diff(self.indptr))
        if np.any(self.indices == src):
            raise InputError("self loops are not allowed")
        if not self.directed:
            # symmetric iff the arcs u -> v and their reversals v -> u are
            # the same multiset: compare them as sorted keys, built in place
            dst = self.indices.astype(key)
            rev = dst * key(self.n)
            rev += src
            rev.sort()
            src *= key(self.n)
            src += dst
            if np.any(src[1:] < src[:-1]):  # rows with unsorted neighbours
                src.sort()
            if not np.array_equal(src, rev):
                raise InputError("undirected adjacency must be symmetric")

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    @property
    def num_edges(self) -> int:
        return int(len(self.indices)) if self.directed else int(len(self.indices)) // 2

    def cost(self, v: int) -> float:
        return float(self.costs[v])

    def cost_fn(self):
        """Callable view of the cost vector, suitable for the pruners."""
        costs = self.costs

        def fn(v: int) -> float:
            return float(costs[v])

        return fn

    def edge_array(self) -> np.ndarray:
        """Unique edges as an (E, 2) array: ``u < v`` pairs when undirected,
        every stored arc when directed."""
        if self.n == 0 or self.indices.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        dst = self.indices.astype(np.int64)
        if self.directed:
            return np.column_stack([src, dst])
        keep = src < dst
        return np.column_stack([src[keep], dst[keep]])


def from_edges(n: int, edges, directed: bool = False) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs with ids in [0, n).

    Duplicate edges are collapsed and self loops dropped.
    """
    if n < 0:
        raise InputError("node count must be non-negative")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) outside node range [0, {n})")
        if u == v:
            continue
        seen.add((u, v) if directed else (min(u, v), max(u, v)))
    if not seen:
        return Graph(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64), directed)
    arr = np.array(sorted(seen), dtype=np.int64)
    del seen  # the set of tuples outweighs every array below
    if directed:
        src, dst = arr[:, 0], arr[:, 1]
    else:
        src = np.concatenate([arr[:, 0], arr[:, 1]])
        dst = np.concatenate([arr[:, 1], arr[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    return Graph(n, indptr, dst, directed)


def parse_edge_list(lines, directed: bool = False) -> Graph:
    """Parse whitespace-separated "u v" lines into a densely indexed Graph.

    ``#`` lines are comments and blank lines are skipped. Node ids are
    remapped to 0..n-1 in sorted order of the original ids; the mapping is
    kept on ``graph.orig_ids``. Malformed lines raise ParseError with the
    1-based line number.
    """
    raw_edges = []
    node_ids = set()
    for line_no, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(f"expected two node ids, got {len(parts)} tokens", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {stripped!r}", line_no) from None
        if u < 0 or v < 0:
            raise ParseError("node ids must be non-negative", line_no)
        node_ids.add(u)
        node_ids.add(v)
        raw_edges.append((u, v))
    orig = np.array(sorted(node_ids), dtype=np.int64)
    remap = {int(o): i for i, o in enumerate(orig)}
    n = len(orig)
    graph = from_edges(n, ((remap[u], remap[v]) for u, v in raw_edges), directed=directed)
    return dataclasses.replace(graph, orig_ids=orig)


def load_edge_list(path, directed: bool = False) -> Graph:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        return parse_edge_list(fh, directed=directed)


def write_edge_list(graph: Graph, path) -> None:
    """Write the graph in the same format parse_edge_list reads (dense ids)."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt") as fh:
        for u, v in graph.edge_array():
            fh.write(f"{u} {v}\n")


def read_id_file(path) -> set:
    """Read a newline-delimited element-id file."""
    ids = set()
    with open(path, "rt") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                ids.add(int(stripped))
            except ValueError:
                raise ParseError(f"non-integer id {stripped!r}", line_no) from None
    return ids


def write_id_file(ids, path) -> None:
    with open(path, "wt") as fh:
        for v in sorted(ids):
            fh.write(f"{v}\n")


def graph_metadata(graph: Graph) -> dict:
    costs = graph.costs
    return {
        "n": graph.n,
        "m": graph.num_edges,
        "directed": graph.directed,
        "cost_min": float(costs.min()) if graph.n else None,
        "cost_max": float(costs.max()) if graph.n else None,
        "cost_mean": float(costs.mean()) if graph.n else None,
        "has_orig_ids": graph.orig_ids is not None,
    }


def assign_knapsack_costs(graph: Graph, cost_alpha: float = DEFAULT_COST_ALPHA,
                          mode: str = "degree") -> Graph:
    """Return a copy of the graph with knapsack costs assigned.

    In "degree" mode, cost(v) = cost_beta / n * (deg(v) - cost_alpha) with
    cost_beta chosen as the smallest value that makes the minimum cost
    exactly 1. "unit" mode sets every cost to 1 (the size-constraint case).
    Nodes whose degree does not exceed cost_alpha make the degree formula
    degenerate and raise InputError.
    """
    if mode == "unit":
        return dataclasses.replace(graph, costs=np.ones(graph.n, dtype=np.float64))
    if mode != "degree":
        raise InputError(f"unknown cost mode {mode!r}")
    if graph.n == 0:
        raise InputError("cannot assign degree costs to an empty graph")
    degs = graph.degrees.astype(np.float64)
    shifted = degs - cost_alpha
    if shifted.min() <= 0:
        raise InputError(
            f"degree cost model degenerate: some node has degree <= {cost_alpha}")
    costs = shifted / shifted.min()
    return dataclasses.replace(graph, costs=costs)


def generate(kind: str, n: int, params: dict | None = None, seed: int = 0) -> Graph:
    """Generate a reproducible synthetic graph.

    Kinds: "erdos_renyi" (params: p), "barabasi_albert" (params: m_attach),
    "star", "path".
    """
    if n < 1:
        raise InputError("n must be >= 1")
    params = params or {}
    if kind == "star":
        return from_edges(n, ((0, i) for i in range(1, n)))
    if kind == "path":
        return from_edges(n, ((i, i + 1) for i in range(n - 1)))
    if kind == "erdos_renyi":
        p = params.get("p")
        if p is None or not 0.0 <= p <= 1.0:
            raise InputError("erdos_renyi requires p in [0, 1]")
        rng = np.random.default_rng(seed)
        edges = []
        for i in range(n - 1):
            draws = rng.random(n - i - 1)
            for off in np.nonzero(draws < p)[0]:
                edges.append((i, i + 1 + int(off)))
        return from_edges(n, edges)
    if kind == "barabasi_albert":
        m = params.get("m_attach")
        if m is None or m < 1 or m >= n:
            raise InputError("barabasi_albert requires 1 <= m_attach < n")
        rng = np.random.default_rng(seed)
        edges = []
        repeated = []
        targets = list(range(m))
        for source in range(m, n):
            edges.extend((source, t) for t in targets)
            repeated.extend(targets)
            repeated.extend([source] * m)
            chosen = set()
            while len(chosen) < m:
                chosen.add(repeated[int(rng.integers(len(repeated)))])
            targets = sorted(chosen)
        return from_edges(n, edges)
    raise InputError(f"unknown generator kind {kind!r}")
