"""Query-counted set-function oracles for the bundled objective families.

Everything downstream treats the objective as a black box: hand it a set of
element ids, get a value back. Each oracle freezes its input data (graph,
live-edge sample pool, similarity kernel) at construction, normalizes so the
empty set scores zero, and bumps a thread-safe counter exactly once per
evaluation. Evaluating the same set twice returns bit-identical values,
including the cascade estimator, whose randomness lives entirely in the
frozen sample pool. Every ``eval``, ``singletons`` batch and state method
checks its ids once, at the boundary: an id that is not an integer in
``[0, n)`` raises ``InputError``, and a repeated id counts once.

Cut and coverage answer from the graph's deduplicated CSR rows, held as one
tuple of neighbour ids per node, so their memory and build time are linear
in nodes plus arcs.

Callers that grow one set element by element (the pruner's working set, a
greedy solution) ask the oracle for a per-caller state with ``state()``.
``st.marginal(e, f_S)`` is one counted query and equals
``eval(S | {e}) - f_S`` bit for bit; ``st.add(e)`` commits ``e`` without a
query; ``st.reset(S)`` makes the state hold ``S`` and returns f(S), one
counted query unless ``S`` is empty. Cut (either direction), coverage and
undirected influence keep incremental statistics, so a marginal does not
rescan ``S``: the cut state keeps per-node hit counts and answers in O(1),
the coverage state keeps the covered set and answers in O(deg e).
Similarity cut, custom and directed influence oracles, and any oracle-like
wrapper without ``state()``, get an ``EvalState`` that answers through
``marginal`` and ``eval``.

Callers that need many singleton values at once (the pruner per block of
the stream, the greedy solvers to seed their heaps) ask for them in one
``singletons(ids)`` call: ``[eval({v}) for v in ids]`` bit for bit and in
type, counted as ``len(ids)`` queries, with every id checked before any is
counted. Cut and undirected influence read the values from per-element
vectors built with the oracle, and ``CustomOracle`` calls its set function
once per id; other oracles loop over ``eval``, and ``oracle_singletons``
does the same for wrappers without ``singletons()``.
"""

from __future__ import annotations

import operator
import threading

import numpy as np

from .errors import InputError, ParseError, outside_ground_set, require_finite
from .graphio import _decoded

__all__ = [
    "QueryCounter",
    "Oracle",
    "EvalState",
    "oracle_state",
    "oracle_singletons",
    "CoverageOracle",
    "CutOracle",
    "InfluenceOracle",
    "SimilarityCutOracle",
    "CustomOracle",
    "LiveEdgeSamplePool",
    "SimilarityKernel",
    "load_similarity_kernel",
    "estimate_gamma",
]


class QueryCounter:
    """Monotone evaluation counter safe under concurrent increments."""

    __slots__ = ("_lock", "_count")

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self, k: int = 1):
        with self._lock:
            self._count += k

    @property
    def count(self) -> int:
        return self._count


class Oracle:
    """Counted, normalized evaluation of a monotone set function.

    Subclasses implement ``_value(S)`` over a set of distinct int ids in
    ``0..n-1``. The public ``eval`` checks the ids, issues exactly one
    counted query per call and returns f(S) - f(empty set).
    """

    kind = "custom"

    def __init__(self, n: int):
        if n < 0:
            raise InputError("ground-set size must be non-negative")
        self.n = n
        self.counter = QueryCounter()

    @property
    def query_count(self) -> int:
        return self.counter.count

    def eval(self, S):
        members = _checked_ids(S, self.n, into=set)
        self.counter.bump()
        return self._value(members)

    def marginal(self, e, S, f_S):
        """Gain of adding ``e`` to ``S`` given the cached value ``f_S``.

        Costs exactly one fresh query, an evaluation of ``S | {e}``; zero
        when ``e`` is already in ``S``. Callers that grow a set should use
        ``state()``, which may answer without rescanning ``S``.
        """
        return self.eval(set(S) | {e}) - f_S

    def state(self):
        """A fresh per-caller state holding the empty set."""
        return EvalState(self)

    def singletons(self, ids):
        """``[eval({v}) for v in ids]``: ``len(ids)`` counted queries, none
        counted when an id is not an integer in ``[0, n)``."""
        return _eval_singletons(self, ids)

    def _value(self, S):
        raise NotImplementedError


class EvalState:
    """Per-caller state that answers through the oracle's ``marginal`` and
    ``eval``: the path for oracles without incremental statistics and for
    oracle-like wrappers that have no ``state()``."""

    __slots__ = ("oracle", "members")

    def __init__(self, oracle):
        self.oracle = oracle
        self.members = set()

    def marginal(self, e, f_S):
        return self.oracle.marginal(e, self.members, f_S)

    def add(self, e):
        self.members.add(_check_id(e, self.oracle.n))

    def reset(self, S):
        self.members = _checked_ids(S, self.oracle.n, into=set)
        return self.oracle.eval(self.members) if self.members else 0.0


def oracle_state(oracle):
    """``oracle.state()``, or an ``EvalState`` when the oracle has none."""
    make = getattr(oracle, "state", None)
    return make() if make is not None else EvalState(oracle)


def oracle_singletons(oracle, ids) -> list:
    """``oracle.singletons(ids)``, or the base class's loop over ``eval``
    when the oracle has no ``singletons`` method."""
    batch = getattr(oracle, "singletons", None)
    return batch(ids) if batch is not None else _eval_singletons(oracle, ids)


def _eval_singletons(oracle, ids) -> list:
    vs = _checked_ids(ids, oracle.n)
    return [oracle.eval({v}) for v in vs]


def _checked_ids(ids, n: int, into=list):
    """``ids`` as ints, collected ``into`` a list (or a set), or InputError
    for the first one that is not an integer in ``[0, n)``."""
    try:
        vs = into(map(operator.index, ids))
    except TypeError as exc:
        raise InputError(f"element ids must be integers: {exc}") from None
    if vs and not (min(vs) >= 0 and max(vs) < n):
        bad = next(v for v in vs if not 0 <= v < n)
        raise outside_ground_set(bad, n)
    return vs


def _check_id(v, n: int) -> int:
    """``v`` as an int, or InputError unless it is an integer in ``[0, n)``."""
    try:
        v = operator.index(v)
    except TypeError as exc:
        raise InputError(f"element ids must be integers: {exc}") from None
    if not 0 <= v < n:
        raise outside_ground_set(v, n)
    return v


def _rows(graph, transpose=False, closed=False) -> list:
    """The graph's arcs as one ascending tuple of neighbour ids per node:
    out-neighbours, or in-neighbours when ``transpose``, with each node in
    its own row when ``closed``. An arc the CSR lists twice appears once.
    The rows share one int object per node id."""
    n = graph.n
    if not n:
        return []
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    dst = graph.indices.astype(np.int64)
    if transpose:
        src, dst = dst, src
    if closed:
        ids = np.arange(n, dtype=np.int64)
        src, dst = np.concatenate([src, ids]), np.concatenate([dst, ids])
    keys = np.sort(src * n + dst)
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0
    src, dst = np.divmod(keys, n)
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=bounds[1:])
    # an object array indexes one shared int per node, not a new int per arc
    heads = np.array(range(n), dtype=object)[dst].tolist()
    b = bounds.tolist()
    # tuples of ints drop out of the garbage collector's traversals
    return [tuple(heads[b[v]:b[v + 1]]) for v in range(n)]


class CoverageOracle(Oracle):
    """Number of nodes in S or adjacent to S (closed-neighborhood cover)."""

    kind = "coverage"

    def __init__(self, graph):
        super().__init__(graph.n)
        self.graph = graph
        self._nbhd = _rows(graph, closed=True)

    def state(self):
        return _CoverageState(self)

    def _cover(self, S) -> set:
        nbhd = self._nbhd
        covered = set()
        for v in S:
            covered.update(nbhd[v])
        return covered

    def _value(self, S):
        return len(self._cover(S))


class _CoverageState:
    """Coverage: the set of nodes S covers. Adding ``e`` covers
    N[e] minus what is covered already, found in O(deg e)."""

    __slots__ = ("_oracle", "_covered")

    def __init__(self, oracle: CoverageOracle):
        self._oracle = oracle
        self._covered = set()

    def marginal(self, e, f_S):
        row = self._oracle._nbhd[_check_id(e, self._oracle.n)]
        gain = len(row) - len(self._covered.intersection(row))
        self._oracle.counter.bump()
        return (len(self._covered) + gain) - f_S

    def add(self, e):
        self._covered.update(self._oracle._nbhd[_check_id(e, self._oracle.n)])

    def reset(self, S):
        members = _checked_ids(S, self._oracle.n)
        self._covered = self._oracle._cover(members)
        if not members:
            return 0.0
        self._oracle.counter.bump()
        return len(self._covered)


class CutOracle(Oracle):
    """Number of edges with exactly one endpoint in S.

    For directed graphs this counts arcs entering S from outside.
    """

    kind = "cut"

    def __init__(self, graph):
        super().__init__(graph.n)
        self.graph = graph
        self._out = _rows(graph)
        self._in = _rows(graph, transpose=True) if graph.directed else self._out
        self._indeg = [len(row) for row in self._in]

    def state(self):
        return _CutState(self)

    def singletons(self, ids):
        # no self loops, so f({v}) is the in-degree, duplicated arcs counted once
        vs = _checked_ids(ids, self.n)
        self.counter.bump(len(vs))
        indeg = self._indeg
        return [indeg[v] for v in vs]

    def _value(self, S):
        # arcs into each member of S from outside S
        rows, indeg = self._in, self._indeg
        total = 0
        for v in S:
            total += indeg[v] - len(S.intersection(rows[v]))
        return total


class _CutState:
    """Cut in either direction: the members of S, the integer cut value and
    ``hits[v] = |in(v) & S| + |out(v) & S|``. Adding ``e`` outside S gains
    the arcs into e from outside S and loses the arcs from e into S, so the
    gain is indeg(e) - hits[e]; undirected, in(v) = out(v) = N(v)."""

    __slots__ = ("_oracle", "_members", "_hits", "_value")

    def __init__(self, oracle: CutOracle):
        self._oracle = oracle
        self._members = set()
        self._hits = [0] * oracle.n
        self._value = 0

    def marginal(self, e, f_S):
        e = _check_id(e, self._oracle.n)
        gain = 0 if e in self._members else self._oracle._indeg[e] - self._hits[e]
        self._oracle.counter.bump()
        return (self._value + gain) - f_S

    def add(self, e):
        self._add(_check_id(e, self._oracle.n))

    def _add(self, e: int):
        if e in self._members:
            return
        oracle, hits = self._oracle, self._hits
        self._members.add(e)
        self._value += oracle._indeg[e] - hits[e]
        for u in oracle._out[e]:
            hits[u] += 1
        for u in oracle._in[e]:
            hits[u] += 1

    def reset(self, S):
        members = _checked_ids(S, self._oracle.n)
        self._members, self._hits, self._value = set(), [0] * self._oracle.n, 0
        for v in members:
            self._add(v)
        if not members:
            return 0.0
        self._oracle.counter.bump()
        return self._value


class _DisjointSet:
    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class LiveEdgeSamplePool:
    """Frozen collection of live-edge subgraphs for cascade estimation.

    Each stored edge of the source graph survives independently with
    probability ``p``, sampled once at construction; averaging the size of
    the set reachable from the seeds over the ``m`` samples gives a
    deterministic Monte Carlo estimate of expected spread. Undirected live
    edges are traversable in both directions.

    Undirected pools keep the samples' connected components as two arrays:
    ``roots[i, v]`` is the component id of node ``v`` in sample ``i``, unique
    across all samples (``i * n + root``), and ``sizes[c]`` is the size of
    component ``c`` (zero for ids that name no component). ``reach[v]`` is
    the summed size of ``v``'s components over the samples, so
    ``reach[v] / m`` is the spread of ``{v}``.
    """

    def __init__(self, graph, p: float, m: int = 100, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise InputError("edge probability p must be in [0, 1]")
        if m < 1:
            raise InputError("sample count m must be >= 1")
        self.n = graph.n
        self.p = float(p)
        self.m = int(m)
        self.seed = int(seed)
        self.directed = graph.directed
        edges = graph.edge_array()
        rng = np.random.default_rng(seed)
        self._adjacency = []  # directed: out-adjacency per sample
        if not self.directed:
            self.roots = np.empty((self.m, self.n), dtype=np.int64)
            self.reach = np.zeros(self.n, dtype=np.int64)
        for i in range(self.m):
            live = edges[rng.random(len(edges)) < p] if len(edges) else edges
            if self.directed:
                adj = {}
                for u, v in live:
                    adj.setdefault(int(u), []).append(int(v))
                self._adjacency.append(adj)
            else:
                dsu = _DisjointSet(self.n)
                for u, v in live:
                    dsu.union(int(u), int(v))
                row = self.roots[i]
                row[:] = [dsu.find(v) for v in range(self.n)]
                self.reach += np.bincount(row, minlength=self.n)[row]
        if not self.directed:
            self.roots += np.arange(self.m, dtype=np.int64)[:, None] * self.n
            self.sizes = np.bincount(self.roots.ravel(), minlength=self.m * self.n)

    def mean_reach(self, S) -> float:
        """Average number of nodes reachable from S, distinct ids in
        ``[0, n)``, across the samples."""
        vs = list(S)
        if not self.directed:
            roots = self.roots[:, vs]
            if len(vs) > 1:  # one node's roots differ across samples already
                roots = _distinct(roots)
            return int(self.sizes[roots].sum()) / self.m
        total = 0
        for adj in self._adjacency:
            visited = set(vs)
            stack = list(vs)
            while stack:
                u = stack.pop()
                for w in adj.get(u, ()):
                    if w not in visited:
                        visited.add(w)
                        stack.append(w)
            total += len(visited)
        return total / self.m


def _distinct(a):
    """Distinct values of a non-negative integer array. ``np.unique`` would
    import ``numpy.ma`` on first use, about 1 MB of resident memory."""
    r = np.sort(a, axis=None)
    return r[np.diff(r, prepend=-1) != 0]


class InfluenceOracle(Oracle):
    """Deterministic spread estimate over a frozen live-edge sample pool."""

    kind = "influence"

    def __init__(self, pool: LiveEdgeSamplePool):
        super().__init__(pool.n)
        self.pool = pool

    def state(self):
        return EvalState(self) if self.pool.directed else _InfluenceState(self)

    def singletons(self, ids):
        if self.pool.directed:
            return super().singletons(ids)
        vs = _checked_ids(ids, self.n)
        self.counter.bump(len(vs))
        m = self.pool.m
        # exact integer totals over m, the division ``mean_reach`` makes
        return [t / m for t in self.pool.reach[vs].tolist()]

    def _value(self, S):
        return self.pool.mean_reach(S)


class _InfluenceState:
    """Undirected spread: which sample components S touches, as an
    ``m * n`` boolean mask, and the exact integer reach total ``T``.

    A marginal returns ``(T + gain) / m - f_S``, the same float a fresh
    ``eval(S | {e}) - f_S`` computes, so no threshold comparison can flip.
    """

    __slots__ = ("_oracle", "_covered", "_total")

    def __init__(self, oracle: InfluenceOracle):
        self._oracle = oracle
        self._covered = np.zeros(oracle.pool.sizes.size, dtype=bool)
        self._total = 0

    def _fresh_roots(self, e):
        roots = self._oracle.pool.roots[:, _check_id(e, self._oracle.n)]
        return roots[~self._covered[roots]]

    def marginal(self, e, f_S):
        gain = int(self._oracle.pool.sizes[self._fresh_roots(e)].sum())
        self._oracle.counter.bump()
        return (self._total + gain) / self._oracle.pool.m - f_S

    def add(self, e):
        fresh = self._fresh_roots(e)
        self._total += int(self._oracle.pool.sizes[fresh].sum())
        self._covered[fresh] = True

    def reset(self, S):
        pool = self._oracle.pool
        roots = _distinct(pool.roots[:, _checked_ids(S, pool.n)])
        self._covered[:] = False
        self._covered[roots] = True
        self._total = int(pool.sizes[roots].sum())
        if not roots.size:
            return 0.0
        self._oracle.counter.bump()
        return self._total / pool.m


class SimilarityKernel:
    """Pairwise similarity matrix with designated query items.

    The quadratic self-penalty follows a fixed convention: ordered pairs
    including the diagonal, i.e. the sum of s[i, j] over all (i, j) in
    S x S. Candidate ids default to every item not in the query set.
    """

    def __init__(self, s, query_ids, lam: float = 10.0, candidate_ids=None):
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise InputError("similarity matrix must be square")
        if not np.allclose(s, s.T, atol=1e-8):
            raise InputError("similarity matrix must be symmetric")
        if s.size and (s.min() < -1.0 - 1e-9 or s.max() > 1.0 + 1e-9):
            raise InputError("similarities must lie in [-1, 1]")
        require_finite(lam=lam)
        if lam < 2.0:
            raise InputError("scaling lam must be >= 2")
        n_items = s.shape[0]
        query_ids = sorted(set(int(q) for q in query_ids))
        if not query_ids:
            raise InputError("query set must be non-empty")
        if query_ids[0] < 0 or query_ids[-1] >= n_items:
            raise InputError("query id outside similarity matrix")
        if candidate_ids is None:
            candidate_ids = [i for i in range(n_items) if i not in set(query_ids)]
        else:
            candidate_ids = sorted(set(int(c) for c in candidate_ids))
            if candidate_ids and (candidate_ids[0] < 0 or candidate_ids[-1] >= n_items):
                raise InputError("candidate id outside similarity matrix")
            if set(candidate_ids) & set(query_ids):
                raise InputError("candidate and query sets must be disjoint")
        self.s = s
        self.lam = float(lam)
        self.query_ids = np.array(query_ids, dtype=np.int64)
        self.candidate_ids = np.array(candidate_ids, dtype=np.int64)

    @property
    def n_candidates(self) -> int:
        return len(self.candidate_ids)


def load_similarity_kernel(matrix_path, query_path, lam: float = 10.0) -> SimilarityKernel:
    """Load a kernel from a CSV of row-major floats plus a query-id list file."""
    try:
        s = np.loadtxt(matrix_path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"malformed similarity matrix: {exc}") from None
    query_ids = []
    with open(query_path, "rb") as fh:
        lines = fh.read().splitlines()
    for line_no, line in enumerate(lines, start=1):
        for tok in _decoded(line, line_no).split():
            try:
                query_ids.append(int(tok))
            except ValueError:
                raise ParseError(f"non-integer query id {tok!r}", line_no) from None
    return SimilarityKernel(s, query_ids, lam=lam)


class SimilarityCutOracle(Oracle):
    """Query-similarity reward minus in-set similarity penalty.

    The ground set is the kernel's candidate list; element id ``j`` refers to
    ``kernel.candidate_ids[j]``.
    """

    kind = "simgraphcut"

    def __init__(self, kernel: SimilarityKernel):
        super().__init__(kernel.n_candidates)
        self.kernel = kernel
        cand = kernel.candidate_ids
        self._qsum = kernel.s[np.ix_(kernel.query_ids, cand)].sum(axis=0)
        self._sc = kernel.s[np.ix_(cand, cand)].copy()

    def _value(self, S):
        vs = sorted(S)
        if not vs:
            return 0.0
        idx = np.array(vs, dtype=np.int64)
        reward = self.kernel.lam * float(self._qsum[idx].sum())
        penalty = float(self._sc[np.ix_(idx, idx)].sum())
        return reward - penalty


class CustomOracle(Oracle):
    """Wrap an arbitrary set function; normalizes by subtracting f(empty).

    ``singletons`` calls the set function directly, not through ``eval``: a
    subclass that overrides ``eval`` must override ``singletons`` too.
    """

    def __init__(self, n: int, fn, kind: str = "custom"):
        super().__init__(n)
        self.kind = kind
        self._fn = fn
        self._offset = float(fn(frozenset()))

    def singletons(self, ids):
        """``[eval({v}) for v in ids]``, with the ids checked once and the
        ``len(ids)`` queries counted in one step."""
        vs = _checked_ids(ids, self.n)
        self.counter.bump(len(vs))
        fn, offset = self._fn, self._offset
        return [fn(frozenset((v,))) - offset for v in vs]

    def _value(self, S):
        return self._fn(frozenset(S)) - self._offset


def estimate_gamma(oracle: Oracle, U, zero_tol: float = 1e-9) -> float:
    """Exhaustive estimate of the diminishing-returns ratio on a small set.

    Returns the minimum of gain(x | S) / gain(x | T) over all chains
    S subseteq T subseteq U with x outside T and gain(x | T) positive,
    clamped to [0, 1]; 1.0 when no positive denominator exists. Denominators
    below ``zero_tol`` (scaled by the largest observed value) are treated as
    zero so float noise on truly flat marginals cannot blow up a ratio.

    Exhaustive over all subsets, so ``|U| <= 12`` is enforced.
    """
    ids = sorted(set(U))
    k = len(ids)
    if k > 12:
        raise InputError(f"gamma estimation is exhaustive; |U| = {k} exceeds 12")
    if k == 0:
        return 1.0
    size = 1 << k
    values = [0.0] * size
    for mask in range(1, size):
        subset = {ids[i] for i in range(k) if mask >> i & 1}
        values[mask] = oracle.eval(subset)
    tol = zero_tol * max(1.0, max(abs(x) for x in values))
    best = 1.0
    for t in range(size):
        rest = (size - 1) & ~t
        x = rest
        while x:
            xb = x & -x
            x ^= xb
            gain_t = values[t | xb] - values[t]
            if gain_t <= tol:
                continue
            s = t
            while True:
                ratio = (values[s | xb] - values[s]) / gain_t
                if ratio < best:
                    best = ratio
                    if best <= 0.0:
                        return 0.0
                if s == 0:
                    break
                s = (s - 1) & t
    return min(1.0, best)
