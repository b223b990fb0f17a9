"""Query-counted set-function oracles for the bundled objective families.

Everything downstream treats the objective as a black box: hand it a set of
element ids, get a value back. Each oracle freezes its input data (graph,
live-edge sample pool, similarity kernel) at construction, normalizes so the
empty set scores zero, and bumps a thread-safe counter exactly once per
evaluation. Evaluating the same set twice returns bit-identical values,
including the cascade estimator, whose randomness lives entirely in the
frozen sample pool. Every ``eval`` and state method checks its ids once, at
the boundary: an id that is not an integer in ``[0, n)`` raises
``InputError``, and a repeated id counts once in a set.

Cut and coverage answer from the graph's deduplicated CSR rows, held as one
tuple of neighbour ids per node, so their memory and build time are linear
in nodes plus arcs.

Callers that grow one set element by element (the pruner's working set, a
greedy solution) ask the oracle for a per-caller state with ``state()``.
``st.marginal(e, f_S)`` is one counted query and equals
``eval(S | {e}) - f_S`` bit for bit; ``st.add(e)`` commits ``e`` without a
query. ``st.gains(ids, f_S)`` is the batch form: ``[st.marginal(v, f_S)
for v in ids]`` bit for bit and in type (an int for cut when ``f_S`` is),
counted as ``len(ids)`` queries, with every id checked before any is
counted. A singleton batch is ``gains(ids, 0.0)`` on an empty state. A
state only grows: a caller that drops elements (the pruner, at a
checkpoint deletion) makes a fresh state and adds the survivors again.

Cut (either direction), coverage and undirected influence keep incremental
statistics, so a marginal does not rescan ``S``: the cut state keeps
per-node hit counts and answers in O(1), the coverage state keeps the
covered set and answers in O(deg e). The cut and undirected influence
states keep them in numpy arrays and answer a batch with one gather; their
``gather(vs, f_S)`` is that gather on ids already checked, as an array, and
counts nothing; ``count(k)`` counts ``k`` queries, so the pruner's screen
charges only the gains the sequential pass would have asked for.
Similarity cut, custom and directed influence oracles, and any oracle-like
wrapper without ``state()``, get an ``EvalState`` that answers through
``marginal`` and ``eval``.
"""

from __future__ import annotations

import operator
import threading
import warnings

import numpy as np

from .errors import InputError, ParseError, outside_ground_set, require_finite
from .graphio import _decoded, _grouped

__all__ = [
    "QueryCounter",
    "Oracle",
    "EvalState",
    "oracle_state",
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

    def _value(self, S):
        raise NotImplementedError


class EvalState:
    """Per-caller state that holds the member set and asks the set function
    afresh: the path for oracles without incremental statistics and for
    oracle-like wrappers that have no ``state()``.

    On an ``Oracle``, ``marginal`` and ``gains`` check only the asked ids
    (the members were checked when they were added), count them in one
    step and call its ``_value`` directly, not ``eval`` or ``marginal``: a
    subclass that overrides either must override ``state`` too. A wrapper
    answers through its own ``marginal`` and counts through its own
    ``eval``, one call per id."""

    __slots__ = ("oracle", "members")

    def __init__(self, oracle):
        self.oracle = oracle
        self.members = set()

    def marginal(self, e, f_S):
        oracle = self.oracle
        if not isinstance(oracle, Oracle):
            return oracle.marginal(e, self.members, f_S)
        e = _check_id(e, oracle.n)
        oracle.counter.bump()
        # rebuilt by insertion, as eval's id check rebuilds its argument, so a
        # set function that sums floats in iteration order gets eval's bits
        return oracle._value(set(iter(self.members | {e}))) - f_S

    def gains(self, ids, f_S):
        oracle, members = self.oracle, self.members
        vs = _checked_ids(ids, oracle.n)
        if not isinstance(oracle, Oracle):
            return [oracle.eval(members | {v}) - f_S for v in vs]
        oracle.counter.bump(len(vs))
        value = oracle._value
        return [value(members | {v}) - f_S for v in vs]

    def add(self, e):
        self.members.add(_check_id(e, self.oracle.n))


def oracle_state(oracle):
    """``oracle.state()``, or an ``EvalState`` when the oracle has none."""
    make = getattr(oracle, "state", None)
    return make() if make is not None else EvalState(oracle)


class _VectorState:
    """A state whose batch is one numpy gather: ``gains`` checks the ids,
    counts them, and hands them to the subclass's uncounted ``gather``.
    ``count(k)`` counts ``k`` queries answered from earlier gathers."""

    __slots__ = ()

    def gains(self, ids, f_S):
        vs = _checked_array(ids, self._oracle.n)
        self.count(len(vs))
        return self.gather(vs, f_S).tolist()

    def count(self, k: int):
        self._oracle.counter.bump(k)


def _checked_ids(ids, n: int, into=list):
    """``ids`` as ints, collected ``into`` a list (or a set), or InputError
    for the first one that is not an integer in ``[0, n)``. An array is
    checked in numpy."""
    if isinstance(ids, np.ndarray):
        return into(_checked_array(ids, n).tolist())
    try:
        vs = into(map(operator.index, ids))
    except TypeError as exc:
        raise InputError(f"element ids must be integers: {exc}") from None
    if vs and not (min(vs) >= 0 and max(vs) < n):
        bad = next(v for v in vs if not 0 <= v < n)
        raise outside_ground_set(bad, n)
    return vs


def _checked_array(ids, n: int):
    """``_checked_ids(ids, n)`` as an intp array, range-checked in numpy.
    A 1-D integer array is range-checked as it stands, with no per-element
    conversion."""
    if isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu":
        vs = ids
    else:
        try:
            vs = list(map(operator.index, ids))
        except TypeError as exc:
            raise InputError(f"element ids must be integers: {exc}") from None
        try:
            vs = np.array(vs, dtype=np.intp)
        except OverflowError:
            raise outside_ground_set(next(v for v in vs if not 0 <= v < n), n) from None
    if vs.size and not (vs.min() >= 0 and vs.max() < n):
        raise outside_ground_set(int(vs[(vs < 0) | (vs >= n)][0]), n)
    return vs.astype(np.intp, copy=False)


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
    bounds, dst = _grouped(n, src, dst)
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
        self._nbhd = _rows(graph, closed=True)

    def state(self):
        return _CoverageState(self)

    def _value(self, S):
        nbhd = self._nbhd
        covered = set()
        for v in S:
            covered.update(nbhd[v])
        return len(covered)


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

    def gains(self, ids, f_S):
        vs = _checked_ids(ids, self._oracle.n)
        self._oracle.counter.bump(len(vs))
        nbhd, covered = self._oracle._nbhd, self._covered
        value = len(covered)
        return [(value + (len(nbhd[v]) - len(covered.intersection(nbhd[v])))) - f_S
                for v in vs]

    def add(self, e):
        self._covered.update(self._oracle._nbhd[_check_id(e, self._oracle.n)])


class CutOracle(Oracle):
    """Number of edges with exactly one endpoint in S.

    For directed graphs this counts arcs entering S from outside.
    """

    kind = "cut"

    def __init__(self, graph):
        super().__init__(graph.n)
        self._out = _rows(graph)
        self._in = _rows(graph, transpose=True) if graph.directed else self._out
        self._indeg = np.array([len(row) for row in self._in], dtype=np.int64)

    def state(self):
        return _CutState(self)

    def _value(self, S):
        # arcs into each member of S from outside S
        total = 0
        for v in S:
            row = self._in[v]
            total += len(row) - len(S.intersection(row))
        return total


def _index(row):
    return np.fromiter(row, dtype=np.intp, count=len(row))


class _CutState(_VectorState):
    """Cut in either direction: a boolean membership mask of S and
    ``hits[v] = |in(v) & S| + |out(v) & S|``, numpy arrays over the nodes,
    and the integer cut value. Adding ``e`` outside S gains the arcs into e
    from outside S and loses the arcs from e into S, so the gain is
    indeg(e) - hits[e]; undirected, in(v) = out(v) = N(v)."""

    __slots__ = ("_oracle", "_member", "_hits", "_value")

    def __init__(self, oracle: CutOracle):
        self._oracle = oracle
        self._member = np.zeros(oracle.n, dtype=bool)
        self._hits = np.zeros(oracle.n, dtype=np.int64)
        self._value = 0

    def marginal(self, e, f_S):
        e = _check_id(e, self._oracle.n)
        gain = 0 if self._member[e] else self._oracle._indeg.item(e) - self._hits.item(e)
        self._oracle.counter.bump()
        return (self._value + gain) - f_S

    def gather(self, vs, f_S):
        gain = self._oracle._indeg[vs] - self._hits[vs]
        gain[self._member[vs]] = 0
        return (self._value + gain) - f_S

    def add(self, e):
        oracle, hits = self._oracle, self._hits
        e = _check_id(e, oracle.n)
        if self._member[e]:
            return
        self._member[e] = True
        self._value += oracle._indeg.item(e) - hits.item(e)
        out, into = oracle._out[e], oracle._in[e]
        if out is into:  # undirected: each neighbour is hit both ways
            hits[_index(out)] += 2
        else:
            hits[_index(out)] += 1
            hits[_index(into)] += 1


class LiveEdgeSamplePool:
    """Frozen collection of live-edge subgraphs for cascade estimation.

    Each stored edge of the source graph survives independently with
    probability ``p``, sampled once at construction; averaging the size of
    the set reachable from the seeds over the ``m`` samples gives a
    deterministic Monte Carlo estimate of expected spread.

    Undirected pools keep the samples' connected components: ``roots[i, v]``
    is the id of node ``v``'s component in sample ``i``, its smallest node
    plus ``i * n``; ``sizes[c]`` is the size of component ``c`` (zero for
    ids that name no component); ``reach[v]`` sums ``v``'s component sizes
    over the samples, so ``reach[v] / m`` is the spread of ``{v}``. Directed
    pools keep each sample's out-adjacency instead.
    """

    def __init__(self, graph, p: float, m: int = 100, seed: int = 0):
        try:
            m, seed = operator.index(m), operator.index(seed)
        except TypeError:
            raise InputError(f"m and seed must be integers, got {m!r} and {seed!r}") from None
        require_finite(p=p)
        if not 0.0 <= p <= 1.0:
            raise InputError("edge probability p must be in [0, 1]")
        if m < 1:
            raise InputError("sample count m must be >= 1")
        if seed < 0:
            raise InputError("seed must be non-negative")
        if m * graph.n > np.iinfo(np.intp).max:
            raise InputError(f"sample count m is too large to index {graph.n} nodes per sample")
        self.n, self.directed = graph.n, graph.directed
        self.p, self.m, self.seed = float(p), m, seed
        edges = graph.edge_array()
        rng = np.random.default_rng(seed)
        # one draw per sample, never an m x E matrix
        draws = (edges[np.flatnonzero(rng.random(len(edges)) < p)] for _ in range(m))
        if self.directed:
            self._adjacency = [{} for _ in range(m)]  # out-adjacency per sample
            for adj, live in zip(self._adjacency, draws):
                for u, v in live.tolist():
                    adj.setdefault(u, []).append(v)
            return
        labels = np.arange(m * self.n, dtype=np.int64)
        _components(labels, np.concatenate([live + i * self.n for i, live in enumerate(draws)]))
        self.roots = labels.reshape(m, self.n)
        self.sizes = np.bincount(labels, minlength=labels.size)
        self.reach = sum(self.sizes[row] for row in self.roots)  # no m x n temporary

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


def _components(labels, edges):
    """``labels`` (an ``arange``) set in place to each node's smallest
    connected node over the (E, 2) ``edges``: hook the larger label of each
    edge whose ends differ onto the smaller, then jump pointers until every
    label is a root (Shiloach and Vishkin, 1982). Only nodes on an edge ever
    leave their own label, so only they jump."""
    on_edge = np.zeros(labels.size, dtype=bool)
    on_edge[edges] = True
    ids = np.flatnonzero(on_edge)
    u, v = edges.T
    while True:
        lu, lv = labels[u], labels[v]
        cross = lu != lv
        if not cross.any():
            return
        u, v, lu, lv = u[cross], v[cross], lu[cross], lv[cross]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            cur = labels[ids]
            up = labels[cur]
            if np.array_equal(up, cur):
                break
            labels[ids] = up


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

    def _value(self, S):
        return self.pool.mean_reach(S)


class _InfluenceState(_VectorState):
    """Undirected spread: which sample components S touches, as an
    ``m * n`` boolean mask, and the exact integer reach total ``T``.

    A marginal returns ``(T + gain) / m - f_S``, the same float a fresh
    ``eval(S | {e}) - f_S`` computes, so no threshold comparison can flip.
    A batch gathers ``roots[:, ids]`` once; from the empty set each gain
    is the id's ``reach``.
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

    def gather(self, vs, f_S):
        pool = self._oracle.pool
        if self._total:  # every component holds a node, so T > 0 once S is not empty
            roots = pool.roots[:, vs]
            sizes = pool.sizes[roots]
            sizes[self._covered[roots]] = 0
            gain = sizes.sum(axis=0)
        else:
            gain = pool.reach[vs]
        return (self._total + gain) / pool.m - f_S

    def add(self, e):
        fresh = self._fresh_roots(e)
        self._total += int(self._oracle.pool.sizes[fresh].sum())
        self._covered[fresh] = True


class SimilarityKernel:
    """Pairwise similarity matrix with designated query items.

    The quadratic self-penalty follows a fixed convention: ordered pairs
    including the diagonal, i.e. the sum of s[i, j] over all (i, j) in
    S x S. The candidates are every item not in the query set.
    """

    def __init__(self, s, query_ids, lam: float = 10.0):
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise InputError("similarity matrix must be square")
        if not np.isfinite(s).all():
            raise InputError("similarity matrix must be finite")
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
        queries = set(query_ids)
        candidate_ids = [i for i in range(n_items) if i not in queries]
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
        with warnings.catch_warnings():  # numpy warns about an empty file
            warnings.simplefilter("ignore", UserWarning)
            s = np.loadtxt(matrix_path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"malformed similarity matrix: {exc}") from None
    if not s.size:
        raise ParseError("similarity matrix holds no data")
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
    """Wrap an arbitrary set function; normalizes by subtracting f(empty)."""

    def __init__(self, n: int, fn, kind: str = "custom"):
        super().__init__(n)
        self.kind = kind
        self._fn = fn
        self._offset = float(fn(frozenset()))

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
