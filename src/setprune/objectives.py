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

Cut and coverage answer from CSR arrays: the graph's own ``indptr`` and
``indices`` when every row is strictly ascending, as ``from_edges`` and
``load_edge_list`` build them, else a deduplicated copy (directed cut also
keeps its in-rows, a transposed copy). Building either oracle makes no Python
object per node; its memory and build time are linear in nodes plus arcs.
``eval`` of a set of at most ``_NUMPY_SET`` ids loops in Python over its
members' rows, each a tuple of ints made the first time that node is read
and then kept: about 100 + 36 deg(v) bytes per node read. A larger set
gathers the members' rows in numpy, in time linear in the arcs it reads.

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
statistics in numpy arrays, so a marginal does not rescan ``S``. Their gains
are integers in a fixed unit: the set's value is its integer ``total``,
divided by ``divisor`` when that is not None. The cut state keeps per-node
hit counts and answers in O(1). The cover state serves both weighted
coverages: an id holds *keys* of integer weight, and a set is worth the
weight of the keys its ids hold. A coverage id holds the nodes of N[e],
each worth 1; an influence id holds its component in each sample, worth
its size, over ``divisor``, the sample count. The oracle lays out the keys
(``_rows``, ``_reach``, ``_cover``) and the state masks the covered ones.
The batched hooks below read all ``m`` keys of an influence id. Its scalar
``marginal`` and ``add`` loop in Python over its short key row instead:
the components where the id is alone, which no other id holds and which
are covered exactly when the id is in the set, make one entry worth their
count. On the 1k-node bench graph (p = 0.01, 25 samples) a row averages
4.4 entries. An add still marks all ``m`` keys, so a state's mask and
total do not depend on which hooks built it. Coverage keeps its numpy
``_cover``: its row is a whole closed neighbourhood, hundreds of keys at a
hub, and no benchmark workload measures coverage.
The hooks take ids already checked, as an array; the first two count no
query:

- ``raw(vs)``: the integer gains of ``vs``, one numpy gather;
- ``gather(vs, f_S)``: the gains themselves, ``_marginals`` of the raw
  ones, the formula every batch uses;
- ``count(k)``: counts ``k`` queries, so the pruner's screen charges exactly
  the gains the sequential pass would have asked for, and the pruner asks a
  block's singletons as one ``gather`` from the empty state and one count.

Both also have the two hooks the pruner's walk needs:

- ``links(vs)``: for distinct ids outside the set, how adding one of them
  lowers the integer gains of the later ones, as ``(held, amount)``:
  ``held[i]`` lists the links that position ``i`` holds, and the first add
  at a position that holds link ``l`` lowers the raw gain of every later
  position that holds it by ``amount[l]``, once. A cut link is an arc
  between two of the ids, worth 2 undirected and 1 directed (the hits it
  adds); a cover link is a key that two or more of the ids hold and the set
  does not cover, worth its weight. Which ids share what is the oracle's
  ``_shared``;
- ``extend(vs)``: adds the ids in one step, the same as adding them one by
  one (a repeated id, or ids that share arcs or keys, included).

Similarity cut, custom and directed influence oracles, and any oracle-like
wrapper without ``state()``, get an ``EvalState`` that answers through
``marginal`` and ``eval``.
"""

from __future__ import annotations

import operator
import threading
import warnings

import numpy as np

from .errors import (InputError, ParseError, _physical_memory, outside_ground_set,
                     require_finite)
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
        # acquire and release without a with block, about half its cost per
        # query: an int addition cannot raise between the two
        self._lock.acquire()
        self._count += k
        self._lock.release()

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
        return oracle._value(self.members | {e}) - f_S

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


def _marginals(total, raw, divisor, f_S):
    """The gains over a set worth ``f_S`` of elements whose integer gains
    are ``raw``, a scalar or an array, the set's integer total being
    ``total``: ``(total + raw) / divisor - f_S``, without the division when
    ``divisor`` is None. A scalar and an array give the same bits."""
    values = total + raw
    return (values if divisor is None else values / divisor) - f_S


class _VectorState:
    """A state whose gains are integers in a fixed unit, gathered in numpy
    by the subclass's ``raw``: ``gather`` maps them through ``_marginals``,
    and ``gains`` checks the ids, counts them, and gathers. ``count(k)``
    counts ``k`` queries answered from earlier gathers."""

    __slots__ = ()

    divisor = None

    def gains(self, ids, f_S):
        vs = _checked_array(ids, self._oracle.n)
        self.count(len(vs))
        return self.gather(vs, f_S).tolist()

    def gather(self, vs, f_S):
        return _marginals(self.total, self.raw(vs), self.divisor, f_S)

    def count(self, k: int):
        self._oracle.counter.bump(k)

    def links(self, vs):
        # which ids share what does not depend on the set: a walk asks each
        # of its groups for the links of its ids, or of a prefix of them, so
        # the oracle keeps the last ids' links and each state prices them
        last = self._oracle._links
        if last is None or last[0].size < vs.size or not np.array_equal(last[0][:vs.size], vs):
            last = self._oracle._links = (vs.copy(), *self._oracle._shared(vs))
        return last[1][:vs.size], self._worth(last[2])


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
    conversion; the error for an id that is not an integer names it."""
    if isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu":
        vs = ids
    else:
        given = list(ids)
        try:
            vs = list(map(operator.index, given))
        except TypeError:
            raise InputError(f"element id {_first_not_index(given)!r} is not an integer") from None
        try:
            vs = np.array(vs, dtype=np.intp)
        except OverflowError:
            raise outside_ground_set(next(v for v in vs if not 0 <= v < n), n) from None
    if vs.size and not (vs.min() >= 0 and vs.max() < n):
        raise outside_ground_set(int(vs[(vs < 0) | (vs >= n)][0]), n)
    return vs.astype(np.intp, copy=False)


def _first_not_index(vs):
    """The first of ``vs`` that is not an integer."""
    for v in vs:
        try:
            operator.index(v)
        except TypeError:
            return v


def _check_id(v, n: int) -> int:
    """``v`` as an int, or InputError unless it is an integer in ``[0, n)``."""
    try:
        v = operator.index(v)
    except TypeError as exc:
        raise InputError(f"element ids must be integers: {exc}") from None
    if not 0 <= v < n:
        raise outside_ground_set(v, n)
    return v


# sets of more ids than this are evaluated in numpy: below it, a Python loop
# over the members' rows is faster than a numpy call per set
_NUMPY_SET = 24


def _deduplicated(graph, transpose=False):
    """``(indptr, indices)`` of the graph's rows, each strictly ascending so
    that an arc the CSR lists twice counts once: its out-rows, or its in-rows
    when ``transpose``. The graph's own arrays when they qualify already."""
    indptr, indices = graph.indptr, graph.indices
    if not transpose:
        # arc i rises over arc i - 1 or starts a row; one pad past the last arc
        rising = np.empty(indices.size + 1, dtype=bool)
        np.greater(indices[1:], indices[:-1], out=rising[1:-1])
        rising[indptr] = True
        if rising.all():
            return indptr, indices
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(indptr))
    return _grouped(graph.n, indices, src) if transpose else _grouped(graph.n, src, indices)


def _row(csr, v):
    indptr, indices = csr
    return indices[indptr.item(v):indptr.item(v + 1)]


class _Rows(dict):
    """Row ``v`` of a CSR as a tuple of ints, made the first time ``v`` is
    read: ``rows[v]``."""

    __slots__ = ("_csr",)

    def __init__(self, csr):
        super().__init__()
        self._csr = csr

    def __missing__(self, v):
        row = self[v] = tuple(_row(self._csr, v).tolist())
        return row


def _heads(csr, vs):
    """The rows of the nodes ``vs`` of a CSR, one after another."""
    indptr, indices = csr
    starts = indptr[vs]
    sizes = indptr[vs + 1] - starts
    ends = np.cumsum(sizes)
    pos = np.repeat(starts - (ends - sizes), sizes)
    pos += np.arange(pos.size)
    return indices[pos]


def _held(at, link, size: int) -> list:
    """The links each of ``size`` positions holds, one list per position,
    from the memberships ``(at[i], link[i])``."""
    held = [[] for _ in range(size)]
    for p, l in zip(at.tolist(), link.tolist()):
        held[p].append(l)
    return held


def _linked(keys, at, size: int):
    """The keys that two or more of ``size`` ids hold, each a link, from the
    memberships ``(at[i], keys[i])`` (no id holds a key twice): the links
    each id holds, as ``_held`` lists them, and each link's key."""
    order = np.argsort(keys)
    keys, at = keys[order], at[order]
    first = np.empty(keys.size + 1, dtype=bool)
    first[0] = first[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:-1])
    keep = ~(first[:-1] & first[1:])  # not alone in its run
    keys, at, first = keys[keep], at[keep], first[:-1][keep]
    return _held(at, np.cumsum(first) - 1, size), keys[first]


class CoverageOracle(Oracle):
    """Number of nodes in S or adjacent to S (closed-neighborhood cover)."""

    kind = "coverage"

    def __init__(self, graph):
        super().__init__(graph.n)
        self._out = _deduplicated(graph)
        self._nbhd = _Rows(self._out)
        # each node weighs 1: a zero-stride array, no per-node allocation
        self._weight, self._divisor = np.broadcast_to(np.int64(1), graph.n), None
        self._links = None  # the last links a state asked, see _VectorState.links

    def state(self):
        return _CoverState(self)

    def _value(self, S):
        if len(S) > _NUMPY_SET:
            ids = self._rows(np.fromiter(S, dtype=np.intp, count=len(S)))[0]
            # count the distinct ids in O(len(ids)), not O(n): each distinct
            # id keeps exactly one of the positions that wrote it
            order = np.arange(ids.size)
            slot = np.empty(self.n, dtype=np.intp)
            slot[ids] = order
            return int(np.count_nonzero(slot[ids] == order))
        nbhd = self._nbhd
        covered = set(S)
        for v in S:
            covered.update(nbhd[v])
        return len(covered)

    def _reach(self, vs):
        indptr = self._out[0]
        return indptr[vs + 1] - indptr[vs] + 1  # |N[v]|

    def _rows(self, vs):
        """N[v] of each of the ids ``vs``, one after another, each starting
        with ``v``, and the position where each starts."""
        sizes = self._reach(vs)
        starts = np.cumsum(sizes) - sizes
        keys = np.repeat(vs, sizes)
        rest = np.ones(keys.size, dtype=bool)
        rest[starts] = False
        keys[rest] = _heads(self._out, vs)
        return keys, starts

    def _cover(self, e, covered, commit: bool) -> int:
        """The weight of e's keys that ``covered`` lacks; covers them when
        ``commit``."""
        row = _row(self._out, e)
        fresh = row[~covered[row]]
        gain = fresh.size + (not covered.item(e))
        if commit:
            covered[fresh] = True
            covered[e] = True
        return gain

    def _shared(self, vs):
        # every node that two or more of the ids' neighbourhoods hold
        keys = self._rows(vs)[0]
        return _linked(keys, np.repeat(np.arange(vs.size), self._reach(vs)), vs.size)


class _CoverState(_VectorState):
    """Weighted coverage: a boolean mask of the oracle's keys that S holds
    and the exact integer ``total`` of their weights. A gain is
    ``_marginals`` of the weight of e's keys outside the mask, the value a
    fresh ``eval(S | {e}) - f_S`` computes, so no threshold can flip."""

    __slots__ = ("_oracle", "_covered", "total")

    def __init__(self, oracle):
        self._oracle = oracle
        self._covered = np.zeros(oracle._weight.size, dtype=bool)
        self.total = 0

    @property
    def divisor(self):
        return self._oracle._divisor

    def marginal(self, e, f_S):
        oracle = self._oracle
        gain = oracle._cover(_check_id(e, oracle.n), self._covered, False)
        oracle.counter.bump()
        return _marginals(self.total, gain, oracle._divisor, f_S)

    def raw(self, vs):
        oracle = self._oracle
        if not self.total:  # every key weighs at least 1, so T > 0 once S is not empty
            return oracle._reach(vs)
        keys, starts = oracle._rows(vs)
        weight = oracle._weight[keys]
        weight[self._covered[keys]] = 0
        return np.add.reduceat(weight, starts)

    def _worth(self, keys):
        # a key the set covers is in no gain already
        return np.where(self._covered[keys], 0, self._oracle._weight[keys]).tolist()

    def add(self, e):
        oracle = self._oracle
        self.total += oracle._cover(_check_id(e, oracle.n), self._covered, True)

    def extend(self, vs):
        # a key two of the ids hold counts once
        keys = self._oracle._rows(vs)[0]
        fresh = _distinct(keys[~self._covered[keys]])
        self.total += int(self._oracle._weight[fresh].sum())
        self._covered[fresh] = True


class CutOracle(Oracle):
    """Number of edges with exactly one endpoint in S.

    For directed graphs this counts arcs entering S from outside.
    """

    kind = "cut"

    def __init__(self, graph):
        super().__init__(graph.n)
        self._out = _deduplicated(graph)
        self._in = _deduplicated(graph, transpose=True) if graph.directed else self._out
        self._indeg = np.diff(self._in[0])
        self._in_rows = _Rows(self._in)
        self._links = None  # the last links a state asked, see _VectorState.links

    def state(self):
        return _CutState(self)

    def _value(self, S):
        # arcs into each member of S from outside S
        if len(S) > _NUMPY_SET:
            vs = np.fromiter(S, dtype=np.intp, count=len(S))
            heads = _heads(self._in, vs)
            # a membership mask set only where it is read: O(len(heads)), not O(n)
            member = np.empty(self.n, dtype=bool)
            member[heads] = False
            member[vs] = True
            return int(self._indeg[vs].sum()) - int(np.count_nonzero(member[heads]))
        rows = self._in_rows
        total = 0
        for v in S:
            row = rows[v]
            total += len(row) - len(S.intersection(row))
        return total

    def _shared(self, vs):
        # each arc from one id of vs to another, its head found by a binary
        # search among the sorted ids, is a link worth the hit it adds;
        # undirected, one of its two arcs is, worth both hits
        out = self._out
        heads = _heads(out, vs)
        a = np.repeat(np.arange(vs.size), out[0][vs + 1] - out[0][vs])  # each head's row
        order = np.argsort(vs)
        at = np.searchsorted(vs, heads, sorter=order)
        np.minimum(at, vs.size - 1, out=at)
        b = order[at]
        inside = vs[b] == heads
        undirected = self._in is out
        if undirected:
            inside &= a < b
        a, b = a[inside], b[inside]
        link = np.arange(a.size)
        return (_held(np.concatenate([a, b]), np.concatenate([link, link]), vs.size),
                [2 if undirected else 1] * a.size)


class _CutState(_VectorState):
    """Cut in either direction: a boolean membership mask of S and
    ``hits[v] = |in(v) & S| + |out(v) & S|``, numpy arrays over the nodes,
    and the integer cut value ``total``. Adding ``e`` outside S gains the
    arcs into e from outside S and loses the arcs from e into S, so the gain
    is indeg(e) - hits[e]; undirected, in(v) = out(v) = N(v)."""

    __slots__ = ("_oracle", "_member", "_hits", "total")

    def __init__(self, oracle: CutOracle):
        self._oracle = oracle
        self._member = np.zeros(oracle.n, dtype=bool)
        self._hits = np.zeros(oracle.n, dtype=np.int64)
        self.total = 0

    def marginal(self, e, f_S):
        # raw() of one id, read without a numpy call
        e = _check_id(e, self._oracle.n)
        gain = 0 if self._member[e] else self._oracle._indeg.item(e) - self._hits.item(e)
        self._oracle.counter.bump()
        return (self.total + gain) - f_S

    def raw(self, vs):
        gain = self._oracle._indeg[vs] - self._hits[vs]
        gain[self._member[vs]] = 0
        return gain

    def add(self, e):
        oracle, hits = self._oracle, self._hits
        e = _check_id(e, oracle.n)
        if self._member[e]:
            return
        self._member[e] = True
        self.total += oracle._indeg.item(e) - hits.item(e)
        if oracle._in is oracle._out:  # undirected: each neighbour is hit both ways
            hits[_row(oracle._out, e)] += 2
        else:
            hits[_row(oracle._out, e)] += 1
            hits[_row(oracle._in, e)] += 1

    def extend(self, vs):
        # one by one, each arc between two of the ids takes a hit off the
        # gain of the later one: count the heads of their out-rows that the
        # members gain when they join
        oracle, member, hits = self._oracle, self._member, self._hits
        vs = _distinct(vs[~member[vs]])
        heads = _heads(oracle._out, vs)
        inner = -np.count_nonzero(member[heads])
        gain = self.raw(vs).sum()
        member[vs] = True
        inner += np.count_nonzero(member[heads])
        self.total += int(gain - inner)
        if oracle._in is oracle._out:
            np.add.at(hits, heads, 2)
        else:
            np.add.at(hits, heads, 1)
            np.add.at(hits, _heads(oracle._in, vs), 1)

    @staticmethod
    def _worth(arcs):
        return arcs


class LiveEdgeSamplePool:
    """Frozen collection of live-edge subgraphs for cascade estimation.

    Each stored edge of the source graph survives independently with
    probability ``p``, sampled once at construction; averaging the size of
    the set reachable from the seeds over the ``m`` samples gives a
    deterministic Monte Carlo estimate of expected spread.

    The samples are stacked into one graph of ``m * n`` nodes: node ``v`` of
    sample ``i`` is node ``i * n + v``. Undirected pools keep its connected
    components: ``roots[i, v]`` is the id of node ``v``'s component in
    sample ``i``, its smallest node plus ``i * n``; ``sizes[c]`` is the size
    of component ``c`` (zero for ids that name no component); ``reach[v]``
    sums ``v``'s component sizes over the samples, so ``reach[v] / m`` is
    the spread of ``{v}``. They also keep each id's short key row, as CSR
    arrays ``key_rows = (starts, entries)``, each entry a ``(key, worth)``
    pair (see ``_key_rows``): the samples where ``v`` is alone make one
    entry, worth their count, and each of its components of two or more
    nodes one entry, worth its size. A row holds from one entry to ``m``;
    with few live edges most nodes are alone in most samples, and the rows
    are far shorter than ``m``. Directed pools keep its live arcs instead,
    as CSR rows ``arcs = (indptr, heads)`` over the stacked nodes.
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
        # the least the pool takes per stacked node (8 + 8 + 1 bytes): a row
        # start, a bincount and a visited mark directed, an id, a size and an
        # edge mark undirected; undirected, its key rows take at least one
        # entry (a key and a worth) and a row start per node (8 + 8 + 8)
        need = 17 * m * graph.n + (0 if graph.directed else 24 * graph.n)
        if need > _physical_memory():
            raise InputError(f"sample count m = {m} needs at least {need} bytes of memory, "
                             f"more than this host has")
        self.n, self.directed = graph.n, graph.directed
        self.p, self.m, self.seed = float(p), m, seed
        edges = graph.edge_array()
        rng = np.random.default_rng(seed)
        # one draw per sample, never an m x E matrix
        live = np.concatenate([edges[np.flatnonzero(rng.random(len(edges)) < p)] + i * self.n
                               for i in range(m)])
        size = m * self.n
        if self.directed:
            tails = live[:, 0]
            indptr = np.zeros(size + 1, dtype=np.int64)
            np.cumsum(np.bincount(tails, minlength=size), out=indptr[1:])
            self.arcs = indptr, live[np.argsort(tails, kind="stable"), 1]
            return
        labels = np.arange(size, dtype=np.int64)
        on_edge = _components(labels, live)
        self.roots = labels.reshape(m, self.n)
        self.sizes = np.bincount(labels, minlength=size)
        self.key_rows = _key_rows(self.roots, self.sizes, on_edge.reshape(m, self.n))
        starts, entries = self.key_rows
        self.reach = np.add.reduceat(entries[:, 1], starts[:-1])

    def mean_reach(self, S) -> float:
        """Average number of nodes reachable from S, distinct ids in
        ``[0, n)``, across the samples. Directed, one breadth-first search
        over the stacked samples from the ``m`` copies of S, level by level."""
        vs = list(S)
        if not self.directed:
            roots = self.roots[:, vs]
            if len(vs) > 1:  # one node's roots differ across samples already
                roots = _distinct(roots)
            return int(self.sizes[roots].sum()) / self.m
        # an empty list would broadcast as floats
        frontier = (np.arange(self.m)[:, None] * self.n + np.array(vs, dtype=np.intp)).ravel()
        visited = np.zeros(self.m * self.n, dtype=bool)
        visited[frontier] = True
        total = frontier.size
        while frontier.size:
            heads = _heads(self.arcs, frontier)
            frontier = _distinct(heads[~visited[heads]])
            visited[frontier] = True
            total += frontier.size
        return total / self.m


def _components(labels, edges):
    """``labels`` (an ``arange``) set in place to each node's smallest
    connected node over the (E, 2) ``edges``: hook the larger label of each
    edge whose ends differ onto the smaller, then jump pointers until every
    label is a root (Shiloach and Vishkin, 1982). Only nodes on an edge ever
    leave their own label, so only they jump. Returns the mask of those
    nodes: the nodes whose component has two or more."""
    on_edge = np.zeros(labels.size, dtype=bool)
    on_edge[edges] = True
    ids = np.flatnonzero(on_edge)
    u, v = edges.T
    while True:
        lu, lv = labels[u], labels[v]
        cross = lu != lv
        if not cross.any():
            return on_edge
        u, v, lu, lv = u[cross], v[cross], lu[cross], lv[cross]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            cur = labels[ids]
            up = labels[cur]
            if np.array_equal(up, cur):
                break
            labels[ids] = up


def _key_rows(roots, sizes, shared):
    """The short key rows of an undirected pool's ids, as CSR arrays
    ``(starts, entries)``: row ``v`` is ``entries[starts[v]:starts[v + 1]]``,
    one ``(key, worth)`` pair a line. ``shared[i, v]`` marks node ``v`` of
    sample ``i`` when its component has two or more nodes. The samples where
    ``v`` is alone make one entry, first in the row: the key of the first of
    them, worth their count. Each of ``v``'s larger components follows,
    sample by sample, worth its size. Besides a byte per stacked node, every
    temporary has one item per shared stacked node, as the rows do."""
    m, n = roots.shape
    by_id = shared.T.copy()
    at = np.flatnonzero(by_id)  # v * m + i: id by id, then sample by sample
    v = at // m
    joined = np.bincount(v, minlength=n)  # the samples where v is not alone
    lone = joined < m
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(joined + lone, out=starts[1:])
    entries = np.empty((starts.item(-1), 2), dtype=np.int64)
    keys, worths = entries.T
    ids = np.flatnonzero(lone)
    first = starts[ids]
    keys[first] = by_id.argmin(axis=1)[ids] * n + ids  # the first sample alone
    worths[first] = m - joined[ids]
    rest = np.arange(at.size) + np.cumsum(lone)[v]  # past the lone entries up to v
    shared_keys = roots.ravel()[(at - v * m) * n + v]
    keys[rest] = shared_keys
    worths[rest] = sizes[shared_keys]
    return starts, entries


def _distinct(a):
    """Distinct values of a non-negative integer array. ``np.unique`` would
    import ``numpy.ma`` on first use, about 1 MB of resident memory."""
    r = np.sort(a, axis=None)
    fresh = np.empty(r.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(r[1:], r[:-1], out=fresh[1:])
    return r[fresh]


class InfluenceOracle(Oracle):
    """Deterministic spread estimate over a frozen live-edge sample pool.

    Undirected, its states are cover states over the pool's components:
    the batched hooks read an id's ``m`` roots, the scalar ones its short
    key row (``pool.key_rows``). Directed, it answers through ``EvalState``,
    each gain a breadth-first search of ``mean_reach``."""

    kind = "influence"

    def __init__(self, pool: LiveEdgeSamplePool):
        super().__init__(pool.n)
        self.pool = pool
        if not pool.directed:
            self._weight, self._divisor = pool.sizes, pool.m
        self._links = None  # the last links a state asked, see _VectorState.links

    def state(self):
        return EvalState(self) if self.pool.directed else _CoverState(self)

    def _value(self, S):
        return self.pool.mean_reach(S)

    def _reach(self, vs):
        return self.pool.reach[vs]

    def _rows(self, vs):
        # id by id, the roots of one id m apart; samples never share a root
        m = self.pool.m
        return self.pool.roots.T[vs].ravel(), np.arange(0, vs.size * m, m)

    def _cover(self, e, covered, commit: bool) -> int:
        # e's short key row stands for its m keys: the one-node components
        # it collapses are covered exactly when e is in the set
        starts, entries = self.pool.key_rows
        gain = 0
        for key, worth in entries[starts.item(e):starts.item(e + 1)].tolist():
            if not covered.item(key):
                gain += worth
        if commit:
            covered[self.pool.roots[:, e]] = True
        return gain

    def _shared(self, vs):
        # only a component of two or more nodes can have two distinct ids
        keys = self._rows(vs)[0]
        at = np.flatnonzero(self.pool.sizes[keys] > 1)
        return _linked(keys[at], at // self.pool.m, vs.size)


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
    """Wrap an arbitrary set function; normalizes by subtracting f(empty).

    The function gets a frozenset built from the ids in ascending order, so
    its iteration order depends only on the members: a function that sums
    floats in iteration order gets the same bits for the same set however
    the caller built it."""

    def __init__(self, n: int, fn, kind: str = "custom"):
        super().__init__(n)
        self.kind = kind
        self._fn = fn
        self._offset = float(fn(frozenset()))

    def _value(self, S):
        return self._fn(frozenset(sorted(S))) - self._offset


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
