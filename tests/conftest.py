"""Shared instance generators and independent reference implementations.

The references here deliberately stay naive (direct set enumeration, plain
definitions) so they can serve as oracles for the optimized library code.
"""

from __future__ import annotations

import heapq
import io
import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import strategies as st

import setprune as sp
from setprune import pruning
from setprune.errors import InputError, ParseError, checked_costs
from setprune.objectives import oracle_state


# ---------------------------------------------------------------------------
# reference objective implementations (set-based, straight from definitions)

def ref_coverage(graph, S):
    covered = set(int(v) for v in S)
    for v in S:
        covered.update(int(u) for u in graph.neighbors(v))
    return len(covered)


def ref_cut(graph, S):
    inside = set(int(v) for v in S)
    total = 0
    for u, v in graph.edge_array():
        u, v = int(u), int(v)
        if graph.directed:
            total += (v in inside) and (u not in inside)
        else:
            total += (u in inside) != (v in inside)
    return total


def ref_simcut(matrix, query_ids, lam, S):
    """Ordered pairs including the diagonal, via explicit double loops."""
    S = sorted(S)
    reward = 0.0
    for q in query_ids:
        for j in S:
            reward += matrix[q][j]
    penalty = 0.0
    for i in S:
        for j in S:
            penalty += matrix[i][j]
    return lam * reward - penalty


def ref_parse_edge_list(data: bytes, directed: bool):
    """(sorted original ids, neighbour lists over dense ids) of an edge-list
    file read line by line in text mode: UTF-8, universal newlines, ``#``
    comments, two ``int()`` ids in [0, 2^63) per other non-blank line.
    Raises ParseError at the first bad line; a byte that is not UTF-8 makes
    its own line bad."""
    try:
        data.decode("utf-8")
        undecodable = False
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        data = data[:max(head.rfind(b"\n"), head.rfind(b"\r")) + 1]
        undecodable = True
    edges = []
    line_no = 0
    for line_no, line in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
                                   start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError("expected two ids", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("non-integer id", line_no) from None
        if not (0 <= u < 2**63 and 0 <= v < 2**63):
            raise ParseError("id out of range", line_no)
        edges.append((u, v))
    if undecodable:
        raise ParseError("not UTF-8", line_no + 1)
    ids = sorted({x for edge in edges for x in edge})
    dense = {x: i for i, x in enumerate(ids)}
    nbrs = [set() for _ in ids]
    for u, v in edges:
        if u != v:
            nbrs[dense[u]].add(dense[v])
            if not directed:
                nbrs[dense[v]].add(dense[u])
    return ids, [sorted(row) for row in nbrs]


def ref_live_edges(graph, pool):
    """The live-edge arrays of ``pool``, one per sample, drawn again from
    ``graph`` with the pool's seed the way the pool draws them."""
    edges = graph.edge_array()
    rng = np.random.default_rng(pool.seed)
    return [edges[rng.random(len(edges)) < pool.p] if len(edges) else edges
            for _ in range(pool.m)]


def ref_components(graph, pool):
    """Per sample, each node's component root in a union-find over the
    sample's live edges (``ref_live_edges``): the sample's own node ids,
    not offset, in whatever order the unions leave them."""
    out = []
    for live in ref_live_edges(graph, pool):
        parent = list(range(pool.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in live.tolist():
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
        out.append([find(v) for v in range(pool.n)])
    return out


def ref_influence(graph, pool, S):
    """Spread estimate of ``pool`` over ``graph``: a BFS from S over each
    sample's live edges, both ways on an undirected graph."""
    total = 0
    for live in ref_live_edges(graph, pool):
        adj = {}
        for u, v in live.tolist():
            adj.setdefault(u, []).append(v)
            if not pool.directed:
                adj.setdefault(v, []).append(u)
        visited = set(S)
        stack = list(S)
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in visited:
                    visited.add(w)
                    stack.append(w)
        total += len(visited)
    return total / pool.m


# ---------------------------------------------------------------------------
# edge-list and id files for the ingest differential and the CLI fuzz

_IDS = st.one_of(st.integers(0, 40).map(str), st.integers(0, 10**18 - 1).map(str),
                 st.integers(0, 99).map("{:05d}".format))
# ids that int() reads but the numpy path leaves to the line loop
_ODD_IDS = st.sampled_from(["+5", "1_0", "\u0663", "\uff17", "9" * 19, str(2**63 - 1)])
_BAD_IDS = st.sampled_from(["-3", "x", "1.5", "0x1", "#", str(2**63), str(10**25)])
_BLANKS = st.sampled_from([" ", "\t", "  ", " \t "])
# blanks to str.split() but no line breaks to text mode
_ODD_BLANKS = st.sampled_from(["\u00a0", "\u2003", "\u3000", "\u2028", "\x0b", "\x0c",
                               "\x1c", "\x85"])
_ENDINGS = st.sampled_from(["\n", "\r\n"])
_NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])
ODDITIES = ("ids", "bad_ids", "blanks", "cr", "comments", "widths", "bytes")


@st.composite
def line_file_bytes(draw, width=2, oddities=ODDITIES):
    """Contents of a line-oriented input file: lines of ``width`` ids (an
    edge list at 2, an id file at 1), blank lines and, last, maybe no line
    break. With no ``oddities`` it holds only what the numpy edge-list path
    must accept: ASCII digits, spaces and tabs, LF or CRLF, ids of at most
    18 digits. Otherwise each file draws which of these it may also hold:
    ids in other forms that ``int()`` reads, tokens that are no ids, Unicode
    blanks, lone CRs (a line break to text mode), comments, lines of other
    widths, and bytes that are not UTF-8."""
    odd = draw(st.sets(st.sampled_from(oddities))) if oddities else set()
    ids = st.one_of(_IDS, *[s for key, s in (("ids", _ODD_IDS), ("bad_ids", _BAD_IDS))
                            if key in odd])
    blanks = st.one_of(_BLANKS, _ODD_BLANKS) if "blanks" in odd else _BLANKS
    endings = _ENDINGS
    if "cr" in odd:
        blanks = st.one_of(blanks, st.just("\r"))
        endings = st.sampled_from(["\n", "\r\n", "\r", "\r\r\n"])
    widths = range(2 * width + 1) if "widths" in odd else [width, width, 0]
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if "comments" in odd and draw(st.integers(0, 4)) == 0:
            body = "#" + draw(st.text(max_size=6))
        else:
            tokens = [draw(ids) for _ in range(draw(st.sampled_from(widths)))]
            body = draw(blanks).join(tokens)
            if draw(st.booleans()):
                body = draw(blanks) + body + draw(blanks)
        lines.append(body + draw(endings))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    data = "".join(lines).encode("utf-8")
    return with_byte_not_utf8(draw, data) if "bytes" in odd else data


def with_byte_not_utf8(draw, data: bytes) -> bytes:
    """``data`` with a byte sequence that is not UTF-8 drawn in somewhere."""
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(_NOT_UTF8) + data[at:]


# ---------------------------------------------------------------------------
# oracle wrappers

class PlainOracle:
    """Forwards eval and marginal only, so callers fall back to EvalState."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n

    def eval(self, S):
        return self.inner.eval(S)

    def marginal(self, e, S, f_S):
        return self.inner.marginal(e, S, f_S)

    @property
    def query_count(self):
        return self.inner.query_count


# ---------------------------------------------------------------------------
# naive solvers

def naive_greedy_cardinality(oracle, U, k):
    """Naive greedy: each round evaluates every remaining element afresh and
    commits the best, ties to the smaller id; it stops early when even the
    best gain is negative."""
    chosen = set()
    value = 0.0
    pool = sorted(set(U))
    for _ in range(min(k, len(pool))):
        best_gain, best_v = None, None
        for v in pool:
            if v in chosen:
                continue
            gain = oracle.eval(chosen | {v}) - value
            if best_gain is None or gain > best_gain:
                best_gain, best_v = gain, v
        if best_gain < 0:
            break
        chosen.add(best_v)
        value += best_gain
    return chosen, value


def ref_greedy_cardinality(oracle, U, k):
    """The lazy size-constrained greedy with every element in one heap of
    ``(-gain, id, stamp)`` entries, stopping at the first fresh negative
    gain: the pop order and query count that ``greedy_cardinality`` must
    reproduce."""
    ids = sorted(set(U))
    start_calls = oracle.query_count
    chosen = set()
    value = 0.0
    if k > 0 and ids:
        # an entry is fresh iff its stamp equals the current solution size
        st = oracle_state(oracle)
        heap = [(-f, v, 0) for f, v in zip(st.gains(ids, 0.0), ids)]
        heapq.heapify(heap)
        while heap and len(chosen) < k:
            neg_gain, v, stamp = heapq.heappop(heap)
            if stamp == len(chosen):
                if -neg_gain < 0:
                    break
                chosen.add(v)
                st.add(v)
                value += -neg_gain
            else:
                gain = st.marginal(v, value)
                heapq.heappush(heap, (-gain, v, len(chosen)))
    final_value = oracle.eval(chosen) if chosen else 0.0
    return sp.Solution(ids=frozenset(chosen), value=final_value, cost=float(len(chosen)),
                       oracle_calls=oracle.query_count - start_calls)


def ref_greedy_knapsack(oracle, cost_fn, U, kappa):
    """The lazy knapsack greedy with every feasible element in one heap and
    no early exit but the first fresh negative gain: the pop order and query
    count that ``greedy_knapsack`` must reproduce."""
    ids = sorted(set(U))
    start_calls = oracle.query_count
    costs = {v: c for v, c in zip(ids, map(float, checked_costs(cost_fn, ids))) if c <= kappa}
    feasible = list(costs)
    chosen = set()
    value = 0.0
    spent = 0.0
    best_single = None
    best_single_value = 0.0
    if feasible:
        heap = []
        st = oracle_state(oracle)
        for v, f_single in zip(feasible, st.gains(feasible, 0.0)):
            if f_single > best_single_value:
                best_single = v
                best_single_value = f_single
            heap.append((-f_single / costs[v], v, 0, f_single))
        heapq.heapify(heap)
        while heap:
            _, v, stamp, gain = heapq.heappop(heap)
            if spent + costs[v] > kappa:
                continue
            if stamp == len(chosen):
                if gain < 0:
                    break
                chosen.add(v)
                st.add(v)
                value += gain
                spent += costs[v]
            else:
                gain = st.marginal(v, value)
                heapq.heappush(heap, (-gain / costs[v], v, len(chosen), gain))
    if best_single is not None and best_single_value > value:
        chosen = {best_single}
        spent = costs[best_single]
    final_value = oracle.eval(chosen) if chosen else 0.0
    return sp.Solution(ids=frozenset(chosen), value=final_value, cost=spent,
                       oracle_calls=oracle.query_count - start_calls)


def exhaustive_best(oracle, cost_fn, U, kappa):
    """Independent exhaustive maximizer over all subsets (no pruning tricks)."""
    ids = sorted(set(U))
    best_val, best_set = 0.0, frozenset()
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            if sum(cost_fn(v) for v in combo) <= kappa:
                val = oracle.eval(set(combo))
                if val > best_val:
                    best_val, best_set = val, frozenset(combo)
    return best_set, best_val


# ---------------------------------------------------------------------------
# the element-by-element pruning pass

def ref_prune(stream, oracle, cost_fn, rungs, n):
    """The element-by-element pass that ``pruning._prune`` must reproduce,
    outputs, events and query counts alike: no screen, every element goes
    through every rung's query and apply steps, and each block's singleton
    values come in one ``gains(ids, 0.0)`` batch on an empty state."""
    if n < 1:
        raise InputError("ground-set size n must be >= 1")
    if rungs[0].epsilon >= n:
        raise InputError("epsilon must be smaller than the ground-set size")
    start = time.monotonic()
    calls_before = oracle.query_count
    per_rung = [(params, pruning.SinglePrunerState()) for params in rungs]
    top = max(params.kappa for params in rungs)
    stream = iter(stream)
    while block := list(itertools.islice(stream, pruning._BLOCK)):
        costs = checked_costs(cost_fn, block)
        singles = iter(oracle_state(oracle).gains(
            [e for e, cost in zip(block, costs) if cost <= top], 0.0))
        for e, cost in zip(block, costs):
            f_single = next(singles) if cost <= top else None
            answers = {}
            admitted = []
            for params, state in per_rung:
                state.processed += 1
                if cost <= params.kappa:
                    admitted.append((params, state,
                                     pruning._gain(state, oracle, e, f_single, answers)))
            for params, state, gain in admitted:
                pruning._apply(state, oracle, params, n, state.processed - 1, e, cost, gain,
                               f_single)
    union = set()
    sizes = {}
    events = []
    deletions = 0
    for params, state in per_rung:
        out = state.pruned_set()
        sizes[params.kappa] = len(out)
        union |= out
        deletions += state.deletions
        events.extend(state.events)
    report = pruning.PruneReport(
        pruned=frozenset(union),
        oracle_calls=oracle.query_count - calls_before,
        deletions=deletions,
        per_budget_sizes=sizes,
        elapsed=time.monotonic() - start,
        n=n,
        events=events,
    )
    return union, report, [state for _, state in per_rung]


# ---------------------------------------------------------------------------
# instance generators

def random_graph(n, p, seed):
    return sp.generate("erdos_renyi", n, {"p": p}, seed=seed)


def random_costs(n, lo, hi, seed):
    rng = random.Random(seed)
    costs = [rng.uniform(lo, hi) for _ in range(n)]

    def fn(v):
        return costs[v]

    return costs, fn


def unit_cost(v):
    return 1.0


def random_similarity_kernel(n_queries, n_candidates, seed, lam=10.0,
                             cand_lo=0.01, cand_hi=0.10, query_lo=0.3, query_hi=0.9):
    """Kernel whose objective is guaranteed monotone submodular.

    Candidate-candidate similarities stay small and strictly positive while
    query-candidate similarities are large, so adding any candidate always
    helps and marginals strictly shrink as the set grows.
    """
    rng = random.Random(seed)
    size = n_queries + n_candidates
    s = [[0.0] * size for _ in range(size)]
    for i in range(size):
        s[i][i] = 1.0
    for i in range(size):
        for j in range(i + 1, size):
            if i < n_queries and j < n_queries:
                val = rng.uniform(0.0, 0.2)
            elif i < n_queries:
                val = rng.uniform(query_lo, query_hi)
            else:
                val = rng.uniform(cand_lo, cand_hi)
            s[i][j] = s[j][i] = val
    kernel = sp.SimilarityKernel(np.array(s), range(n_queries), lam=lam)
    return kernel, s


def oracle_families(n, seed):
    """One oracle per bundled family on comparable random instances."""
    graph = random_graph(n, 0.35, seed)
    pool = sp.LiveEdgeSamplePool(graph, p=0.4, m=24, seed=seed + 1)
    kernel, _ = random_similarity_kernel(2, n, seed + 2)
    return {
        "coverage": sp.CoverageOracle(graph),
        "cut": sp.CutOracle(graph),
        "influence": sp.InfluenceOracle(pool),
        "simgraphcut": sp.SimilarityCutOracle(kernel),
    }


@pytest.fixture
def star6():
    return sp.generate("star", 6)


@pytest.fixture
def triangle():
    return sp.from_edges(3, [(0, 1), (1, 2), (0, 2)])
