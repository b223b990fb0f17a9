"""Shared instance generators and independent reference implementations.

The references here deliberately stay naive (direct set enumeration, plain
definitions) so they can serve as oracles for the optimized library code.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

import setprune as sp


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
        chosen.add(best_v)
        value += best_gain
    return chosen, value


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
