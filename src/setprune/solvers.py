"""Downstream heuristics run on pruned or full ground sets.

``greedy_cardinality`` and ``greedy_knapsack`` share one lazy
(priority-queue) greedy loop, ``_density_pass``; the size-constrained
greedy is that pass with every cost 1.0 and budget ``k``. Stale heap keys
are upper bounds on true marginals for submodular objectives, so
re-verifying the top of the heap before each commit reproduces the naive
greedy selection exactly, including id-order tie-breaking. The solution
lives in the oracle's per-caller state, so re-verifying a stale key does
not rescan it where the oracle has incremental statistics; the state's
``gains(ids, 0.0)`` batch seeds the pass with every singleton value. A pass
stops at a fresh negative gain, which only a non-monotone objective gives,
so no solution is worth less than the empty set. Costs are read
in one batch per solve (``checked_costs``), from the cost vector when the
cost function carries one, and must be positive (NaN is refused) in every
solver that takes a cost function. ``brute_force_opt`` is the exhaustive
verification oracle used to check retention guarantees at desk scale.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InputError, checked_costs, require_finite
from .objectives import oracle_state

__all__ = [
    "Solution",
    "greedy_cardinality",
    "greedy_knapsack",
    "brute_force_opt",
    "cardinality_solver",
    "knapsack_solver",
]


@dataclass(frozen=True)
class Solution:
    """A feasible solution with its value, cost and query bill."""

    ids: frozenset
    value: float
    cost: float
    oracle_calls: int

    def to_json_dict(self) -> dict:
        return {
            "ids": sorted(self.ids),
            "value": self.value,
            "cost": self.cost,
            "oracle_calls": self.oracle_calls,
        }


def greedy_cardinality(oracle, U, k: int) -> Solution:
    """Standard greedy under a size constraint, lazily evaluated.

    Selects up to ``k`` elements, each round committing the element with the
    largest fresh marginal gain, ties going to the smaller id. Equivalent to
    naive greedy whenever the oracle is submodular. This is the density pass
    of ``greedy_knapsack`` with every cost 1.0 and budget ``k``.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise InputError(f"k must be an integer, got {k!r}") from None
    if k < 0:
        raise InputError("k must be non-negative")
    ids = sorted(set(U))
    start_calls = oracle.query_count
    chosen, _, spent, _ = _density_pass(oracle, ids, [1.0] * len(ids), k)
    return _solution(oracle, chosen, spent, start_calls)


def greedy_knapsack(oracle, cost_fn, U, kappa: float) -> Solution:
    """Budgeted greedy: cost-benefit selection compared against the best
    feasible singleton, returning whichever scores higher."""
    require_finite(kappa=kappa)
    if kappa <= 0:
        raise InputError("kappa must be positive")
    ids = sorted(set(U))
    start_calls = oracle.query_count
    all_costs = np.array(checked_costs(cost_fn, ids), dtype=np.float64)
    keep = np.flatnonzero(all_costs <= kappa)
    feasible = [ids[i] for i in keep.tolist()]
    costs = all_costs[keep].tolist()
    chosen, value, spent, singles = _density_pass(oracle, feasible, costs, kappa)
    if singles:
        # the first best singleton, when it beats the density pass and zero
        best = max(range(len(feasible)), key=singles.__getitem__)
        if singles[best] > max(value, 0.0):
            chosen = {feasible[best]}
            spent = costs[best]
    return _solution(oracle, chosen, spent, start_calls)


def _density_pass(oracle, ids, costs, budget):
    """Lazy cost-benefit greedy over the sorted ``ids`` with positive
    ``costs``: ``(chosen, value, spent, singles)``, where ``singles`` are
    the f({v}) values of ``ids``. Nothing is asked when no element fits.

    Each step commits the element with the best fresh gain-to-cost ratio
    that still fits the remaining budget; elements that stop fitting are
    dropped for good since the remaining budget only shrinks. The
    candidates come in ``(-gain / cost, id)`` order from two sources: the
    elements sorted once by their singleton ratios, and a heap that holds
    only re-evaluated entries. The pass stops once even the cheapest
    element no longer fits: every later candidate would be dropped without
    a query. It also stops at the first fresh candidate whose gain is
    negative, which only a non-monotone objective can give: committing it
    would lose value, and for a submodular one no later candidate gains
    more. Zero gains are still committed.
    """
    c_min = min(costs, default=math.inf)
    if c_min > budget:
        return set(), 0.0, 0.0, []
    st = oracle_state(oracle)
    singles = st.gains(ids, 0.0)
    # candidates are (ratio, j, stamp, gain) for ids[j]; j rises with the
    # id, and an entry is fresh iff its stamp is len(chosen)
    ratios = [-f / c for f, c in zip(singles, costs)]
    seed = iter(np.argsort(ratios, kind="stable").tolist())
    head = next(seed, None)
    heap = []
    chosen = set()
    value = 0.0
    spent = 0.0
    while spent + c_min <= budget:
        # the two sources never hold the same j, so (ratio, j) decides
        if head is not None and not (heap and heap[0] < (ratios[head], head)):
            j, stamp, gain = head, 0, singles[head]
            head = next(seed, None)
        elif heap:
            _, j, stamp, gain = heapq.heappop(heap)
        else:
            break
        c = costs[j]
        if spent + c > budget:
            continue
        if stamp == len(chosen):
            if gain < 0:
                break
            chosen.add(ids[j])
            st.add(ids[j])
            value += gain
            spent += c
        else:
            gain = st.marginal(ids[j], value)
            heapq.heappush(heap, (-gain / c, j, len(chosen), gain))
    return chosen, value, spent, singles


def _solution(oracle, chosen, spent, start_calls) -> Solution:
    return Solution(
        ids=frozenset(chosen),
        value=oracle.eval(chosen) if chosen else 0.0,
        cost=spent,
        oracle_calls=oracle.query_count - start_calls,
    )


def brute_force_opt(oracle, cost_fn, U, kappa: float) -> Solution:
    """Exact maximizer by exhaustive subset enumeration with cost pruning.

    Enumerates every feasible subset once, in lexicographic order of sorted
    ids, so ties resolve deterministically to the first maximizer found.
    Capped at 22 elements.
    """
    require_finite(kappa=kappa)
    if kappa < 0:
        raise InputError("kappa must be non-negative")
    ids = sorted(set(U))
    if len(ids) > 22:
        raise InputError(f"exhaustive search capped at 22 elements, got {len(ids)}")
    start_calls = oracle.query_count
    elems = [(v, float(c)) for v, c in zip(ids, checked_costs(cost_fn, ids)) if c <= kappa]
    best_ids = frozenset()
    best_value = 0.0
    best_cost = 0.0
    current = set()

    def descend(i, cur_cost):
        nonlocal best_ids, best_value, best_cost
        for j in range(i, len(elems)):
            v, c = elems[j]
            if cur_cost + c > kappa:
                continue
            current.add(v)
            val = oracle.eval(current)
            if val > best_value:
                best_ids = frozenset(current)
                best_value = val
                best_cost = cur_cost + c
            descend(j + 1, cur_cost + c)
            current.remove(v)

    descend(0, 0.0)
    return Solution(
        ids=best_ids,
        value=best_value,
        cost=best_cost,
        oracle_calls=oracle.query_count - start_calls,
    )


def cardinality_solver(oracle, cost_fn, U, budget) -> Solution:
    """Uniform-signature adapter for size-constrained sweeps."""
    require_finite(budget=budget)
    return greedy_cardinality(oracle, U, int(budget))


def knapsack_solver(oracle, cost_fn, U, budget) -> Solution:
    """Uniform-signature adapter for knapsack sweeps."""
    return greedy_knapsack(oracle, cost_fn, U, float(budget))
