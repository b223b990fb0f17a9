"""Downstream heuristics run on pruned or full ground sets.

``greedy_cardinality`` and ``greedy_knapsack`` are lazy (priority-queue)
greedy implementations; stale heap keys are upper bounds on true marginals
for submodular objectives, so re-verifying the top of the heap before each
commit reproduces the naive greedy selection exactly, including id-order
tie-breaking. Both start from one ``singletons`` batch of f({v}) values,
and keep the solution in the oracle's per-caller state, so re-verifying a
stale key does not rescan the solution where the oracle has incremental
statistics. ``greedy_cardinality`` heaps every element. ``greedy_knapsack``
sorts the feasible elements once by singleton ratio, keeps only
re-evaluated entries in its heap, takes the smaller head of the two, and
stops as soon as the cheapest feasible element no longer fits the
remaining budget, which drops no candidate that could still be committed.
Costs are read in one batch per solve (``checked_costs``), from the cost
vector when the cost function carries one. ``brute_force_opt`` is the
exhaustive verification oracle used to check retention guarantees at desk
scale. Costs must be positive (NaN is refused) in every solver that takes
a cost function.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import InputError, checked_costs, require_finite
from .objectives import oracle_singletons, oracle_state

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
    naive greedy whenever the oracle is submodular.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    ids = sorted(set(U))
    start_calls = oracle.query_count
    chosen = set()
    value = 0.0
    if k > 0 and ids:
        # Heap entries are (-gain, id, stamp); an entry is fresh iff its
        # stamp equals the current solution size.
        heap = [(-f, v, 0) for f, v in zip(oracle_singletons(oracle, ids), ids)]
        heapq.heapify(heap)
        st = oracle_state(oracle)
        while heap and len(chosen) < k:
            neg_gain, v, stamp = heapq.heappop(heap)
            if stamp == len(chosen):
                chosen.add(v)
                st.add(v)
                value += -neg_gain
            else:
                gain = st.marginal(v, value)
                heapq.heappush(heap, (-gain, v, len(chosen)))
    final_value = oracle.eval(chosen) if chosen else 0.0
    return Solution(
        ids=frozenset(chosen),
        value=final_value,
        cost=float(len(chosen)),
        oracle_calls=oracle.query_count - start_calls,
    )


def greedy_knapsack(oracle, cost_fn, U, kappa: float) -> Solution:
    """Budgeted greedy: cost-benefit selection compared against the best
    feasible singleton, returning whichever scores higher.

    The density pass lazily commits the element with the best fresh
    gain-to-cost ratio that still fits the remaining budget; elements that
    stop fitting are dropped for good since the remaining budget only
    shrinks. The candidates come in ``(-gain / cost, id)`` order from two
    sources: the feasible elements sorted once by their singleton ratios,
    and a heap that holds only re-evaluated entries. The pass stops once
    even the cheapest feasible element no longer fits: every later
    candidate would be dropped without a query.
    """
    require_finite(kappa=kappa)
    if kappa <= 0:
        raise InputError("kappa must be positive")
    ids = sorted(set(U))
    start_calls = oracle.query_count
    all_costs = np.array(checked_costs(cost_fn, ids), dtype=np.float64)
    keep = np.flatnonzero(all_costs <= kappa)
    feasible = [ids[i] for i in keep.tolist()]
    costs = all_costs[keep].tolist()
    chosen = set()
    value = 0.0
    spent = 0.0
    if feasible:
        singles = oracle_singletons(oracle, feasible)
        # candidates are (ratio, j, stamp, gain) for feasible[j]; j rises
        # with the id, and an entry is fresh iff its stamp is len(chosen)
        ratios = [-f / c for f, c in zip(singles, costs)]
        seed = iter(np.argsort(ratios, kind="stable").tolist())
        head = next(seed, None)
        heap = []
        st = oracle_state(oracle)
        c_min = min(costs)
        while spent + c_min <= kappa:
            # the two sources never hold the same j, so (ratio, j) decides
            if head is not None and not (heap and heap[0] < (ratios[head], head)):
                j, stamp, gain = head, 0, singles[head]
                head = next(seed, None)
            elif heap:
                _, j, stamp, gain = heapq.heappop(heap)
            else:
                break
            c = costs[j]
            if spent + c > kappa:
                continue
            if stamp == len(chosen):
                chosen.add(feasible[j])
                st.add(feasible[j])
                value += gain
                spent += c
            else:
                gain = st.marginal(feasible[j], value)
                heapq.heappush(heap, (-gain / c, j, len(chosen), gain))
        # the first best singleton, when it beats the density pass and zero
        best = max(range(len(feasible)), key=singles.__getitem__)
        if singles[best] > max(value, 0.0):
            chosen = {feasible[best]}
            spent = costs[best]
    final_value = oracle.eval(chosen) if chosen else 0.0
    return Solution(
        ids=frozenset(chosen),
        value=final_value,
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
