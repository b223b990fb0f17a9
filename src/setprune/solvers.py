"""Downstream heuristics run on pruned or full ground sets.

``greedy_cardinality`` and ``greedy_knapsack`` share one lazy
(priority-queue) greedy loop, ``_density_pass``; the size-constrained
greedy is that pass with every cost 1.0 and budget ``k``. Stale heap keys
are upper bounds on true marginals for submodular objectives, so
re-verifying the top of the heap before each commit reproduces the naive
greedy selection exactly, including id-order tie-breaking. The solution
lives in the oracle's per-caller state, so re-verifying a stale key does
not rescan it where the oracle has incremental statistics. A pass stops at
a fresh negative gain, which only a non-monotone objective gives, so no
solution is worth less than the empty set.

Each solve builds its seed in numpy: the ids of ``U`` are checked once and
sorted without repeats into an array, the costs are read in one gather
(``cost_array``, from the cost vector when the cost function carries one)
and must be positive (NaN is refused), the state's ``gains(ids, 0.0)``
batch gives every singleton value, and one stable argsort of the
gain-to-cost ratios orders the seed. The lazy loop then reads only the
entries it reaches, as Python floats and ints, so a solution's ids are
Python ints and its value and cost Python floats whatever the type of
``U``. A set function that is NaN on a singleton is refused. Every solver
that takes a cost function refuses costs that are not positive.
``brute_force_opt`` is the exhaustive verification oracle used to check
retention guarantees at desk scale.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InputError, checked_costs, cost_array, require_finite
from .objectives import Oracle, _checked_array, _checked_ids, oracle_state

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
    ids = _ground(oracle, U)
    start_calls = oracle.query_count
    chosen, _, spent, _ = _density_pass(oracle, ids, np.ones(ids.size), k)
    return _solution(oracle, chosen, spent, start_calls)


def greedy_knapsack(oracle, cost_fn, U, kappa: float) -> Solution:
    """Budgeted greedy: cost-benefit selection compared against the best
    feasible singleton, returning whichever scores higher."""
    require_finite(kappa=kappa)
    if kappa <= 0:
        raise InputError("kappa must be positive")
    ids = _ground(oracle, U)
    start_calls = oracle.query_count
    costs = cost_array(cost_fn, ids)
    fits = costs <= kappa
    feasible, costs = ids[fits], costs[fits]
    chosen, value, spent, singles = _density_pass(oracle, feasible, costs, kappa)
    if singles.size:
        # the first best singleton, when it beats the density pass and zero
        best = int(singles.argmax())
        if singles.item(best) > max(value, 0.0):
            chosen = {feasible.item(best)}
            spent = costs.item(best)
    return _solution(oracle, chosen, spent, start_calls)


def _ground(oracle, U) -> np.ndarray:
    """The distinct ids of ``U``, ascending, as an intp array; InputError
    for an id that is not an integer in ``[0, oracle.n)``."""
    ids = np.sort(_checked_array(U, oracle.n))
    return ids[np.diff(ids, prepend=-1) != 0]


def _density_pass(oracle, ids, costs, budget):
    """Lazy cost-benefit greedy over the sorted id array ``ids`` with
    positive float64 ``costs``: ``(chosen, value, spent, singles)``, where
    ``singles`` is the float64 array of the f({v}) values of ``ids``.
    Nothing is asked when no element fits. InputError when some f({v}) is
    NaN.

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
    if not ids.size or (c_min := costs.min().item()) > budget:
        return set(), 0.0, 0.0, np.empty(0)
    st = oracle_state(oracle)
    singles = np.array(st.gains(ids, 0.0), dtype=np.float64)
    if np.isnan(singles).any():
        raise InputError("the set function is NaN on a singleton")
    # the same IEEE operations as -f / c on Python floats
    ratios = -singles / costs
    seed = np.argsort(ratios, kind="stable")
    # candidates are (ratio, j, stamp, gain) for ids[j]; j rises with the
    # id, and an entry is fresh iff its stamp is len(chosen)
    pos = 0  # seed[pos] heads the sorted source
    heap = []
    chosen = set()
    value = 0.0
    spent = 0.0
    while spent + c_min <= budget:
        head = seed.item(pos) if pos < seed.size else None
        # the two sources never hold the same j, so (ratio, j) decides
        if head is not None and not (heap and heap[0] < (ratios.item(head), head)):
            j, stamp, gain = head, 0, singles.item(head)
            pos += 1
        elif heap:
            _, j, stamp, gain = heapq.heappop(heap)
        else:
            break
        c = costs.item(j)
        if spent + c > budget:
            continue
        v = ids.item(j)
        if stamp == len(chosen):
            if gain < 0:
                break
            chosen.add(v)
            st.add(v)
            value += gain
            spent += c
        else:
            gain = st.marginal(v, value)
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
    Capped at 22 elements. The ids are checked once, before any query; each
    subset is one counted query, asked of an ``Oracle``'s ``_value``
    directly (as ``EvalState.gains`` does) and of a wrapper through its
    ``eval``.
    """
    require_finite(kappa=kappa)
    if kappa < 0:
        raise InputError("kappa must be non-negative")
    ids = sorted(_checked_ids(U, oracle.n, into=set))
    if len(ids) > 22:
        raise InputError(f"exhaustive search capped at 22 elements, got {len(ids)}")
    start_calls = oracle.query_count
    elems = [(v, float(c)) for v, c in zip(ids, checked_costs(cost_fn, ids)) if c <= kappa]
    if isinstance(oracle, Oracle):
        bump, value = oracle.counter.bump, oracle._value

        def evaluate(S):
            bump()
            return value(S)
    else:
        evaluate = oracle.eval
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
            val = evaluate(current)
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
