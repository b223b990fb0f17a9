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

A solve starts from a seed built in numpy: the ids of ``U`` are checked
once and sorted without repeats into an array, the costs are read in one
gather (``cost_array``, from the cost vector when the cost function
carries one) and must be positive (NaN is refused), one counted batch from
the empty state gives the singleton values of the ids that fit (a
``gather`` and a ``count`` where the state has them), and one stable
argsort of the gain-to-cost ratios orders them. A standalone solve builds
the seed for its own budget. A ground set that ``metrics.sweep_budgets``
hands in keeps the seed its first solve builds, over the ids that fit the
sweep's largest budget, for every later solve with the same oracle and
cost function: an entry whose cost is above a solve's budget is dropped
at its pop with no query, so the larger seed gives the steps a seed of
its own would. The lazy loop reads the sorted source in chunks of Python
lists and only as far as it gets, so a solution's ids are Python ints and
its value and cost Python floats whatever the type of ``U``. A candidate
is ``(ratio, id, stamp, gain, cost)``, in the source and on the heap
alike, so a heap pop reads no numpy scalar. A set function that is NaN on
a singleton is refused. Every solver that takes a cost function refuses
costs that are not positive.

The solves of a sweep's ground set share one pass (Minoux, 1978; CELF).
The pass to a budget ``b`` runs the same steps as the pass to a larger
budget ``B`` up to its first departure from it: a loop top where even the
cheapest entry no longer fits ``b`` (``spent + c_min > b``), where the
pass to ``b`` stops, or a pop that the pass to ``B`` takes and the pass to
``b`` skips (``spent + c`` in ``(b, B]``), after which it goes on alone.
So the first solve on a set's seed runs the pass to the sweep's largest
budget once and records a fork table: at each sweep budget's first
departure, the commits, value, cost and queries asked so far and, at a
pop, the heap and the source position. A solve takes its fork's commits,
or resumes the pass from its fork on a state rebuilt from them (one
``extend`` where the state has it) with no query. Under unit costs every
budget departs at a loop top, after its ``k``-th commit or where the
longer pass stops, so a size-constrained solve only reads its fork.

``Solution.oracle_calls`` is the standalone bill whether or not the seed
or the pass was shared: the singletons of the feasible ids, the marginals
its own loop asks and the final ``eval``. The oracle's ``query_count``
counts only the queries actually asked, so in a sweep it can be below the
bills' sum.

``brute_force_opt`` is the exhaustive verification oracle used to check
retention guarantees at desk scale.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
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
    of ``greedy_knapsack`` with every cost 1.0 and budget ``k``; the solves
    of one sweep set read their picks from the set's fork table.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise InputError(f"k must be an integer, got {k!r}") from None
    if k < 0:
        raise InputError("k must be non-negative")
    # a k past n changes nothing; the cap keeps it comparable with float64 costs
    k = min(k, oracle.n)
    seed, chosen, _, spent, asked = _greedy(oracle, None, U, k)
    return _solution(oracle, chosen, spent, _fitting(seed, k).size + asked)


def greedy_knapsack(oracle, cost_fn, U, kappa: float) -> Solution:
    """Budgeted greedy: cost-benefit selection compared against the best
    feasible singleton, returning whichever scores higher."""
    require_finite(kappa=kappa)
    if kappa <= 0:
        raise InputError("kappa must be positive")
    seed, chosen, value, spent, asked = _greedy(oracle, cost_fn, U, kappa)
    fit = _fitting(seed, kappa)
    if fit.size:
        # the first best singleton, when it beats the density pass and zero
        best = fit[seed.singles[fit].argmax()]
        if seed.singles.item(best) > max(value, 0.0):
            chosen = [seed.ids.item(best)]
            spent = seed.costs.item(best)
    return _solution(oracle, chosen, spent, fit.size + asked)


@dataclass(frozen=True, eq=False)
class _Seed:
    """What a solve reads before its lazy loop, for the ids of a ground set
    whose cost fits a budget: the ids ascending, their costs, their
    singleton values, the ratios ``-f / c``, the ratios' stable argsort
    ``order`` and the cheapest cost ``c_min`` (inf when no id fits). Built
    for one oracle and one cost function (None for unit costs)."""

    oracle: object
    cost_fn: object
    ids: np.ndarray
    costs: np.ndarray
    singles: np.ndarray
    ratios: np.ndarray
    order: np.ndarray
    c_min: float


class _SweepSet(frozenset):
    """A ground set of one sweep: a frozenset that keeps the sweep's
    ``budgets`` ascending, the seed its first solve builds over the ids
    whose cost fits ``reach``, the largest budget, and ``forks``, the fork
    table of one pass over that seed to ``reach``, which the first solve on
    the seed records."""

    __slots__ = ("budgets", "seed", "forks")

    def __new__(cls, ids, budgets):
        self = super().__new__(cls, ids)
        self.budgets = budgets
        self.seed = None
        self.forks = None
        return self

    @property
    def reach(self) -> float:
        return self.budgets[-1] if self.budgets else -math.inf


def _seed(oracle, cost_fn, U, budget) -> _Seed:
    """The seed of a solve of ``U`` at ``budget``: the one a sweep's set
    keeps, when it was built for this oracle and cost function and reaches
    ``budget``, else a new one over the ids that fit ``budget``."""
    if isinstance(U, _SweepSet) and budget <= U.reach:
        if U.seed is None:
            U.seed = _new_seed(oracle, cost_fn, U, U.reach)
        if U.seed.oracle is oracle and U.seed.cost_fn is cost_fn:
            return U.seed
    return _new_seed(oracle, cost_fn, U, budget)


def _new_seed(oracle, cost_fn, U, reach) -> _Seed:
    """Check the ids of ``U`` and sort them without repeats, read their
    costs in one gather (all 1.0 when ``cost_fn`` is None), keep the ids
    whose cost fits ``reach`` and ask their singleton values in one counted
    batch: a ``gather`` from the empty state and one ``count`` where the
    state has them, else ``gains``. Nothing is asked when none fits.
    InputError for an id that is not an integer in ``[0, oracle.n)``, a
    cost that is not positive, or a singleton value that is NaN."""
    ids = np.sort(_checked_array(U, oracle.n))
    ids = ids[np.diff(ids, prepend=-1) != 0]
    costs = np.ones(ids.size) if cost_fn is None else cost_array(cost_fn, ids)
    fits = costs <= reach
    ids, costs = ids[fits], costs[fits]
    singles = np.empty(0)
    if ids.size:
        st = oracle_state(oracle)
        if hasattr(st, "gather"):
            st.count(ids.size)
            singles = st.gather(ids, 0.0)
        else:
            singles = np.array(st.gains(ids, 0.0), dtype=np.float64)
        if np.isnan(singles).any():
            raise InputError("the set function is NaN on a singleton")
    # the same IEEE operations as -f / c on Python floats
    ratios = -singles / costs
    return _Seed(oracle, cost_fn, ids, costs, singles, ratios,
                 np.argsort(ratios, kind="stable"),
                 costs.min().item() if costs.size else math.inf)


def _fitting(seed, budget) -> np.ndarray:
    """The positions in ``seed`` of the entries whose cost fits ``budget``."""
    return np.flatnonzero(seed.costs <= budget)


def _greedy(oracle, cost_fn, U, budget):
    """``(seed, chosen, value, spent, asked)`` of the density pass over the
    seed of ``U`` to ``budget``: read from the fork table of a sweep set's
    seed, which the first solve on it records, else run on its own."""
    seed = _seed(oracle, cost_fn, U, budget)
    if seed is not getattr(U, "seed", None):
        return (seed, *_density_pass(oracle, seed, budget))
    if U.forks is None:
        U.forks = _Forks(oracle, seed, U.budgets)
    return (seed, *U.forks.solve(oracle, seed, budget))


class _Forks:
    """The fork table of one pass over a sweep set's seed to its largest
    budget: where each of the sweep's budgets first departs from it.

    A departure is a step whose threshold ``x`` exceeds the budget ``b``
    while no earlier step's did. At a loop top from which the longer pass
    pops an entry, ``x = spent + c_min`` and the pass to ``b`` stops there;
    with nothing left to pop both passes stop. At a pop that the longer
    pass takes, ``x = spent + c`` and the pass to ``b`` skips the entry and
    goes on alone. Each fork ``(hi, n, value, spent, asked, heap, pos)``
    keeps the number of commits, the value, the cost and the queries asked
    at its step and, at a pop, the heap after it and the source position;
    ``heap`` is None at a loop top and at the end of the pass. A fork
    serves every budget in ``[lo, hi)``, ``lo`` being the largest threshold
    before its step. Under unit costs every threshold is an integer, so a
    size-constrained solve at ``int(b)`` reads the fork of ``b``."""

    __slots__ = ("chosen", "_los", "_forks", "_budgets", "_next")

    def __init__(self, oracle, seed, budgets):
        self._los, self._forks = [], []
        self._budgets, self._next = budgets, 0
        self.chosen = _density_pass(oracle, seed, budgets[-1], forks=self)[0]

    def depart(self, lo, hi, *fork) -> float:
        """Record the fork of the budgets in ``[lo, hi)``; return the
        smallest budget that has not yet departed (inf when none is left)."""
        budgets, k = self._budgets, self._next
        while k < len(budgets) and budgets[k] < hi:
            k += 1
        self._next = k
        self._los.append(lo)
        self._forks.append((hi, *fork))
        return budgets[k] if k < len(budgets) else math.inf

    def solve(self, oracle, seed, budget):
        """``(chosen, value, spent, asked)`` of the pass to ``budget``: its
        fork's commits, or the pass resumed from its fork; a budget no fork
        serves runs its own pass."""
        i = bisect.bisect_right(self._los, budget) - 1
        if i < 0 or budget >= self._forks[i][0]:
            return _density_pass(oracle, seed, budget)
        _, n, value, spent, asked, heap, pos = self._forks[i]
        if heap is None:
            return self.chosen[:n], value, spent, asked
        chosen, value, spent, more = _density_pass(
            oracle, seed, budget, (self.chosen[:n], value, spent, heap, pos))
        return chosen, value, spent, asked + more


# the first chunk of sorted-source entries a pass reads; each next one doubles
_CHUNK = 32


def _density_pass(oracle, seed, budget, start=((), 0.0, 0.0, (), 0), forks=None):
    """Lazy cost-benefit greedy over the entries of ``seed`` whose cost
    fits ``budget``: ``(chosen, value, spent, asked)``, where ``chosen``
    lists the committed ids in commit order and ``asked`` counts the
    queries the pass asked. Nothing is asked when none fits.

    Each step commits the element with the best fresh gain-to-cost ratio
    that still fits the remaining budget; elements that stop fitting are
    dropped for good since the remaining budget only shrinks, and an entry
    whose cost is above ``budget`` is dropped at its pop with no query. The
    candidates come in ``(-gain / cost, id)`` order from two sources: the
    seed's stable order, read in chunks of Python lists, and a heap that
    holds only re-evaluated entries. The pass stops once even the cheapest
    element no longer fits: every later candidate would be dropped without
    a query. It also stops at the first fresh candidate whose gain is
    negative, which only a non-monotone objective can give: committing it
    would lose value, and for a submodular one no later candidate gains
    more. Zero gains are still committed.

    ``start`` is ``(chosen, value, spent, heap, pos)``, a point of a pass
    to a larger budget where this one departs from it: the pass resumes
    there on a state rebuilt from ``chosen`` with no query (``extend``
    where the state has it), and ``asked`` counts only the queries after
    it. With ``forks``, a ``_Forks``, the pass records its departures.
    """
    chosen, value, spent, heap, pos = start
    chosen, heap = list(chosen), list(heap)
    st = oracle_state(oracle)
    if chosen:
        if hasattr(st, "extend"):
            st.extend(np.array(chosen, dtype=np.intp))
        else:
            for v in chosen:
                st.add(v)
    order, c_min = seed.order, seed.c_min
    # a departure is recorded when a threshold passes both the largest so
    # far, top, and the smallest budget that has not departed, low (so the
    # first step records one, for the budgets below the cheapest cost); a
    # pass that records nothing never passes top
    top = low = -math.inf if forks is not None else math.inf
    start_calls = oracle.query_count
    # source entries (ratio, id, 0, gain, cost) of order[pos:pos + len(src)],
    # the next one src[i]; a re-evaluated one goes on the heap as (ratio,
    # id, stamp, gain, cost), fresh iff its stamp is len(chosen). Ids are
    # distinct and ascend with the position in the seed, so (ratio, id)
    # decides between the two sources as the stable order does
    src, i, size = [], 0, _CHUNK
    while True:
        x = spent + c_min
        if x > budget:
            break
        if i == len(src) and pos + i < order.size:
            pos += i
            at = order[pos:pos + size]
            src = list(zip(seed.ratios[at].tolist(), seed.ids[at].tolist(), itertools.repeat(0),
                           seed.singles[at].tolist(), seed.costs[at].tolist()))
            i, size = 0, 2 * size
        if i < len(src) and not (heap and heap[0] < src[i]):
            _, v, stamp, gain, c = src[i]
            i += 1
        elif heap:
            _, v, stamp, gain, c = heapq.heappop(heap)
        else:
            break
        # the loop top's threshold, counted only now that an entry popped
        if x > top:
            if x > low:
                low = forks.depart(top, x, len(chosen), value, spent,
                                   oracle.query_count - start_calls, None, None)
            top = x
        x = spent + c
        if x > budget:
            continue
        if x > top:
            if x > low:
                low = forks.depart(top, x, len(chosen), value, spent,
                                   oracle.query_count - start_calls, list(heap), pos + i)
            top = x
        if stamp == len(chosen):
            if gain < 0:
                break
            chosen.append(v)
            st.add(v)
            value += gain
            spent += c
        else:
            gain = st.marginal(v, value)
            heapq.heappush(heap, (-gain / c, v, len(chosen), gain, c))
    asked = oracle.query_count - start_calls
    if forks is not None:
        forks.depart(top, math.inf, len(chosen), value, spent, asked, None, None)
    return chosen, value, spent, asked


def _solution(oracle, chosen, spent, billed) -> Solution:
    """The solution of the ids ``chosen`` in commit order, valued by one
    counted ``eval``. Its bill is that of a standalone solve: ``billed``,
    the singletons of the feasible ids and the marginals of its pass, which
    a sweep's set may have asked once for all its solves, plus the
    ``eval``."""
    chosen = set(chosen)  # built by insertion in commit order
    start_calls = oracle.query_count
    return Solution(
        ids=frozenset(chosen),
        value=oracle.eval(chosen) if chosen else 0.0,
        cost=spent,
        oracle_calls=billed + oracle.query_count - start_calls,
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
