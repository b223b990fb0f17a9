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
carries one) and must be positive (NaN is refused), the state's
``gains(ids, 0.0)`` batch gives the singleton values of the ids that fit,
and one stable argsort of the gain-to-cost ratios orders them. A
standalone solve builds the seed for its own budget. A ground set that
``metrics.sweep_budgets`` hands in keeps the seed its first solve builds,
over the ids that fit the sweep's largest budget, and every later solve
with the same oracle and cost function filters it by cost, which gives
the order a seed of its own would. The lazy loop then reads only the
entries it reaches, as Python floats and ints, so a solution's ids are
Python ints and its value and cost Python floats whatever the type of
``U``. A set function that is NaN on a singleton is refused. Every solver
that takes a cost function refuses costs that are not positive.

Under unit costs the pass to ``k`` runs the same steps as the pass to any
larger budget up to its ``k``-th commit and then stops (Minoux, 1978;
CELF), or stops where the longer pass stops when that commits fewer. So
the size-constrained solves of a sweep's ground set share one pass: the
first runs it on the set's seed to the sweep's largest budget and records
how many queries it had asked at each commit, and each solve at ``k``
takes the first ``k`` commits and values them with one counted ``eval``.
A knapsack is not prefix-closed: each of its solves runs its own pass.

``Solution.oracle_calls`` is the standalone bill whether or not the seed
or the pass was shared: the singletons of the feasible ids, the marginals
its own loop asks and the final ``eval``. The oracle's ``query_count``
counts only the queries actually asked, so in a sweep it can be below the
bills' sum.

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
    of ``greedy_knapsack`` with every cost 1.0 and budget ``k``; the solves
    of one sweep set read their picks from one recorded pass.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise InputError(f"k must be an integer, got {k!r}") from None
    if k < 0:
        raise InputError("k must be non-negative")
    # a k past n changes nothing; the cap keeps it comparable with float64 costs
    k = min(k, oracle.n)
    seed = _seed(oracle, None, U, k)
    if k and seed is getattr(U, "seed", None):
        chosen, asked = _recorded_prefix(oracle, U, k)
        return _solution(oracle, chosen, float(len(chosen)), seed.ids.size,
                         oracle.query_count - asked)
    start_calls = oracle.query_count
    chosen, _, spent, fit = _density_pass(oracle, seed, k)
    return _solution(oracle, chosen, spent, fit.size, start_calls)


def greedy_knapsack(oracle, cost_fn, U, kappa: float) -> Solution:
    """Budgeted greedy: cost-benefit selection compared against the best
    feasible singleton, returning whichever scores higher."""
    require_finite(kappa=kappa)
    if kappa <= 0:
        raise InputError("kappa must be positive")
    seed = _seed(oracle, cost_fn, U, kappa)
    start_calls = oracle.query_count
    chosen, value, spent, fit = _density_pass(oracle, seed, kappa)
    if fit.size:
        # the first best singleton, when it beats the density pass and zero
        best = fit[seed.singles[fit].argmax()]
        if seed.singles.item(best) > max(value, 0.0):
            chosen = [seed.ids.item(best)]
            spent = seed.costs.item(best)
    return _solution(oracle, chosen, spent, fit.size, start_calls)


@dataclass(frozen=True, eq=False)
class _Seed:
    """What a solve reads before its lazy loop, for the ids of a ground set
    whose cost fits a budget: the ids ascending, their costs, their
    singleton values, the ratios ``-f / c`` and the ratios' stable argsort
    ``order``. Built for one oracle and one cost function (None for unit
    costs)."""

    oracle: object
    cost_fn: object
    ids: np.ndarray
    costs: np.ndarray
    singles: np.ndarray
    ratios: np.ndarray
    order: np.ndarray


class _SweepSet(frozenset):
    """A ground set of one sweep: a frozenset that keeps the seed its first
    solve builds, over the ids whose cost fits ``reach``, the sweep's
    largest budget, so that the sweep's later solves filter it. Its first
    size-constrained solve on that seed also keeps ``commits``, the ids of
    one unit-cost pass to ``reach`` in commit order, and ``marks``, the
    queries that pass had asked at each commit followed by its total."""

    __slots__ = ("reach", "seed", "commits", "marks")

    def __new__(cls, ids, reach: float):
        self = super().__new__(cls, ids)
        self.reach = reach
        self.seed = None
        self.commits = None
        return self


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
    ``gains`` batch; nothing is asked when none fits. InputError for an id
    that is not an integer in ``[0, oracle.n)``, a cost that is not
    positive, or a singleton value that is NaN."""
    ids = np.sort(_checked_array(U, oracle.n))
    ids = ids[np.diff(ids, prepend=-1) != 0]
    costs = np.ones(ids.size) if cost_fn is None else cost_array(cost_fn, ids)
    fits = costs <= reach
    ids, costs = ids[fits], costs[fits]
    singles = np.empty(0)
    if ids.size:
        singles = np.array(oracle_state(oracle).gains(ids, 0.0), dtype=np.float64)
        if np.isnan(singles).any():
            raise InputError("the set function is NaN on a singleton")
    # the same IEEE operations as -f / c on Python floats
    ratios = -singles / costs
    return _Seed(oracle, cost_fn, ids, costs, singles, ratios,
                 np.argsort(ratios, kind="stable"))


def _recorded_prefix(oracle, U, k):
    """``(chosen, asked)`` of a unit-cost pass to ``k`` over the seed of the
    sweep set ``U``, read from its recorded pass: the pass to ``k`` runs
    the same steps as the pass to ``U.reach`` up to its ``k``-th commit and
    then stops, or stops where the longer pass stops when that commits
    fewer. ``asked`` is the queries the pass to ``k`` asks."""
    if U.commits is None:
        start = oracle.query_count
        marks = []
        commits, _, _, _ = _density_pass(oracle, U.seed, min(U.reach, oracle.n), marks)
        U.commits = commits
        U.marks = [m - start for m in marks] + [oracle.query_count - start]
    return U.commits[:k], U.marks[min(k - 1, len(U.commits))]


def _density_pass(oracle, seed, budget, marks=None):
    """Lazy cost-benefit greedy over the entries of ``seed`` whose cost
    fits ``budget``: ``(chosen, value, spent, fit)``, where ``chosen`` lists
    the committed ids in commit order and ``fit`` holds the fitting entries'
    positions in the seed, ascending. Nothing is asked when none fits.

    Each step commits the element with the best fresh gain-to-cost ratio
    that still fits the remaining budget; elements that stop fitting are
    dropped for good since the remaining budget only shrinks. The
    candidates come in ``(-gain / cost, id)`` order from two sources: the
    seed's stable order filtered to ``fit``, which is the order a stable
    argsort of the fitting entries alone gives, and a heap that holds only
    re-evaluated entries. The pass stops once even the cheapest element no
    longer fits: every later candidate would be dropped without a query. It
    also stops at the first fresh candidate whose gain is negative, which
    only a non-monotone objective can give: committing it would lose value,
    and for a submodular one no later candidate gains more. Zero gains are
    still committed.

    When ``marks`` is a list, ``oracle.query_count`` is appended to it at
    each commit.
    """
    ids, costs, singles, ratios = seed.ids, seed.costs, seed.singles, seed.ratios
    fits = costs <= budget
    fit = np.flatnonzero(fits)
    chosen = []
    if not fit.size:
        return chosen, 0.0, 0.0, fit
    c_min = costs[fit].min().item()
    order = seed.order[fits[seed.order]]
    st = oracle_state(oracle)
    # candidates are (ratio, j, stamp, gain) for ids[j]; j rises with the
    # id, and an entry is fresh iff its stamp is len(chosen)
    pos = 0  # order[pos] heads the sorted source
    heap = []
    value = 0.0
    spent = 0.0
    while spent + c_min <= budget:
        head = order.item(pos) if pos < order.size else None
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
            if marks is not None:
                marks.append(oracle.query_count)
            chosen.append(v)
            st.add(v)
            value += gain
            spent += c
        else:
            gain = st.marginal(v, value)
            heapq.heappush(heap, (-gain / c, j, len(chosen), gain))
    return chosen, value, spent, fit


def _solution(oracle, chosen, spent, singletons, start_calls) -> Solution:
    """The solution of the ids ``chosen`` in commit order, valued by one
    counted ``eval``. Its bill is that of a standalone solve: the
    ``singletons`` of the feasible ids, which a sweep's seed asked once for
    all its solves, plus every query asked since ``start_calls``."""
    chosen = set(chosen)  # built by insertion in commit order
    return Solution(
        ids=frozenset(chosen),
        value=oracle.eval(chosen) if chosen else 0.0,
        cost=spent,
        oracle_calls=singletons + oracle.query_count - start_calls,
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
