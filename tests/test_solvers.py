import dataclasses
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import setprune as sp
from setprune.errors import InputError, checked_costs, outside_ground_set

from conftest import (PlainOracle, exhaustive_best, naive_greedy_cardinality,
                      oracle_families, random_costs, random_graph,
                      random_similarity_kernel, ref_greedy_cardinality,
                      ref_greedy_knapsack, unit_cost)


# ---------------------------------------------------------------------------
# greedy under a size constraint

def test_greedy_cardinality_zero_budget(star6):
    sol = sp.greedy_cardinality(sp.CoverageOracle(star6), range(6), 0)
    assert sol.ids == frozenset() and sol.value == 0


def test_greedy_cardinality_star_picks_center(star6):
    sol = sp.greedy_cardinality(sp.CoverageOracle(star6), range(6), 1)
    assert sol.ids == {0} and sol.value == 6


def test_greedy_matches_naive_on_all_families():
    for name, orc in oracle_families(10, seed=77).items():
        for k in (1, 3, 5):
            lazy = sp.greedy_cardinality(orc, range(orc.n), k)
            naive_ids, naive_val = naive_greedy_cardinality(orc, range(orc.n), k)
            assert lazy.ids == frozenset(naive_ids), (name, k)
            assert lazy.value == pytest.approx(naive_val, rel=1e-12, abs=1e-12)


def test_greedy_prefix_nesting():
    graph = random_graph(12, 0.3, 31)
    orc = sp.CoverageOracle(graph)
    previous = frozenset()
    for k in range(0, 8):
        sol = sp.greedy_cardinality(orc, range(12), k)
        assert previous <= sol.ids
        previous = sol.ids


def test_greedy_classical_guarantee_against_optimum():
    factor = 1 - 1 / math.e
    for seed in range(8):
        n = 10
        graph = random_graph(n, 0.25, seed + 300)
        orc = sp.CoverageOracle(graph)
        k = 3
        sol = sp.greedy_cardinality(orc, range(n), k)
        opt = sp.brute_force_opt(orc, unit_cost, range(n), k)
        assert sol.value >= factor * opt.value


def test_greedy_deterministic_and_ties_to_small_id():
    # an edgeless graph makes every node worth exactly one
    graph = sp.generate("erdos_renyi", 6, {"p": 0.0}, seed=0)
    orc = sp.CoverageOracle(graph)
    sol = sp.greedy_cardinality(orc, range(6), 3)
    assert sol.ids == {0, 1, 2}


def test_greedy_negative_k_raises(star6):
    with pytest.raises(InputError):
        sp.greedy_cardinality(sp.CoverageOracle(star6), range(6), -1)


def test_greedy_cardinality_k_must_be_an_integer():
    # 2.5 used to buy 3 elements, inf every element and NaN none, silently
    orc = sp.CoverageOracle(sp.generate("path", 10))
    for k in (2.5, 2.0, math.nan, math.inf, -math.inf, np.float64(3.0), "3"):
        with pytest.raises(InputError, match="integer"):
            sp.greedy_cardinality(orc, range(10), k)
    assert orc.query_count == 0
    want = sp.greedy_cardinality(orc, range(10), 2)
    for k in (np.int64(2), np.uint8(2), np.intp(2)):
        assert sp.greedy_cardinality(orc, range(10), k) == want


_TIED = st.sampled_from([0, 0.0, 1, 2.0, 2.0, 3.5])


def _ground_set(draw, picks):
    """``picks``, repeats kept, as a list of ints, numpy ints and (for ids 0
    and 1) bools, as a set of those, or as an int64 or uint64 array."""
    form = draw(st.sampled_from(["list", "set", "int64", "uint64"]))
    if form in ("int64", "uint64"):
        return np.array(picks, dtype=form)
    U = [draw(st.sampled_from([v, np.int64(v)] + ([bool(v)] if v < 2 else [])))
         for v in picks]
    return set(U) if form == "set" else U


def _same(got, want):
    """The solutions agree in ids, value, cost and query count, bit for bit,
    and ``got`` holds Python int ids and a Python float cost."""
    assert all(type(v) is int for v in got.ids) and type(got.cost) is float
    return (got.ids, repr(got.value), repr(got.cost), got.oracle_calls) == \
        (want.ids, repr(want.value), repr(want.cost), want.oracle_calls)


@st.composite
def cardinality_instances(draw):
    """(oracle, U, k): coverage, cut, directed cut, influence on either kind
    of graph, modular with tied weights, an arbitrary non-monotone set
    function or similarity cut; U with repeats in every form of
    ``_ground_set``, and k at 0, 1, |U| or past it."""
    n = draw(st.integers(1, 12))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    kind = draw(st.sampled_from(["coverage", "cut", "directed cut", "influence",
                                 "modular", "custom", "simgraphcut"]))
    graph = sp.from_edges(n, edges, directed=kind == "directed cut" or draw(st.booleans()))
    if kind == "coverage":
        oracle = sp.CoverageOracle(graph)
    elif kind in ("cut", "directed cut"):
        oracle = sp.CutOracle(graph)
    elif kind == "influence":
        pool = sp.LiveEdgeSamplePool(graph, p=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
                                     m=draw(st.integers(1, 4)), seed=draw(st.integers(0, 99)))
        oracle = sp.InfluenceOracle(pool)
    elif kind == "modular":
        weights = draw(st.lists(_TIED, min_size=n, max_size=n))
        oracle = sp.CustomOracle(n, lambda S: sum(weights[v] for v in S))
    elif kind == "custom":
        salt = draw(st.integers(0, 2**16))
        oracle = sp.CustomOracle(
            n, lambda S: random.Random(hash((salt, *sorted(S)))).choice(_VALUES))
    else:
        kernel, _ = random_similarity_kernel(draw(st.integers(1, 3)), n,
                                             draw(st.integers(0, 99)), cand_hi=0.6)
        oracle = sp.SimilarityCutOracle(kernel)
    picks = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    U = _ground_set(draw, picks)
    k = draw(st.sampled_from([0, 1, len(set(picks)), len(set(picks)) + 3]))
    return oracle, U, k


@given(cardinality_instances())
@settings(max_examples=400, deadline=None)
def test_greedy_cardinality_matches_the_all_element_heap(instance):
    # the unit-cost density pass must keep the pop order, the tie-breaking
    # and the query count of the lazy greedy that heaps every element
    oracle, U, k = instance
    want = ref_greedy_cardinality(oracle, U, k)
    assert _same(sp.greedy_cardinality(oracle, U, k), want)


# ---------------------------------------------------------------------------
# greedy under a knapsack constraint

def _modular(n, weights):
    return sp.CustomOracle(n, lambda S: sum(weights[v] for v in S))


def test_knapsack_single_feasible_element():
    orc = _modular(3, [5.0, 7.0, 9.0])
    costs = [1.0, 10.0, 10.0]
    sol = sp.greedy_knapsack(orc, lambda v: costs[v], range(3), 2.0)
    assert sol.ids == {0} and sol.value == 5.0


def test_knapsack_budget_below_min_cost():
    orc = _modular(2, [5.0, 7.0])
    sol = sp.greedy_knapsack(orc, lambda v: 3.0, range(2), 1.0)
    assert sol.ids == frozenset() and sol.value == 0.0


def test_knapsack_singleton_rescues_density_greedy():
    # a cheap low-value item tops the density order and crowds out the big
    # item; the singleton comparison recovers the optimum
    weights = [10.0, 0.2]
    costs = [1.0, 0.01]
    orc = _modular(2, weights)
    sol = sp.greedy_knapsack(orc, lambda v: costs[v], range(2), 1.0)
    opt_set, opt_val = exhaustive_best(orc, lambda v: costs[v], range(2), 1.0)
    assert sol.value == opt_val == 10.0
    assert sol.ids == opt_set == {0}


def test_knapsack_density_beats_singleton_when_cheap_items_combine():
    weights = [10.0, 6.0, 6.0]
    costs = [2.0, 1.0, 1.0]
    orc = _modular(3, weights)
    sol = sp.greedy_knapsack(orc, lambda v: costs[v], range(3), 2.0)
    assert sol.ids == {1, 2} and sol.value == 12.0
    _, opt_val = exhaustive_best(orc, lambda v: costs[v], range(3), 2.0)
    assert sol.value == opt_val


def test_greedy_stops_before_a_negative_gain():
    # the one candidate is worth 10 * -0.5 - 1 = -6: worse than nothing
    kernel = sp.SimilarityKernel(np.array([[1.0, -0.5], [-0.5, 1.0]]), [0], lam=10.0)
    orc = sp.SimilarityCutOracle(kernel)
    assert orc.eval({0}) == -6.0
    for sol in (sp.greedy_cardinality(orc, range(1), 1),
                sp.greedy_knapsack(orc, unit_cost, range(1), 1.0)):
        assert sol.ids == frozenset() and sol.value == 0.0 and sol.cost == 0.0
    # a zero gain is still committed
    zero = sp.CustomOracle(3, lambda S: 0.0)
    assert sp.greedy_cardinality(zero, range(3), 2).ids == {0, 1}


def test_knapsack_respects_budget_on_random_instances():
    for seed in range(6):
        graph = random_graph(14, 0.3, seed + 400)
        orc = sp.CoverageOracle(graph)
        costs, cost_fn = random_costs(14, 0.5, 3.0, seed)
        sol = sp.greedy_knapsack(orc, cost_fn, range(14), 4.0)
        assert sol.cost <= 4.0 + 1e-9
        assert sol.value == orc.eval(sol.ids)


def test_knapsack_nonpositive_budget_raises():
    orc = _modular(2, [1.0, 1.0])
    with pytest.raises(InputError):
        sp.greedy_knapsack(orc, unit_cost, range(2), 0.0)


def test_solvers_reject_non_finite_budgets(star6):
    orc = sp.CoverageOracle(star6)
    for solver in (sp.cardinality_solver, sp.knapsack_solver, sp.greedy_knapsack):
        for budget in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match="finite"):
                solver(orc, unit_cost, range(6), budget)
    # the sign rules are unchanged: a size budget may be 0, a knapsack one not
    assert sp.cardinality_solver(orc, unit_cost, range(6), 0).ids == frozenset()
    with pytest.raises(InputError):
        sp.cardinality_solver(orc, unit_cost, range(6), -1)
    with pytest.raises(InputError):
        sp.knapsack_solver(orc, unit_cost, range(6), 0.0)


@pytest.mark.parametrize("cost", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("solver", [sp.greedy_knapsack, sp.brute_force_opt])
def test_solvers_reject_costs_that_are_not_positive(star6, solver, cost):
    # 0.0 divided by zero, -1.0 returned a solution of negative cost and
    # NaN an empty one; each is now refused before any query
    orc = sp.CoverageOracle(star6)
    costs = [1.0, 1.0, cost, 1.0, 1.0, 1.0]
    with pytest.raises(InputError, match="cost"):
        solver(orc, costs.__getitem__, range(6), 3.0)
    assert orc.query_count == 0


# dyadic costs: every sum of them is exact, so a budget can sit exactly on one
_COSTS = st.sampled_from([0.25, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0])
_WEIGHTS = st.sampled_from([0, 0.0, 1, 2.0, 2.0, 3.5])
_VALUES = (0, 0.5, 1.0, 2.0, 3.0)


@st.composite
def knapsack_instances(draw):
    """(oracle, graph carrying the costs, costs, U, kappa): modular with tied
    weights, modular with every ratio tied, coverage, cut (not monotone) or
    an arbitrary set function; zero gains, ties in ratio, U with repeats in
    every form of ``_ground_set``, and budgets below the cheapest cost, on
    one element's cost or a cost sum, or anywhere up to past the total."""
    n = draw(st.integers(1, 12))
    costs = draw(st.lists(_COSTS, min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    graph = dataclasses.replace(sp.from_edges(n, edges), costs=costs)
    kind = draw(st.sampled_from(["modular", "tied", "coverage", "cut", "arbitrary"]))
    if kind in ("modular", "tied"):
        if kind == "modular":
            weights = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
        else:
            ratio = draw(st.sampled_from([0.5, 2.0]))
            weights = [ratio * c for c in costs]
        oracle = sp.CustomOracle(n, lambda S: sum(weights[v] for v in S))
    elif kind == "coverage":
        oracle = sp.CoverageOracle(graph)
    elif kind == "cut":
        oracle = sp.CutOracle(graph)
    else:
        salt = draw(st.integers(0, 2**16))
        oracle = sp.CustomOracle(
            n, lambda S: random.Random(hash((salt, *sorted(S)))).choice(_VALUES))
    picks = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    U = _ground_set(draw, picks)
    where = draw(st.sampled_from(["below", "one", "sum", "any"]))
    if where == "below":
        kappa = min(costs) / 2
    elif where == "one":  # the best singleton often beats the density pass
        kappa = draw(st.sampled_from(costs))
    elif where == "sum":
        kappa = sum(draw(st.lists(st.sampled_from(costs), min_size=1, max_size=n)))
    else:
        kappa = draw(st.floats(0.1, 1.5 * sum(costs)))
    return oracle, graph, costs, U, kappa


def _crowded():
    """A cheap item tops the ratio order and crowds out two tied heavier
    ones: the best singleton decides, and it is the first maximum."""
    costs = [1.0, 1.0, 0.25]
    graph = dataclasses.replace(sp.from_edges(3, []), costs=costs)
    return _modular(3, [2.0, 2.0, 1.0]), graph, costs, [2, 1, 0], 1.0


@given(knapsack_instances())
@example(_crowded())
@settings(max_examples=400, deadline=None)
def test_knapsack_matches_the_all_element_heap(instance):
    # the sorted seed and the early exit must not change the pop order or
    # the query count of the lazy greedy that heaps every feasible element
    oracle, graph, costs, U, kappa = instance
    want = ref_greedy_knapsack(oracle, costs.__getitem__, U, kappa)
    for cost_fn in (graph.cost_fn(), lambda v: costs[v]):
        got = sp.greedy_knapsack(oracle, cost_fn, U, kappa)
        assert _same(got, want) and type(got.value) is type(want.value)


def _recording(solver, solutions):
    def run(oracle, cost_fn, U, budget):
        solutions.append(solver(oracle, cost_fn, U, budget))
        return solutions[-1]
    return run


def _in_sweep_order(solutions, pruners):
    """The solutions of per-budget ``evaluate_pruning`` calls, a full and a
    pruned one per pruner at each budget, in a sweep's order: the full set
    once per budget, then each pruned set. Each full solve dropped must be
    the same as the one kept."""
    out = []
    for i in range(0, len(solutions), 2 * pruners):
        full, *repeats = solutions[i:i + 2 * pruners:2]
        assert all(_same(repeat, full) for repeat in repeats)
        out += [full, *solutions[i + 1:i + 2 * pruners:2]]
    return out


@pytest.mark.parametrize("constraint", ["knapsack", "cardinality"])
def test_sweep_matches_per_budget_reference_solves(constraint):
    # the sweep builds its sets once; every solve must still be the
    # standalone one, query count included
    graph = sp.assign_knapsack_costs(
        sp.generate("barabasi_albert", 300, {"m_attach": 3}, seed=5), mode="degree")
    cost_fn = graph.cost_fn()
    if constraint == "knapsack":
        oracle = sp.CutOracle(graph)
        solver = sp.knapsack_solver
        budgets = [0.5, 3.0, 8.0, 20.0]  # the cheapest cost is 1: nothing fits 0.5

        def ref(oracle_, cost_fn_, U, budget):
            return ref_greedy_knapsack(oracle_, cost_fn_, U, float(budget))
    else:
        oracle = sp.CoverageOracle(graph)
        solver = sp.cardinality_solver
        budgets = [0, 2, 5, 9]

        def ref(oracle_, cost_fn_, U, budget):
            return ref_greedy_cardinality(oracle_, U, int(budget))
    pruned, _ = sp.quickprune(range(300), oracle, cost_fn,
                              sp.LadderParams(3.0, 20.0, 0.5, 0.1, 0.1), 300)
    outputs = {"quickprune": pruned, "every third": set(range(0, 300, 3))}
    calls = {"quickprune": 11}
    got_solutions, want_solutions = [], []
    got = sp.sweep_budgets(oracle, cost_fn, range(300), outputs, budgets,
                           _recording(solver, got_solutions), prune_calls=calls)
    want = [sp.evaluate_pruning(oracle, cost_fn, range(300), outputs[name],
                                _recording(ref, want_solutions), budget, pruner=name,
                                oracle_calls_prune=calls.get(name, 0))
            for budget in budgets for name in sorted(outputs)]
    assert [repr(r) for r in got] == [repr(r) for r in want]
    want_solutions = _in_sweep_order(want_solutions, len(outputs))
    assert len(got_solutions) == len(want_solutions) == len(want) + len(budgets)
    assert all(_same(g, w) for g, w in zip(got_solutions, want_solutions))

# ---------------------------------------------------------------------------
# one solve seed per ground set per sweep, against standalone solves

_SWEEP_N = 40
# budgets as multiples of the cheapest cost (1.0): zero, below it, exactly
# it, between costs, n itself, just past n and far above the total cost of
# the ground set; a size constraint truncates them to integers
_SCALES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 7.0, 12.0, float(_SWEEP_N),
                           _SWEEP_N + 1.5, 1e3])
_CARDINALITY_KINDS = ("coverage", "influence", "non-monotone")


def _sweep_instance(kind, seed):
    """``(oracle, cost_fn, solver)``: cut with degree costs under a knapsack,
    coverage, undirected influence and a non-monotone custom function under
    a size constraint, a custom (``EvalState``) oracle under a knapsack with
    callable costs, and cut behind a wrapper that has only ``n``, ``eval``,
    ``marginal`` and ``query_count``. The non-monotone function's gains turn
    negative after about six picks, so its passes stop there."""
    if kind == "coverage":
        return sp.CoverageOracle(random_graph(_SWEEP_N, 0.1, seed)), unit_cost, \
            sp.cardinality_solver
    if kind == "influence":
        pool = sp.LiveEdgeSamplePool(random_graph(_SWEEP_N, 0.08, seed), p=0.5, m=6, seed=seed)
        return sp.InfluenceOracle(pool), unit_cost, sp.cardinality_solver
    if kind == "non-monotone":
        weights = [1.0 + (seed + 3 * v) % 9 / 2 for v in range(_SWEEP_N)]
        oracle = sp.CustomOracle(
            _SWEEP_N, lambda S: math.fsum(weights[v] for v in S) - 0.4 * len(S) ** 2)
        return oracle, unit_cost, sp.cardinality_solver
    if kind == "custom":
        weights = [1.0 + (seed + 7 * v) % 5 for v in range(_SWEEP_N)]
        _, cost_fn = random_costs(_SWEEP_N, 1.0, 6.0, seed)
        oracle = sp.CustomOracle(
            _SWEEP_N, lambda S: math.sqrt(math.fsum(weights[v] for v in sorted(S))))
        return oracle, cost_fn, sp.knapsack_solver
    graph = sp.assign_knapsack_costs(
        sp.generate("barabasi_albert", _SWEEP_N, {"m_attach": 2}, seed=seed), mode="degree")
    oracle = sp.CutOracle(graph)
    return (PlainOracle(oracle) if kind == "wrapper" else oracle), graph.cost_fn(), \
        sp.knapsack_solver


@st.composite
def sweep_instances(draw):
    kind = draw(st.sampled_from(["cut", "custom", "wrapper", *_CARDINALITY_KINDS]))
    oracle, cost_fn, solver = _sweep_instance(kind, draw(st.integers(0, 200)))
    ids = st.integers(0, _SWEEP_N - 1)
    U = draw(st.one_of(st.just(range(_SWEEP_N)), st.lists(ids, min_size=1, max_size=60)))
    ground = sorted(set(U))
    outputs = {name: draw(st.sets(st.sampled_from(ground))) for name in ("a", "b")}
    budgets = draw(st.lists(_SCALES, min_size=1, max_size=6))
    order = draw(st.sampled_from([list, sorted, lambda b: sorted(b, reverse=True)]))
    return oracle, cost_fn, solver, U, outputs, order(budgets)


@given(sweep_instances())
@settings(max_examples=250, deadline=None)
def test_sweep_reusing_seeds_matches_standalone_solves(instance):
    # every record and every solution of the sweep, query bill included,
    # must be those of per-budget evaluate_pruning calls, whose solves each
    # build their own seed; a size-constrained sweep asks, per ground set,
    # no more than its singletons and one pass to the largest budget, plus
    # one eval per non-empty solution
    oracle, cost_fn, solver, U, outputs, budgets = instance
    calls = {"a": 5}
    got_solutions, want_solutions = [], []
    try:
        want = [sp.evaluate_pruning(oracle, cost_fn, U, outputs[name],
                                    _recording(solver, want_solutions), budget,
                                    pruner=name, oracle_calls_prune=calls.get(name, 0))
                for budget in budgets for name in sorted(outputs)]
    except InputError:  # a knapsack budget of zero
        with pytest.raises(InputError):
            sp.sweep_budgets(oracle, cost_fn, U, outputs, budgets, solver)
        return
    before = oracle.query_count
    got = sp.sweep_budgets(oracle, cost_fn, U, outputs, budgets,
                           _recording(solver, got_solutions), prune_calls=calls)
    asked = oracle.query_count - before
    assert [repr(r) for r in got] == [repr(r) for r in want]
    want_solutions = _in_sweep_order(want_solutions, len(outputs))
    assert len(got_solutions) == len(want_solutions) == len(want) + len(budgets)
    assert all(_same(g, w) for g, w in zip(got_solutions, want_solutions))
    assert asked <= sum(r.oracle_calls_solve for r in got)
    if solver is sp.cardinality_solver:
        passes = 0
        for G in [U, *outputs.values()]:
            longest = solver(oracle, cost_fn, set(G), max(budgets))
            passes += longest.oracle_calls - bool(longest.ids)
        assert asked <= passes + sum(bool(sol.ids) for sol in got_solutions)


@pytest.mark.parametrize("deviation", ["oracle", "cost_fn", "budget"])
def test_a_solver_that_deviates_from_the_sweep_solves_standalone(deviation):
    # at budget 8 the solver asks another oracle, another cost function
    # object, or a budget past the sweep's largest; those solves must ask
    # every query they bill, and all solves equal solves on a plain set
    graph = sp.assign_knapsack_costs(
        sp.generate("barabasi_albert", 200, {"m_attach": 3}, seed=4), mode="degree")
    oracle, other, cost_fn = sp.CutOracle(graph), sp.CutOracle(graph), graph.cost_fn()
    budgets = [3.0, 8.0, 5.0]

    def solver(oracle_, cost_fn_, U, budget):
        if budget == 8.0:
            if deviation == "oracle":
                oracle_ = other
            elif deviation == "cost_fn":
                cost_fn_ = lambda v: cost_fn(v)  # noqa: E731 - another object, same costs
            else:
                budget = 3 * max(budgets)
        before = oracle_.query_count
        sol = sp.knapsack_solver(oracle_, cost_fn_, U, budget)
        if budget != 3.0:  # the first solves build the seeds and ask more
            assert (oracle_.query_count - before == sol.oracle_calls) == (budget != 5.0)
        assert _same(sol, sp.knapsack_solver(oracle_, cost_fn_, set(U), budget))
        return sol

    records = sp.sweep_budgets(oracle, cost_fn, range(200), {"p": set(range(0, 200, 3))},
                               budgets, solver)
    assert len(records) == 3


@pytest.mark.parametrize("deviation", ["oracle", "knapsack", "budget"])
def test_a_size_constrained_solve_that_deviates_from_the_sweep_solves_standalone(deviation):
    # the same at budget 8 of a size-constrained sweep, whose solves share
    # one recorded pass per set: the solver asks another oracle, a knapsack
    # under unit costs, or a budget past the sweep's largest
    graph = sp.generate("barabasi_albert", 200, {"m_attach": 3}, seed=4)
    oracle, other = sp.CoverageOracle(graph), sp.CoverageOracle(graph)
    budgets = [3, 8, 5]

    def solver(oracle_, cost_fn, U, budget):
        solve = sp.cardinality_solver
        if budget == 8:
            if deviation == "oracle":
                oracle_ = other
            elif deviation == "knapsack":
                solve = sp.knapsack_solver
            else:
                budget = 3 * max(budgets)
        before = oracle_.query_count
        sol = solve(oracle_, cost_fn, U, budget)
        asked = oracle_.query_count - before
        if budget == 5:  # read from the pass that the first solves recorded
            assert asked == 1 < sol.oracle_calls
        elif budget != 3:
            assert asked == sol.oracle_calls
        assert _same(sol, solve(oracle_, cost_fn, set(U), budget))
        return sol

    records = sp.sweep_budgets(oracle, unit_cost, range(200), {"p": set(range(0, 200, 3))},
                               budgets, solver)
    assert len(records) == 3


@st.composite
def knapsack_sweeps(draw):
    """(oracle, cost_fn, U, outputs, budgets): cut, coverage, undirected
    influence, an arbitrary set function (``EvalState``) or cut behind a
    wrapper, on dyadic costs, and up to 16 budgets, each below the cheapest
    cost, on one cost, on a sum of costs (so that ``spent + c`` lands on it
    exactly) or anywhere up to past the total."""
    n = draw(st.integers(1, 12))
    costs = draw(st.lists(_COSTS, min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    graph = dataclasses.replace(sp.from_edges(n, edges), costs=costs)
    kind = draw(st.sampled_from(["cut", "coverage", "influence", "custom", "wrapper"]))
    if kind == "coverage":
        oracle = sp.CoverageOracle(graph)
    elif kind == "influence":
        pool = sp.LiveEdgeSamplePool(graph, p=draw(st.sampled_from([0.3, 0.7])),
                                     m=draw(st.integers(1, 4)), seed=draw(st.integers(0, 99)))
        oracle = sp.InfluenceOracle(pool)
    elif kind == "custom":
        salt = draw(st.integers(0, 2**16))
        oracle = sp.CustomOracle(
            n, lambda S: random.Random(hash((salt, *sorted(S)))).choice(_VALUES))
    else:
        oracle = sp.CutOracle(graph)
        if kind == "wrapper":
            oracle = PlainOracle(oracle)
    U = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    ground = sorted(set(U))
    outputs = {name: draw(st.sets(st.sampled_from(ground))) for name in ("a", "b")}
    budget = st.one_of(st.just(min(costs) / 2), st.sampled_from(costs),
                       st.lists(st.sampled_from(costs), min_size=1, max_size=n).map(sum),
                       st.floats(0.1, 1.5 * sum(costs)))
    return oracle, graph.cost_fn(), U, outputs, draw(st.lists(budget, min_size=1, max_size=16))


def _departs_at_a_heap_pop():
    """Id 1 loses half its worth next to id 0, so the pass to 4 re-evaluates
    it, takes id 2 and then pops it off the heap at ``spent + c = 4``: the
    budget 3 departs there, with the sorted source already read."""
    weights, costs = [10.0, 16.0, 7.0], [1.0, 2.0, 1.0]
    oracle = sp.CustomOracle(3, lambda S: sum(weights[v] for v in S) - 8.0 * ({0, 1} <= S))
    return oracle, costs.__getitem__, [0, 1, 2], {"a": {0, 1, 2}, "b": {1, 2}}, [4.0, 3.0]


@given(knapsack_sweeps())
@example(_departs_at_a_heap_pop())
@settings(max_examples=300, deadline=None)
def test_knapsack_sweep_forks_match_per_budget_reference_solves(instance):
    # each solve reads its budget's fork of one pass per set, resuming it
    # past a departure at a pop; every solution, bill included, must be the
    # all-element heap's at that budget alone
    oracle, cost_fn, U, outputs, budgets = instance
    solutions = []
    before = oracle.query_count
    sp.sweep_budgets(oracle, cost_fn, U, outputs, budgets,
                     _recording(sp.knapsack_solver, solutions))
    asked = oracle.query_count - before
    sets = [U, *(outputs[name] for name in sorted(outputs))]
    want = [ref_greedy_knapsack(oracle, cost_fn, set(G), float(budget))
            for budget in budgets for G in sets]
    assert len(solutions) == len(want)
    assert all(_same(g, w) for g, w in zip(solutions, want))
    assert asked <= sum(sol.oracle_calls for sol in solutions)


def test_a_budget_that_departs_at_a_pop_resumes_with_its_own_pick():
    # the pass to 4 takes 0 and then 1, which costs 3; at budget 2 that pop
    # is the departure, and the pass resumes to re-evaluate and take 2,
    # which the longer pass never picks
    weights, costs = [10.0, 15.0, 2.0], [1.0, 3.0, 1.0]
    oracle = _modular(3, weights)
    solutions = []
    asked = []

    def solver(oracle_, cost_fn, U, budget):
        before = oracle_.query_count
        solutions.append(sp.knapsack_solver(oracle_, cost_fn, U, budget))
        asked.append(oracle_.query_count - before)
        return solutions[-1]

    sp.sweep_budgets(oracle, costs.__getitem__, range(3), {"all": range(3)}, [4.0, 2.0], solver)
    assert [sol.ids for sol in solutions] == [{0, 1}, {0, 1}, {0, 2}, {0, 2}]
    # the solves at 2 ask the resumed re-evaluation of 2 and their eval
    assert asked[2:] == [2, 2]
    for sol, budget in zip(solutions, [4.0, 4.0, 2.0, 2.0]):
        assert _same(sol, ref_greedy_knapsack(oracle, costs.__getitem__, range(3), budget))


@given(sweep_instances())
@settings(max_examples=100, deadline=None)
def test_a_unit_cost_knapsack_sweep_asks_one_pass_per_set(instance):
    # under unit costs every budget departs at a loop top, so a knapsack
    # sweep is prefix-closed: it asks, per set, no more than its singletons
    # and one pass to the largest budget, plus one eval per non-empty
    # solution, and no solve resumes the pass, so each set makes one state
    # for its singletons and one for the pass
    oracle, _, _, U, outputs, budgets = instance
    budgets = [b for b in budgets if b > 0]
    assume(budgets)
    solutions = []
    made = []
    make = getattr(oracle, "state", None)
    if make is not None:  # a wrapper's states are EvalStates that solvers make
        oracle.state = lambda: made.append(1) or make()
    before = oracle.query_count
    sp.sweep_budgets(oracle, unit_cost, U, outputs, budgets,
                     _recording(sp.knapsack_solver, solutions))
    asked = oracle.query_count - before
    assert len(made) <= 2 * (1 + len(outputs))
    passes = 0
    for G in [U, *outputs.values()]:
        longest = sp.knapsack_solver(oracle, unit_cost, set(G), max(budgets))
        passes += longest.oracle_calls - bool(longest.ids)
    assert asked <= passes + sum(bool(sol.ids) for sol in solutions)


@given(knapsack_sweeps(), st.sampled_from([0.5, 0.75, 0.999]))
@settings(max_examples=100, deadline=None)
def test_a_solve_at_a_budget_the_sweep_did_not_list_is_the_standalone_one(instance, scale):
    # a solver that shrinks the sweep's budgets solves on the sweep's seeds
    # at budgets that may depart at steps where no fork was recorded
    oracle, cost_fn, U, outputs, budgets = instance
    solutions = []

    def solver(oracle_, cost_fn_, G, budget):
        solutions.append(sp.knapsack_solver(oracle_, cost_fn_, G, scale * budget))
        return solutions[-1]

    sp.sweep_budgets(oracle, cost_fn, U, outputs, budgets, solver)
    sets = [U, *(outputs[name] for name in sorted(outputs))]
    want = [ref_greedy_knapsack(oracle, cost_fn, set(G), scale * budget)
            for budget in budgets for G in sets]
    assert len(solutions) == len(want)
    assert all(_same(g, w) for g, w in zip(solutions, want))


@pytest.mark.parametrize("solver", [sp.knapsack_solver, sp.cardinality_solver])
def test_sweep_refuses_a_nan_singleton(solver):
    orc = sp.CustomOracle(4, lambda S: math.nan if 3 in S else float(len(S)))
    costs = [1.0, 1.0, 1.0, 2.0]  # id 3 fits only the largest knapsack budget
    with pytest.raises(InputError, match="NaN"):
        sp.sweep_budgets(orc, lambda v: costs[v], range(4), {"p": {0, 1}}, [1.0, 2.0],
                         solver)


_SOLVES = [
    lambda orc, U: sp.greedy_cardinality(orc, U, 3),
    lambda orc, U: sp.greedy_knapsack(orc, unit_cost, U, 3.0),
]


@pytest.mark.parametrize("solve", _SOLVES)
@pytest.mark.parametrize("U", [np.arange(4), np.arange(4, dtype=np.uint8), [True, False, 3]])
def test_solution_ids_leave_the_solver_as_python_ints(solve, U):
    # np.int64 ids used to break json.dumps, and [True, False, 3] returned
    # the ids [false, true, 3]
    sol = solve(_modular(4, [1.0, 2.0, 0.5, 3.0]), U)
    assert sol.ids == {0, 1, 3} and all(type(v) is int for v in sol.ids)
    assert type(sol.cost) is float
    assert json.dumps(sol.to_json_dict()["ids"]) == "[0, 1, 3]"


@pytest.mark.parametrize("solve", _SOLVES + [
    lambda orc, U: sp.greedy_knapsack(orc, _cost_fns([1.0] * 4)[0], U, 3.0),
])
@pytest.mark.parametrize("bad", [2.5, -1, 4, 2**70, "1"])
def test_solvers_refuse_a_bad_id_before_any_query(solve, bad):
    # with a cost vector the knapsack path used to raise IndexError on 2.5
    orc = _modular(4, [1.0, 2.0, 0.5, 3.0])
    with pytest.raises(InputError):
        solve(orc, [0, bad])
    assert orc.query_count == 0


@pytest.mark.parametrize("solve", _SOLVES)
def test_a_nan_singleton_is_refused(solve):
    # a NaN would sort last and make the best-singleton pick depend on the
    # position of the NaN; the solvers refuse it instead
    orc = sp.CustomOracle(3, lambda S: math.nan if 1 in S else float(len(S)))
    with pytest.raises(InputError, match="NaN"):
        solve(orc, range(3))


def _cost_fns(values):
    """A bounds-checked cost function that carries its vector and logs its
    calls, and the same function without the vector."""
    vec = np.array(values, dtype=np.float64)

    def plain(v):
        if not 0 <= v < vec.size:
            raise outside_ground_set(v, vec.size)
        return float(vec[v])

    def carried(v):
        carried.calls += 1
        return plain(v)

    carried.cost_vector = vec
    carried.calls = 0
    return carried, plain


def _generator(ids):
    return (v for v in ids)


def _array(ids):
    return np.array(ids, dtype=np.int64)


def _run(ids):
    # a list of consecutive ids, as a range
    return range(ids[0], ids[-1] + 1) if ids else range(0)


_ID_FORMS = [list, tuple, _run, _generator, _array]


def _error(cost_fn, ids):
    with pytest.raises(InputError) as exc:
        checked_costs(cost_fn, ids)
    return str(exc.value)


@pytest.mark.parametrize("form", _ID_FORMS)
def test_checked_costs_vector_path_returns_the_callables_floats(form):
    carried, plain = _cost_fns([1.5, 2.0, 0.25, 3.0, 1.0])
    id_lists = [[], [0], [1, 2, 3]]
    if form is not _run:
        id_lists += [[4, 0, 2, 2, 3], [np.int64(1), 3]]
    for ids in id_lists:
        carried.calls = 0
        got = checked_costs(carried, form(ids))
        assert got == checked_costs(plain, form(ids)) == [plain(v) for v in ids]
        assert all(type(x) is float for x in got)
        assert carried.calls == (len(ids) if len(ids) < 2 else 0)  # one gather


@pytest.mark.parametrize("form", _ID_FORMS)
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_checked_costs_vector_path_raises_at_the_first_bad_element(form, bad):
    carried, plain = _cost_fns([1.0, 2.0, bad, bad, 0.5])
    for ids in ([0, 1, 2, 3, 4], [1, 2], [4, 3, 2]):
        if form is _run and ids[0] > ids[-1]:
            continue
        first = next(e for e in form(ids) if e in (2, 3))
        message = _error(carried, form(ids))
        assert message == _error(plain, form(ids))
        assert message == f"cost of element {first!r} must be positive, got {bad!r}"
    # an id outside the vector is refused where it comes first, like a bad cost
    for ids, word in (([0, 5, 2], "outside"), ([0, 2, 5], "positive"), ([-1, 0], "outside"),
                      ([0, 1, 2, 3, 4, 5], "positive")):
        if form is _run and ids != sorted(ids):
            continue
        message = _error(carried, form(ids))
        assert message == _error(plain, form(ids)) and word in message


# ---------------------------------------------------------------------------
# exhaustive verification solver

def test_brute_force_whole_set_when_budget_allows(star6):
    orc = sp.CoverageOracle(star6)
    sol = sp.brute_force_opt(orc, unit_cost, range(6), 6.0)
    assert sol.value == 6  # monotone: the full set is optimal


def test_brute_force_zero_budget(triangle):
    sol = sp.brute_force_opt(sp.CutOracle(triangle), unit_cost, range(3), 0.0)
    assert sol.ids == frozenset() and sol.value == 0.0


def test_brute_force_triangle_cut(triangle):
    sol = sp.brute_force_opt(sp.CutOracle(triangle), unit_cost, range(3), 1.0)
    assert sol.value == 2


def test_brute_force_rejects_non_finite_budget(star6):
    orc = sp.CoverageOracle(star6)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="finite"):
            sp.brute_force_opt(orc, unit_cost, range(5), bad)
    assert orc.query_count == 0


def test_brute_force_oversize_raises():
    orc = _modular(30, [1.0] * 30)
    with pytest.raises(InputError):
        sp.brute_force_opt(orc, unit_cost, range(23), 3.0)


def test_brute_force_matches_independent_enumerator():
    rng = random.Random(1)
    for seed in range(5):
        n = 9
        graph = random_graph(n, 0.35, seed + 500)
        orc = sp.CutOracle(graph)
        costs, cost_fn = random_costs(n, 0.4, 1.4, seed)
        kappa = rng.uniform(1.0, 3.0)
        sol = sp.brute_force_opt(orc, cost_fn, range(n), kappa)
        _, opt_val = exhaustive_best(orc, cost_fn, range(n), kappa)
        assert sol.value == opt_val
        assert sum(cost_fn(v) for v in sol.ids) <= kappa


def test_brute_force_asks_one_query_per_feasible_subset():
    # an Oracle is asked through _value, a wrapper through eval: same answer,
    # same bill, and a bad id is refused before either is asked anything
    graph = random_graph(9, 0.35, 700)
    costs, cost_fn = random_costs(9, 0.4, 1.4, 3)
    feasible = sum(1 for r in range(1, 10) for combo in itertools.combinations(range(9), r)
                   if sum(costs[v] for v in combo) <= 2.5)
    for orc in (sp.CutOracle(graph), PlainOracle(sp.CutOracle(graph))):
        sol = sp.brute_force_opt(orc, cost_fn, np.arange(9), 2.5)
        assert sol.oracle_calls == orc.query_count == feasible
        assert all(type(v) is int for v in sol.ids)
        assert sol.value == exhaustive_best(orc, cost_fn, range(9), 2.5)[1]
        calls = orc.query_count
        for bad in (9, 1.5):
            with pytest.raises(InputError):
                sp.brute_force_opt(orc, cost_fn, [0, bad], 2.5)
        assert orc.query_count == calls


def test_brute_force_dominates_greedy():
    for seed in range(5):
        n = 10
        graph = random_graph(n, 0.3, seed + 600)
        orc = sp.CoverageOracle(graph)
        costs, cost_fn = random_costs(n, 0.5, 1.5, seed)
        greedy = sp.greedy_knapsack(orc, cost_fn, range(n), 3.0)
        brute = sp.brute_force_opt(orc, cost_fn, range(n), 3.0)
        assert brute.value >= greedy.value


def test_solution_serialization_round_trip(star6):
    sol = sp.greedy_cardinality(sp.CoverageOracle(star6), range(6), 2)
    d = sol.to_json_dict()
    assert d["ids"] == sorted(sol.ids)
    assert set(d) == {"ids", "value", "cost", "oracle_calls"}
