import math
import random

import pytest

import setprune as sp
from setprune.errors import InputError

from conftest import (exhaustive_best, naive_greedy_cardinality, oracle_families,
                      random_costs, random_graph, unit_cost)


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
