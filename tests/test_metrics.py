import io
import math

import pytest

import setprune as sp
from setprune.errors import InputError

from conftest import random_graph, unit_cost


def _coverage_setup(seed=0):
    graph = random_graph(12, 0.3, seed)
    return sp.CoverageOracle(graph), graph.cost_fn()


def test_identity_pruning_scores_one_retention_zero_pruned():
    orc, cost_fn = _coverage_setup()
    rec = sp.evaluate_pruning(orc, cost_fn, range(12), range(12),
                              sp.cardinality_solver, 3)
    assert rec.p_r == 1.0 and rec.p_g == 0.0 and rec.combined == 0.0


def test_empty_pruning_on_positive_instance():
    orc, cost_fn = _coverage_setup()
    rec = sp.evaluate_pruning(orc, cost_fn, range(12), set(),
                              sp.cardinality_solver, 3)
    assert rec.p_r == 0.0 and rec.p_g == 1.0 and rec.combined == 0.0


def test_zero_valued_instance_is_defined_when_both_sides_zero():
    orc = sp.CustomOracle(6, lambda S: 0.0)
    rec = sp.evaluate_pruning(orc, unit_cost, range(6), {0, 1},
                              sp.cardinality_solver, 2)
    assert rec.p_r == 1.0 and not rec.undefined


def test_zero_full_but_positive_pruned_sets_undefined_flag():
    # contrived non-monotone custom: value 1 exactly on {4, 5}, zero
    # elsewhere; every singleton scores zero, so at budget 3 greedy on the
    # full set commits 0, 1 and 2 at zero gain and ends at zero, while on
    # the pruned set {4, 5} it reaches 1
    def f(S):
        return 1.0 if S == {4, 5} else 0.0

    orc = sp.CustomOracle(6, f)
    rec = sp.evaluate_pruning(orc, unit_cost, range(6), {4, 5},
                              sp.cardinality_solver, 3,
                              pruner="weird")
    assert rec.undefined
    assert math.isnan(rec.p_r) and math.isnan(rec.combined)


def test_subset_violation_raises():
    orc, cost_fn = _coverage_setup()
    with pytest.raises(InputError):
        sp.evaluate_pruning(orc, cost_fn, range(10), {11},
                            sp.cardinality_solver, 2)


def test_combined_is_exact_product_and_p_g_from_cardinalities():
    orc, cost_fn = _coverage_setup(3)
    for pruned in ({0, 1, 2}, set(range(6)), set(range(12))):
        rec = sp.evaluate_pruning(orc, cost_fn, range(12), pruned,
                                  sp.cardinality_solver, 4)
        assert rec.combined == rec.p_r * rec.p_g
        assert rec.p_g == 1 - len(pruned) / 12
        assert rec.p_g >= 0


def test_retention_can_exceed_one_without_clamping():
    # force the solver to a bad first pick on the full set: a decoy with the
    # single best value but nothing behind it, while the pruned set holds a
    # pair that together cover more
    values = {
        frozenset(): 0.0, frozenset({0}): 10.0, frozenset({1}): 9.0,
        frozenset({2}): 9.0, frozenset({0, 1}): 10.5, frozenset({0, 2}): 10.5,
        frozenset({1, 2}): 18.0, frozenset({0, 1, 2}): 18.0,
    }
    orc = sp.CustomOracle(3, lambda S: values[frozenset(S)])
    rec = sp.evaluate_pruning(orc, unit_cost, range(3), {1, 2},
                              sp.cardinality_solver, 2)
    assert rec.p_r > 1.0


def test_sweep_shapes_and_order():
    orc, cost_fn = _coverage_setup(5)
    outputs = {"b": {0, 1}, "a": {0, 1, 2, 3}}
    budgets = list(range(1, 6))
    records = sp.sweep_budgets(orc, cost_fn, range(12), outputs, budgets,
                               sp.cardinality_solver,
                               prune_calls={"a": 7, "b": 9})
    assert len(records) == 10
    assert [r.pruner for r in records[:2]] == ["a", "b"]  # name order per budget
    assert [r.budget for r in records[::2]] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert records[0].oracle_calls_prune == 7
    single = sp.evaluate_pruning(orc, cost_fn, range(12), outputs["a"],
                                 sp.cardinality_solver, 1, pruner="a",
                                 oracle_calls_prune=7)
    assert records[0].p_r == single.p_r and records[0].combined == single.combined


def test_a_sweep_solves_the_full_set_once_per_budget():
    # two pruners under a 16-budget knapsack: the records, standalone
    # oracle_calls_solve included, are those of per-budget evaluate_pruning
    # calls, and the full set's solve at a budget serves both pruners
    graph = sp.assign_knapsack_costs(
        sp.generate("barabasi_albert", 400, {"m_attach": 3}, seed=7), mode="degree")
    cost_fn = graph.cost_fn()
    budgets = [float(b) for b in range(10, 41, 2)]
    pruned, report = sp.quickprune(range(400), sp.CutOracle(graph), cost_fn,
                                   sp.LadderParams(10.0, 40.0, 0.5, 0.1, 0.1), 400)
    outputs = {"quickprune": pruned, "every third": set(range(0, 400, 3))}
    calls = {"quickprune": report.oracle_calls}
    want = [sp.evaluate_pruning(sp.CutOracle(graph), cost_fn, range(400), outputs[name],
                                sp.knapsack_solver, budget, pruner=name,
                                oracle_calls_prune=calls.get(name, 0))
            for budget in budgets for name in sorted(outputs)]
    oracle = sp.CutOracle(graph)
    got = sp.sweep_budgets(oracle, cost_fn, range(400), outputs, budgets,
                           sp.knapsack_solver, prune_calls=calls)
    assert [repr(r) for r in got] == [repr(r) for r in want]

    # the same sweep solving the full set again for the second pruner, as
    # each (budget, pruner) pair used to: it asks the repeats' queries more
    repeats, full_solves = [], []

    def solve_full_twice(oracle_, cost_fn_, U, budget):
        solution = sp.knapsack_solver(oracle_, cost_fn_, U, budget)
        if len(U) == 400:
            full_solves.append(solution)
            before = oracle_.query_count
            sp.knapsack_solver(oracle_, cost_fn_, U, budget)
            repeats.append(oracle_.query_count - before)
        return solution

    twice = sp.CutOracle(graph)
    again = sp.sweep_budgets(twice, cost_fn, range(400), outputs, budgets,
                             solve_full_twice, prune_calls=calls)
    assert [repr(r) for r in again] == [repr(r) for r in got]
    assert len(full_solves) == len(budgets) and min(repeats) > 0
    assert oracle.query_count == twice.query_count - sum(repeats)


def test_sweep_flags_out_of_range_budgets():
    orc, cost_fn = _coverage_setup(6)
    records = sp.sweep_budgets(orc, cost_fn, range(12), {"x": {0}}, [1, 4, 9],
                               sp.cardinality_solver, budget_range=(2, 8))
    assert [r.out_of_range for r in records] == [True, False, True]


@pytest.mark.parametrize("budgets", [[3, 10**400], [math.nan, 3], [3, math.inf]])
def test_sweep_refuses_the_budgets_its_solver_refuses(budgets):
    # the largest budget, which the shared solve seeds reach, is taken before
    # any solve; a budget past the float range must still be refused by the
    # solver, not fail in that step
    orc, cost_fn = _coverage_setup(8)
    with pytest.raises(InputError):
        sp.sweep_budgets(orc, cost_fn, range(12), {"x": {0}}, budgets,
                         sp.cardinality_solver)


def test_csv_and_jsonl_output():
    orc, cost_fn = _coverage_setup(7)
    records = sp.sweep_budgets(orc, cost_fn, range(12), {"x": {0, 1}}, [2, 3],
                               sp.cardinality_solver)
    csv_buf = io.StringIO()
    sp.metrics.write_csv(records, csv_buf)
    lines = csv_buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(sp.metrics.CSV_COLUMNS)
    assert len(lines) == 3
    json_buf = io.StringIO()
    sp.metrics.write_json_lines(records, json_buf)
    assert len(json_buf.getvalue().strip().splitlines()) == 2
