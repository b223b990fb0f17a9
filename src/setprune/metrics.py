"""Retention and pruning metrics, plus budget sweeps.

For a heuristic H, a ground set U and a pruned set U', the three numbers
reported per run are the retention ratio p_r = f(H(U')) / f(H(U)), the
pruned fraction p_g = 1 - |U'| / |U|, and their product. p_r may exceed 1:
pruning occasionally helps the heuristic, and no clamping is applied.

CSV rows follow the fixed column order in ``CSV_COLUMNS``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

from .errors import InputError, require_finite
from .solvers import _SweepSet

__all__ = ["EvalRecord", "CSV_COLUMNS", "evaluate_pruning", "sweep_budgets",
           "write_csv", "write_json_lines"]

CSV_COLUMNS = [
    "pruner", "budget", "p_r", "p_g", "combined", "n", "n_pruned",
    "oracle_calls_prune", "oracle_calls_solve", "undefined", "out_of_range",
]


@dataclass(frozen=True)
class EvalRecord:
    """One (pruner, budget) evaluation row."""

    pruner: str
    budget: float
    p_r: float
    p_g: float
    combined: float
    n: int
    n_pruned: int
    oracle_calls_prune: int
    oracle_calls_solve: int
    undefined: bool = False
    out_of_range: bool = False

    def to_row(self) -> list:
        return [getattr(self, col) for col in CSV_COLUMNS]

    def to_json_dict(self) -> dict:
        return {col: getattr(self, col) for col in CSV_COLUMNS}


def _check_range(budget_range) -> None:
    if budget_range is not None:
        lo, hi = budget_range
        require_finite(kappa_min=lo, kappa_max=hi)


def evaluate_pruning(oracle, cost_fn, U, U_pruned, solver, budget,
                     pruner: str = "", oracle_calls_prune: int = 0,
                     budget_range=None) -> EvalRecord:
    """Run the solver on the full and pruned ground sets at one budget: the
    one record of a ``sweep_budgets`` over that budget and that pruner.

    ``solver(oracle, cost_fn, ids, budget)`` must return a Solution; the
    record's ``oracle_calls_solve`` is the sum of the two solutions'
    ``oracle_calls``. When the full-set solution has zero value, p_r is 1 if
    the pruned-set solution is also zero and NaN (with the undefined flag)
    otherwise.
    """
    return sweep_budgets(oracle, cost_fn, U, {pruner: U_pruned}, [budget], solver,
                         {pruner: oracle_calls_prune}, budget_range)[0]


def _record(U, U_pruned, full_solution, pruned_solution, budget, pruner,
            oracle_calls_prune, budget_range) -> EvalRecord:
    undefined = False
    if full_solution.value == 0:
        p_r = 1.0 if pruned_solution.value == 0 else math.nan
        undefined = math.isnan(p_r)
    else:
        p_r = pruned_solution.value / full_solution.value
    p_g = 1.0 - len(U_pruned) / len(U)
    out_of_range = False
    if budget_range is not None:
        lo, hi = budget_range
        out_of_range = not lo <= budget <= hi
    return EvalRecord(
        pruner=pruner,
        budget=float(budget),
        p_r=p_r,
        p_g=p_g,
        combined=p_r * p_g,
        n=len(U),
        n_pruned=len(U_pruned),
        oracle_calls_prune=oracle_calls_prune,
        oracle_calls_solve=full_solution.oracle_calls + pruned_solution.oracle_calls,
        undefined=undefined,
        out_of_range=out_of_range,
    )


def sweep_budgets(oracle, cost_fn, U, pruner_outputs: dict, budgets, solver,
                  prune_calls: dict = None, budget_range=None) -> list:
    """One EvalRecord per (budget, pruner) pair.

    ``pruner_outputs`` maps pruner name to its pruned set; pruning is done
    once per pruner by the caller. The full ground set is solved once per
    budget, before the pruned sets, and that solution goes into every
    pruner's record at the budget. The ground set and each pruned set are
    built once per sweep, as frozensets of ids checked as integers that
    keep the fork table their first solve records: a solve seed (checked
    ids, costs, singleton values and their order) for the sweep's largest
    budget and one lazy pass to it over that seed, with where each of the
    sweep's budgets first departs from it. Every later solve with the same
    oracle and cost function takes the pass's commits up to its departure,
    resuming the pass from there only when it departs at a pop that the
    longer pass takes and it cannot afford; a standalone solve is the same
    path over a sweep of one budget. A size-constrained solve always stops
    at its departure and asks only its final ``eval``.
    ``oracle_calls_solve`` stays the standalone bill of the two solves, so
    with a deterministic solver the records are those of per-budget
    ``evaluate_pruning`` calls; the queries actually asked are the
    difference in ``oracle.query_count`` over the sweep.
    Budgets iterate in the given order, pruners in name order, so the output
    ordering is deterministic. Budgets outside ``budget_range`` are still
    evaluated but flagged.
    """
    _check_range(budget_range)
    prune_calls = prune_calls or {}
    budgets = list(budgets)
    try:
        shared = sorted(b for b in map(float, budgets) if math.isfinite(b))
    except (TypeError, ValueError, OverflowError):  # left to the solver to refuse
        shared = []
    ground = _SweepSet(U, shared)
    pruned = {name: _SweepSet(pruner_outputs[name], shared)
              for name in sorted(pruner_outputs)}
    for U_pruned in pruned.values():
        if not ground:
            raise InputError("ground set must be non-empty")
        if not U_pruned <= ground:
            raise InputError("pruned set must be a subset of the ground set")
    records = []
    for budget in budgets:
        full_solution = solver(oracle, cost_fn, ground, budget) if pruned else None
        for name, U_pruned in pruned.items():
            records.append(_record(ground, U_pruned, full_solution,
                                   solver(oracle, cost_fn, U_pruned, budget), budget,
                                   name, prune_calls.get(name, 0), budget_range))
    return records


def write_csv(records, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.to_row())


def write_json_lines(records, fh) -> None:
    for record in records:
        fh.write(json.dumps(record.to_json_dict()) + "\n")
