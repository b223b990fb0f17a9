"""In-memory spans around calls into setprune's layers, and the per-layer
metrics derived from them.

A span is ``[name, parent, start, end, size, elem]``; its id is its index in
``Tracer.spans`` and a parent is always recorded before its children. Oracle
spans carry the query's set size and, for singleton evaluations, the element.
Spans are kept in memory for the whole run and written out once at the end.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

PRUNE = "pruning.quickprune"
SWEEP = "metrics.sweep_budgets"
SOLVE_FULL = "solvers.full"
SOLVE_PRUNED = "solvers.pruned"
EVAL = "objectives.eval"
MARGINAL = "objectives.marginal"
USER_FN = "objectives.user_fn"
ORACLE_CALLS = (EVAL, MARGINAL)
PHASES = (PRUNE, SWEEP, SOLVE_FULL, SOLVE_PRUNED)


class Tracer:
    """Records one span per traced call; ``run_id`` names the workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stack = [-1]

    def call(self, name, fn, *args, **kwargs):
        return self.call_set(name, (), fn, *args, **kwargs)

    def call_set(self, name, S, fn, *args, **kwargs):
        """``call`` that also records the size of the set ``S`` the call
        works on and, for a singleton, its element."""
        size = len(S)
        span = [name, self.stack[-1], 0.0, 0.0, size,
                next(iter(S)) if size == 1 else None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self.stack.pop()

    def traced_set_fn(self, fn):
        """Wrap a user set function so its own time shows as a span."""
        def traced(S):
            return self.call_set(USER_FN, S, fn, S)
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "wt") as fh:
            for sid, (name, parent, start, end, size, elem) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "size": size, "elem": elem}) + "\n")


class TracedOracle:
    """The oracle the benchmark hands to the pruner and solvers in a traced
    run: same interface, one span per ``eval`` or ``marginal`` call."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.n = inner.n
        self.kind = inner.kind

    @property
    def query_count(self) -> int:
        return self._inner.query_count

    def eval(self, S):
        return self._tracer.call_set(EVAL, S, self._inner.eval, S)

    def marginal(self, e, S, f_S):
        return self._tracer.call_set(MARGINAL, S, self._inner.marginal, e, S, f_S)


def p99(values):
    """99th percentile by nearest rank; needs at least 1000 samples for ten
    to lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, -(-99 * len(ordered) // 100) - 1)]


def layer_metrics(spans, n: int, rungs: int) -> dict:
    """Per-layer numbers for one traced pipeline from its spans."""
    count = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * count
    phase = [None] * count
    for i, (name, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
        phase[i] = name if name in PHASES else (phase[parent] if parent >= 0 else None)

    def total(name):
        return sum(dur[i] for i in range(count) if spans[i][0] == name)

    def self_time(names):
        return sum(dur[i] - child[i] for i in range(count) if spans[i][0] in names)

    def oracle_spans(phases):
        return [i for i in range(count)
                if spans[i][0] in ORACLE_CALLS and phase[i] in phases]

    prune_calls = oracle_spans((PRUNE,))
    marg = [i for i in prune_calls if spans[i][0] == MARGINAL]
    prune_singles = [spans[i][5] for i in prune_calls
                     if spans[i][0] == EVAL and spans[i][4] == 1]
    # quickprune evaluates a set of two or more elements only to re-evaluate
    # the working set after a deletion; a reset to one element reads as a
    # singleton query.
    resets = [i for i in prune_calls if spans[i][0] == EVAL and spans[i][4] > 1]
    solve_calls = oracle_spans((SOLVE_FULL, SOLVE_PRUNED))
    solve_singles = [spans[i][5] for i in solve_calls
                     if spans[i][0] == EVAL and spans[i][4] == 1]
    user_fn_prune = sum(dur[i] for i in range(count)
                        if spans[i][0] == USER_FN and phase[i] == PRUNE)
    prune_busy = sum(dur[i] for i in prune_calls)
    marg_us = [dur[i] * 1e6 for i in marg]
    sizes = [spans[i][4] for i in marg]
    full_s, pruned_s = total(SOLVE_FULL), total(SOLVE_PRUNED)
    return {
        "graphio.load_s": total("graphio.load_edge_list"),
        "graphio.costs_s": total("graphio.assign_knapsack_costs"),
        "objectives.build_s": total("objectives.build"),
        "objectives.prune_busy_s": prune_busy,
        "objectives.marginal_us.p50": statistics.median(marg_us) if marg_us else 0.0,
        "objectives.marginal_us.p99": p99(marg_us) if marg_us else 0.0,
        "objectives.marginal_set_size.mean": statistics.fmean(sizes) if sizes else 0.0,
        "objectives.marginal_set_size.max": max(sizes, default=0),
        "objectives.singleton_repeat_frac": repeat_frac(prune_singles),
        "objectives.user_fn_s": user_fn_prune,
        "objectives.wrapper_s": prune_busy - user_fn_prune,
        "pruning.self_s": self_time((PRUNE,)),
        "pruning.queries_per_elem_rung": len(prune_calls) / (n * rungs),
        "pruning.reset_eval_s": sum(dur[i] for i in resets),
        "solvers.full_s": full_s,
        "solvers.pruned_s": pruned_s,
        "solvers.oracle_busy_s": sum(dur[i] for i in solve_calls),
        "solvers.self_s": self_time((SOLVE_FULL, SOLVE_PRUNED)),
        "solvers.singleton_calls": len(solve_singles),
        "solvers.marginal_calls": sum(1 for i in solve_calls if spans[i][0] == MARGINAL),
        "solvers.singleton_repeat_frac": repeat_frac(solve_singles),
        "solvers.speedup": full_s / pruned_s if pruned_s > 0 else 0.0,
        "metrics.self_s": self_time((SWEEP,)),
    }


def repeat_frac(elements) -> float:
    """Share of singleton queries for an element already queried as one."""
    if not elements:
        return 0.0
    return 1.0 - len(set(elements)) / len(elements)
