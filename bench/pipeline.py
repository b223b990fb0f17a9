"""One run of the user pipeline: ingest, oracle build, quickprune over the
budget ladder, then sweep_budgets with a greedy solver on the full and the
pruned ground set. Every output is checked after the timed part.

Only setprune's public functions are called. With a ``Tracer`` each layer
call, each oracle query and the heavytail set function record a span; with
``tracer=None`` the same calls run unwrapped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import setprune as sp
from setprune import cli as sp_cli, metrics as sp_metrics

import workloads as wls
from tracing import (PRUNE, SOLVE_FULL, SOLVE_PRUNED, SWEEP, TracedOracle, p99)

PRUNER = "quickprune"
PROBE_SIZES = (1, 16, 256)
PROBE_SAMPLES = 1000   # ten samples lie beyond the reported p99


@dataclass
class Inputs:
    """One graph of a workload, and the seed its oracle is built with."""
    graph_path: str
    graph_digest: str
    input_bytes: int
    seed: int
    weights: list = None


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; ``what`` says what went wrong if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def merge(self, other: Checks) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages)


@dataclass
class Rep:
    setup_s: float
    prune_s: float
    sweep_s: float
    pipeline_s: float
    oracle_calls_prune: int
    oracle_calls_solve: int
    pruned_frac: float
    retention_min: float
    deletions: int
    removed: int
    size_to_bound_max: float
    rungs: int
    pruned: frozenset
    records: list
    digests: dict
    checks: Checks

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly for one seed."""
        return (self.oracle_calls_prune, self.oracle_calls_solve, self.pruned_frac,
                self.retention_min, tuple(sorted(self.digests.items())))


def make_inputs(wl, n: int, seed: int, workdir: str) -> list:
    """The workload's ``wl.graphs`` inputs for ``seed``; the first uses the
    seed itself, the others seeds a prime stride away from it."""
    weights = wls.heavytail_weights(n) if wl.objective == "heavytail" else None
    out = []
    for k in range(wl.graphs):
        graph_seed = seed + k * 1_000_003
        path = os.path.join(workdir, f"graph-{k}.txt")
        digest = wls.write_ba_edge_list(path, n, graph_seed)
        out.append(Inputs(path, digest, os.path.getsize(path), graph_seed, weights))
    return out


def _direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def build_oracle(wl, graph, inputs: Inputs, tracer=None):
    if wl.objective == "cut":
        return sp.CutOracle(graph)
    if wl.objective == "influence":
        pool = sp.LiveEdgeSamplePool(graph, p=wls.INFLUENCE_P,
                                     m=wls.INFLUENCE_SAMPLES, seed=inputs.seed)
        return sp.InfluenceOracle(pool)
    fn = wls.facility_location(graph, inputs.weights)
    if tracer is not None:
        fn = tracer.traced_set_fn(fn)
    return sp.CustomOracle(graph.n, fn, kind="heavytail")


def _solver(wl):
    return sp.knapsack_solver if wl.solver == "knapsack" else sp.cardinality_solver


def ladder_params(wl):
    return sp.LadderParams(kappa_min=wl.kappa_min, kappa_max=wl.kappa_max,
                           eta=wls.ETA, delta=wls.DELTA, epsilon=wls.EPSILON)


def setup(wl, inputs: Inputs, tracer=None):
    """Ingest, cost assignment and oracle build: what ``setup_s`` times."""
    call = tracer.call if tracer is not None else _direct
    graph = call("graphio.load_edge_list", sp.load_edge_list, inputs.graph_path)
    graph = call("graphio.assign_knapsack_costs", sp.assign_knapsack_costs, graph,
                 mode=wl.costs)
    return graph, call("objectives.build", build_oracle, wl, graph, inputs, tracer)


def sweep(wl, oracle, cost_fn, n: int, pruned, solver, call=_direct):
    return call(SWEEP, sp.sweep_budgets, oracle, cost_fn, range(n), {PRUNER: pruned},
                wl.budgets, solver, budget_range=(wl.kappa_min, wl.kappa_max))


def _nothing():
    pass


def time_setup_and_sweep(wl, inputs: Inputs, pruned, between=_nothing):
    """One more set-up and sweep on the same input and pruned set, so the
    short phases get more samples than the full repetitions give them.
    Returns both times and the sweep's records."""
    t0 = perf_counter()
    graph, oracle = setup(wl, inputs)
    t1 = perf_counter()
    between()
    t2 = perf_counter()
    records = sweep(wl, oracle, graph.cost_fn(), graph.n, pruned, _solver(wl))
    return t1 - t0, perf_counter() - t2, records


def run_pipeline(wl, inputs: Inputs, tracer=None, between=_nothing) -> Rep:
    """Time setup, prune and sweep once, then check every output.

    ``between`` runs before, between and after the three phases, outside
    their timings; ``pipeline_s`` is the sum of the phases."""
    call = tracer.call if tracer is not None else _direct
    base_solver = _solver(wl)
    solutions = []

    between()
    t0 = perf_counter()
    graph, oracle = setup(wl, inputs, tracer)
    setup_s = perf_counter() - t0
    n = graph.n
    cost_fn = graph.cost_fn()
    handed = TracedOracle(oracle, tracer) if tracer is not None else oracle

    def solver(oracle_, cost_fn_, U, budget):
        name = SOLVE_FULL if len(U) == n else SOLVE_PRUNED
        sol = call(name, base_solver, oracle_, cost_fn_, U, budget)
        solutions.append((budget, sol, sol.ids <= U))
        return sol

    between()
    t1 = perf_counter()
    pruned, report = call(PRUNE, sp.quickprune, range(n), handed, cost_fn,
                          ladder_params(wl), n)
    prune_s = perf_counter() - t1
    between()
    t2 = perf_counter()
    records = sweep(wl, handed, cost_fn, n, pruned, solver, call)
    sweep_s = perf_counter() - t2
    between()

    checks = Checks()
    checks.op(True, "prune call")
    checks.op(all(isinstance(v, int) and 0 <= v < n for v in pruned),
              "pruned set is not a subset of the ground set")
    size_ratio = _check_sizes(checks, graph, report)
    rungs = len(report.per_budget_sizes)
    checks.op(report.oracle_calls <= rungs * (2 * n + 3 * report.deletions),
              f"oracle_calls_prune {report.oracle_calls} above rungs*(2n+3*deletions)")
    for budget, sol, inside in solutions:
        checks.op(True, "solver call")
        checks.op(inside and _fits(wl, graph, sol, budget),
                  f"solution does not fit budget {budget}")
        fresh = oracle.eval(sol.ids) if sol.ids else 0.0
        checks.op(_same_value(wl, sol.value, fresh),
                  f"solution value {sol.value!r} != fresh eval {fresh!r} at budget {budget}")
    in_range = [r.p_r for r in records if not r.out_of_range]
    checks.op(len(records) == len(wl.budgets) and bool(in_range)
              and all(math.isfinite(p) for p in in_range), "sweep records incomplete")

    return Rep(
        setup_s=setup_s, prune_s=prune_s, sweep_s=sweep_s,
        pipeline_s=setup_s + prune_s + sweep_s,
        oracle_calls_prune=report.oracle_calls,
        oracle_calls_solve=sum(r.oracle_calls_solve for r in records),
        pruned_frac=1.0 - len(pruned) / n,
        retention_min=min(in_range, default=math.nan),
        deletions=report.deletions,
        removed=sum(len(e.removed) for e in report.events),
        size_to_bound_max=size_ratio,
        rungs=rungs,
        pruned=frozenset(pruned),
        records=records,
        digests={"input": inputs.graph_digest, "pruned": _digest(_ids_text(pruned)),
                 "solutions": _digest(";".join(_ids_text(s.ids) for _, s, _ in solutions))},
        checks=checks,
    )


def _ids_text(ids) -> str:
    return ",".join(map(str, sorted(ids)))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_sizes(checks: Checks, graph, report) -> float:
    """Criterion 2 per rung; returns the largest observed/bound ratio."""
    worst = 0.0
    for tau, size in report.per_budget_sizes.items():
        fitting = graph.costs[graph.costs <= tau]
        bound = sp.size_bound(graph.n, tau, wls.DELTA, float(fitting.min()), wls.EPSILON)
        checks.op(size <= bound, f"rung {tau}: size {size} above size_bound {bound:.1f}")
        worst = max(worst, size / bound)
    return worst


def _fits(wl, graph, sol, budget) -> bool:
    if wl.solver == "cardinality":
        return len(sol.ids) <= budget
    spent = math.fsum(float(graph.costs[v]) for v in sol.ids)
    return spent <= budget * (1 + 1e-12)


def _same_value(wl, a, b) -> bool:
    if wl.float_valued:
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)
    return a == b


def run_cli(wl, inputs: Inputs, workdir: str, rep: Rep, checks: Checks):
    """In-process ``setprune prune`` then ``setprune sweep`` on the same input;
    returns their wall times and checks their files against the library run."""
    common = ["--graph", inputs.graph_path, "--objective", wl.objective,
              "--constraint", "knapsack" if wl.solver == "knapsack" else "size",
              "--seed", str(inputs.seed), "--kappa-min", str(wl.kappa_min),
              "--kappa-max", str(wl.kappa_max)]
    if wl.objective == "influence":
        common += ["--p", str(wls.INFLUENCE_P), "--samples", str(wls.INFLUENCE_SAMPLES)]
    ids_path = os.path.join(workdir, "cli_ids.txt")
    csv_path = os.path.join(workdir, "cli_sweep.csv")
    prune_argv = ["prune", *common, "--pruner", PRUNER, "--delta", str(wls.DELTA),
                  "--epsilon", str(wls.EPSILON), "--eta", str(wls.ETA),
                  "--out-ids", ids_path,
                  "--out-report", os.path.join(workdir, "cli_report.json")]
    sweep_argv = ["sweep", *common, "--budgets", *map(str, wl.budgets),
                  "--ids", ids_path, "--pruner", PRUNER, "--out", csv_path]
    times = []
    for argv in (prune_argv, sweep_argv):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = sp_cli.main(argv)
            times.append(perf_counter() - t0)
        checks.op(code == 0, f"cli {argv[0]} exited {code}")
    expected = io.StringIO()
    sp_metrics.write_csv(rep.records, expected)
    try:
        same_ids = sp.read_id_file(ids_path) == set(rep.pruned)
        with open(csv_path, newline="") as fh:
            same_rows = fh.read() == expected.getvalue()
    except OSError:
        same_ids = same_rows = False
    checks.op(same_ids, "cli id file differs from the library's pruned set")
    checks.op(same_rows, "cli sweep CSV rows differ from the library's")
    return times


def probe_marginals(oracle, n: int, seed: int) -> dict:
    """Time ``marginal`` on fixed seeded sets of 1, 16 and 256 elements."""
    rng = random.Random(f"probe-{seed}")
    out = {}
    for k in PROBE_SIZES:
        S = set(rng.sample(range(n), min(k, n - 1)))
        f_S = oracle.eval(S)
        outside = [v for v in range(n) if v not in S]
        times = []
        for _ in range(PROBE_SAMPLES):
            e = outside[rng.randrange(len(outside))]
            t0 = perf_counter_ns()
            oracle.marginal(e, S, f_S)
            times.append((perf_counter_ns() - t0) / 1000.0)
        out[f"objectives.probe.marginal_us.s{k}.p50"] = statistics.median(times)
        out[f"objectives.probe.marginal_us.s{k}.p99"] = p99(times)
    return out


def time_generate(n: int, seed: int) -> float:
    t0 = perf_counter()
    sp.generate("barabasi_albert", n, {"m_attach": wls.M_ATTACH}, seed=seed)
    return perf_counter() - t0
