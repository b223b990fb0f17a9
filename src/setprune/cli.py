"""Command-line entry points for reproducible pruning experiments.

Subcommands: gen, prune, solve, eval, sweep, bounds. Options can come from a
JSON config file (--config) with individual flags overriding it; seeds are
always explicit so repeated runs produce identical numeric outputs. The
SETPRUNE_DATA_DIR environment variable names the default directory for
datasets referenced by bare file names.

Exit codes: 0 success, 2 configuration or parameter error, 3 IO or parse
error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import baselines, graphio, metrics, pruning, solvers
from .errors import InputError, ParseError
from .objectives import (CoverageOracle, CutOracle, InfluenceOracle,
                         LiveEdgeSamplePool, SimilarityCutOracle,
                         load_similarity_kernel)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

DEFAULTS = {
    "objective": "coverage",
    "constraint": "size",
    "pruner": "quickprune",
    "delta": 0.1,
    "epsilon": 0.1,
    "eta": 0.5,
    "p": 0.01,
    "samples": 100,
    "lam": 10.0,
    "r": 8,
    "c": 8,
    "seed": 0,
    "cost_alpha": graphio.DEFAULT_COST_ALPHA,
    "directed": False,
}


def _data_path(path):
    if path is None or os.path.isabs(path) or os.path.exists(path):
        return path
    base = os.environ.get("SETPRUNE_DATA_DIR", "")
    candidate = os.path.join(base, path) if base else path
    return candidate


def _merge_config(args):
    """Resolve each of the command's flags as: its value if given, else the
    config file's (checked by ``_config_value``), else the default. Config
    keys the command has no flag for are ignored."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, "rt") as fh:
            # bytes that are not UTF-8 and ints of over 4,300 digits raise a
            # ValueError, nesting past the decoder's depth a RecursionError
            try:
                loaded = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise InputError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise InputError("config file must hold a JSON object")
        cfg = loaded
    resolved = {}
    for key, flag in args.flags.items():
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
        elif key in cfg:
            resolved[key] = _config_value(flag, key, cfg[key])
        else:
            resolved[key] = DEFAULTS.get(key)
    return resolved


def _config_value(flag, key, value):
    """``value`` if it has the type its argparse flag declares, else
    InputError: ``type=float`` takes any JSON number but a bool, ``type=int``
    an integer, ``--directed`` (``store_const``) a bool, an untyped flag a
    string, and an ``nargs`` flag a list of these."""
    kind = flag.type or (type(flag.const) if flag.const is not None else str)
    allowed = (int, float) if kind is float else (kind,)
    many = flag.nargs == "+"
    items = value if many else [value]
    if (many and type(value) is not list) or any(type(v) not in allowed for v in items):
        shape = f"a list of {kind.__name__}" if many else kind.__name__
        raise InputError(f"config key {key!r} must be {shape}, got {value!r}")
    return value


def _build_instance(opts):
    """Load the graph/kernel and build (oracle, cost_fn, ground_set, graph)."""
    objective = opts["objective"]
    if objective == "simgraphcut":
        if not opts.get("kernel") or not opts.get("queries"):
            raise InputError("simgraphcut requires --kernel and --queries")
        kernel = load_similarity_kernel(
            _data_path(opts["kernel"]), _data_path(opts["queries"]), lam=opts["lam"])
        oracle = SimilarityCutOracle(kernel)
        return oracle, (lambda v: 1.0), set(range(oracle.n)), None
    if not opts.get("graph"):
        raise InputError(f"objective {objective!r} requires --graph")
    graph = graphio.load_edge_list(_data_path(opts["graph"]), directed=opts["directed"])
    if opts["constraint"] == "knapsack":
        graph = graphio.assign_knapsack_costs(graph, cost_alpha=opts["cost_alpha"])
    elif opts["constraint"] != "size":
        raise InputError(f"unknown constraint {opts['constraint']!r}")
    if objective == "coverage":
        oracle = CoverageOracle(graph)
    elif objective == "cut":
        oracle = CutOracle(graph)
    elif objective == "influence":
        pool = LiveEdgeSamplePool(graph, p=opts["p"], m=opts["samples"], seed=opts["seed"])
        oracle = InfluenceOracle(pool)
    else:
        raise InputError(f"unknown objective {objective!r}")
    return oracle, graph.cost_fn(), set(range(graph.n)), graph


def _solver_for(opts):
    return solvers.knapsack_solver if opts["constraint"] == "knapsack" \
        else solvers.cardinality_solver


def _require(opts, *keys):
    for key in keys:
        if opts.get(key) is None:
            raise InputError(f"missing required option --{key.replace('_', '-')}")


def cmd_gen(args):
    opts = _merge_config(args)
    _require(opts, "kind", "n", "out")
    params = {}
    if opts["kind"] == "erdos_renyi":
        params["p"] = opts["p"]
    if opts["kind"] == "barabasi_albert":
        _require(opts, "m_attach")
        params["m_attach"] = opts["m_attach"]
    graph = graphio.generate(opts["kind"], opts["n"], params, seed=opts["seed"])
    graphio.write_edge_list(graph, opts["out"])
    with open(str(opts["out"]) + ".meta.json", "wt") as fh:
        json.dump(graphio.graph_metadata(graph), fh, indent=2, sort_keys=True)
    print(f"wrote {graph.n} nodes / {graph.num_edges} edges to {opts['out']}")
    return EXIT_OK


def cmd_prune(args):
    opts = _merge_config(args)
    _require(opts, "out_ids", "out_report")
    oracle, cost_fn, ground, graph = _build_instance(opts)
    n = len(ground)
    pruner = opts["pruner"]
    if pruner in ("quickprune", "quickprune-single"):
        # Each pruner reads its own budget flag first and the other's second.
        single = pruner == "quickprune-single"
        first, second = ("kappa", "kappa_max") if single else ("kappa_max", "kappa")
        kappa = opts[first] if opts[first] is not None else opts[second]
        if kappa is None:
            raise InputError(f"{pruner} requires --{first.replace('_', '-')} "
                             f"(or --{second.replace('_', '-')})")
        if single:
            run = pruning.quickprune_single
            params = pruning.PruneParams(kappa=kappa, delta=opts["delta"],
                                         epsilon=opts["epsilon"])
        else:
            run = pruning.quickprune
            kmin = opts["kappa_min"] if opts["kappa_min"] is not None else kappa
            params = pruning.LadderParams(kappa_min=kmin, kappa_max=kappa,
                                          eta=opts["eta"], delta=opts["delta"],
                                          epsilon=opts["epsilon"])
        pruned, report = run(sorted(ground), oracle, cost_fn, params, n)
    else:
        calls_before = oracle.query_count
        start = time.monotonic()
        if pruner == "ss":
            config = baselines.BaselineConfig(r=opts["r"], c=opts["c"],
                                              seed=opts["seed"])
            pruned = baselines.ss_prune(oracle, ground, config)
        elif pruner == "topk":
            _require(opts, "target_size")
            if graph is None:
                raise InputError("topk needs a graph objective")
            pruned = baselines.top_k_prune(graph, cost_fn, opts["target_size"])
        elif pruner == "random":
            _require(opts, "target_size")
            pruned = baselines.random_prune(n, opts["target_size"], opts["seed"])
        else:
            raise InputError(f"unknown pruner {pruner!r}")
        report = pruning.PruneReport(frozenset(pruned), oracle.query_count - calls_before,
                                     deletions=0, per_budget_sizes={},
                                     elapsed=time.monotonic() - start, n=n)
    graphio.write_id_file(pruned, opts["out_ids"])
    report_dict = report.to_json_dict()
    report_dict.update(
        pruner=pruner,
        params={k: opts[k] for k in
                ("objective", "constraint", "kappa", "kappa_min", "kappa_max",
                 "delta", "epsilon", "eta", "r", "c", "target_size", "seed")},
        ids_file=str(opts["out_ids"]),
    )
    with open(opts["out_report"], "wt") as fh:
        json.dump(report_dict, fh, indent=2, sort_keys=True)
    print(f"pruned {n} -> {len(pruned)} elements ({report.oracle_calls} oracle calls)")
    return EXIT_OK


def cmd_solve(args):
    opts = _merge_config(args)
    _require(opts, "budget", "out")
    oracle, cost_fn, ground, _ = _build_instance(opts)
    if opts["ids"]:
        ground = graphio.read_id_file(opts["ids"])
    solver = _solver_for(opts)
    solution = solver(oracle, cost_fn, ground, opts["budget"])
    with open(opts["out"], "wt") as fh:
        json.dump(solution.to_json_dict(), fh, indent=2, sort_keys=True)
    print(f"value {solution.value} at cost {solution.cost} "
          f"({solution.oracle_calls} oracle calls)")
    return EXIT_OK


def _run_eval(args, budgets_key):
    opts = _merge_config(args)
    _require(opts, "ids", "out")
    budgets = opts.get("budgets")
    if budgets_key == "budget":
        _require(opts, "budget")
        budgets = [opts["budget"]]
    if not budgets:
        raise InputError("no budgets given")
    oracle, cost_fn, ground, _ = _build_instance(opts)
    pruned = graphio.read_id_file(opts["ids"])
    name = opts["pruner"] or "pruned"
    budget_range = None
    if opts["kappa_min"] is not None and opts["kappa_max"] is not None:
        budget_range = (opts["kappa_min"], opts["kappa_max"])
    start_calls = oracle.query_count
    records = metrics.sweep_budgets(
        oracle, cost_fn, ground, {name: pruned}, budgets, _solver_for(opts),
        budget_range=budget_range)
    asked = oracle.query_count - start_calls
    with open(opts["out"], "wt", newline="") as fh:
        metrics.write_csv(records, fh)
    if opts["out_jsonl"]:
        with open(opts["out_jsonl"], "wt") as fh:
            metrics.write_json_lines(records, fh)
    for record in records:
        print(f"budget {record.budget}: p_r={record.p_r:.4f} "
              f"p_g={record.p_g:.4f} combined={record.combined:.4f}")
    # solves that share a seed ask fewer queries than their standalone bills
    billed = sum(record.oracle_calls_solve for record in records)
    print(f"solver queries: {asked} asked, {billed} billed")
    return EXIT_OK


def cmd_eval(args):
    return _run_eval(args, "budget")


def cmd_sweep(args):
    return _run_eval(args, "budgets")


def cmd_bounds(args):
    opts = _merge_config(args)
    _require(opts, "n", "kappa")
    gamma = opts["gamma"] if opts["gamma"] is not None else 1.0
    c_min = opts["c_min"] if opts["c_min"] is not None else 1.0
    a_single = pruning.alpha_single(opts["delta"], opts["epsilon"], gamma)
    a_multi = pruning.alpha_multi(opts["delta"], opts["epsilon"], gamma)
    print(f"{'alpha_single':>14}  {a_single:.6f}")
    print(f"{'alpha_multi':>14}  {a_multi:.6f}")
    if opts["epsilon"] > 0:
        bound = pruning.size_bound(opts["n"], opts["kappa"], opts["delta"],
                                   c_min, opts["epsilon"])
        print(f"{'size_bound':>14}  {bound:.2f}")
    else:
        print(f"{'size_bound':>14}  n/a (requires epsilon > 0)")
    return EXIT_OK


def _add_instance_flags(sub):
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--graph", help="edge-list file (optionally .gz)")
    sub.add_argument("--kernel", help="similarity matrix CSV (simgraphcut)")
    sub.add_argument("--queries", help="query-id list file (simgraphcut)")
    sub.add_argument("--objective",
                     choices=["coverage", "cut", "influence", "simgraphcut"])
    sub.add_argument("--constraint", choices=["size", "knapsack"])
    sub.add_argument("--p", type=float, help="live-edge probability")
    sub.add_argument("--samples", type=int, help="live-edge sample count")
    sub.add_argument("--lam", type=float, help="similarity reward scaling")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--cost-alpha", dest="cost_alpha", type=float)
    sub.add_argument("--directed", action="store_const", const=True, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setprune",
        description="Prune massive ground sets for budget-constrained "
                    "monotone maximization, solve on the result, and report "
                    "retention metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic graph")
    p_gen.add_argument("--config")
    p_gen.add_argument("--kind", choices=["erdos_renyi", "barabasi_albert",
                                          "star", "path"])
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--p", type=float)
    p_gen.add_argument("--m-attach", dest="m_attach", type=int)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    p_prune = sub.add_parser("prune", help="prune a ground set")
    _add_instance_flags(p_prune)
    p_prune.add_argument("--pruner", choices=["quickprune", "quickprune-single",
                                              "ss", "topk", "random"])
    p_prune.add_argument("--kappa", type=float)
    p_prune.add_argument("--kappa-min", dest="kappa_min", type=float)
    p_prune.add_argument("--kappa-max", dest="kappa_max", type=float)
    p_prune.add_argument("--delta", type=float)
    p_prune.add_argument("--epsilon", type=float)
    p_prune.add_argument("--eta", type=float)
    p_prune.add_argument("--r", type=int)
    p_prune.add_argument("--c", type=int)
    p_prune.add_argument("--target-size", dest="target_size", type=int)
    p_prune.add_argument("--out-ids", dest="out_ids")
    p_prune.add_argument("--out-report", dest="out_report")
    p_prune.set_defaults(func=cmd_prune)

    p_solve = sub.add_parser("solve", help="run a greedy solver")
    _add_instance_flags(p_solve)
    p_solve.add_argument("--budget", type=float)
    p_solve.add_argument("--ids", help="restrict the ground set to this id file")
    p_solve.add_argument("--out")
    p_solve.set_defaults(func=cmd_solve)

    p_eval = sub.add_parser("eval", help="score a pruned set at one budget")
    _add_instance_flags(p_eval)
    p_eval.add_argument("--budget", type=float)
    p_eval.add_argument("--kappa-min", dest="kappa_min", type=float)
    p_eval.add_argument("--kappa-max", dest="kappa_max", type=float)
    p_eval.add_argument("--ids")
    p_eval.add_argument("--pruner", help="label for the report rows")
    p_eval.add_argument("--out", help="CSV output path")
    p_eval.add_argument("--out-jsonl", dest="out_jsonl")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="score a pruned set across budgets")
    _add_instance_flags(p_sweep)
    p_sweep.add_argument("--budgets", type=float, nargs="+")
    p_sweep.add_argument("--kappa-min", dest="kappa_min", type=float)
    p_sweep.add_argument("--kappa-max", dest="kappa_max", type=float)
    p_sweep.add_argument("--ids")
    p_sweep.add_argument("--pruner")
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--out-jsonl", dest="out_jsonl")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="print the closed-form guarantees")
    p_bounds.add_argument("--config")
    p_bounds.add_argument("--n", type=float)
    p_bounds.add_argument("--kappa", type=float)
    p_bounds.add_argument("--delta", type=float)
    p_bounds.add_argument("--epsilon", type=float)
    p_bounds.add_argument("--gamma", type=float)
    p_bounds.add_argument("--c-min", dest="c_min", type=float)
    p_bounds.set_defaults(func=cmd_bounds)

    for command in sub.choices.values():
        command.set_defaults(flags={flag.dest: flag for flag in command._actions
                                    if flag.dest not in ("help", "config")})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # invariant violations and everything unexpected
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
