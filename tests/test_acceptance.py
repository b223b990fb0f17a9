"""Acceptance suite: one test per release criterion.

Each test prints a single summary line on success (run with ``-s`` or read
captured output) and asserts the criterion at its stated tolerance. The
instances are seeded, so every run checks the identical workload.
"""

import math
import os
import random
import time


import setprune as sp

from conftest import random_similarity_kernel, unit_cost


def _coverage_or_cut(case, graph):
    return sp.CoverageOracle(graph) if case % 2 == 0 else sp.CutOracle(graph)


# ---------------------------------------------------------------------------
# 1. multi-budget retention versus the exhaustive optimum

def test_criterion_01_retention_bound_holds_on_200_instances():
    start = time.monotonic()
    alpha = sp.alpha_multi(0.1, 0.1, 1.0)
    points = 0
    for case in range(200):
        rng = random.Random(case)
        n = rng.randint(8, 16)
        graph = sp.generate("erdos_renyi", n, {"p": rng.uniform(0.2, 0.5)},
                            seed=case)
        oracle = _coverage_or_cut(case, graph)
        if case % 4 < 2:
            cost_fn = unit_cost
            params = sp.LadderParams(4.0, 4.0, 0.5, 0.1, 0.1)
        else:
            costs = [rng.uniform(0.6, 0.75) for _ in range(n)]
            cost_fn = lambda v: costs[v]
            params = sp.LadderParams(3.0, 6.0, 0.5, 0.1, 0.1)
        pruned, _ = sp.quickprune(range(n), oracle, cost_fn, params, n)
        for tau in sp.budget_ladder(params.kappa_min, params.kappa_max, params.eta):
            opt_full = sp.brute_force_opt(oracle, cost_fn, range(n), tau)
            assert sp.check_nhi(opt_full.ids, cost_fn, tau, params.eta), \
                f"instance {case} violates the big-item assumption at {tau}"
            opt_pruned = sp.brute_force_opt(oracle, cost_fn, pruned, tau)
            assert opt_pruned.value >= alpha * opt_full.value, \
                f"retention bound broken on instance {case} at budget {tau}"
            points += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"criterion 1: PASS - retention >= {alpha:.6f} * OPT at {points} "
          f"budget points over 200 instances ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. pruned-set size bound, desk instances plus large synthetic graphs

def test_criterion_02_size_bound_never_violated():
    checked = 0
    # the desk-scale workload from criterion 1
    for case in range(200):
        rng = random.Random(case)
        n = rng.randint(8, 16)
        graph = sp.generate("erdos_renyi", n, {"p": rng.uniform(0.2, 0.5)},
                            seed=case)
        oracle = _coverage_or_cut(case, graph)
        if case % 4 < 2:
            costs = [1.0] * n
            params = sp.LadderParams(4.0, 4.0, 0.5, 0.1, 0.1)
        else:
            costs = [rng.uniform(0.6, 0.75) for _ in range(n)]
            params = sp.LadderParams(3.0, 6.0, 0.5, 0.1, 0.1)
        cost_fn = lambda v: costs[v]
        _, report = sp.quickprune(range(n), oracle, cost_fn, params, n)
        for tau, size in report.per_budget_sizes.items():
            c_min = min(c for c in costs if c <= tau)
            assert size < sp.size_bound(n, tau, params.delta, c_min,
                                        params.epsilon)
            checked += 1
    # fifty larger synthetic instances
    for case in range(50):
        rng = random.Random(case + 9000)
        n = rng.randint(2000, 5000)
        graph = sp.generate("barabasi_albert", n,
                            {"m_attach": rng.choice([3, 5, 8])}, seed=case)
        graph = sp.assign_knapsack_costs(
            graph, mode="unit" if case % 2 == 0 else "degree")
        oracle = sp.CoverageOracle(graph)
        params = sp.LadderParams(20.0, 80.0, 0.5, 0.1, 0.1)
        _, report = sp.quickprune(range(n), oracle, graph.cost_fn(), params, n)
        for tau, size in report.per_budget_sizes.items():
            c_min = float(min(c for c in graph.costs if c <= tau))
            assert size < sp.size_bound(n, tau, params.delta, c_min,
                                        params.epsilon)
            checked += 1
    print(f"criterion 2: PASS - size bound strict at {checked} per-budget runs")


# ---------------------------------------------------------------------------
# 3. deletion-loss invariant under instrumentation

def test_criterion_03_deletion_loss_invariant():
    violations = 0
    total_deletions = 0
    for case in range(100):
        rng = random.Random(case + 300)
        if case % 2 == 0:
            # wide-range modular weights force real checkpoint deletions
            n = 24
            scale = rng.uniform(0.9, 1.1)
            weights = [2.0 ** i * scale for i in range(n)]
            oracle = sp.CustomOracle(n, lambda S, w=weights: sum(w[v] for v in S))
            eps = rng.choice([0.2, 0.4, 0.6, 0.8])
            kappa = 6.0
        else:
            n = rng.randint(10, 16)
            graph = sp.generate("erdos_renyi", n, {"p": rng.uniform(0.2, 0.5)},
                                seed=case)
            oracle = _coverage_or_cut(case // 2, graph)
            eps = rng.choice([0.1, 0.3, 0.5])
            kappa = 4.0
        params = sp.PruneParams(kappa=kappa, delta=0.1, epsilon=eps)
        _, report = sp.quickprune_single(range(n), oracle, unit_cost, params, n,
                                         instrument=True)
        f_dot = report.instrumentation["f_surviving"]
        f_hat = report.instrumentation["f_ever_added"]
        if f_dot < (1.0 - eps) * f_hat:
            violations += 1
        total_deletions += report.deletions
    assert violations == 0
    assert total_deletions > 0, "instances never exercised a deletion"
    print(f"criterion 3: PASS - 0 violations on 100 runs "
          f"({total_deletions} deletions exercised)")


# ---------------------------------------------------------------------------
# 4. query complexity and ladder size

def test_criterion_04_query_complexity_and_ladder_size():
    for case in range(12):
        rng = random.Random(case + 600)
        n = rng.randint(40, 120)
        graph = sp.generate("erdos_renyi", n, {"p": 0.1}, seed=case)
        oracle = _coverage_or_cut(case, graph)
        params = sp.LadderParams(2.0, 11.0, rng.choice([0.3, 0.5]), 0.1, 0.4)
        _, report = sp.quickprune(range(n), oracle, unit_cost, params, n)
        rungs = sp.ladder_size(params.kappa_min, params.kappa_max, params.eta)
        assert report.oracle_calls <= rungs * (2 * n + 3 * report.deletions)
    triples = [
        (1.0, 1.0, 0.5), (50.0, 100.0, 0.5), (25.0, 100.0, 0.5),
        (50.0, 100.0, 0.01), (2.0, 7.0, 0.3), (1.0, 100.0, 0.5),
        (0.5, 47.3, 0.37), (3.0, 3.0, 0.25), (10.0, 1000.0, 0.5),
        (1.0, 2.0, 0.01), (5.0, 80.0, 0.45), (0.1, 0.9, 0.2),
        (7.0, 7.0, 0.5), (12.0, 13.0, 0.08), (1.0, 1024.0, 0.5),
        (9.0, 81.0, 0.33), (2.5, 40.0, 0.5), (6.0, 6.5, 0.5),
        (100.0, 10000.0, 0.12), (0.25, 1.0, 0.5),
    ]
    for kappa_min, kappa_max, eta in triples:
        assert len(sp.budget_ladder(kappa_min, kappa_max, eta)) == \
            sp.ladder_size(kappa_min, kappa_max, eta), (kappa_min, kappa_max, eta)
    print("criterion 4: PASS - query budget respected on 12 runs; "
          "ladder size matches the closed form on 20 triples")


# ---------------------------------------------------------------------------
# 5. end-to-end desk reproduction of the headline coverage numbers

def _find_facebook_graph():
    base = os.environ.get("SETPRUNE_DATA_DIR", "data")
    for name in ("facebook_combined.txt", "facebook_combined.txt.gz"):
        path = os.path.join(base, name)
        if os.path.exists(path):
            return path
    return None


def test_criterion_05_desk_scale_coverage_reproduction():
    start = time.monotonic()
    facebook = _find_facebook_graph()
    if facebook is not None:
        graph = sp.load_edge_list(facebook)
        source = os.path.basename(facebook)
        pg_floor, pr_floor = 0.98, 0.99
    else:
        graph = sp.generate("barabasi_albert", 4000, {"m_attach": 20}, seed=42)
        source = "synthetic preferential-attachment fallback"
        pg_floor, pr_floor = 0.95, 0.95
    n = graph.n
    oracle = sp.CoverageOracle(graph)
    params = sp.LadderParams(100.0, 100.0, 0.5, 0.1, 0.1)
    pruned, report = sp.quickprune(range(n), oracle, unit_cost, params, n)
    record = sp.evaluate_pruning(oracle, unit_cost, range(n), pruned,
                                 sp.cardinality_solver, 100,
                                 pruner="quickprune",
                                 oracle_calls_prune=report.oracle_calls)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    assert record.p_g >= pg_floor, f"p_g {record.p_g:.4f} on {source}"
    assert record.p_r >= pr_floor, f"p_r {record.p_r:.4f} on {source}"
    print(f"criterion 5: PASS - {source}: p_g={record.p_g:.4f} "
          f"p_r={record.p_r:.4f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. oracle efficiency versus the sparsification baseline

def test_criterion_06_query_cost_vs_sparsification_baseline():
    ratios = []
    for seed in (17, 29):
        graph = sp.generate("barabasi_albert", 2000, {"m_attach": 5}, seed=seed)
        ss_oracle = sp.CoverageOracle(graph)
        sp.ss_prune(ss_oracle, range(2000),
                    sp.BaselineConfig(r=8, c=8, seed=seed))
        qp_oracle = sp.CoverageOracle(graph)
        sp.quickprune_single(range(2000), qp_oracle, unit_cost,
                             sp.PruneParams(100.0, 0.1, 0.1), 2000)
        assert ss_oracle.query_count >= 5 * qp_oracle.query_count
        ratios.append(ss_oracle.query_count / qp_oracle.query_count)
    print(f"criterion 6: PASS - baseline needs {min(ratios):.1f}x to "
          f"{max(ratios):.1f}x the streaming pruner's queries (floor 5x)")


# ---------------------------------------------------------------------------
# 7. greedy solver sanity against the exhaustive optimum

def test_criterion_07_greedy_guarantee_on_random_coverage():
    factor = 1 - 1 / math.e
    for case in range(100):
        rng = random.Random(case + 1500)
        n = rng.randint(8, 12)
        graph = sp.generate("erdos_renyi", n, {"p": rng.uniform(0.15, 0.5)},
                            seed=case + 1500)
        oracle = sp.CoverageOracle(graph)
        k = rng.randint(1, 4)
        greedy = sp.greedy_cardinality(oracle, range(n), k)
        optimum = sp.brute_force_opt(oracle, unit_cost, range(n), float(k))
        assert greedy.value >= factor * optimum.value, (case, k)
    print("criterion 7: PASS - greedy kept >= (1 - 1/e) of the optimum "
          "on 100 instances")


# ---------------------------------------------------------------------------
# 8. multi-budget versus single-budget pruning on cascade instances

def test_criterion_08_multi_budget_dominates_at_low_budgets():
    wins = 0
    worst_ratio = 0.0
    cases = 20
    for seed in range(cases):
        graph = sp.generate("barabasi_albert", 500, {"m_attach": 4}, seed=seed)
        rng = random.Random(seed + 77)
        costs = [rng.uniform(1.0, 2.0) for _ in range(500)]
        cost_fn = lambda v: costs[v]
        pool = sp.LiveEdgeSamplePool(graph, p=0.05, m=50, seed=seed + 1000)
        oracle = sp.InfluenceOracle(pool)
        kappa_min, kappa_max = 10.0, 20.0
        multi, _ = sp.quickprune(
            range(500), oracle, cost_fn,
            sp.LadderParams(kappa_min, kappa_max, 0.5, 0.5, 0.1), 500)
        single, _ = sp.quickprune_single(
            range(500), oracle, cost_fn,
            sp.PruneParams(kappa_max, 0.5, 0.1), 500)
        full = sp.greedy_knapsack(oracle, cost_fn, range(500), kappa_min)
        p_r_multi = sp.greedy_knapsack(oracle, cost_fn, multi, kappa_min).value \
            / full.value
        p_r_single = sp.greedy_knapsack(oracle, cost_fn, single, kappa_min).value \
            / full.value
        wins += p_r_multi >= p_r_single
        ratio = len(multi) / max(1, len(single))
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= 1.25, f"size grew {ratio:.3f}x on seed {seed}"
    assert wins >= 0.7 * cases
    print(f"criterion 8: PASS - multi-budget retention won {wins}/{cases} "
          f"cases; worst size growth {worst_ratio:.3f}x (cap 1.25x)")


# ---------------------------------------------------------------------------
# 9. submodularity-ratio estimator

def test_criterion_09_gamma_estimator():
    exact_ones = 0
    for case in range(50):
        rng = random.Random(case + 4000)
        n = rng.randint(4, 10)
        family = case % 4
        if family == 0:
            oracle = sp.CoverageOracle(
                sp.generate("erdos_renyi", n, {"p": rng.uniform(0.3, 0.6)},
                            seed=case))
        elif family == 1:
            oracle = sp.CutOracle(
                sp.generate("erdos_renyi", n, {"p": rng.uniform(0.3, 0.6)},
                            seed=case))
        elif family == 2:
            graph = sp.generate("erdos_renyi", n, {"p": 0.4}, seed=case)
            pool = sp.LiveEdgeSamplePool(graph, p=0.5, m=16, seed=case)
            oracle = sp.InfluenceOracle(pool)
        else:
            kernel, _ = random_similarity_kernel(2, n, seed=case)
            oracle = sp.SimilarityCutOracle(kernel)
        assert sp.estimate_gamma(oracle, range(n)) == 1.0, (case, family)
        exact_ones += 1
    square = sp.CustomOracle(6, lambda S: len(S) ** 2)
    gamma_square = sp.estimate_gamma(square, range(6))
    assert gamma_square < 1.0
    print(f"criterion 9: PASS - exactly 1.0 on {exact_ones} submodular cases; "
          f"{gamma_square:.3f} on the supermodular square")


# ---------------------------------------------------------------------------
# 10. geometric-growth counting lemma

def test_criterion_10_geometric_growth_lemma():
    rng = random.Random(99)
    for _ in range(1000):
        beta = rng.uniform(0.01, 8.0)
        g = rng.uniform(0.001, 0.999)
        steps = sp.geometric_recovery_steps(beta, g)
        y = rng.uniform(0.01, 50.0)
        first = y
        for _ in range(steps):
            y *= (1 + beta) * rng.uniform(1.0, 1.2)
        assert y >= first / g * (1 - 1e-12), (beta, g)
    print("criterion 10: PASS - 1000 random growth sequences recovered "
          "their target factor")
