"""The benchmark's own test: ``python3 -m pytest -q bench/test_bench.py``."""

import json
import math
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import setprune as sp  # noqa: E402
import tracing  # noqa: E402
import workloads as wls  # noqa: E402


def test_facility_location_matches_definition():
    graph = sp.generate("barabasi_albert", 200, {"m_attach": 8}, seed=3)
    weights = wls.heavytail_weights(graph.n)
    fn = wls.facility_location(graph, weights)

    def by_definition(S):
        best = {}
        for v in S:
            for u in [v, *map(int, graph.neighbors(v))]:
                best[u] = max(best.get(u, 0.0), weights[v])
        return math.fsum(best.values())

    rng = random.Random(1)
    for _ in range(200):
        S = frozenset(rng.sample(range(graph.n), rng.randrange(0, 50)))
        assert math.isclose(fn(S), by_definition(S), rel_tol=1e-12)


def test_ba_edge_list_is_seeded_and_dense(tmp_path):
    a, b, c = (tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt")
    assert wls.write_ba_edge_list(a, 300, seed=5) == wls.write_ba_edge_list(b, 300, seed=5)
    assert wls.write_ba_edge_list(c, 300, seed=6) != wls.write_ba_edge_list(a, 300, seed=5)
    graph = sp.load_edge_list(a)
    assert graph.n == 300 and list(graph.orig_ids) == list(range(300))


def test_self_time_subtracts_direct_children():
    spans = [
        [tracing.PRUNE, -1, 0.0, 10.0, 0, None],
        [tracing.MARGINAL, 0, 1.0, 4.0, 5, None],
        [tracing.EVAL, 0, 5.0, 6.0, 1, 7],
        [tracing.EVAL, 0, 6.0, 7.0, 1, 7],
        [tracing.EVAL, 0, 8.0, 9.5, 3, None],
    ]
    layers = tracing.layer_metrics(spans, n=2, rungs=1)
    assert layers["objectives.prune_busy_s"] == 6.5
    assert layers["pruning.self_s"] == 3.5
    assert layers["pruning.reset_eval_s"] == 1.5
    assert layers["objectives.singleton_repeat_frac"] == 0.5
    assert layers["pruning.queries_per_elem_rung"] == 2.0


def test_smoke_runs_every_workload_with_all_checks():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 2 * len(wls.WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
