"""Workload table and seeded input generation for the benchmark.

The inputs are made here, not by ``setprune``: the Barabasi-Albert graph is
drawn by this module's own generator and written as an edge-list file, and
the heavytail objective is a set function defined in this module. setprune
only ever receives the file or the callable, so a change to
``setprune.generate`` cannot change a workload.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

M_ATTACH = 8
DELTA = 0.1
EPSILON = 0.1
ETA = 0.5
INFLUENCE_P = 0.01
INFLUENCE_SAMPLES = 25
HEAVYTAIL_DECADES = 80.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    smoke_n: int
    objective: str      # influence | cut | heavytail
    costs: str          # "unit" or "degree" (assign_knapsack_costs modes)
    solver: str         # "cardinality" or "knapsack"
    kappa_min: float
    kappa_max: float
    budgets: tuple
    graphs: int = 1     # graphs per run, each drawn from the run's seed

    @property
    def has_cli(self) -> bool:
        """The CLI has no custom objective, so heavytail runs library-only."""
        return self.objective != "heavytail"

    @property
    def float_valued(self) -> bool:
        return self.objective in ("influence", "heavytail")


# Why each workload is here: bench/README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload(
        name="influence-1k", n=1_000, smoke_n=300, objective="influence",
        costs="unit", solver="cardinality", kappa_min=20, kappa_max=80,
        budgets=(10, 20, 40, 80), graphs=3),
    Workload(
        name="cut-knapsack-sweep", n=10_000, smoke_n=600, objective="cut",
        costs="degree", solver="knapsack", kappa_min=10, kappa_max=40,
        budgets=tuple(range(10, 41, 2))),
    Workload(
        name="heavytail-custom", n=4_000, smoke_n=600, objective="heavytail",
        costs="unit", solver="cardinality", kappa_min=20, kappa_max=80,
        budgets=(10, 20, 40, 80)),
]}


def write_ba_edge_list(path, n: int, seed: int) -> str:
    """Write a seeded Barabasi-Albert graph as "u v" lines; return its digest.

    Preferential attachment by sampling from the list of edge endpoints, so
    every node 0..n-1 has at least one edge and the ids stay dense when
    setprune re-indexes them. Lines are streamed out, so generating a graph
    holds only the endpoint list in memory.
    """
    if n <= M_ATTACH:
        raise ValueError(f"need n > {M_ATTACH}")
    rng = random.Random(seed)
    digest = hashlib.sha256()
    repeated = []
    targets = list(range(M_ATTACH))
    with open(path, "wb") as fh:
        for source in range(M_ATTACH, n):
            chunk = "".join(f"{source} {t}\n" for t in targets).encode()
            fh.write(chunk)
            digest.update(chunk)
            repeated.extend(targets)
            repeated.extend([source] * M_ATTACH)
            chosen = set()
            while len(chosen) < M_ATTACH:
                chosen.add(repeated[rng.randrange(len(repeated))])
            targets = sorted(chosen)
    return digest.hexdigest()[:16]


def heavytail_weights(n: int) -> list:
    """w_v = 10^(80 v / (n - 1)): weights rise along the stream, so the
    running value outgrows the n / epsilon checkpoint factor again and again."""
    return [10.0 ** (HEAVYTAIL_DECADES * v / (n - 1)) for v in range(n)]


def facility_location(graph, weights):
    """f(S) = sum over u of max over v in S with u in N[v] of w_v.

    Monotone submodular; ``N[v]`` is the closed neighbourhood in ``graph``,
    held as a bitmask. ``weights`` must increase with the id, so the maximum
    for u is the weight of the largest id in S that covers u: walking S from
    the largest id down, each node is paid for by the first v that covers it.
    """
    masks = []
    for v in range(graph.n):
        m = 1 << v
        for u in graph.neighbors(v):
            m |= 1 << int(u)
        masks.append(m)

    def value(S):
        covered = 0
        parts = []
        for v in sorted(S, reverse=True):
            fresh = masks[v] & ~covered
            if fresh:
                parts.append(weights[v] * fresh.bit_count())
                covered |= fresh
        return math.fsum(parts)

    return value
