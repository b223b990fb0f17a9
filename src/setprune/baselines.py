"""Non-learned comparison pruners: degree ranking, uniform sampling, and a
randomized sparsifier driven by pairwise marginal-gain scores.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import InputError, cost_array
from .objectives import oracle_state

__all__ = ["BaselineConfig", "top_k_prune", "random_prune", "ss_prune"]


@dataclass(frozen=True)
class BaselineConfig:
    """Knobs for the baseline pruners.

    ``r`` scales the per-round probe count and ``c`` the per-round shrink
    factor of the sparsifier; the top-k and random pruners take their size
    ``k`` directly.
    """

    r: int = 8
    c: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.r < 1 or self.c < 1:
            raise InputError("r and c must be >= 1")
        try:
            float(self.r)  # the probe count r * ln(n) is a float
        except OverflowError:
            raise InputError("r is past the float range") from None


def top_k_prune(graph, cost_fn, k: int) -> set:
    """Keep the k elements with the largest degree-to-cost ratio.

    Ties go to the smaller id; with unit costs this is plain top-k by degree.
    """
    if k > graph.n:
        raise InputError(f"k = {k} exceeds ground-set size {graph.n}")
    if k < 0:
        raise InputError("k must be non-negative")
    costs = cost_array(cost_fn, np.arange(graph.n))
    # a stable sort keeps tied ratios in id order
    order = np.argsort(-graph.degrees / costs, kind="stable")
    return set(order[:k].tolist())


def random_prune(n: int, k: int, seed: int) -> set:
    """Uniformly random k-subset of [0, n), reproducible under the seed."""
    if not 0 <= k <= n:
        raise InputError(f"k = {k} must lie in [0, {n}]")
    return set(random.Random(seed).sample(range(n), k))


def ss_prune(oracle, U, config: BaselineConfig) -> set:
    """Randomized sparsification over pairwise marginal-gain scores.

    Each round moves ``r * ln(n)`` random probe elements from the pool into
    the kept set, scores every remaining element u by

        min over probes v of [f(v | u)] - f(u | V minus u),

    and discards the highest-scored (1 - 1/c) fraction of the pool as
    dominated. Rounds repeat until the pool is no larger than ``r * ln(n)``,
    at which point the remainder merges into the kept set. A ground set
    already below the merge threshold is returned unpruned.

    The pair term f(v | u) costs one fresh query per (u, v); the singleton
    value f({u}), the residual f(V minus u) and the total f(V) are each
    queried once per element and cached for the rest of the run, so the
    oracle counter reflects every evaluation exactly once. The singletons
    are asked in one batch, ``gains(pool, 0.0)`` on an empty oracle state,
    for the first round's pool, which holds every later pool.
    """
    ids = sorted(set(U))
    n = len(ids)
    if n == 0:
        return set()
    threshold = config.r * math.log(n) if n > 1 else 1.0
    if n <= threshold:
        return set(ids)
    rng = random.Random(config.seed)
    full = set(ids)
    f_total = oracle.eval(full)
    singles = None
    residual_gain = {}
    kept = set()
    pool = list(ids)
    while len(pool) > threshold:
        probe_count = min(math.ceil(config.r * math.log(n)), len(pool))
        probes = rng.sample(pool, probe_count)
        probe_set = set(probes)
        kept |= probe_set
        pool = [u for u in pool if u not in probe_set]
        if not pool:
            break
        if singles is None:
            singles = dict(zip(pool, oracle_state(oracle).gains(pool, 0.0)))
        probes = sorted(probes)
        scores = {}
        for u in pool:
            if u not in residual_gain:
                residual_gain[u] = f_total - oracle.eval(full - {u})
            f_u = singles[u]
            best_pair = min(oracle.eval({u, v}) - f_u for v in probes)
            scores[u] = best_pair - residual_gain[u]
        keep_count = len(pool) // config.c
        pool = sorted(pool, key=lambda u: (scores[u], u))[:keep_count]
    return kept | set(pool)
