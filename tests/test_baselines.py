
import dataclasses
import math
import random

import pytest

import setprune as sp
from setprune.errors import InputError

from conftest import random_graph, unit_cost


class SpyOracle:
    """Forwarding wrapper that records every evaluated set."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.calls = []

    def eval(self, S):
        self.calls.append(frozenset(S))
        return self.inner.eval(S)

    def marginal(self, e, S, f_S):
        return self.eval(set(S) | {e}) - f_S

    @property
    def query_count(self):
        return self.inner.query_count


def test_topk_all_when_k_equals_n(star6):
    assert sp.top_k_prune(star6, unit_cost, 6) == set(range(6))


def test_topk_unit_costs_ranks_by_degree():
    g = sp.generate("path", 5)  # middle nodes have degree 2
    got = sp.top_k_prune(g, unit_cost, 3)
    assert got == {1, 2, 3}


def test_topk_star_center(star6):
    assert sp.top_k_prune(star6, unit_cost, 1) == {0}


def test_topk_cost_ratio_changes_ranking(star6):
    # center degree 5 but cost 50 scores below any unit-cost leaf
    costs = [50.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    got = sp.top_k_prune(star6, lambda v: costs[v], 2)
    assert got == {1, 2}  # ties among leaves resolve to smaller ids


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_topk_refuses_costs_that_are_not_positive(star6, bad):
    # each would otherwise rank node 3 first, last or anywhere
    costs = [1.0, 1.0, 1.0, bad, 1.0, 1.0]
    with pytest.raises(InputError, match="cost of element 3 must be positive"):
        sp.top_k_prune(star6, costs.__getitem__, 2)


def test_topk_order_is_the_ratio_sort():
    g = random_graph(40, 0.15, 5)
    rng = random.Random(9)
    costs = [rng.choice([0.5, 1.0, 1.0, 2.0, 3.7]) for _ in range(40)]
    degs = g.degrees
    order = sorted(range(40), key=lambda v: (-degs[v] / costs[v], v))
    costed = dataclasses.replace(g, costs=costs)
    for k in (0, 1, 7, 20, 40):
        assert sp.top_k_prune(g, costs.__getitem__, k) == set(order[:k])
        assert sp.top_k_prune(costed, costed.cost_fn(), k) == set(order[:k])


def test_topk_validation(star6):
    with pytest.raises(InputError):
        sp.top_k_prune(star6, unit_cost, 7)
    with pytest.raises(InputError):
        sp.top_k_prune(star6, unit_cost, -1)


def test_random_prune_bounds_and_determinism():
    assert sp.random_prune(10, 0, seed=3) == set()
    assert sp.random_prune(10, 10, seed=3) == set(range(10))
    a = sp.random_prune(50, 7, seed=11)
    b = sp.random_prune(50, 7, seed=11)
    c = sp.random_prune(50, 7, seed=12)
    assert a == b
    assert len(a) == 7 and a <= set(range(50))
    assert a != c  # overwhelmingly likely under different seeds
    with pytest.raises(InputError):
        sp.random_prune(5, 6, seed=0)


def test_baseline_config_validation():
    sp.BaselineConfig()
    with pytest.raises(InputError):
        sp.BaselineConfig(r=0)
    # r * ln(n) once raised OverflowError inside ss_prune; the last r is
    # past str()'s digit limit, so the message must not print it
    for r in (10**400, 10**5000):
        with pytest.raises(InputError, match="r is past the float range"):
            sp.BaselineConfig(r=r)
    sp.BaselineConfig(c=10**400)  # c divides an int length: any size works


def test_ss_returns_everything_below_merge_threshold():
    g = random_graph(20, 0.3, 0)
    orc = sp.CoverageOracle(g)
    # r * ln(20) is about 24, above the ground-set size
    got = sp.ss_prune(orc, range(20), sp.BaselineConfig(r=8, c=8, seed=0))
    assert got == set(range(20))


def test_ss_reproducible_and_within_ground_set():
    g = random_graph(120, 0.05, 4)
    config = sp.BaselineConfig(r=2, c=4, seed=9)
    a = sp.ss_prune(sp.CoverageOracle(g), range(120), config)
    b = sp.ss_prune(sp.CoverageOracle(g), range(120), config)
    assert a == b
    assert a <= set(range(120))
    assert len(a) < 120  # something was actually pruned


def test_ss_query_accounting_is_exact():
    g = random_graph(80, 0.08, 2)
    spy = SpyOracle(sp.CoverageOracle(g))
    sp.ss_prune(spy, range(80), sp.BaselineConfig(r=2, c=4, seed=1))
    n = 80
    sizes = [len(s) for s in spy.calls]
    full = [s for s in spy.calls if len(s) == n]
    residuals = [s for s in spy.calls if len(s) == n - 1]
    singles = [s for s in spy.calls if len(s) == 1]
    pairs = [s for s in spy.calls if len(s) == 2]
    # every call is one of: the one full evaluation, a per-element residual,
    # a per-element singleton, or a per-(element, probe) pair
    assert len(full) == 1
    assert len(set(residuals)) == len(residuals) == len(singles)
    assert len(set(singles)) == len(singles)
    assert len(full) + len(residuals) + len(singles) + len(pairs) == len(sizes)
    assert spy.query_count == len(sizes)


def test_ss_uses_multiplies_more_queries_than_streaming_prune():
    n = 200
    g = random_graph(n, 0.05, 8)
    ss_oracle = sp.CoverageOracle(g)
    sp.ss_prune(ss_oracle, range(n), sp.BaselineConfig(r=8, c=8, seed=0))
    qp_oracle = sp.CoverageOracle(g)
    sp.quickprune_single(range(n), qp_oracle, unit_cost,
                         sp.PruneParams(kappa=20.0, delta=0.1, epsilon=0.1), n)
    assert ss_oracle.query_count >= 5 * qp_oracle.query_count
