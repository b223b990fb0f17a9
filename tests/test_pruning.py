import functools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setprune as sp
from setprune import pruning
from setprune.errors import InputError

from conftest import PlainOracle, random_costs, random_graph, ref_prune, unit_cost


# ---------------------------------------------------------------------------
# parameter objects

def test_prune_params_validation():
    sp.PruneParams(1.0, 0.1, 0.1)
    for bad in ((0, 0.1, 0.1), (1, 0, 0.1), (1, 0.1, 0)):
        with pytest.raises(InputError):
            sp.PruneParams(*bad)


def test_ladder_params_validation():
    sp.LadderParams(1, 2, 0.5, 0.1, 0.1)
    sp.LadderParams(2, 2, 0.5, 0.1, 0.1)  # equal budgets allowed
    for bad in ((3, 2, 0.5, 0.1, 0.1), (1, 2, 0.6, 0.1, 0.1),
                (1, 2, 0.0, 0.1, 0.1), (0, 2, 0.5, 0.1, 0.1)):
        with pytest.raises(InputError):
            sp.LadderParams(*bad)


def test_params_reject_non_finite_values():
    for bad in ((math.inf, 0.1, 0.1), (1, math.nan, 0.1), (1, 0.1, math.inf)):
        with pytest.raises(InputError, match="finite"):
            sp.PruneParams(*bad)
    for bad in ((1, math.inf, 0.5, 0.1, 0.1), (math.nan, 2, 0.5, 0.1, 0.1),
                (1, 2, math.nan, 0.1, 0.1), (1, 2, 0.5, math.inf, 0.1),
                (1, 2, 0.5, 0.1, math.nan)):
        with pytest.raises(InputError, match="finite"):
            sp.LadderParams(*bad)


def test_ladder_rejects_non_finite_and_unshrinkable_arguments():
    for fn in (sp.budget_ladder, sp.ladder_size,
               lambda *a: sp.LadderParams(*a, delta=0.1, epsilon=0.1)):
        for bad in ((1, math.inf, 0.5), (math.nan, 2, 0.5), (1, 2, math.nan)):
            with pytest.raises(InputError, match="finite"):
                fn(*bad)
        with pytest.raises(InputError, match="shrink"):
            fn(1, 2, 1e-300)  # 1 - eta rounds to 1: the ladder would never end
        # about 6.9e11 rungs: counted and refused before any rung is built
        with pytest.raises(InputError, match="rungs"):
            fn(1, 2, 1e-12)
        # a lower cutoff of 0, or a subnormal one where (1 - eta) * rung can
        # round back to the rung, would never end the ladder either
        for bad in ((5e-324, 1.0, 0.5), (5e-324, 1.7e308, 0.5), (1e-323, 1e-323, 1e-4)):
            with pytest.raises(InputError, match="underflows"):
                fn(*bad)
    # wide but finite ranges are counted without overflow
    assert sp.ladder_size(1e-300, 1e300, 0.5) == len(sp.budget_ladder(1e-300, 1e300, 0.5))
    assert sp.ladder_size(1.0, 1.7e308, 0.5) == 1025


# ---------------------------------------------------------------------------
# process_element semantics

@pytest.mark.parametrize("cost", [0.0, -1.0, math.nan])
def test_process_element_rejects_non_positive_cost(star6, cost):
    orc = sp.CoverageOracle(star6)
    params = sp.PruneParams(kappa=2.0, delta=1.0, epsilon=0.1)
    with pytest.raises(InputError, match="cost"):
        sp.process_element(sp.SinglePrunerState(), orc, lambda v: cost, params, 6, 0)


def test_oversized_element_is_skipped_without_queries(star6):
    orc = sp.CoverageOracle(star6)
    state = sp.SinglePrunerState()
    params = sp.PruneParams(kappa=1.0, delta=1.0, epsilon=0.1)
    sp.process_element(state, orc, lambda v: 5.0, params, 6, 0)
    assert state.working == [] and state.best_single is None
    assert orc.query_count == 0


def test_first_feasible_element_always_added(star6):
    # with a normalized oracle the add threshold is zero while the working
    # set is empty
    orc = sp.CoverageOracle(star6)
    state = sp.SinglePrunerState()
    params = sp.PruneParams(kappa=2.0, delta=1.0, epsilon=0.1)
    sp.process_element(state, orc, unit_cost, params, 6, 3)
    assert state.working == [3]
    assert state.f_working == 2  # leaf covers itself plus the center


def test_star_stream_trace_matches_hand_simulation(star6):
    """Hand-simulated run on the 5-leaf star, leaves first then center.

    kappa=2, unit costs, delta=1: leaf 1 enters on the zero threshold and
    fires the start-up checkpoint; leaf 2 enters on the tie (gain 1 >= 1);
    leaves 3-5 fail against threshold 1.5; the center gains 3 >= 1.5 and
    enters; the center is also the best singleton.
    """
    orc = sp.CoverageOracle(star6)
    params = sp.PruneParams(kappa=2.0, delta=1.0, epsilon=0.1)
    state = sp.SinglePrunerState()
    for e in [1, 2, 3, 4, 5, 0]:
        sp.process_element(state, orc, unit_cost, params, 6, e)
    assert state.working == [1, 2, 0]
    assert state.best_single == 0 and state.f_best_single == 6
    assert state.f_working == 6
    # start-up checkpoint fired on the first positive value, deleting nothing
    assert state.deletions == 0
    assert [e.removed for e in state.events] == [()]
    assert state.pruned_set() == {0, 1, 2}


def test_high_value_element_rejected_from_working_set_but_kept_as_singleton(star6):
    # a large delta makes the add rule reject the center late in the stream
    # (gain 4 against threshold 5*1*2/2 = 5), yet the best-singleton slot
    # still captures it
    orc = sp.CoverageOracle(star6)
    params = sp.PruneParams(kappa=2.0, delta=5.0, epsilon=0.1)
    state = sp.SinglePrunerState()
    for e in [1, 2, 3, 4, 5, 0]:
        sp.process_element(state, orc, unit_cost, params, 6, e)
    assert 0 not in state.working
    assert state.best_single == 0
    assert 0 in state.pruned_set()


def test_at_most_two_fresh_queries_per_element(star6):
    orc = sp.CoverageOracle(star6)
    params = sp.PruneParams(kappa=2.0, delta=1.0, epsilon=0.1)
    state = sp.SinglePrunerState()
    for e in [1, 2, 3]:
        before = orc.query_count
        sp.process_element(state, orc, unit_cost, params, 6, e)
        assert orc.query_count - before <= 2


def test_best_singleton_tie_keeps_first_in_stream(star6):
    orc = sp.CoverageOracle(star6)
    params = sp.PruneParams(kappa=2.0, delta=1.0, epsilon=0.1)
    state = sp.SinglePrunerState()
    for e in [4, 2]:  # both leaves score 2; strict comparison keeps leaf 4
        sp.process_element(state, orc, unit_cost, params, 6, e)
    assert state.best_single == 4


# ---------------------------------------------------------------------------
# quickprune_single

def test_all_costs_over_budget_yields_empty():
    orc = sp.CoverageOracle(random_graph(8, 0.3, 0))
    params = sp.PruneParams(kappa=1.0, delta=0.1, epsilon=0.1)
    pruned, report = sp.quickprune_single(range(8), orc, lambda v: 2.0, params, 8)
    assert pruned == set()
    assert report.oracle_calls == 0


def test_single_feasible_element_is_kept():
    orc = sp.CoverageOracle(random_graph(8, 0.3, 1))
    params = sp.PruneParams(kappa=1.0, delta=0.1, epsilon=0.1)
    pruned, _ = sp.quickprune_single(range(8), orc, lambda v: 1.0 if v == 5 else 9.0,
                                     params, 8)
    assert pruned == {5}


def test_empty_stream_yields_empty():
    orc = sp.CoverageOracle(random_graph(4, 0.5, 2))
    params = sp.PruneParams(kappa=1.0, delta=0.1, epsilon=0.1)
    pruned, report = sp.quickprune_single([], orc, unit_cost, params, 4)
    assert pruned == set() and report.oracle_calls == 0


@pytest.mark.parametrize("oracle", [sp.CutOracle, sp.CoverageOracle])
def test_numpy_stream_ids_leave_the_pruner_as_ints(oracle):
    # np.int64 ids used to reach the pruned set and the deletion log, and
    # json.dumps refused them
    graph = sp.generate("barabasi_albert", 400, {"m_attach": 3}, seed=2)
    orc = oracle(graph)
    params = sp.LadderParams(kappa_min=2.0, kappa_max=8.0, eta=0.5, delta=0.1, epsilon=0.1)
    pruned, report = sp.quickprune(np.arange(400), orc, unit_cost, params, 400)
    assert pruned and all(type(v) is int for v in pruned)
    assert report.events and all(type(ev.trigger) is int for ev in report.events)
    json.dumps(report.to_json_dict())
    want, want_report = sp.quickprune(range(400), oracle(graph), unit_cost, params, 400)
    assert pruned == want and report.oracle_calls == want_report.oracle_calls


def test_bool_stream_ids_leave_the_pruner_as_ints():
    orc = sp.CutOracle(sp.generate("path", 6))
    params = sp.PruneParams(kappa=3.0, delta=0.1, epsilon=0.1)
    pruned, _ = sp.quickprune_single([True, 3, 5], orc, unit_cost, params, 6)
    assert pruned == {1, 3, 5} and all(type(v) is int for v in pruned)
    # a bad id is refused before its block's costs are read
    costs_read = []
    calls = orc.query_count
    with pytest.raises(InputError):
        sp.quickprune_single([0, 2.5], orc, lambda v: costs_read.append(v) or 1.0,
                             params, 6)
    assert costs_read == [] and orc.query_count == calls


def test_an_id_past_the_int64_range_is_named_before_any_query():
    orc = sp.CutOracle(sp.generate("path", 5))
    params = sp.LadderParams(1.0, 4.0, 0.5, 0.1, 0.1)
    with pytest.raises(InputError, match=f"element id {2**70} outside ground set of size 5"):
        sp.quickprune([1, 2**70], orc, unit_cost, params, 5)
    assert orc.query_count == 0


def test_an_id_too_long_to_print_is_named_by_its_digit_count():
    # Python refuses to print an int of more than 4,300 digits
    orc = sp.CutOracle(sp.generate("path", 5))
    params = sp.LadderParams(1.0, 4.0, 0.5, 0.1, 0.1)
    message = "element id of 5001 digits outside ground set of size 5"
    with pytest.raises(InputError, match=message):
        orc.eval({1, 10**5000})
    with pytest.raises(InputError, match=message):
        sp.quickprune([1, 10**5000], orc, unit_cost, params, 5)
    with pytest.raises(InputError, match="element id of 81 digits outside"):
        orc.eval({-10**80})
    assert orc.query_count == 0


def test_a_cost_past_the_float_range_is_named_before_any_query():
    # costs are read as one float64 array per block, in a solve's seed and
    # by the top-k baseline
    orc = sp.CutOracle(sp.generate("path", 5))
    cost_fn = [1, 1, 10**400, 1, 1].__getitem__
    with pytest.raises(InputError, match="cost of element 2 is past the float range"):
        sp.quickprune(range(5), orc, cost_fn, sp.LadderParams(1.0, 4.0, 0.5, 0.1, 0.1), 5)
    with pytest.raises(InputError, match="cost of element 2 is past the float range"):
        sp.greedy_knapsack(orc, cost_fn, range(5), 4.0)
    with pytest.raises(InputError, match="cost of element 2 is past the float range"):
        sp.baselines.top_k_prune(sp.generate("path", 5), cost_fn, 2)
    assert orc.query_count == 0


def test_epsilon_must_stay_below_ground_set_size():
    orc = sp.CoverageOracle(random_graph(4, 0.5, 2))
    params = sp.PruneParams(kappa=1.0, delta=0.1, epsilon=4.0)
    with pytest.raises(InputError):
        sp.quickprune_single(range(4), orc, unit_cost, params, 4)


def test_single_budget_retention_against_exhaustive_optimum():
    alpha = sp.alpha_single(0.1, 0.1, 1.0)
    for seed in range(6):
        graph = random_graph(16, 0.25, seed + 100)
        orc = sp.CoverageOracle(graph)
        params = sp.PruneParams(kappa=3.0, delta=0.1, epsilon=0.1)
        pruned, _ = sp.quickprune_single(range(16), orc, unit_cost, params, 16)
        opt_full = sp.brute_force_opt(orc, unit_cost, range(16), 3.0)
        opt_pruned = sp.brute_force_opt(orc, unit_cost, pruned, 3.0)
        assert opt_pruned.value >= alpha * opt_full.value
        assert opt_pruned.cost <= 3.0


def test_stream_elements_touched_once_and_rejections_final():
    graph = random_graph(20, 0.2, 7)
    orc = sp.CoverageOracle(graph)
    params = sp.PruneParams(kappa=4.0, delta=0.5, epsilon=0.1)
    state = sp.SinglePrunerState()
    rejected = set()
    for e in range(20):
        in_before = e in state.working_set
        sp.process_element(state, orc, unit_cost, params, 20, e)
        if not in_before and e not in state.working_set:
            rejected.add(e)
        assert not rejected & state.working_set
    assert state.processed == 20


def test_query_accounting_bound():
    # at most 2 evals per feasible element plus one re-eval per deletion
    for seed in range(4):
        graph = random_graph(18, 0.3, seed + 40)
        orc = sp.CutOracle(graph)
        costs, cost_fn = random_costs(18, 0.5, 2.5, seed)
        params = sp.PruneParams(kappa=2.0, delta=0.2, epsilon=0.4)
        _, report = sp.quickprune_single(range(18), orc, cost_fn, params, 18)
        feasible = sum(1 for c in costs if c <= 2.0)
        assert report.oracle_calls <= 2 * feasible + report.deletions


def test_deletion_loss_invariant_with_real_deletions():
    # geometric modular weights force repeated checkpoint deletions; the
    # surviving set must keep at least a (1 - epsilon) share of everything
    # ever added (modular functions are submodular)
    total_deletions = 0
    for seed in range(10):
        rng = random.Random(seed)
        n = 24
        weights = [2.0 ** i * rng.uniform(0.9, 1.1) for i in range(n)]
        orc = sp.CustomOracle(n, lambda S, w=weights: sum(w[v] for v in S))
        eps = rng.choice([0.3, 0.5, 0.8])
        params = sp.PruneParams(kappa=6.0, delta=0.1, epsilon=eps)
        _, report = sp.quickprune_single(range(n), orc, unit_cost, params, n,
                                         instrument=True)
        f_dot = report.instrumentation["f_surviving"]
        f_hat = report.instrumentation["f_ever_added"]
        assert f_dot >= (1.0 - eps) * f_hat
        total_deletions += report.deletions
    assert total_deletions > 0


def _repeat_instance(kind, seed, n):
    if kind == "coverage":
        return sp.CoverageOracle(random_graph(n, 0.3, seed))
    rng = random.Random(seed)
    weights = [2.0 ** rng.randrange(12) * rng.uniform(0.9, 1.1) for _ in range(n)]
    return sp.CustomOracle(n, lambda S: sum(weights[v] for v in S))


@given(st.sampled_from(["modular", "coverage"]), st.integers(0, 10**6),
       st.permutations(range(12)), st.lists(st.integers(0, 11), max_size=30),
       st.sampled_from([0.5, 3.0, 8.0]), st.sampled_from([0.05, 0.3, 1.0]))
@settings(max_examples=150, deadline=None)
def test_deletions_drop_a_prefix_of_the_add_order(kind, seed, first, repeats, eps, delta):
    # the stream repeats elements, so an element can be deleted and added
    # again; the removed tuples followed by the final working list must still
    # be every add, in order
    n = 12
    stream = first + repeats
    params = sp.PruneParams(kappa=5.0, delta=delta, epsilon=eps)
    state = sp.SinglePrunerState()
    adds = []
    orc = _repeat_instance(kind, seed, n)
    for e in stream:
        was_in = e in state.working_set
        sp.process_element(state, orc, unit_cost, params, n, e)
        if not was_in and e in state.working_set:
            adds.append(e)
    removed = [v for event in state.events for v in event.removed]
    assert removed + state.working == adds
    assert set(state.working) == state.working_set
    _, report = sp.quickprune_single(stream, _repeat_instance(kind, seed, n), unit_cost,
                                     params, n, instrument=True)
    assert report.instrumentation["ever_added_size"] == len(set(adds))


def test_size_invariant_on_unit_cost_runs():
    for seed in range(5):
        n = 30
        graph = random_graph(n, 0.2, seed + 70)
        orc = sp.CoverageOracle(graph)
        params = sp.PruneParams(kappa=3.0, delta=0.1, epsilon=0.1)
        pruned, _ = sp.quickprune_single(range(n), orc, unit_cost, params, n)
        assert len(pruned) < sp.size_bound(n, 3.0, 0.1, 1.0, 0.1)


# ---------------------------------------------------------------------------
# budget ladder

def test_ladder_equal_budgets_two_rungs():
    assert sp.budget_ladder(4.0, 4.0, 0.5) == [4.0, 2.0]


def test_ladder_spec_of_three_rungs():
    assert sp.budget_ladder(50, 100, 0.5) == [100.0, 50.0, 25.0]


def test_ladder_small_eta_count():
    rungs = sp.budget_ladder(50, 100, 0.01)
    assert len(rungs) == 70
    assert len(rungs) == sp.ladder_size(50, 100, 0.01)


def test_ladder_rejects_bad_params():
    for bad in ((0, 1, 0.5), (2, 1, 0.5), (1, 2, 0.0), (1, 2, 0.7)):
        with pytest.raises(InputError):
            sp.budget_ladder(*bad)


@given(st.floats(min_value=0.1, max_value=100.0),
       st.floats(min_value=1.0, max_value=50.0),
       st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=80, deadline=None)
def test_ladder_structure(kappa_min, ratio, eta):
    kappa_max = kappa_min * ratio
    rungs = sp.budget_ladder(kappa_min, kappa_max, eta)
    assert rungs[0] == kappa_max
    lo = (1 - eta) * kappa_min
    assert all(lo * (1 - 1e-9) <= t <= kappa_max for t in rungs)
    assert all(a > b for a, b in zip(rungs, rungs[1:]))
    for a, b in zip(rungs, rungs[1:]):
        assert b == pytest.approx(a * (1 - eta))
    assert len(rungs) == sp.ladder_size(kappa_min, kappa_max, eta)
    # nothing below the last rung qualifies
    assert rungs[-1] * (1 - eta) < lo * (1 + 1e-9)


# ---------------------------------------------------------------------------
# quickprune (multi-budget)

def test_equal_budget_ladder_unions_two_single_runs():
    graph = random_graph(14, 0.3, 9)
    cost_fn = unit_cost
    orc = sp.CoverageOracle(graph)
    union, report = sp.quickprune(range(14), orc, cost_fn,
                                  sp.LadderParams(4.0, 4.0, 0.5, 0.2, 0.1), 14)
    a, _ = sp.quickprune_single(range(14), sp.CoverageOracle(graph), cost_fn,
                                sp.PruneParams(4.0, 0.2, 0.1), 14)
    b, _ = sp.quickprune_single(range(14), sp.CoverageOracle(graph), cost_fn,
                                sp.PruneParams(2.0, 0.2, 0.1), 14)
    assert union == a | b
    assert report.per_budget_sizes == {4.0: len(a), 2.0: len(b)}


def test_multi_budget_retention_exhaustive():
    """Every budget in [1.5, 3] keeps an alpha_multi share of its optimum."""
    alpha = sp.alpha_multi(0.1, 0.1, 1.0)
    for seed in range(4):
        graph = random_graph(16, 0.3, seed + 200)
        costs, cost_fn = random_costs(16, 0.6, 0.75, seed)
        orc = sp.CoverageOracle(graph)
        params = sp.LadderParams(3.0, 3.0, 0.5, 0.1, 0.1)
        assert sp.budget_ladder(3.0, 3.0, 0.5) == [3.0, 1.5]
        pruned, _ = sp.quickprune(range(16), orc, cost_fn, params, 16)
        for budget in (1.5, 2.0, 2.5, 3.0):
            opt_full = sp.brute_force_opt(orc, cost_fn, range(16), budget)
            assert sp.check_nhi(opt_full.ids, cost_fn, budget, 0.5)
            opt_pruned = sp.brute_force_opt(orc, cost_fn, pruned, budget)
            assert opt_pruned.value >= alpha * opt_full.value


def test_per_rung_states_are_schedule_independent():
    # driving the rung states by hand in a different interleaving must give
    # the same union quickprune reports
    graph = random_graph(20, 0.25, 12)
    orc = sp.CoverageOracle(graph)
    ladder = sp.LadderParams(3.0, 6.0, 0.5, 0.2, 0.1)
    expected, _ = sp.quickprune(range(20), orc, unit_cost, ladder, 20)
    rungs = sp.budget_ladder(3.0, 6.0, 0.5)
    states = {tau: sp.SinglePrunerState() for tau in rungs}
    for e in range(20):
        for tau in reversed(rungs):  # opposite rung order per element
            sp.process_element(states[tau], orc, unit_cost,
                               sp.PruneParams(tau, 0.2, 0.1), 20, e)
    union = set()
    for state in states.values():
        union |= state.pruned_set()
    assert union == expected


def test_multi_query_budget():
    graph = random_graph(30, 0.2, 5)
    orc = sp.CutOracle(graph)
    params = sp.LadderParams(2.0, 8.0, 0.5, 0.1, 0.3)
    _, report = sp.quickprune(range(30), orc, unit_cost, params, 30)
    n_rungs = sp.ladder_size(2.0, 8.0, 0.5)
    assert len(report.per_budget_sizes) == n_rungs
    assert report.oracle_calls <= n_rungs * (2 * 30 + report.deletions)


# ---------------------------------------------------------------------------
# queries shared across rungs

def _sharing_instance(kind, seed, n):
    """A fresh oracle per call; weights rise steeply, so deletions fire."""
    rng = random.Random(seed)
    weights = [2.0 ** rng.randrange(16) * rng.uniform(0.9, 1.1) for _ in range(n)]
    if kind == "modular":
        return lambda: sp.CustomOracle(n, lambda S: sum(weights[v] for v in S))
    if kind == "custom":  # concave over modular: submodular, not modular
        return lambda: sp.CustomOracle(
            n, lambda S: math.sqrt(math.fsum(weights[v] for v in sorted(S))))
    graph = random_graph(n, 0.3, seed)
    if kind == "coverage":
        return lambda: sp.CoverageOracle(graph)
    if kind == "influence":  # undirected: the screen walks its windows
        pool = sp.LiveEdgeSamplePool(graph, p=0.1, m=5, seed=seed)
        return lambda: sp.InfluenceOracle(pool)
    return lambda: sp.CutOracle(graph)  # incremental state; its values are ints


def _outputs(pruned, sizes, events):
    # repr keeps the value types and every bit of the floats
    return (sorted(pruned), sizes,
            [(e.stream_pos, e.trigger, e.removed, repr(e.value_before), repr(e.value_after))
             for e in events])


@given(st.sampled_from(["modular", "custom", "coverage", "cut"]), st.integers(0, 10**6),
       st.permutations(range(12)), st.lists(st.integers(0, 11), max_size=24),
       st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 5.0]), min_size=12, max_size=12),
       st.sampled_from([(1.0, 2.0, 0.5), (1.0, 6.0, 0.5), (0.8, 5.0, 0.3), (3.0, 3.0, 0.5)]),
       st.sampled_from([0.5, 3.0, 11.0]), st.sampled_from([0.05, 0.3, 1.0]))
@settings(max_examples=150, deadline=None)
def test_ladder_equals_per_rung_single_runs_with_fewer_queries(
        kind, seed, first, repeats, costs, ladder_range, eps, delta):
    n = 12
    stream = first + repeats
    cost_fn = costs.__getitem__
    make = _sharing_instance(kind, seed, n)
    ladder = sp.LadderParams(*ladder_range, delta, eps)
    taus = sp.budget_ladder(*ladder_range)
    pruned, report = sp.quickprune(stream, make(), cost_fn, ladder, n)

    union, sizes, events, calls = set(), {}, [], 0
    for tau in taus:
        single, single_report = sp.quickprune_single(
            stream, make(), cost_fn, sp.PruneParams(tau, delta, eps), n)
        union |= single
        sizes.update(single_report.per_budget_sizes)
        events.extend(single_report.events)
        calls += single_report.oracle_calls
    got = _outputs(pruned, report.per_budget_sizes, report.events)
    assert got == _outputs(union, sizes, events)
    assert report.deletions == sum(1 for e in events if e.removed)
    # each element's singleton is asked once, however many rungs admit it,
    # so the count is strictly lower as soon as two rungs admit an element
    repeated_singletons = sum(max(0, sum(costs[e] <= tau for tau in taus) - 1)
                              for e in stream)
    assert report.oracle_calls <= calls - repeated_singletons

    # an oracle without state() answers through EvalState: same runs, same counts
    plain, plain_report = sp.quickprune(stream, PlainOracle(make()), cost_fn, ladder, n)
    assert _outputs(plain, plain_report.per_budget_sizes, plain_report.events) == got
    assert plain_report.oracle_calls == report.oracle_calls


def test_query_step_shares_a_gain_only_for_the_same_list_and_value_type():
    orc = sp.CutOracle(sp.generate("path", 8))

    def holding(ids, as_float):
        state = sp.SinglePrunerState()
        state.working, state.working_set = list(ids), set(ids)
        state.oracle_state = orc.state()
        for v in ids:
            state.oracle_state.add(v)
        value = orc.eval(ids)  # an int, as after a deletion
        state.f_working = float(value) if as_float else value
        return state

    answers = {}
    asked = orc.query_count
    first = pruning._gain(holding([1, 2], True), orc, 5, 1, answers)
    assert pruning._gain(holding([1, 2], True), orc, 5, 1, answers) is first
    # an equal int value would get a float gain, and keep it
    assert type(pruning._gain(holding([1, 2], False), orc, 5, 1, answers)) is int
    # same value (2) and length, other set; same set in another order
    pruning._gain(holding([2, 3], True), orc, 5, 1, answers)
    pruning._gain(holding([2, 1], True), orc, 5, 1, answers)
    assert orc.query_count - asked == 5 + 4  # evals, then marginals


def test_a_query_step_compares_only_rungs_under_an_equal_value(monkeypatch):
    # a count, not a timing: on a 52-rung ladder whose rungs mostly hold
    # distinct values, scanning every earlier rung's answer made about 17
    # sharing checks per query step (197k for 11.8k steps)
    n = 300
    weights = [1.0 + (v * 7919 % 1000) / 100 for v in range(n)]
    calls = {"_shares_gains": 0, "_gain": 0}
    for name in calls:
        def counted(*args, real=getattr(pruning, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(pruning, name, counted)
    ladder = sp.LadderParams(1.0, 200.0, 0.1, 0.1, 0.1)
    assert sp.ladder_size(1.0, 200.0, 0.1) == 52
    oracle = sp.CustomOracle(n, lambda S: math.sqrt(math.fsum(weights[v] for v in S)))
    sp.quickprune(range(n), oracle, lambda v: 1.0 + v % 7, ladder, n)
    assert 0 < calls["_shares_gains"] <= calls["_gain"]


def test_rungs_with_one_working_set_ask_one_marginal():
    # unit costs inside every budget and a steep modular objective: all
    # rungs keep the same working list, so after the first element each
    # element costs one singleton and one marginal, whatever the rung count
    n = 40
    weights = [1.5 ** v for v in range(n)]

    def f(S):
        return sum(weights[v] for v in S)

    ladder = sp.LadderParams(2.0, 16.0, 0.5, 0.1, 0.5)
    assert sp.ladder_size(2.0, 16.0, 0.5) == 5
    pruned, report = sp.quickprune(range(n), sp.CustomOracle(n, f), unit_cost, ladder, n)
    assert report.deletions > 0  # each rung re-evaluates on its own
    assert report.oracle_calls == 1 + 2 * (n - 1) + report.deletions
    single, _ = sp.quickprune_single(range(n), sp.CustomOracle(n, f), unit_cost,
                                     sp.PruneParams(16.0, 0.1, 0.5), n)
    assert pruned == single
    assert len(set(report.per_budget_sizes.values())) == 1


# ---------------------------------------------------------------------------
# the stream read in blocks

@pytest.mark.parametrize("kind", ["modular", "custom", "coverage", "cut", "influence"])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 3)])
def test_blocks_change_no_output_and_no_count(kind, blocks, extra, monkeypatch):
    length = blocks * pruning._BLOCK + extra
    n = 40
    rng = random.Random(length)
    stream = [rng.randrange(n) for _ in range(length)]
    for b in range(pruning._BLOCK, length, pruning._BLOCK):
        stream[b] = stream[b - 1]  # a repeat on each side of a block boundary
    costs = [rng.choice([0.5, 1.0, 3.0, 6.0, 12.0, 20.0]) for _ in range(n)]
    cost_fn = costs.__getitem__
    make = _sharing_instance(kind, length, n)
    ladder = sp.LadderParams(2.0, 16.0, 0.5, 0.3, 0.5)
    taus = sp.budget_ladder(2.0, 16.0, 0.5)
    pruned, report = sp.quickprune((e for e in stream), make(), cost_fn, ladder, n)
    got = _outputs(pruned, report.per_budget_sizes, report.events)

    union, sizes, events, calls = set(), {}, [], 0
    for tau in taus:
        oracle, state = make(), sp.SinglePrunerState()
        params = sp.PruneParams(tau, ladder.delta, ladder.epsilon)
        for e in stream:
            sp.process_element(state, oracle, cost_fn, params, n, e)
        union |= state.pruned_set()
        sizes[tau] = len(state.pruned_set())
        events.extend(state.events)
        calls += oracle.query_count
    assert got == _outputs(union, sizes, events)
    repeated_singletons = sum(max(0, sum(costs[e] <= tau for tau in taus) - 1)
                              for e in stream)
    assert report.oracle_calls <= calls - repeated_singletons

    # read one element at a time, the pass asks exactly the same questions
    monkeypatch.setattr(pruning, "_BLOCK", 1)
    one, one_report = sp.quickprune(iter(stream), make(), cost_fn, ladder, n)
    assert _outputs(one, one_report.per_budget_sizes, one_report.events) == got
    assert one_report.oracle_calls == report.oracle_calls


class _BatchSpy(PlainOracle):
    """Hands out the inner oracle's states, wrapped to record each batch
    they are asked for: a ``gains`` batch, or a ``gather`` (the screened
    path's singleton batch, counted in one ``count``)."""

    def __init__(self, inner):
        super().__init__(inner)
        self.batches = []

    def state(self):
        return _SpyState(self.inner.state(), self.batches)


class _SpyState:
    def __init__(self, inner, batches):
        self.inner = inner
        self.batches = batches

    def gains(self, ids, f_S):
        self.batches.append(list(ids))
        return self.inner.gains(ids, f_S)

    def gather(self, vs, f_S):
        self.batches.append(vs.tolist())
        return self.inner.gather(vs, f_S)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _ba_stream(kind):
    """(stream, oracle maker, cost function, rungs) over a seeded
    Barabasi-Albert graph whose shuffled stream spans three blocks and a
    ragged tail, with a repeat on each side of every block boundary."""
    n = 3 * pruning._BLOCK + 317
    graph = sp.assign_knapsack_costs(
        sp.generate("barabasi_albert", n, {"m_attach": 4}, seed=19), mode="degree")
    stream = list(range(n))
    random.Random(19).shuffle(stream)
    for b in range(pruning._BLOCK, n, pruning._BLOCK):
        stream[b] = stream[b - 1]
    if kind == "influence":
        pool = sp.LiveEdgeSamplePool(graph, p=0.02, m=5, seed=19)
        return stream, lambda: sp.InfluenceOracle(pool), unit_cost, \
            [sp.PruneParams(tau, 0.1, 0.1) for tau in sp.budget_ladder(20.0, 80.0, 0.5)]
    make = {"cut": sp.CutOracle, "coverage": sp.CoverageOracle, "custom": _custom_cut}[kind]
    return stream, lambda: make(graph), graph.cost_fn(), \
        [sp.PruneParams(tau, 0.1, 0.1) for tau in sp.budget_ladder(10.0, 40.0, 0.5)]


@pytest.mark.parametrize("kind", ["cut", "influence", "custom"])
def test_block_sizes_change_nothing_at_scale(kind):
    # the stream read in blocks of the default size, of 256 and one id at a
    # time gives the element-by-element pass bit for bit, query count included
    stream, make, cost_fn, rungs = _ba_stream(kind)
    n = len(stream)
    runs = []
    for prune, block in [(ref_prune, pruning._BLOCK), (pruning._prune, pruning._BLOCK),
                         (pruning._prune, 256), (pruning._prune, 1)]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pruning, "_BLOCK", block)
            pruned, report, states = prune(iter(stream), make(), cost_fn, rungs, n)
        runs.append((_outputs(pruned, report.per_budget_sizes, report.events),
                     report.deletions, report.oracle_calls, _rung_states(states)))
    assert runs[0][0][0] and runs[0][0][2]  # something kept, some events
    assert runs[1:] == runs[:1] * 3


@pytest.mark.parametrize("kind", ["cut", "coverage"])
@pytest.mark.parametrize("where", [300, 2 * pruning._BLOCK + 5])
@pytest.mark.parametrize("bad, message", [
    (10**6, "element id 1000000 outside ground set"),
    (2.5, "element id 2.5 is not an integer"),
    (2**70, f"element id {2**70} outside ground set"),
    ("range", None),
], ids=["outside", "float", "past-int64", "range"])
def test_a_bad_id_is_refused_before_its_block_is_decided(kind, where, bad, message):
    # past position 256 of the first block, or in a later block, on the
    # screened path (cut) and the plain one (coverage): the error names the
    # id, and no element of its block is decided, so the pass has asked the
    # queries of the blocks before it and no more. A range stream whose
    # first id past [0, n) sits there is refused the same way.
    stream, make, cost_fn, rungs = _ba_stream(kind)
    n = len(stream)
    if bad == "range":
        stream = given = range(n - where, 2 * n - where)
        message = f"element id {n} outside ground set"
    else:
        stream[where] = bad
        given = iter(stream)
    start = where - where % pruning._BLOCK
    oracle = make()
    with pytest.raises(InputError, match=message):
        pruning._prune(given, oracle, cost_fn, rungs, n)
    before = make()
    pruning._prune(stream[:start], before, cost_fn, rungs, n)
    assert oracle.query_count == before.query_count
    assert (oracle.query_count > 0) == (start > 0)


def test_a_range_stream_is_read_in_arange_blocks():
    # a range inside [0, n) gives the same run as the same ids in a list,
    # and a stepped or reversed range too
    stream, make, cost_fn, rungs = _ba_stream("cut")
    n = len(stream)
    for ids in (range(n), range(n - 1, -1, -1), range(3, n, 7)):
        runs = []
        for given in (ids, list(ids)):
            pruned, report, states = pruning._prune(given, make(), cost_fn, rungs, n)
            runs.append((_outputs(pruned, report.per_budget_sizes, report.events),
                         report.oracle_calls, _rung_states(states)))
        assert runs[0] == runs[1]


def test_each_block_asks_one_batch_for_the_elements_that_fit_the_top_rung():
    size = pruning._BLOCK
    n = 2 * size + 3
    costs = [1.0 + 5.0 * (v % 5) for v in range(n)]  # 21.0 fits no rung
    spy = _BatchSpy(sp.CutOracle(random_graph(n, 0.02, 1)))
    sp.quickprune(range(n), spy, costs.__getitem__,
                  sp.LadderParams(2.0, 16.0, 0.5, 0.1, 0.1), n)
    assert spy.batches == [[v for v in range(start, min(start + size, n)) if costs[v] <= 16.0]
                           for start in range(0, n, size)]


# ---------------------------------------------------------------------------
# the screened pass against the element-by-element one

class _SignedOracle(sp.Oracle):
    """Integer weights, minus ``penalty`` on a non-empty set without a hub:
    values can be negative, so a deletion test can hold between events. Its
    state answers batches with one gather, so the screen runs on it."""

    def __init__(self, weights, hubs, penalty):
        super().__init__(len(weights))
        self.w = np.array(weights, dtype=np.int64)
        self.hub = np.array(hubs, dtype=bool)
        self.penalty = penalty

    def state(self):
        return _SignedState(self)

    def _value(self, S):
        if not S:
            return 0
        ids = sorted(S)
        return sum(self.w[ids].tolist()) - (0 if self.hub[ids].any() else self.penalty)


class _SignedState:
    divisor = None  # values are the integer totals

    def __init__(self, oracle):
        self.oracle = oracle
        self.members = set()
        self.total = 0

    def raw(self, vs):
        o = self.oracle
        gain = o.w[vs].copy()
        if not self.members:
            gain -= o.penalty * ~o.hub[vs]
        elif not o.hub[sorted(self.members)].any():
            gain += o.penalty * o.hub[vs]
        gain[np.isin(vs, sorted(self.members))] = 0
        return gain

    def gather(self, vs, f_S):
        return (self.total + self.raw(vs)) - f_S

    def links(self, vs):
        # walks start from a non-empty set: then only the first hub added
        # changes other gains, taking the penalty bonus off every later hub
        o = self.oracle
        assert self.members
        if o.hub[sorted(self.members)].any():
            return [[] for _ in range(len(vs))], []
        return [[0] if hub else [] for hub in o.hub[vs].tolist()], [o.penalty]

    def count(self, k):
        self.oracle.counter.bump(k)

    def gains(self, ids, f_S):
        vs = [int(v) for v in ids]
        if not all(0 <= v < self.oracle.n for v in vs):
            raise InputError("id outside the ground set")
        self.count(len(vs))
        return self.gather(np.array(vs, dtype=np.intp), f_S).tolist()

    def marginal(self, e, f_S):
        return self.gains([e], f_S)[0]

    def add(self, e):
        if e not in self.members:
            self.total += self.raw(np.array([e], dtype=np.intp)).item()
            self.members.add(e)

    def extend(self, vs):
        for v in vs.tolist():
            self.add(v)


def _screen_instance(kind, seed, n):
    rng = random.Random(seed)
    if kind == "signed":
        weights = [rng.randrange(-4, 9) for _ in range(n)]
        return _SignedOracle(weights, [rng.random() < 0.2 for _ in range(n)], rng.randrange(1, 12))
    if kind in ("modular", "negative"):
        # few distinct weights: ties; "negative" mixes signs
        low = -3 if kind == "negative" else 1
        weights = [rng.randrange(low, 4) * 0.5 for _ in range(n)]
        return sp.CustomOracle(n, lambda S: math.fsum(weights[v] for v in sorted(S)))
    if kind == "custom":
        weights = [2.0 ** rng.randrange(16) * rng.uniform(0.9, 1.1) for _ in range(n)]
        return sp.CustomOracle(n, lambda S: math.sqrt(math.fsum(weights[v] for v in sorted(S))))
    directed = kind.endswith("-directed")
    if directed:
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.15]
        graph = sp.from_edges(n, arcs, directed=True)
    else:
        graph = random_graph(n, rng.choice([0.05, 0.15, 0.4]), seed)
    if kind == "influence-sparse":
        # few live edges over a sparse graph: most pairs share no component
        graph = random_graph(n, 0.08, seed)
        return sp.InfluenceOracle(sp.LiveEdgeSamplePool(graph, p=0.05, m=3, seed=seed))
    if kind == "influence-dense":
        # many live edges: walks patch gains after nearly every add
        return sp.InfluenceOracle(sp.LiveEdgeSamplePool(graph, p=0.2, m=5, seed=seed))
    if kind == "cut-dense":
        # most pairs share an edge: walks patch gains after every add
        return sp.CutOracle(random_graph(n, 0.7, seed))
    if kind.startswith("cut"):
        return sp.CutOracle(graph)
    if kind == "coverage":
        return sp.CoverageOracle(graph)
    return sp.InfluenceOracle(sp.LiveEdgeSamplePool(graph, p=0.3, m=5, seed=seed))


SCREEN_KINDS = ("cut", "cut-directed", "cut-dense", "coverage", "influence", "influence-sparse",
                "influence-dense", "influence-directed", "modular", "custom", "negative",
                "signed")


def _rung_states(states):
    """What each rung holds, its floats as reprs so that every bit counts."""
    return [(s.processed, s.working, s.best_single, repr(s.f_working), repr(s.f_checkpoint),
             repr(s.f_best_single)) for s in states]


@given(st.sampled_from(SCREEN_KINDS), st.integers(0, 10**6), st.integers(8, 40),
       st.lists(st.integers(0, 10**6), max_size=40),
       st.sampled_from([(1.0, 2.0, 0.5), (1.0, 8.0, 0.5), (0.8, 5.0, 0.3), (3.0, 3.0, 0.5)]),
       st.sampled_from([0.1, 0.5, 3.0, "near n"]), st.sampled_from([0.05, 0.3, 1.0]),
       st.sampled_from([1, 3, 16, 256, 2048]), st.sampled_from([1, 2, 16]))
@settings(max_examples=400, deadline=None)
def test_screen_matches_the_element_by_element_pass(kind, seed, n, repeats, ladder_range,
                                                    eps, delta, block, look):
    rng = random.Random(seed)
    stream = list(range(n))
    rng.shuffle(stream)
    stream += [r % n for r in repeats]
    if block > 1:
        for b in range(block, len(stream), block):
            stream[b] = stream[b - 1]  # a repeat on each side of a block boundary
    costs = [rng.choice([0.5, 1.0, 1.5, 3.0, 6.0, 9.0]) for _ in range(n)]
    eps = n - 0.5 if eps == "near n" else eps  # near n, deletions fire all the time
    rungs = [sp.PruneParams(tau, delta, eps) for tau in sp.budget_ladder(*ladder_range)]
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pruning, "_BLOCK", block)
        mp.setattr(pruning, "_LOOK", look)
        for prune in (pruning._prune, ref_prune):
            pruned, report, states = prune(stream, _screen_instance(kind, seed, n),
                                           costs.__getitem__, rungs, n)
            runs.append((_outputs(pruned, report.per_budget_sizes, report.events),
                         report.deletions, report.oracle_calls, _rung_states(states)))
    assert runs[0] == runs[1]


def test_screen_fires_a_deletion_test_that_already_holds(monkeypatch):
    # the second deletion leaves {1} worth 2 - 10 = -8, so the deletion test
    # holds until the next admitted element fires it, although that element
    # neither enters (gain -3 < threshold -0.2) nor beats the best singleton
    monkeypatch.setattr(pruning, "_LOOK", 1)  # a first stretch of one element
    rungs = [sp.PruneParams(4.0, 0.1, 3.5)]
    runs = []
    for prune in (pruning._prune, ref_prune):
        oracle = _SignedOracle([1, 2, -3, 0], [True, False, False, False], 10)
        _, report, _ = prune(range(4), oracle, unit_cost, rungs, 4)
        runs.append(([(e.stream_pos, e.trigger, e.removed, repr(e.value_before),
                       repr(e.value_after)) for e in report.events], report.oracle_calls))
    assert runs[0] == runs[1]
    assert [e.removed for e in report.events] == [(), (0,), (1,)]


def test_screen_walks_every_admitted_element_while_a_value_is_negative():
    # the last deletion leaves {1} worth 2 - 10 = -8; from there each add
    # lowers the value, and with it the threshold (delta * cost / kappa is
    # 1), so an element below the threshold at a stretch's start can be
    # added later in the stretch
    rungs = [sp.PruneParams(4.0, 1.0, 6.0)]
    stream = [0, 5, 3, 4, 2, 1, 6, 2, 4, 3]
    runs = []
    for prune in (pruning._prune, ref_prune):
        oracle = _SignedOracle([-7, 2, -13, 11, -14, 11, -15],
                               [True, False, True, False, False, False, True], 10)
        pruned, report, states = prune(stream, oracle, lambda e: 4.0, rungs, 7)
        runs.append((_outputs(pruned, report.per_budget_sizes, report.events),
                     report.oracle_calls, _rung_states(states)))
    assert runs[0] == runs[1]
    assert report.events[-1].value_after == -8
    assert states[0].working == [1, 6, 2, 4, 3] and states[0].f_working == -29


WALKED_KINDS = ("cut", "cut-directed", "cut-dense", "coverage", "influence",
                "influence-sparse", "influence-dense", "signed")


@given(st.sampled_from(WALKED_KINDS), st.integers(0, 10**6), st.integers(8, 40),
       st.sampled_from([(1.0, 8.0, 0.5), (0.8, 5.0, 0.3), (3.0, 3.0, 0.5)]),
       st.sampled_from([0.1, 3.0, "near n"]),
       st.sampled_from([0.05, 0.25, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
                        1.0, 3.0]),
       st.sampled_from([1, 2, 16]))
@settings(max_examples=300, deadline=None)
def test_candidates_hold_every_element_a_whole_stretch_walk_changes(kind, seed, n, ladder_range,
                                                                    eps, delta, look):
    # before each stretch is walked, ``_decide`` runs for every rung of every
    # group over the whole stretch (up to an element decided before or a
    # repeated id): each element it adds, that beats a best singleton, or
    # where an add would fire the deletion test, is one of the group's
    # candidates. Powers of two, unit costs and deltas an ulp off 0.5 give
    # ties between gains and thresholds.
    rng = random.Random(seed)
    stream = list(range(n))
    rng.shuffle(stream)
    stream += [rng.randrange(n) for _ in range(n // 2)]
    costs = [rng.choice([0.5, 1.0, 1.0, 2.0, 3.0]) for _ in range(n)]
    eps = n - 0.5 if eps == "near n" else eps
    rungs = [sp.PruneParams(tau, delta, eps) for tau in sp.budget_ladder(*ladder_range)]
    real_walk = pruning._Screen._walk

    def walk(self, j, end):
        ids, costs, singles = (column[j:end] for column in self.block[1:])
        groups, _ = self._groups(ids)
        seen = self.stepped[ids]
        stop = int(seen.argmax()) if seen.any() else len(ids)
        window = [column[:stop].tolist() for column in (ids, costs, singles)]
        stop = pruning._first_repeat(window[0])
        for group in groups:
            candidate = self._candidates(group, costs, singles)
            for r, state in zip(group.rows, group.states):
                kappa, rung_delta, limit = self.rungs[r]
                links = functools.partial(state.oracle_state.links, ids[:stop])
                end_at, adds, _, bests = pruning._decide(
                    (kappa, rung_delta, limit * state.f_checkpoint, state.f_best_single), state,
                    window, group.raw[:stop].tolist(), self.batch.divisor, links)
                changed = set(adds) | {b[0] for b in bests} | {end_at} - {stop}
                assert all(candidate[i] for i in changed), (kind, r, sorted(changed))
        return real_walk(self, j, end)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pruning, "_LOOK", look)
        mp.setattr(pruning._Screen, "_walk", walk)
        pruning._prune(stream, _screen_instance(kind, seed, n), costs.__getitem__, rungs, n)


def _ba_ladder(make_oracle):
    """(the costs, `_gain` calls, the elements `_steps` received, the
    elements `_decide` walked, once per rung) of one ladder prune over
    [10, 40] of a seeded 3,000-node BA graph with degree costs."""
    graph = sp.assign_knapsack_costs(
        sp.generate("barabasi_albert", 3000, {"m_attach": 4}, seed=11), mode="degree")
    calls, stepped, walked = [], [], []
    real_gain, real_steps, real_decide = pruning._gain, pruning._steps, pruning._decide

    def counted(*args):
        calls.append(1)
        return real_gain(*args)

    def decide(rung, state, window, raw, divisor, links):
        walked.append(len(raw))
        return real_decide(rung, state, window, raw, divisor, links)

    def recorded(per_rung, oracle, n, elements):
        elements = list(elements)
        stepped.extend(elements)
        real_steps(per_rung, oracle, n, elements)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pruning, "_gain", counted)
        mp.setattr(pruning, "_steps", recorded)
        mp.setattr(pruning, "_decide", decide)
        sp.quickprune(range(graph.n), make_oracle(graph), graph.cost_fn(),
                      sp.LadderParams(10.0, 40.0, 0.5, 0.1, 0.1), graph.n)
    return graph.costs, len(calls), stepped, sum(walked)


def _custom_cut(graph):
    return sp.CustomOracle(graph.n, sp.CutOracle(graph).eval)


def test_screen_engages_on_cut_and_steps_aside_for_custom():
    # a query-count guard, not a timing: the cut and coverage prunes decide
    # only their few events element by element, a custom oracle every
    # admitted pair
    costs, screened, _, walked = _ba_ladder(sp.CutOracle)
    admitted = sum(int(np.count_nonzero(costs <= tau))
                   for tau in sp.budget_ladder(10.0, 40.0, 0.5))
    assert screened < admitted / 20
    # numpy leaves the walks the few candidates, not whole stretches
    assert 0 < walked < admitted / 20
    _, covered, _, _ = _ba_ladder(sp.CoverageOracle)
    assert covered < admitted / 20
    # the same values through a custom oracle, whose EvalState has no gather
    _, plain, _, _ = _ba_ladder(_custom_cut)
    assert plain == admitted


def _walks_and_steps(prune):
    """(the number of ``_walk`` calls, the number of elements of each
    ``_steps`` call) of ``prune()``, and what it returned."""
    walks, steps = [], []
    real_walk, real_steps = pruning._Screen._walk, pruning._steps

    def walk(self, *args):
        walks.append(1)
        return real_walk(self, *args)

    def recorded(per_rung, oracle, n, elements):
        elements = list(elements)
        steps.append(len(elements))
        real_steps(per_rung, oracle, n, elements)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pruning._Screen, "_walk", walk)
        mp.setattr(pruning, "_steps", recorded)
        out = prune()
    return len(walks), steps, out


def test_walks_keep_an_event_dense_influence_stream_out_of_steps():
    # a count guard, not a timing: most elements of a 1,000-node BA graph
    # with a sparse live-edge pool are events, and a few whole-stretch walks
    # decide them
    n = 1000
    graph = sp.generate("barabasi_albert", n, {"m_attach": 8}, seed=7)
    pool = sp.LiveEdgeSamplePool(graph, p=0.01, m=25, seed=7)
    ladder = sp.LadderParams(20.0, 80.0, 0.5, 0.1, 0.1)
    walks, steps, (pruned, report) = _walks_and_steps(
        lambda: sp.quickprune(range(n), sp.InfluenceOracle(pool), unit_cost, ladder, n))
    assert sum(steps) < n / 50
    assert walks <= 20
    rungs = [sp.PruneParams(tau, ladder.delta, ladder.epsilon)
             for tau in sp.budget_ladder(ladder.kappa_min, ladder.kappa_max, ladder.eta)]
    ref, ref_report, _ = ref_prune(range(n), sp.InfluenceOracle(pool), unit_cost, rungs, n)
    assert report.oracle_calls == ref_report.oracle_calls
    assert _outputs(pruned, report.per_budget_sizes, report.events) == _outputs(
        ref, ref_report.per_budget_sizes, ref_report.events)


def test_cut_walks_every_stretch_and_steps_single_elements():
    # a count guard, not a timing: every stretch of a cut stream is walked
    # over its candidates, and ``_steps`` gets single elements only
    graph = sp.assign_knapsack_costs(
        sp.generate("barabasi_albert", 3000, {"m_attach": 4}, seed=11), mode="degree")
    rungs = [sp.PruneParams(tau, 0.1, 0.1) for tau in sp.budget_ladder(10.0, 40.0, 0.5)]
    walks, steps, (pruned, report, states) = _walks_and_steps(
        lambda: pruning._prune(range(graph.n), sp.CutOracle(graph), graph.cost_fn(), rungs,
                               graph.n))
    assert walks and steps and set(steps) == {1}
    ref, ref_report, ref_states = ref_prune(range(graph.n), sp.CutOracle(graph),
                                            graph.cost_fn(), rungs, graph.n)
    assert report.oracle_calls == ref_report.oracle_calls
    assert _rung_states(states) == _rung_states(ref_states)
    assert _outputs(pruned, report.per_budget_sizes, report.events) == _outputs(
        ref, ref_report.per_budget_sizes, ref_report.events)


@pytest.mark.parametrize("make_oracle", [sp.CutOracle, _custom_cut], ids=["cut", "custom"])
def test_steps_never_sees_an_element_over_every_budget(make_oracle):
    # a count, not a timing: elements over the top rung are dropped at the
    # block, on the screened path and on the plain one
    costs, _, stepped, _ = _ba_ladder(make_oracle)
    assert np.count_nonzero(costs > 40.0) > 0 and stepped
    assert all(element[-2] <= 40.0 for element in stepped)  # the cost
    if make_oracle is _custom_cut:  # no screen: every fitting element, in order
        assert [element[0] for element in stepped] == np.flatnonzero(costs <= 40.0).tolist()


@pytest.mark.parametrize("kind", ["cut", "custom"])
def test_a_first_block_over_every_budget_keeps_the_stream_positions(kind, monkeypatch):
    monkeypatch.setattr(pruning, "_BLOCK", 4)
    n = 12
    graph = sp.generate("path", n)
    costs = [9.0] * 4 + [1.0, 2.0, 9.0, 1.0, 4.0, 1.0, 9.0, 2.0]  # 9.0 fits no rung
    rungs = [sp.PruneParams(tau, 0.1, 0.5) for tau in sp.budget_ladder(1.0, 4.0, 0.5)]
    runs = []
    for prune in (pruning._prune, ref_prune):
        oracle = sp.CutOracle(graph) if kind == "cut" else _custom_cut(graph)
        pruned, report, states = prune(range(n), oracle, costs.__getitem__, rungs, n)
        runs.append((_outputs(pruned, report.per_budget_sizes, report.events),
                     report.deletions, report.oracle_calls,
                     [(s.processed, s.working, s.best_single) for s in states]))
    assert runs[0] == runs[1]
    assert report.events[0].stream_pos == 4
    assert all(s.processed == n for s in states)


# ---------------------------------------------------------------------------
# closed-form bounds

def test_size_bound_examples():
    # log term equals one when n = e * epsilon
    assert sp.size_bound(math.e * 0.5, 1.0, 1.0, 1.0, 0.5) == pytest.approx(7.0)
    # kappa -> 0 leaves 2 ln(n / eps) + 3
    assert sp.size_bound(100, 1e-12, 1.0, 1.0, 0.1) == pytest.approx(
        2 * math.log(1000) + 3, rel=1e-6)
    assert sp.size_bound(1000, 100, 0.1, 1.0, 0.1) == pytest.approx(
        2 * (1 + 1000) * math.log(10000) + 3)


def test_size_bound_validation():
    with pytest.raises(InputError):
        sp.size_bound(1.0, 1.0, 1.0, 1.0, 2.0)  # n / epsilon below 1
    with pytest.raises(InputError):
        sp.size_bound(-1, 1, 1, 1, 0.1)
    for i in range(5):
        for bad in (math.nan, math.inf):
            args = [100.0, 4.0, 0.1, 1.0, 0.1]
            args[i] = bad
            with pytest.raises(InputError, match="finite"):
                sp.size_bound(*args)
    with pytest.raises(InputError, match="underflows"):
        sp.size_bound(100, 4, 1e-200, 1e-200, 0.1)


def test_alpha_values():
    assert sp.alpha_single(1.0, 0.0, 1.0) == pytest.approx(1 / 8)
    assert sp.alpha_multi(1.0, 0.0, 1.0) == pytest.approx(1 / 24)
    assert sp.alpha_single(0.7, 0.3, 0.3) == 0.0  # epsilon equals gamma
    assert sp.alpha_multi(0.7, 0.3, 0.3) == 0.0


def test_alpha_multi_is_gamma_third_of_single():
    rng = random.Random(0)
    for _ in range(50):
        delta = rng.uniform(0.01, 3.0)
        gamma = rng.uniform(0.1, 1.0)
        eps = rng.uniform(0.0, gamma)
        assert sp.alpha_multi(delta, eps, gamma) == pytest.approx(
            sp.alpha_single(delta, eps, gamma) * gamma / 3)


def test_alpha_validation():
    with pytest.raises(InputError):
        sp.alpha_single(1.0, 0.5, 0.4)  # epsilon above gamma
    with pytest.raises(InputError):
        sp.alpha_single(1.0, 0.0, 1.5)
    with pytest.raises(InputError):
        sp.alpha_single(0.0, 0.0, 1.0)
    for fn in (sp.alpha_single, sp.alpha_multi):
        for bad in ((math.nan, 0.1, 1.0), (1.0, math.nan, 1.0), (1.0, 0.1, math.nan),
                    (math.inf, 0.1, 1.0), (1.0, -math.inf, 1.0)):
            with pytest.raises(InputError, match="finite"):
                fn(*bad)


def test_check_nhi():
    assert sp.check_nhi({0, 1}, unit_cost, 2.0, 0.5)  # 1 <= 1
    assert not sp.check_nhi({0}, lambda v: 2.0, 2.0, 0.25)  # cost equals kappa
    assert sp.check_nhi(set(), lambda v: 99.0, 1.0, 0.5)


@pytest.mark.parametrize("kappa, eta", [(math.inf, 0.5), (2.0, math.nan), (math.nan, 0.5),
                                        (2.0, -math.inf)])
def test_check_nhi_refuses_a_kappa_or_eta_that_is_not_finite(kappa, eta):
    # eta = nan once failed every non-empty solution, kappa = inf passed it
    for solution in ({0}, set()):
        with pytest.raises(InputError, match="finite"):
            sp.check_nhi(solution, unit_cost, kappa, eta)


# ---------------------------------------------------------------------------
# geometric growth lemma

@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.001, max_value=0.999),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_geometric_recovery_steps_property(beta, g, seed):
    rng = random.Random(seed)
    m = sp.geometric_recovery_steps(beta, g)
    y = rng.uniform(0.001, 100.0)
    first = y
    for _ in range(m):
        y *= (1 + beta) * rng.uniform(1.0, 1.5)
    assert y >= first / g * (1 - 1e-12)


@pytest.mark.parametrize("beta, g", [(math.nan, 0.5), (math.inf, 0.5), (0.5, math.nan),
                                     (0.5, math.inf), (-math.inf, 0.5)])
def test_geometric_recovery_steps_refuses_values_that_are_not_finite(beta, g):
    # beta = nan or inf once raised a bare ValueError from math.ceil
    with pytest.raises(InputError, match="finite"):
        sp.geometric_recovery_steps(beta, g)


def test_geometric_recovery_steps_tight_at_minimal_growth():
    for beta, g in ((0.5, 0.1), (2.0, 0.01), (0.05, 0.5)):
        m = sp.geometric_recovery_steps(beta, g)
        assert (1 + beta) ** m >= 1 / g
        if m > 0:
            # one step fewer can fall short for some (beta, g)
            assert m == math.ceil((beta + 1) / beta * math.log(1 / g))
