"""Per-caller oracle states and their batches against fresh evaluation.

Every state, incremental or generic, must answer ``marginal`` with exactly
the float a fresh ``eval(S | {e}) - f_S`` gives and count one query per
marginal, also after it has been rebuilt by adding a set into a fresh state.
``gains(ids, f_S)`` must equal ``[eval(S | {v}) - f_S for v in ids]`` in
value and type, for an int and a float ``f_S``, and count one query per id;
a singleton batch is ``gains(ids, 0.0)`` on an empty state.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setprune as sp
from setprune import pruning
from setprune.errors import InputError

from conftest import (PlainOracle, random_graph, random_similarity_kernel, ref_components,
                      unit_cost)

KINDS = ("cut", "cut-directed", "influence", "influence-directed",
         "coverage", "simgraphcut", "custom")
N = 9


def _directed_graph(n, seed):
    rng = random.Random(seed)
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
    return sp.from_edges(n, arcs, directed=True)


def build_oracle(kind, seed):
    if kind.endswith("-dup"):
        graph = _duplicated_arcs_graph(seed, directed="directed" in kind)
        if kind.startswith("cut"):
            return sp.CutOracle(graph)
        if kind.startswith("coverage"):
            return sp.CoverageOracle(graph)
        return sp.InfluenceOracle(sp.LiveEdgeSamplePool(graph, p=0.5, m=7, seed=seed))
    if kind == "cut":
        return sp.CutOracle(random_graph(N, 0.35, seed))
    if kind == "cut-directed":
        return sp.CutOracle(_directed_graph(N, seed))
    if kind == "influence":
        return sp.InfluenceOracle(sp.LiveEdgeSamplePool(random_graph(N, 0.4, seed),
                                                        p=0.5, m=7, seed=seed))
    if kind == "influence-sparse":  # most ids alone in most samples
        return sp.InfluenceOracle(sp.LiveEdgeSamplePool(random_graph(N, 0.4, seed),
                                                        p=0.05, m=7, seed=seed))
    if kind == "influence-directed":
        return sp.InfluenceOracle(sp.LiveEdgeSamplePool(_directed_graph(N, seed),
                                                        p=0.5, m=7, seed=seed))
    if kind == "coverage":
        return sp.CoverageOracle(random_graph(N, 0.3, seed))
    if kind == "coverage-directed":
        return sp.CoverageOracle(_directed_graph(N, seed))
    if kind == "simgraphcut":
        return sp.SimilarityCutOracle(random_similarity_kernel(2, N, seed)[0])
    weights = [1.0 + 0.37 * ((seed + 3 * v) % 11) for v in range(N)]
    return sp.CustomOracle(N, lambda S: math.sqrt(math.fsum(weights[v] for v in sorted(S))))


# raw CSR graphs that list some arcs twice, directed coverage, and influence
# at a p where an id is often the only one to hold its own key
STATE_KINDS = KINDS + ("cut-dup", "cut-directed-dup", "coverage-dup", "coverage-directed",
                       "influence-sparse")
ids = st.integers(min_value=0, max_value=N - 1)
ops = st.lists(st.one_of(
    st.tuples(st.just("add"), ids),
    st.tuples(st.just("marginal"), ids, st.sampled_from([0.0, 0.25, 1e-9])),
    st.tuples(st.just("gains"), st.lists(ids, max_size=6), st.sampled_from([0.0, 0.25])),
    st.tuples(st.just("rebuild"), st.lists(ids), st.booleans()),
), max_size=25)


@given(st.sampled_from(STATE_KINDS + ("plain",)), st.integers(min_value=0, max_value=500), ops)
@settings(max_examples=150, deadline=None)
def test_state_matches_fresh_eval(kind, seed, steps):
    oracle = build_singleton_oracle(kind, seed)
    state = sp.oracle_state(oracle)
    S = set()
    for step in steps:
        before = oracle.query_count
        if step[0] == "add":
            state.add(step[1])
            assert oracle.query_count == before
            S.add(step[1])
        elif step[0] == "marginal":
            e, offset = step[1], step[2]
            f_S = (oracle.eval(S) if S else 0.0) + offset
            before = oracle.query_count
            got = state.marginal(e, f_S)
            assert oracle.query_count == before + 1
            expect = oracle.eval(S | {e}) - f_S
            assert got == expect and type(got) is type(expect)
            if e in S and offset == 0.0:
                assert got == 0
        elif step[0] == "gains":
            vs, offset = step[1], step[2]
            f_S = (oracle.eval(S) if S else 0.0) + offset
            before = oracle.query_count
            got = state.gains(vs, f_S)
            assert oracle.query_count == before + len(vs)
            assert repr(got) == repr([oracle.eval(S | {v}) - f_S for v in vs])
        else:
            # what the pruner does at a deletion: a fresh state, S added
            # again in one extend (repeats included) or one by one
            state = sp.oracle_state(oracle)
            S = set(step[1])
            if step[2]:
                state.extend(np.array(step[1], dtype=np.intp))
            else:
                for v in step[1]:
                    state.add(v)
            assert oracle.query_count == before


@pytest.mark.parametrize("kind", KINDS)
def test_state_rejects_ids_outside_ground_set(kind):
    oracle = build_oracle(kind, 1)
    state = oracle.state()
    for bad in (-1, N):
        with pytest.raises(InputError):
            state.marginal(bad, 0.0)
        with pytest.raises(InputError):
            state.gains([bad], 0.0)
        with pytest.raises(InputError):
            state.add(bad)


def test_which_oracles_fall_back_to_eval_state():
    for kind in KINDS:
        generic = type(build_oracle(kind, 2).state()) is sp.EvalState
        assert generic == (kind in ("simgraphcut", "custom", "influence-directed")), kind


@pytest.mark.parametrize("kind", KINDS)
def test_repeated_ids_count_once(kind):
    oracle = build_oracle(kind, 4)
    for S in ({0}, {0, 3}, {1, 5, 8}):
        expect = oracle.eval(S)
        doubled = sorted(S) * 2
        for got in (oracle.eval(doubled), oracle.eval(np.array(doubled))):
            assert got == expect and type(got) is type(expect)
        state = oracle.state()
        for v in doubled:
            state.add(v)
        assert state.marginal(2, expect) == oracle.eval(S | {2}) - expect


@pytest.mark.parametrize("kind", KINDS)
def test_float_ids_raise_input_error(kind):
    oracle = build_oracle(kind, 5)
    state = oracle.state()
    for bad in (1.0, 1.5, np.float64(2.0)):
        with pytest.raises(InputError):
            oracle.eval({bad})
        with pytest.raises(InputError):
            oracle.eval([0, bad])
        with pytest.raises(InputError):
            oracle.marginal(bad, {0}, 1.0)
        with pytest.raises(InputError):
            state.marginal(bad, 0.0)
        with pytest.raises(InputError):
            state.gains([0, bad], 0.0)
        with pytest.raises(InputError):
            state.add(bad)


def test_wrappers_without_state_fall_back_to_eval_state():
    assert type(sp.oracle_state(PlainOracle(build_oracle("cut", 0)))) is sp.EvalState


@given(st.sampled_from(STATE_KINDS), st.integers(min_value=0, max_value=500),
       st.frozensets(ids), ids, st.sampled_from([0, 0.0, 0.25, 1e-9]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_eval_state_marginal_is_one_fresh_query(kind, seed, S, e, offset, wrapped):
    # on an Oracle, EvalState checks only e and asks the set function once;
    # a wrapper goes through its own marginal; both give the fresh float
    oracle = build_oracle(kind, seed)
    state = sp.EvalState(PlainOracle(oracle) if wrapped else oracle)
    for v in S:
        state.add(v)
    f_S = (oracle.eval(S) if S else 0) + offset
    before = oracle.query_count
    got = state.marginal(e, f_S)
    assert oracle.query_count == before + 1
    expect = oracle.eval(S | {e}) - f_S
    assert repr(got) == repr(expect) and type(got) is type(expect)


@given(st.lists(st.integers(0, 39), max_size=40), st.integers(0, 39),
       st.integers(min_value=0, max_value=500))
@settings(max_examples=200, deadline=None)
def test_eval_state_marginal_keeps_the_summation_order_of_eval(adds, e, seed):
    # a float sum in set order depends on that order: the set function must
    # see one order per set, whether eval, a state or a wrapper asks
    rng = random.Random(seed)
    weights = [2.0 ** rng.randrange(40) * rng.uniform(0.9, 1.1) for _ in range(40)]
    oracle = sp.CustomOracle(40, lambda S: sum(weights[v] for v in S))
    direct, wrapped = sp.EvalState(oracle), sp.EvalState(PlainOracle(oracle))
    for v in adds:
        direct.add(v)
        wrapped.add(v)
    expect = repr(oracle.eval(direct.members | {e}) - 0.25)
    assert repr(direct.marginal(e, 0.25)) == repr(wrapped.marginal(e, 0.25)) == expect


def test_custom_oracle_hands_the_set_function_one_order_per_set():
    # the function got its frozenset in the order the caller built the set:
    # eval of one set listed in two orders, and gains on a non-empty state
    # against marginal, gave other bits for a float sum in set order
    # (small sets of large ids collide in the hash table, where the
    # iteration order follows the insertion order)
    n = 512
    rng = random.Random(3)
    weights = [2.0 ** rng.randrange(50) * rng.uniform(1, 2) for _ in range(n)]
    oracle = sp.CustomOracle(n, lambda S: sum(weights[v] for v in S))
    for _ in range(300):
        ids = rng.sample(range(n), rng.randrange(2, 40))
        assert repr(oracle.eval(ids)) == repr(oracle.eval(reversed(ids)))
        members = ids[:len(ids) // 2]
        state = oracle.state()
        for v in members:
            state.add(v)
        f_S = oracle.eval(members)
        vs = ids[len(ids) // 2:] + rng.sample(range(n), 5)
        assert [repr(g) for g in state.gains(vs, f_S)] == \
            [repr(state.marginal(v, f_S)) for v in vs]


@pytest.mark.parametrize("kind", ["cut", "influence"])
def test_pruner_and_solvers_unchanged_by_incremental_state(kind):
    graph = random_graph(60, 0.1, 4)
    if kind == "cut":
        make = lambda: sp.CutOracle(graph)  # noqa: E731
    else:
        pool = sp.LiveEdgeSamplePool(graph, p=0.2, m=12, seed=4)
        make = lambda: sp.InfluenceOracle(pool)  # noqa: E731
    ladder = sp.LadderParams(2.0, 16.0, 0.5, 0.1, 0.1)
    runs = []
    for oracle in (make(), PlainOracle(make())):
        pruned, report = sp.quickprune(range(60), oracle, unit_cost, ladder, 60)
        sols = [sp.greedy_cardinality(oracle, range(60), k) for k in (3, 8)]
        sols.append(sp.greedy_knapsack(oracle, lambda v: 1.0 + v % 3, pruned, 7.0))
        runs.append((pruned, report.oracle_calls, report.per_budget_sizes,
                     [(e.removed, e.value_before, e.value_after) for e in report.events],
                     [(s.ids, s.value, s.oracle_calls) for s in sols]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", ["influence", "influence-directed", "cut"])
def test_deletions_rebuild_states_like_plain_eval(kind):
    # epsilon close to n makes nearly every gain fire a deletion; undirected
    # influence and cut rebuild incremental states, directed influence an
    # EvalState, and every rung's state must hold exactly its survivors
    n = 60
    if kind == "cut":
        graph = random_graph(n, 0.1, 6)
        make = lambda: sp.CutOracle(graph)  # noqa: E731
    else:
        graph = _directed_graph(n, 6) if kind.endswith("directed") else random_graph(n, 0.1, 6)
        pool = sp.LiveEdgeSamplePool(graph, p=0.1, m=10, seed=6)
        make = lambda: sp.InfluenceOracle(pool)  # noqa: E731
    rungs = [sp.PruneParams(tau, 0.1, n - 0.5) for tau in sp.budget_ladder(2.0, 16.0, 0.5)]
    runs = []
    for oracle in (make(), PlainOracle(make())):
        pruned, report, states = pruning._prune(range(n), oracle, unit_cost, rungs, n)
        runs.append((pruned, report.oracle_calls, report.per_budget_sizes, report.deletions,
                     [(e.stream_pos, e.trigger, e.removed, repr(e.value_before),
                       repr(e.value_after)) for e in report.events]))
        for state in states:
            f_S = oracle.eval(state.working_set) if state.working_set else 0.0
            assert state.f_working == f_S
            for v in range(0, n, 7):
                assert (state.oracle_state.marginal(v, f_S)
                        == oracle.eval(state.working_set | {v}) - f_S)
        if kind == "cut":  # a re-evaluated cut is an int, as _gain expects
            assert all(type(e.value_after) is int for e in report.events
                       if e.removed and e.value_after)
    assert runs[0][3] > 0
    assert runs[0] == runs[1]


def _raw_csr(n, arcs):
    """A Graph straight from CSR lists, keeping every arc given, so an arc
    listed twice is stored twice."""
    arcs = sorted(arcs)
    indptr = [0] * (n + 1)
    for u, _ in arcs:
        indptr[u + 1] += 1
    for v in range(n):
        indptr[v + 1] += indptr[v]
    return [v for _, v in arcs], indptr


def _duplicated_arcs_graph(seed, directed):
    """Raw CSR graph over N nodes whose arcs are listed once or twice (both
    directions of a duplicated undirected edge, to stay symmetric)."""
    rng = random.Random(seed)
    arcs = []
    for u in range(N):
        for v in range(N if directed else u):
            if u != v and rng.random() < 0.35:
                copies = rng.choice((1, 2))
                arcs += [(u, v)] * copies
                if not directed:
                    arcs += [(v, u)] * copies
    indices, indptr = _raw_csr(N, arcs)
    return sp.Graph(N, indptr, indices, directed=directed)


def build_singleton_oracle(kind, seed):
    if kind == "plain":
        return PlainOracle(build_oracle("cut", seed))
    return build_oracle(kind, seed)


SINGLETON_KINDS = STATE_KINDS + ("influence-dup", "plain")
any_id = st.one_of(ids, ids.map(np.int64))


def _same(got, expect):
    # repr keeps the value and its type: 3 and 3.0 differ
    assert repr(got) == repr(expect)
    assert [type(x) for x in got] == [type(x) for x in expect]


@given(st.sampled_from(SINGLETON_KINDS), st.integers(min_value=0, max_value=500),
       st.lists(any_id, max_size=30))
@settings(max_examples=200, deadline=None)
def test_singletons_match_fresh_evals(kind, seed, vs):
    # a singleton batch is gains(ids, 0.0) on an empty state
    oracle = build_singleton_oracle(kind, seed)
    expect = [oracle.eval({v}) - 0.0 for v in vs]
    for batch in (vs, iter(vs)):
        before = oracle.query_count
        got = sp.oracle_state(oracle).gains(batch, 0.0)
        assert oracle.query_count == before + len(vs)
        _same(got, expect)


@given(st.sampled_from(SINGLETON_KINDS), st.integers(min_value=0, max_value=500),
       st.frozensets(ids, min_size=1), st.lists(any_id, max_size=30),
       st.sampled_from(["int", "float", "offset"]))
@settings(max_examples=200, deadline=None)
def test_gains_match_fresh_evals(kind, seed, S, vs, value):
    oracle = build_singleton_oracle(kind, seed)
    state = sp.oracle_state(oracle)
    for v in S:
        state.add(v)
    f = oracle.eval(S)
    f_S = {"int": int(f), "float": float(f), "offset": f + 0.25}[value]
    before = oracle.query_count
    got = state.gains(vs, f_S)
    assert oracle.query_count == before + len(vs)
    _same(got, [oracle.eval(S | {v}) - f_S for v in vs])
    _same(got, [state.marginal(v, f_S) for v in vs])


def test_duplicated_arcs_count_once_in_singletons():
    # node 0 lists its one neighbour twice: degree 2, but the cut of {0} is
    # one edge and the cover of {0} is two nodes
    graph = sp.Graph(2, [0, 2, 4], [1, 1, 0, 0])
    assert graph.degrees.tolist() == [2, 2]
    assert sp.CutOracle(graph).state().gains([0, 1], 0.0) == [1, 1]
    assert sp.CoverageOracle(graph).state().gains([0, 1], 0.0) == [2, 2]


@pytest.mark.parametrize("kind", SINGLETON_KINDS)
def test_singletons_reject_bad_ids_before_counting(kind):
    oracle = build_singleton_oracle(kind, 3)
    held = sp.oracle_state(oracle)
    for v in (0, 4):
        held.add(v)
    for state in (sp.oracle_state(oracle), held):
        assert state.gains([], 0.0) == []
        assert oracle.query_count == 0
        for bad in (-1, N, np.int64(N), np.int64(64), 1.5, 2**70):
            with pytest.raises(InputError):
                state.gains([0, 1, bad, 2], 0.0)
            assert oracle.query_count == 0


# ---------------------------------------------------------------------------
# the hooks the pruner's walk reads

GATHER_KINDS = ("cut", "cut-directed", "cut-dup", "cut-directed-dup", "influence",
                "influence-dup", "influence-sparse", "coverage", "coverage-dup",
                "coverage-directed")


@given(st.sampled_from(GATHER_KINDS), st.integers(min_value=0, max_value=500),
       st.frozensets(ids), st.lists(ids, max_size=12), st.sampled_from([0, 0.0, 0.25]))
@settings(max_examples=200, deadline=None)
def test_gather_is_its_raw_gains_and_matches_fresh_evals(kind, seed, S, vs, offset):
    oracle = build_oracle(kind, seed)
    state = oracle.state()
    for v in S:
        state.add(v)
    f_S = (oracle.eval(S) if S else 0) + offset
    vs = np.array(vs, dtype=np.intp)
    before = oracle.query_count
    got = state.gather(vs, f_S)
    assert oracle.query_count == before  # uncounted
    expect = [oracle.eval(S | {v}) - f_S for v in vs.tolist()]
    _same(got.tolist(), expect)
    raw = state.raw(vs)
    assert raw.dtype.kind == "i" and type(state.total) is int
    values = state.total + raw
    _same(((values if state.divisor is None else values / state.divisor) - f_S).tolist(), expect)


def _state_with(oracle, S):
    state = oracle.state()
    for v in S:
        state.add(v)
    return state


def _walk_links(oracle, S, walk, take):
    """Walk the distinct ids ``walk`` outside ``S`` over a state holding
    ``S``, adding those that ``take`` picks, in order: before each id, the
    raw gain patched by the links of ``walk`` is a fresh raw gather."""
    state = _state_with(oracle, S)
    vs = np.array(walk, dtype=np.intp)
    held, amount = state.links(vs)
    assert len(held) == len(walk) and all(type(a) is int for a in amount)
    raw = state.raw(vs).tolist()
    fresh = _state_with(oracle, S)
    taken = [False] * len(amount)
    for i, v in enumerate(walk):
        patched = raw[i] - sum(amount[link] for link in held[i] if taken[link])
        assert patched == fresh.raw(np.array([v], dtype=np.intp)).item()
        if take[i]:
            fresh.add(v)
            for link in held[i]:
                taken[link] = True


def _same_state(a, b):
    for name in ("_member", "_hits", "_covered"):
        if hasattr(a, name):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.total == b.total and type(a.total) is type(b.total) is int


@given(st.sampled_from(GATHER_KINDS), st.integers(min_value=0, max_value=500),
       st.frozensets(ids), st.lists(ids, max_size=N),
       st.lists(st.booleans(), min_size=N, max_size=N))
@settings(max_examples=200, deadline=None)
def test_links_patch_walked_gains_and_bulk_adds_match_one_by_one(kind, seed, S, vs, take):
    oracle = build_oracle(kind, seed)
    # the pruner's walk stops at the first id it decided before: one in S or
    # a repeat of an earlier one
    walk = []
    for v in vs:
        if v in S or v in walk:
            break
        walk.append(v)
    _walk_links(oracle, S, walk, take)
    # the same oracle again, as a walk's next group over another set: a
    # prefix of the ids, and S grown by an id outside the walk
    rest = sorted(set(range(N)) - S - set(walk))
    _walk_links(oracle, S | set(rest[:1]), walk[:len(walk) // 2], take[::-1])

    # a bulk add of any ids, repeats and members of S included, is the same
    # as adding them one by one
    chosen = np.array([v for v, t in zip(vs, take) if t], dtype=np.intp)
    bulk, single = _state_with(oracle, S), _state_with(oracle, S)
    bulk.extend(chosen)
    for v in chosen.tolist():
        single.add(v)
    _same_state(bulk, single)
    grown = S | set(chosen.tolist())
    f_S = oracle.eval(grown) if grown else 0.0
    assert bulk.gains(range(N), f_S) == [oracle.eval(grown | {v}) - f_S for v in range(N)]


# ---------------------------------------------------------------------------
# the key rows of undirected influence

ROW_POOLS = ("p-zero", "p-one-connected", "one-sample", "isolated-node")


def _row_pool(case, seed):
    if case == "p-zero":
        return sp.LiveEdgeSamplePool(random_graph(N, 0.5, seed), p=0.0, m=5, seed=seed)
    if case == "p-one-connected":
        return sp.LiveEdgeSamplePool(sp.generate("path", N), p=1.0, m=4, seed=seed)
    if case == "one-sample":
        return sp.LiveEdgeSamplePool(random_graph(N, 0.4, seed), p=0.5, m=1, seed=seed)
    # node N - 1 is on no edge, so it is alone in every sample
    edges = random_graph(N - 1, 0.5, seed).edge_array().tolist()
    return sp.LiveEdgeSamplePool(sp.from_edges(N, edges), p=0.5, m=6, seed=seed)


@pytest.mark.parametrize("case", ROW_POOLS)
@given(seed=st.integers(min_value=0, max_value=500), adds=st.lists(ids, max_size=N))
@settings(max_examples=40, deadline=None)
def test_key_rows_answer_like_all_m_keys(case, seed, adds):
    pool = _row_pool(case, seed)
    oracle = sp.InfluenceOracle(pool)
    starts, entries = pool.key_rows
    lengths = np.diff(starts).tolist()
    keys, worths = entries.T.tolist()
    if case == "p-zero":  # alone everywhere: one entry, its own key, worth m
        assert lengths == [1] * N and keys == list(range(N)) and worths == [pool.m] * N
    elif case == "p-one-connected":  # never alone: each sample's one component
        assert lengths == [pool.m] * N and worths == [N] * (pool.m * N)
    elif case == "one-sample":
        assert lengths == [1] * N
    else:
        assert lengths[-1] == 1 and (keys[-1], worths[-1]) == (N - 1, pool.m)
    # one state built by adds, one by a single extend: the same mask and
    # total, and every marginal is its raw gain and a fresh evaluation
    single, bulk = oracle.state(), oracle.state()
    for v in adds:
        single.add(v)
    bulk.extend(np.array(adds, dtype=np.intp))
    _same_state(single, bulk)
    S = set(adds)
    f_S = oracle.eval(S) if S else 0.0
    for state in (single, bulk):
        for e in range(N):
            vs = np.array([e], dtype=np.intp)
            assert oracle._cover(e, state._covered, False) == state.raw(vs).item()
            got = state.marginal(e, f_S)
            _same([got], state.gather(vs, f_S).tolist())
            _same([got], [oracle.eval(S | {e}) - f_S])


def test_undirected_pools_keep_no_array_per_stacked_node():
    # a state's mask has one flag per key: an id's own key, and one per
    # component of two or more nodes in any sample
    graph = random_graph(60, 0.05, 3)
    pool = sp.LiveEdgeSamplePool(graph, p=0.05, m=40, seed=3)
    kept = [a if a.base is None else a.base for value in vars(pool).values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]
    # weights, reach, row starts and (key, worth) entries; m * n is 2,400
    assert len(kept) == 4 and all(a.size < pool.m * pool.n / 2 for a in kept)
    shared = sum(1 for ref in ref_components(graph, pool) for r in set(ref) if ref.count(r) > 1)
    assert 0 < shared and pool.weights.size == pool.n + shared
    assert sp.InfluenceOracle(pool).state()._covered.size == pool.weights.size
