import collections
import itertools
import random
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setprune as sp
from setprune import objectives
from setprune.errors import InputError
from setprune.objectives import _NUMPY_SET

from conftest import (oracle_families, random_graph, random_similarity_kernel, ref_components,
                      ref_coverage, ref_cut, ref_influence, ref_live_edges, ref_simcut)


# ---------------------------------------------------------------------------
# eval / marginal contract

def test_eval_star_center_covers_all(star6):
    orc = sp.CoverageOracle(star6)
    assert orc.eval({0}) == 6


def test_eval_empty_set_is_zero_for_every_family():
    for name, orc in oracle_families(8, seed=3).items():
        assert orc.eval(set()) == 0, name


def test_eval_triangle_cut(triangle):
    orc = sp.CutOracle(triangle)
    # enumerate edges crossing {v0}: (0,1) and (0,2)
    assert orc.eval({0}) == 2


def test_eval_invalid_id_raises(star6):
    orc = sp.CoverageOracle(star6)
    with pytest.raises(InputError):
        orc.eval({99})
    with pytest.raises(InputError):
        orc.eval({-1})


def test_eval_bumps_counter_exactly_once_per_call(star6):
    orc = sp.CoverageOracle(star6)
    assert orc.query_count == 0
    orc.eval({0})
    orc.eval({1, 2})
    orc.eval(set())
    assert orc.query_count == 3


def test_marginal_member_is_zero_and_costs_one_query(star6):
    orc = sp.CoverageOracle(star6)
    f_s = orc.eval({0, 1})
    before = orc.query_count
    assert orc.marginal(0, {0, 1}, f_s) == 0
    assert orc.query_count == before + 1


def test_marginal_center_to_empty(star6):
    orc = sp.CoverageOracle(star6)
    assert orc.marginal(0, set(), 0.0) == 6


def test_marginal_cut_triangle(triangle):
    orc = sp.CutOracle(triangle)
    f_s = orc.eval({0})
    # brute force: f({v0, v1}) = 2, so the gain of v1 is zero
    assert orc.eval({0, 1}) == 2
    assert orc.marginal(1, {0}, f_s) == 0


def test_cut_accepts_numpy_ids_beyond_machine_word():
    # ids of 64 and more would overflow a fixed-width numpy shift
    for directed in (False, True):
        graph = sp.from_edges(200, [(i, i + 1) for i in range(199)], directed=directed)
        orc = sp.CutOracle(graph)
        for ids in ([100], [63, 64], [64, 65, 199], [0, 150, 151]):
            expect = orc.eval(set(ids))
            assert expect == ref_cut(graph, ids)
            for as_numpy in ({np.int64(v) for v in ids}, {np.uint32(v) for v in ids},
                             np.array(ids), np.array(ids, dtype=np.int32)):
                got = orc.eval(as_numpy)
                assert got == expect and type(got) is int
        with pytest.raises(InputError):
            orc.eval({np.int64(200)})
        with pytest.raises(InputError):
            orc.eval(np.array([5, -1]))


def _build_peak_bytes(graph):
    """Peak traced memory while building a cut and a coverage oracle."""
    tracemalloc.start()
    try:
        oracles = (sp.CutOracle(graph), sp.CoverageOracle(graph))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oracles[0].n == oracles[1].n == graph.n
    return peak


@pytest.mark.parametrize("directed", [False, True])
def test_cut_and_coverage_build_memory_is_linear_in_arcs(directed):
    # one n-bit mask per node would take n^2 / 8 bytes per oracle: 50 MB at
    # 20k nodes, and 16 times the 5k-node peak
    peaks = {}
    for n in (5_000, 20_000):
        graph = sp.from_edges(n, [(i, i + 1) for i in range(n - 1)], directed=directed)
        arcs = graph.indices.size
        peaks[n] = _build_peak_bytes(graph)
        assert peaks[n] < 400 * (n + arcs), (n, peaks[n])
    assert peaks[20_000] < 6 * peaks[5_000], peaks


def test_counter_tolerates_concurrent_increments(star6):
    orc = sp.CoverageOracle(star6)

    def hammer():
        for _ in range(500):
            orc.eval({0})

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert orc.query_count == 2000


# ---------------------------------------------------------------------------
# coverage / cut reference values

def test_coverage_value_examples(star6):
    path = sp.generate("path", 3)
    orc = sp.CoverageOracle(path)
    for S, expect in ((set(), 0), ({0, 1, 2}, 3), ({1}, 3)):  # b covers a, b, c
        assert ref_coverage(path, S) == expect == orc.eval(S)


def test_cut_value_examples(triangle):
    k4 = sp.from_edges(4, list(itertools.combinations(range(4), 2)))
    orc = sp.CutOracle(triangle)
    for S, expect in ((set(), 0), ({0, 1, 2}, 0), ({0}, 2)):
        assert ref_cut(triangle, S) == expect == orc.eval(S)
    for pair in itertools.combinations(range(4), 2):
        assert ref_cut(k4, set(pair)) == 4 == sp.CutOracle(k4).eval(set(pair))


def test_oracles_match_reference_on_random_sets():
    rng = random.Random(11)
    for seed in range(4):
        graph = random_graph(10, 0.3, seed)
        cov, cut = sp.CoverageOracle(graph), sp.CutOracle(graph)
        for _ in range(25):
            S = set(rng.sample(range(10), rng.randint(0, 10)))
            assert cov.eval(S) == ref_coverage(graph, S)
            assert cut.eval(S) == ref_cut(graph, S)


def test_directed_cut_counts_incoming_arcs():
    g = sp.from_edges(3, [(0, 1), (2, 1)], directed=True)
    orc = sp.CutOracle(g)
    assert orc.eval({1}) == 2 == ref_cut(g, {1})
    assert orc.eval({0}) == 0 == ref_cut(g, {0})


# ---------------------------------------------------------------------------
# cut and coverage over CSR arrays, against the references

@st.composite
def _raw_and_clean_graphs(draw):
    """A Graph straight from CSR arrays whose rows list their arcs in a drawn
    order, some twice, and the same graph built by ``from_edges``; isolated
    nodes and ``n = 0`` included."""
    n = draw(st.integers(0, 40))
    directed = draw(st.booleans())
    node = st.integers(0, max(n - 1, 0))
    arcs = [(u, v) for u, v in draw(st.lists(st.tuples(node, node), max_size=90)) if u != v]
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=10)) if arcs else []
    if not directed:
        arcs += [(v, u) for u, v in arcs]
    rows = [draw(st.permutations([v for u, v in arcs if u == w])) for w in range(n)]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([v for row in rows for v in row], dtype=np.int64)
    raw = sp.Graph(n, indptr, indices, directed=directed)
    return raw, sp.from_edges(n, arcs, directed=directed)


def _same_int(got, expect):
    assert got == expect and type(got) is int


@given(_raw_and_clean_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_csr_cut_and_coverage_match_the_references(graphs, data):
    raw, clean = graphs
    n = raw.n
    for make, ref in ((sp.CutOracle, ref_cut), (sp.CoverageOracle, ref_coverage)):
        oracles = (make(raw), make(clean))
        sizes = st.sampled_from(sorted({0, n // 2, n} | {k for k in (_NUMPY_SET,
                                                               _NUMPY_SET + 1) if k <= n}))
        for _ in range(3):
            S = set(data.draw(st.permutations(range(n)))[:data.draw(sizes)])
            for oracle in oracles:
                _same_int(oracle.eval(S), ref(clean, S))
        # a state after adds, then rebuilt on another set
        for oracle in oracles:
            for members in (data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)),
                            data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))):
                state, S = oracle.state(), set()
                for v in members:
                    state.add(v)
                    S.add(v)
                f_S = ref(clean, S)
                for v in range(n):
                    _same_int(state.marginal(v, f_S), ref(clean, S | {v}) - f_S)
                got = state.gains(list(range(n)), f_S)
                assert got == [ref(clean, S | {v}) - f_S for v in range(n)]
                assert all(type(x) is int for x in got)
                as_float = [state.marginal(v, float(f_S)) for v in range(n)]
                assert state.gains(list(range(n)), float(f_S)) == as_float
                assert all(type(x) is float for x in as_float)


@pytest.mark.parametrize("directed", [False, True])
def test_large_set_evals_match_the_references(directed):
    # sets past the cutoff are evaluated in numpy, the rest in Python loops
    rng = random.Random(7)
    arcs = [(u, v) for u in range(150) for v in range(150)
            if u != v and rng.random() < 0.04]
    graph = sp.from_edges(150, arcs, directed=directed)
    cut, cov = sp.CutOracle(graph), sp.CoverageOracle(graph)
    for size in (_NUMPY_SET - 1, _NUMPY_SET, _NUMPY_SET + 1, 60, 149, 150):
        for _ in range(5):
            S = set(rng.sample(range(150), size))
            _same_int(cut.eval(S), ref_cut(graph, S))
            _same_int(cov.eval(S), ref_coverage(graph, S))
            _same_int(cut.eval(np.array(sorted(S))), ref_cut(graph, S))


@pytest.mark.parametrize("directed", [False, True])
def test_building_cut_and_coverage_makes_no_per_node_objects(directed):
    # rows become tuples only when a Python loop reads them
    n = 20_000
    graph = sp.from_edges(n, [(i, i + 1) for i in range(n - 1)], directed=directed)
    tracemalloc.start()
    try:
        cut, cov = sp.CutOracle(graph), sp.CoverageOracle(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # ascending rows are kept as they are: the in-degree array and a byte per
    # arc, where one tuple per node alone would take 48 bytes a node; a
    # directed cut groups its in-rows in numpy
    for indptr, indices in (cut._out, cov._out):
        assert indptr is graph.indptr and indices is graph.indices
    if not directed:
        assert cut._in is cut._out and peak < 16 * n, peak
    assert len(cut._in_rows) == len(cov._nbhd) == 0
    cut.eval({3, 9})
    cov.eval({3})
    assert sorted(cut._in_rows) == [3, 9] and sorted(cov._nbhd) == [3]
    assert cov._nbhd[3] == ((4,) if directed else (2, 4))
    assert cut._in_rows[9] == ((8,) if directed else (8, 10))
    # states and large sets read the CSR arrays and cache no rows
    for oracle in (cut, cov):
        state = oracle.state()
        state.gains(range(n), 0.0)
        state.add(5)
        state.marginal(6, 0.0)
        oracle.eval(range(100, 200))
    assert sorted(cut._in_rows) == [3, 9] and sorted(cov._nbhd) == [3]


# ---------------------------------------------------------------------------
# influence via frozen live-edge samples

def test_influence_empty_is_zero():
    pool = sp.LiveEdgeSamplePool(random_graph(8, 0.4, 0), p=0.5, m=10, seed=1)
    assert sp.InfluenceOracle(pool).eval(set()) == 0


def test_influence_p_one_reaches_whole_component():
    path = sp.generate("path", 7)
    pool = sp.LiveEdgeSamplePool(path, p=1.0, m=5, seed=0)
    orc = sp.InfluenceOracle(pool)
    for v in range(7):
        assert orc.eval({v}) == 7


def test_influence_p_zero_counts_seeds():
    g = random_graph(9, 0.5, 2)
    pool = sp.LiveEdgeSamplePool(g, p=0.0, m=4, seed=0)
    orc = sp.InfluenceOracle(pool)
    assert orc.eval({1, 4, 7}) == 3


def test_influence_oracle_matches_bfs_reference():
    g = random_graph(12, 0.25, 5)
    pool = sp.LiveEdgeSamplePool(g, p=0.5, m=8, seed=9)
    orc = sp.InfluenceOracle(pool)
    rng = random.Random(3)
    for _ in range(20):
        S = set(rng.sample(range(12), rng.randint(0, 5)))
        assert orc.eval(S) == ref_influence(g, pool, S)


def test_influence_directed_pool_matches_reference():
    g = sp.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], directed=True)
    pool = sp.LiveEdgeSamplePool(g, p=0.7, m=12, seed=4)
    orc = sp.InfluenceOracle(pool)
    for S in ({0}, {3}, {0, 3}, {2, 5}):
        assert orc.eval(S) == ref_influence(g, pool, S)


def test_pool_is_frozen_and_deterministic():
    g = random_graph(10, 0.4, 1)
    a = sp.LiveEdgeSamplePool(g, p=0.3, m=6, seed=42)
    b = sp.LiveEdgeSamplePool(g, p=0.3, m=6, seed=42)
    assert np.array_equal(a.roots, b.roots) and np.array_equal(a.reach, b.reach)
    orc, other = sp.InfluenceOracle(a), sp.InfluenceOracle(b)
    first = orc.eval({0, 3})
    assert all(orc.eval({0, 3}) == first for _ in range(5))
    for S in ({0}, {0, 3}, {1, 2, 5, 9}, set(range(10))):
        assert orc.eval(S) == other.eval(S) == ref_influence(g, a, S)


def test_pool_edge_survival_rate_is_plausible():
    g = random_graph(40, 0.3, 7)
    m_edges = g.num_edges
    pool = sp.LiveEdgeSamplePool(g, p=0.25, m=200, seed=0)
    mean_live = sum(len(s) for s in ref_live_edges(g, pool)) / 200
    assert abs(mean_live - 0.25 * m_edges) < 0.05 * m_edges


def test_pool_rejects_bad_params():
    g = random_graph(5, 0.5, 0)
    with pytest.raises(InputError):
        sp.LiveEdgeSamplePool(g, p=1.5)
    with pytest.raises(InputError):
        sp.LiveEdgeSamplePool(g, p=0.5, m=0)


@pytest.mark.parametrize("kwargs", [
    {"m": 2.5}, {"m": "3"}, {"m": None}, {"seed": 1.5}, {"seed": "7"}, {"seed": -1},
    {"p": "0.5"}, {"p": None}, {"p": float("nan")}, {"p": float("inf")},
])
def test_pool_rejects_non_integer_counts_and_non_numeric_p(kwargs):
    # m=2.5 once ran 2 samples and p="0.5" raised TypeError
    with pytest.raises(InputError):
        sp.LiveEdgeSamplePool(random_graph(5, 0.5, 0), **{"p": 0.5, **kwargs})


@pytest.mark.parametrize("directed", [False, True])
def test_pool_refuses_more_samples_than_an_index_can_count(directed):
    # 10**20 samples once exited 4 (undirected) or were killed building one
    # dict per sample (directed); refused before any draw. 10**11 samples
    # can be indexed, but need over 6 TB: they once raised MemoryError.
    graph = sp.from_edges(4, [(0, 1), (1, 2), (2, 3)], directed=directed)
    # the last is past str()'s digit limit, so the message must not print it
    for m in (np.iinfo(np.intp).max // 4 + 1, 10**20, 10**5000, 10**11):
        with pytest.raises(InputError, match="sample count"):
            sp.LiveEdgeSamplePool(graph, p=0.5, m=m)


def test_pool_accepts_numpy_integers_and_floats():
    g = random_graph(6, 0.5, 1)
    a = sp.LiveEdgeSamplePool(g, p=np.float64(0.5), m=np.int64(3), seed=np.int32(2))
    b = sp.LiveEdgeSamplePool(g, p=0.5, m=3, seed=2)
    assert (a.m, a.seed) == (3, 2) and type(a.m) is int and type(a.seed) is int
    assert np.array_equal(a.roots, b.roots)


@pytest.mark.parametrize("directed", [False, True])
def test_pool_memory_floor_is_17_bytes_per_node_and_sample(monkeypatch, directed):
    # undirected, the key rows add at least an entry and a row start per node
    graph = sp.from_edges(5, [(0, 1), (1, 2), (3, 4)], directed=directed)
    need = 17 * 6 * 5 + (0 if directed else 24 * 5)
    monkeypatch.setattr(objectives, "_physical_memory", lambda: need - 1)
    with pytest.raises(InputError, match=f"needs at least {need} bytes"):
        sp.LiveEdgeSamplePool(graph, p=0.5, m=6)
    monkeypatch.setattr(objectives, "_physical_memory", lambda: need)
    assert sp.LiveEdgeSamplePool(graph, p=0.5, m=6).m == 6


@st.composite
def _directed_graphs(draw):
    """Directed graphs of up to 12 nodes: random arcs, a chain or a cycle,
    or raw CSR rows in a drawn order with some arcs listed twice."""
    n = draw(st.integers(0, 12))
    shape = draw(st.sampled_from(["arcs", "chain", "cycle", "raw"]))
    if shape == "chain":
        return sp.from_edges(n, [(i, i + 1) for i in range(n - 1)], directed=True)
    if shape == "cycle":
        return sp.from_edges(n, [(i, (i + 1) % n) for i in range(n) if n > 1], directed=True)
    node = st.integers(0, max(n - 1, 0))
    arcs = [(u, v) for u, v in draw(st.lists(st.tuples(node, node), max_size=40)) if u != v]
    if shape == "arcs":
        return sp.from_edges(n, arcs, directed=True)
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=10)) if arcs else []
    rows = [draw(st.permutations([v for u, v in arcs if u == w])) for w in range(n)]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return sp.Graph(n, indptr, np.array([v for row in rows for v in row], dtype=np.int64),
                    directed=True)


@given(_directed_graphs(), st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(1, 9),
       st.integers(0, 2**32), st.data())
@settings(max_examples=150, deadline=None)
def test_directed_pool_evals_match_the_reference(graph, p, m, seed, data):
    pool = sp.LiveEdgeSamplePool(graph, p=p, m=m, seed=seed)
    orc = sp.InfluenceOracle(pool)
    got = orc.eval(set())
    assert got == 0.0 and type(got) is float
    for _ in range(5):
        S = data.draw(st.sets(st.integers(0, max(graph.n - 1, 0)), max_size=graph.n))
        got, expect = orc.eval(S), ref_influence(graph, pool, S)
        assert got == expect and type(got) is type(expect)


def test_pools_keep_only_the_state_their_direction_reads():
    g = random_graph(6, 0.5, 1)
    undirected = sp.LiveEdgeSamplePool(g, p=0.5, m=3)
    directed = sp.LiveEdgeSamplePool(sp.from_edges(3, [(0, 1), (1, 2)], directed=True), p=0.5, m=3)
    assert not hasattr(undirected, "arcs")
    assert not any(hasattr(directed, name) for name in ("roots", "sizes", "reach", "key_rows"))


def assert_pool_components_match_union_find(graph, pool):
    """The pool's components against ``ref_components``: the same partition
    per sample, each id the smallest node of its component plus ``i * n``,
    equal ``sizes[roots]`` and ``reach``, and ``sizes`` zero at every id
    that names no component."""
    n, m = pool.n, pool.m
    assert pool.roots.shape == (m, n) and pool.roots.dtype == np.int64
    assert pool.sizes.shape == (m * n,) and pool.reach.shape == (n,)
    reach = [0] * n
    for i, ref in enumerate(ref_components(graph, pool)):
        got = pool.roots[i].tolist()
        assert len(set(zip(got, ref))) == len(set(got)) == len(set(ref))  # a bijection
        members = collections.defaultdict(list)
        for v, r in enumerate(ref):
            members[r].append(v)
        assert got == [i * n + min(members[r]) for r in ref]
        assert pool.sizes[pool.roots[i]].tolist() == [len(members[r]) for r in ref]
        reach = [t + len(members[r]) for t, r in zip(reach, ref)]
    assert pool.reach.tolist() == reach
    unnamed = np.ones(m * n, dtype=bool)
    unnamed[pool.roots.ravel()] = False
    assert not pool.sizes[unnamed].any()
    # each id's key row: the samples where it is alone as one entry, the
    # first one's root worth their count, then its larger components in
    # sample order, each worth its size
    starts, entries = pool.key_rows
    assert starts.tolist() == sorted(starts.tolist()) and starts.size == n + 1
    assert starts[0] == 0 and entries.shape == (starts[-1], 2)
    for v in range(n):
        roots = pool.roots[:, v].tolist()
        alone = [i for i, r in enumerate(roots) if pool.sizes[r] == 1]
        row = [(roots[alone[0]], len(alone))] if alone else []
        row += [(r, pool.sizes[r].item()) for r in roots if pool.sizes[r] > 1]
        a, b = starts[v], starts[v + 1]
        assert [tuple(entry) for entry in entries[a:b].tolist()] == row


@st.composite
def _graphs_with_isolated_nodes(draw):
    n = draw(st.integers(1, 14))
    # endpoints come from a prefix of the ids, so the rest stay isolated
    hub = draw(st.integers(1, n))
    edges = draw(st.lists(st.tuples(st.integers(0, hub - 1), st.integers(0, hub - 1)),
                          max_size=3 * n))
    return sp.from_edges(n, [(u, v) for u, v in edges if u != v])


@given(_graphs_with_isolated_nodes(), st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       st.integers(1, 8), st.integers(0, 2**32), st.data())
@settings(max_examples=150, deadline=None)
def test_pool_components_match_a_union_find(graph, p, m, seed, data):
    pool = sp.LiveEdgeSamplePool(graph, p=p, m=m, seed=seed)
    assert_pool_components_match_union_find(graph, pool)
    orc = sp.InfluenceOracle(pool)
    for _ in range(3):
        S = data.draw(st.sets(st.integers(0, graph.n - 1), max_size=graph.n))
        assert orc.eval(S) == ref_influence(graph, pool, S)


@pytest.mark.parametrize("case", ["no-edges", "p-zero", "p-one-path", "one-node", "csr-duplicate"])
def test_pool_build_edge_cases(case):
    m = 4
    if case == "no-edges":
        graph, p = sp.from_edges(6, []), 0.5
    elif case == "p-zero":
        graph, p = random_graph(9, 0.5, 2), 0.0
    elif case == "p-one-path":
        graph, p = sp.generate("path", 7), 1.0
    elif case == "one-node":
        graph, p, m = sp.from_edges(1, []), 1.0, 1
    else:  # node 0 lists node 1 twice, and node 1 lists node 0 twice
        graph, p = sp.Graph(3, np.array([0, 3, 5, 6]), np.array([1, 1, 2, 0, 0, 0])), 0.5
        assert graph.edge_array().tolist() == [[0, 1], [0, 1], [0, 2]]
    pool = sp.LiveEdgeSamplePool(graph, p=p, m=m, seed=3)
    assert_pool_components_match_union_find(graph, pool)
    n = graph.n
    offsets = np.arange(m)[:, None] * n
    if case in ("no-edges", "p-zero", "one-node"):  # every node is its own component
        assert np.array_equal(pool.roots, offsets + np.arange(n))
        assert pool.reach.tolist() == [m] * n
    if case in ("p-one-path", "one-node"):  # one component per sample
        assert np.array_equal(pool.roots, np.broadcast_to(offsets, (m, n)))
        assert pool.reach.tolist() == [m * n] * n
    orc = sp.InfluenceOracle(pool)
    assert orc.eval(range(n)) == n
    assert [orc.eval({v}) for v in range(n)] == (pool.reach / m).tolist()


def test_pool_build_draws_one_sample_at_a_time():
    # one m x E float64 draw matrix would take 200 * 49,792 * 8 bytes, ~80 MB
    graph = random_graph(500, 0.4, 0)
    assert 45_000 < graph.num_edges < 55_000
    tracemalloc.start()
    try:
        pool = sp.LiveEdgeSamplePool(graph, p=0.01, m=200, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pool.roots.shape == (200, 500)
    assert peak < 40_000_000, peak


# ---------------------------------------------------------------------------
# similarity objective

def test_simgraphcut_single_candidate_formula():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    kernel = sp.SimilarityKernel(s, query_ids=[0], lam=10.0)
    # lam * s(q, c) - s(c, c) under the ordered-pair convention
    assert ref_simcut(s, [0], 10.0, {1}) == pytest.approx(10 * 0.5 - 1.0)
    orc = sp.SimilarityCutOracle(kernel)
    assert orc.eval({0}) == pytest.approx(4.0)  # oracle id 0 -> candidate item 1


def test_simgraphcut_empty_is_zero():
    kernel, s = random_similarity_kernel(2, 5, seed=0)
    assert ref_simcut(s, [0, 1], kernel.lam, set()) == 0.0
    assert sp.SimilarityCutOracle(kernel).eval(set()) == 0.0


def test_simgraphcut_lambda_scales_reward_only():
    _, s = random_similarity_kernel(2, 5, seed=1)
    k1 = sp.SimilarityKernel(np.array(s), [0, 1], lam=5.0)
    k2 = sp.SimilarityKernel(np.array(s), [0, 1], lam=10.0)
    items = set(int(v) for v in k1.candidate_ids[:3])
    v1, v2 = ref_simcut(s, [0, 1], k1.lam, items), ref_simcut(s, [0, 1], k2.lam, items)
    pos = {j for j, c in enumerate(k1.candidate_ids) if c in items}
    assert sp.SimilarityCutOracle(k1).eval(pos) == pytest.approx(v1, rel=1e-12)
    assert sp.SimilarityCutOracle(k2).eval(pos) == pytest.approx(v2, rel=1e-12)
    penalty = ref_simcut(s, [0, 1], 0.0, items)  # lam = 0 leaves -penalty
    assert v2 - v1 == pytest.approx((v1 - penalty))  # doubling lam doubles reward


def test_simgraphcut_matches_double_loop_reference():
    kernel, s = random_similarity_kernel(3, 6, seed=2)
    orc = sp.SimilarityCutOracle(kernel)
    rng = random.Random(0)
    cand = [int(v) for v in kernel.candidate_ids]
    for _ in range(20):
        pos = rng.sample(range(len(cand)), rng.randint(0, len(cand)))
        items = {cand[i] for i in pos}
        expect = ref_simcut(s, [0, 1, 2], kernel.lam, items)
        assert orc.eval(set(pos)) == pytest.approx(expect, rel=1e-12)


def test_kernel_validation():
    good = np.array([[1.0, 0.3], [0.3, 1.0]])
    with pytest.raises(InputError):
        sp.SimilarityKernel(good, [0], lam=1.5)  # lam below 2
    with pytest.raises(InputError):
        sp.SimilarityKernel(np.array([[1.0, 0.2], [0.4, 1.0]]), [0])
    with pytest.raises(InputError):
        sp.SimilarityKernel(np.array([[1.0, 3.0], [3.0, 1.0]]), [0])
    with pytest.raises(InputError):
        sp.SimilarityKernel(good, [])


def test_kernel_csv_round_trip(tmp_path):
    kernel, s = random_similarity_kernel(2, 4, seed=5)
    matrix_path = tmp_path / "kernel.csv"
    query_path = tmp_path / "queries.txt"
    np.savetxt(matrix_path, np.array(s), delimiter=",")
    query_path.write_text("0\n1\n")
    loaded = sp.load_similarity_kernel(matrix_path, query_path, lam=10.0)
    assert list(loaded.query_ids) == [0, 1]
    assert list(loaded.candidate_ids) == list(kernel.candidate_ids)
    assert loaded.lam == kernel.lam and np.array_equal(loaded.s, kernel.s)
    S = {0, 2}  # candidate positions
    assert sp.SimilarityCutOracle(loaded).eval(S) == pytest.approx(
        sp.SimilarityCutOracle(kernel).eval(S))


def test_custom_oracle_normalizes_offset():
    orc = sp.CustomOracle(4, lambda S: 7.0 + len(S))
    assert orc.eval(set()) == 0.0
    assert orc.eval({0, 1}) == 2.0


# ---------------------------------------------------------------------------
# structural probes: determinism, monotonicity, diminishing returns

def test_repeated_evals_bit_identical_across_families():
    rng = random.Random(21)
    for name, orc in oracle_families(9, seed=13).items():
        for _ in range(10):
            S = set(rng.sample(range(orc.n), rng.randint(0, orc.n)))
            assert orc.eval(S) == orc.eval(set(S)), name


def test_monotone_on_random_chains_for_all_families():
    # Cut is only monotone while the set stays small relative to the graph
    # (adding the last nodes empties the cut), which is the regime
    # budget-constrained solutions live in; probe it on short chains and the
    # other families on arbitrary ones.
    rng = random.Random(8)
    for name, orc in oracle_families(9, seed=17).items():
        for _ in range(30):
            limit = orc.n // 3 if name == "cut" else orc.n
            big = rng.sample(range(orc.n), rng.randint(1, limit))
            cut_at = rng.randint(0, len(big))
            small = set(big[:cut_at])
            assert orc.eval(small) <= orc.eval(set(big)) + 1e-12, name


def test_diminishing_returns_for_coverage_and_cut():
    rng = random.Random(30)
    for seed in range(3):
        graph = random_graph(10, 0.35, seed + 50)
        for orc in (sp.CoverageOracle(graph), sp.CutOracle(graph)):
            for _ in range(40):
                big = rng.sample(range(10), rng.randint(1, 9))
                cut_at = rng.randint(0, len(big))
                small, bigset = set(big[:cut_at]), set(big)
                x = rng.choice([v for v in range(10) if v not in bigset])
                gain_small = orc.eval(small | {x}) - orc.eval(small)
                gain_big = orc.eval(bigset | {x}) - orc.eval(bigset)
                assert gain_small >= gain_big


# ---------------------------------------------------------------------------
# gamma estimation

def test_gamma_is_one_for_modular_weights():
    weights = [3, 1, 4, 1, 5]
    orc = sp.CustomOracle(5, lambda S: sum(weights[v] for v in S))
    assert sp.estimate_gamma(orc, range(5)) == 1.0


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_gamma_is_one_for_random_coverage(n, seed):
    graph = random_graph(n, 0.5, seed % 1000)
    orc = sp.CoverageOracle(graph)
    assert sp.estimate_gamma(orc, range(n)) == 1.0


def test_gamma_below_one_for_supermodular_square():
    orc = sp.CustomOracle(3, lambda S: len(S) ** 2)
    got = sp.estimate_gamma(orc, range(3))
    # worst chain: empty set versus a 2-element superset, gains 1 and 5
    expect = min(
        (len(s | {x}) ** 2 - len(s) ** 2) / (len(t | {x}) ** 2 - len(t) ** 2)
        for t in (frozenset(), frozenset({0}), frozenset({0, 1}))
        for s in (frozenset(u) for r in range(len(t) + 1)
                  for u in itertools.combinations(t, r))
        for x in {0, 1, 2} - set(t)
    )
    assert got == pytest.approx(expect) == pytest.approx(0.2)


def test_gamma_oversize_raises():
    orc = sp.CustomOracle(20, len)
    with pytest.raises(InputError):
        sp.estimate_gamma(orc, range(13))


def test_gamma_returns_one_without_positive_denominator():
    orc = sp.CustomOracle(3, lambda S: 0.0)
    assert sp.estimate_gamma(orc, range(3)) == 1.0
