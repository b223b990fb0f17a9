import dataclasses
import gzip
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import setprune as sp
from conftest import line_file_bytes, ref_parse_edge_list
from setprune import graphio
from setprune.errors import InputError, ParseError, checked_costs


def test_parse_simple_path():
    g = sp.parse_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.n == 3 and g.num_edges == 2
    assert sorted(g.neighbors(1)) == [0, 2]


def test_parse_comments_and_reindexing():
    g = sp.parse_edge_list(io.StringIO("# comment\n5 7\n"))
    assert g.n == 2 and g.num_edges == 1
    assert list(g.orig_ids) == [5, 7]


def test_parse_collapses_duplicate_and_reversed_edges():
    g = sp.parse_edge_list(io.StringIO("0 1\n1 0\n0 1\n"))
    assert g.n == 2 and g.num_edges == 1


def test_parse_drops_self_loops():
    g = sp.parse_edge_list(io.StringIO("0 0\n0 1\n"))
    assert g.num_edges == 1
    assert list(g.neighbors(0)) == [1]


def test_parse_malformed_line_reports_number():
    with pytest.raises(ParseError) as err:
        sp.parse_edge_list(io.StringIO("0 1\n0 1 2\n"))
    assert "line 2" in str(err.value)
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        sp.parse_edge_list(io.StringIO("a b\n"))
    with pytest.raises(ParseError):
        sp.parse_edge_list(io.StringIO("-1 2\n"))


def test_parse_directed_keeps_arcs():
    g = sp.parse_edge_list(io.StringIO("0 1\n1 0\n"), directed=True)
    assert g.num_edges == 2


def test_round_trip_through_files(tmp_path):
    g = sp.generate("erdos_renyi", 30, {"p": 0.2}, seed=5)
    path = tmp_path / "edges.txt"
    sp.write_edge_list(g, path)
    back = sp.load_edge_list(path)
    assert back.n == g.n
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)


def test_gzip_round_trip(tmp_path):
    g = sp.generate("path", 10)
    path = tmp_path / "edges.txt.gz"
    sp.write_edge_list(g, path)
    with gzip.open(path, "rt") as fh:
        assert fh.readline().strip() == "0 1"
    back = sp.load_edge_list(path)
    assert back.num_edges == 9


def test_id_file_round_trip(tmp_path):
    path = tmp_path / "ids.txt"
    sp.write_id_file({4, 1, 9}, path)
    assert path.read_text() == "1\n4\n9\n"
    assert sp.read_id_file(path) == {1, 4, 9}
    path.write_text("1\nx\n")
    with pytest.raises(ParseError):
        sp.read_id_file(path)


def _assert_graph_is(graph, expect, directed):
    ids, nbrs = expect
    assert graph.n == len(ids) and graph.directed == directed
    assert graph.orig_ids.dtype == np.int64 and graph.orig_ids.tolist() == ids
    assert graph.indptr.dtype == graph.indices.dtype == np.int64
    assert [graph.neighbors(v).tolist() for v in range(graph.n)] == nbrs


# ASCII digits and blanks only, so the fast path's own checks of line breaks
# and token counts decide which path a file takes
ASCII_FILES = line_file_bytes(oddities=("cr", "widths"))


@given(st.one_of(line_file_bytes(), ASCII_FILES), st.booleans(), st.booleans())
# one file past each of the fast path's checks
@example(b"1\n2\n", False, False).via("one id per line, paired across lines")
@example(b"1 2 3 4\n", False, False).via("four ids on one line")
@example(b"1 2 3\n", False, False).via("an odd number of ids")
@example(b"1\r2\n", False, False).via("a lone CR between two ids")
@example(b"1 2\r", False, False).via("a lone CR at the end")
@example(b"1 " + b"9" * 19 + b"\n", False, False).via("an id past 18 digits")
@example(b"1 +2\n", True, True).via("a byte outside digits and blanks")
@example(b" 1 2 \n\n \t3\t4\r\n", False, False).via("blanks and blank lines between pairs")
@example(b"1\n2 3\n4\n", False, False).via("pairs across lines, an even count in all")
@example(b"1 2\n3 4 5 6\n", False, False).via("a pair per line, then two on one")
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_matches_the_text_mode_line_loop(tmp_path, data, directed, gz):
    # load_edge_list (numpy fast path or its line-loop fallback) and
    # parse_edge_list over the file in text mode both equal the reference,
    # or fail at the reference's line
    path = tmp_path / ("e.txt.gz" if gz else "e.txt")
    path.write_bytes(gzip.compress(data) if gz else data)
    parsers = [lambda: sp.load_edge_list(path, directed=directed)]
    if _is_utf8(data):  # else text mode raises UnicodeDecodeError
        parsers.append(lambda: sp.parse_edge_list(
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), directed=directed))
    fast = graphio._fast_ids(data)
    try:
        expect = ref_parse_edge_list(data, directed)
    except ParseError as exc:
        assert fast is None
        for parse in parsers:
            with pytest.raises(ParseError) as err:
                parse()
            assert err.value.line_no == exc.line_no
        return
    for parse in parsers:
        _assert_graph_is(parse(), expect, directed)
    if fast is not None:
        _assert_graph_is(graphio._from_ids(fast, directed), expect, directed)


def _is_utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@given(line_file_bytes(oddities=()))
@settings(max_examples=100, deadline=None)
def test_fast_path_takes_every_plain_digit_file(data):
    assert graphio._fast_ids(data) is not None


def test_non_utf8_and_oversized_ids_fail_at_their_line(tmp_path):
    path = tmp_path / "e.txt"
    for data, line_no in ((b"1 2\n\xff 3\n", 2), (b"# caf\xe9\n1 2\n", 1),
                          (b"1 2\n2 3\n1 100000000000000000000000\n", 3),
                          (b"0 9223372036854775808\n", 1)):
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            sp.load_edge_list(path)
        assert err.value.line_no == line_no
    path.write_bytes(b"0 9223372036854775807\n")
    assert sp.load_edge_list(path).orig_ids.tolist() == [0, 2**63 - 1]
    path.write_bytes(b"4\n\xff\n")
    with pytest.raises(ParseError, match="line 2"):
        sp.read_id_file(path)


def test_corrupt_gzip_is_a_parse_error(tmp_path):
    data = gzip.compress(b"1 2\n" * 500)
    path = tmp_path / "e.txt.gz"
    for bad in (data[:len(data) // 2], data[:20] + bytes(30) + data[50:]):
        path.write_bytes(bad)
        with pytest.raises(ParseError):
            sp.load_edge_list(path)


def test_load_and_cost_assignment_skip_the_adjacency_check(tmp_path, monkeypatch):
    # ingest builds arrays that are valid by construction (see
    # test_csr_builds_a_graph_that_passes_the_adjacency_checks)
    path = tmp_path / "e.txt"
    sp.write_edge_list(sp.generate("barabasi_albert", 60, {"m_attach": 3}, seed=1), path)
    checks = []
    check = sp.Graph._check_adjacency
    monkeypatch.setattr(sp.Graph, "_check_adjacency",
                        lambda self: checks.append(self.n) or check(self))
    g = sp.assign_knapsack_costs(sp.load_edge_list(path))
    assert checks == []
    dataclasses.replace(g, orig_ids=g.orig_ids[::-1].copy(), costs=g.costs * 2)
    assert checks == []
    with pytest.raises(ValueError):  # the arrays are read-only
        g.indices[0] = g.indices[1]
    # a copy with new arrays, or over another node count or direction, is checked
    dataclasses.replace(g, indices=g.indices.copy())
    dataclasses.replace(g, directed=True)
    with pytest.raises(InputError, match="indptr length"):
        dataclasses.replace(g, n=59, costs=g.costs[:59], orig_ids=None)
    assert checks == [60, 60, 59]
    with pytest.raises(InputError, match="orig_ids"):
        dataclasses.replace(g, orig_ids=g.orig_ids[:5])


def test_from_edges_takes_pairs_and_rejects_other_input():
    expect = sp.from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3)])
    for edges in (np.array([[1, 0], [2, 1], [0, 2], [1, 2]], dtype=np.int32),
                  iter([(np.int64(0), 1), (2, 1), (0, 2)])):
        got = sp.from_edges(4, edges)
        assert np.array_equal(got.indptr, expect.indptr)
        assert np.array_equal(got.indices, expect.indices)
    assert sp.from_edges(3, []).num_edges == sp.from_edges(0, ()).n == 0
    for edges, what in (([(0, 3)], "outside"), ([(-1, 0)], "outside"),
                        ([(0, 2**70)], "outside"), ([(0.0, 1.0)], "integers"),
                        ([(0, 1, 2)], "pairs"), ([(0, 1), (2,)], "pairs")):
        with pytest.raises(InputError, match=what):
            sp.from_edges(3, edges)


# ---------------------------------------------------------------------------
# knapsack cost assignment

def test_costs_regular_graph_all_exactly_one():
    cycle = sp.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    g = sp.assign_knapsack_costs(cycle)
    assert all(c == 1.0 for c in g.costs)


def test_costs_star_matches_formula(star6):
    g = sp.assign_knapsack_costs(star6)
    # leaves pin the normalization at exactly 1; the center scales by degree
    assert g.costs[1] == 1.0
    assert g.costs[0] == pytest.approx((5 - 1 / 20) / (1 - 1 / 20))
    assert g.costs[0] == pytest.approx(5.2105, abs=1e-4)


def test_costs_minimum_is_exactly_one():
    g = sp.assign_knapsack_costs(sp.generate("barabasi_albert", 60,
                                             {"m_attach": 3}, seed=2))
    assert float(g.costs.min()) == 1.0


def test_costs_unit_mode(star6):
    g = sp.assign_knapsack_costs(star6, mode="unit")
    assert all(c == 1.0 for c in g.costs)


def test_cost_fn_reads_the_vector_and_bounds_ids(star6):
    g = sp.assign_knapsack_costs(star6)
    fn = g.cost_fn()
    assert fn.cost_vector is g.costs
    assert [fn(v) for v in range(6)] == g.costs.tolist()
    assert all(type(fn(v)) is float for v in (0, np.int64(5)))
    # a negative id must not wrap around to the last cost
    for bad in (-1, 6, np.int64(-1), np.int64(6)):
        with pytest.raises(InputError, match="outside ground set of size 6"):
            fn(bad)
    # the batch path names the same first bad id as the callable
    plain = lambda v: fn(v)  # noqa: E731
    for ids in ([0, 6], [-1, 0], range(7), range(-1, 2), np.array([3, -1, 9])):
        with pytest.raises(InputError) as vector_error:
            checked_costs(fn, ids)
        with pytest.raises(InputError) as callable_error:
            checked_costs(plain, ids)
        assert str(vector_error.value) == str(callable_error.value)


def test_costs_isolated_node_degenerate():
    g = sp.from_edges(3, [(0, 1)])  # node 2 has degree zero
    with pytest.raises(InputError, match=r"1 of 3 nodes .* \(smallest degree 0\)\.$"):
        sp.assign_knapsack_costs(g)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_costs_refuse_a_cost_alpha_that_is_not_finite(alpha):
    # -inf divided inf by inf (a RuntimeWarning) and NaN was reported as a
    # fault of the costs
    with pytest.raises(InputError, match="cost_alpha must be finite"):
        sp.assign_knapsack_costs(sp.generate("path", 4), cost_alpha=alpha)


def test_directed_degree_costs_price_sinks_below_the_smallest_degree():
    g = sp.from_edges(4, [(0, 1), (0, 2), (1, 2), (3, 2)], directed=True)  # 2 is a sink
    with pytest.raises(InputError) as error:
        sp.assign_knapsack_costs(g)
    message = str(error.value)
    assert "1 of 4 nodes have degree <= cost_alpha = 0.05 (smallest degree 0)" in message
    assert "prices nodes by out-degree" in message and "--cost-alpha -1" in message
    assert sp.assign_knapsack_costs(g, cost_alpha=-1).costs.tolist() == [3.0, 2.0, 1.0, 2.0]


def test_graph_stores_costs_as_a_float_array():
    g = sp.Graph(2, [0, 1, 2], [1, 0], costs=[1.0, 2.0])
    assert isinstance(g.costs, np.ndarray) and g.costs.dtype == np.float64
    assert g.costs.tolist() == [1.0, 2.0]
    meta = graphio.graph_metadata(g)
    assert (meta["cost_min"], meta["cost_max"], meta["cost_mean"]) == (1.0, 2.0, 1.5)
    assert sp.Graph(2, [0, 1, 2], [1, 0], costs=[1, 3]).costs.dtype == np.float64


@pytest.mark.parametrize("costs", [[1.0, -1.0, np.nan, 1.0], [1.0, 0.0, 1.0, 1.0],
                                   [1.0, 1.0, np.inf, 1.0]])
def test_graph_rejects_costs_that_are_not_finite_and_positive(costs):
    path = sp.generate("path", 4)
    with pytest.raises(InputError, match="costs"):
        dataclasses.replace(path, costs=np.array(costs))
    with pytest.raises(InputError, match="costs"):
        sp.Graph(path.n, path.indptr, path.indices, costs=np.array(costs))


def test_graph_rejects_self_loops():
    # node 0 lists itself: the cut oracle's incremental gain assumes no loops
    with pytest.raises(InputError, match="self loops"):
        sp.Graph(2, np.array([0, 2, 3]), np.array([0, 1, 0]))


def test_graph_rejects_asymmetric_undirected_adjacency():
    # node 0 lists 1 but 1 does not list 0: eval and the cut state disagree
    with pytest.raises(InputError, match="symmetric"):
        sp.Graph(3, np.array([0, 1, 1, 1]), np.array([1]))
    # as many arcs each way, but 0 -> 1 twice and 1 -> 0 once
    with pytest.raises(InputError, match="symmetric"):
        sp.Graph(3, np.array([0, 2, 4, 5]), np.array([1, 1, 0, 2, 1]))
    # the same arrays are a valid directed graph
    sp.Graph(3, np.array([0, 1, 1, 1]), np.array([1]), directed=True)


def test_graph_converts_array_likes_and_rejects_other_arrays():
    g = sp.Graph(3, [0, 1, 2, 2], [1, 0])
    assert g.indptr.dtype.kind == g.indices.dtype.kind == "i"
    assert sp.CutOracle(g).eval({0}) == 1
    assert sp.Graph(2, [0, 0, 0], []).num_edges == 0
    for dtype in (np.uint32, np.uint64):
        g = sp.Graph(3, np.array([0, 1, 2, 2], dtype=dtype), np.array([1, 0], dtype=dtype))
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert sp.CutOracle(g).eval({0}) == 1
        with pytest.raises(InputError, match="rise"):  # np.diff would wrap
            sp.Graph(3, np.array([0, 3, 2, 2], dtype=dtype), np.array([1, 0], dtype=dtype))
    with pytest.raises(InputError, match="range"):
        sp.Graph(3, [0, 1, 2, 2], np.array([2**64 - 1, 0], dtype=np.uint64))
    for indptr, indices, what in (([0, 1, 2, 2], [1.0, 0.0], "integers"),
                                  ([0.0, 1.0, 2.0, 2.0], [1, 0], "integers"),
                                  ([0, 1, 2, 2], [True, False], "integers"),
                                  ([[0, 1, 2, 2]], [1, 0], "1-D"),
                                  (np.array(3), [1, 0], "1-D"),
                                  ([0, 1, 2, 2], [[1, 0]], "1-D"),
                                  ([0, 3, 2, 2], [1, 0], "rise"),
                                  ([1, 1, 2, 2], [1, 0], "rise"),
                                  ([0, 1, 2, 3], [1, 0], "rise")):
        with pytest.raises(InputError, match=what):
            sp.Graph(3, indptr, indices)


@pytest.mark.parametrize("seed", range(4))
def test_graphs_from_edges_and_generators_pass_the_symmetry_check(seed):
    for g in (sp.generate("erdos_renyi", 25, {"p": 0.2}, seed=seed), sp.generate("star", 7),
              sp.generate("barabasi_albert", 40, {"m_attach": 3}, seed=seed),
              sp.parse_edge_list(io.StringIO("5 9\n9 2\n2 5\n7 5\n5 9\n"))):
        sp.Graph(g.n, g.indptr.copy(), g.indices.astype(np.int32), costs=g.costs)
        dataclasses.replace(g, costs=g.costs * 2.0)


def test_costs_unknown_mode(star6):
    with pytest.raises(InputError):
        sp.assign_knapsack_costs(star6, mode="bogus")


# ---------------------------------------------------------------------------
# generators

def test_star_shape():
    g = sp.generate("star", 8)
    assert g.degrees[0] == 7
    assert all(g.degrees[v] == 1 for v in range(1, 8))


def test_path_shape():
    g = sp.generate("path", 5)
    assert [g.degrees[v] for v in range(5)] == [1, 2, 2, 2, 1]


def test_erdos_renyi_p_zero_edgeless():
    g = sp.generate("erdos_renyi", 10, {"p": 0.0}, seed=1)
    assert g.num_edges == 0


def test_erdos_renyi_deterministic_under_seed():
    a = sp.generate("erdos_renyi", 100, {"p": 0.1}, seed=7)
    b = sp.generate("erdos_renyi", 100, {"p": 0.1}, seed=7)
    c = sp.generate("erdos_renyi", 100, {"p": 0.1}, seed=8)
    assert np.array_equal(a.indices, b.indices)
    assert not (len(a.indices) == len(c.indices)
                and np.array_equal(a.indices, c.indices))


def test_barabasi_albert_edge_count_and_determinism():
    g = sp.generate("barabasi_albert", 50, {"m_attach": 4}, seed=3)
    assert g.num_edges == (50 - 4) * 4
    h = sp.generate("barabasi_albert", 50, {"m_attach": 4}, seed=3)
    assert np.array_equal(g.indices, h.indices)


def test_generate_validation():
    with pytest.raises(InputError):
        sp.generate("star", 0)
    with pytest.raises(InputError):
        sp.generate("erdos_renyi", 5, {"p": 2.0})
    with pytest.raises(InputError):
        sp.generate("erdos_renyi", 5, {})
    with pytest.raises(InputError):
        sp.generate("barabasi_albert", 5, {"m_attach": 5})
    with pytest.raises(InputError):
        sp.generate("mystery", 5)
    # checked before any draw, as the live-edge pool checks its seed
    for kind, params in (("erdos_renyi", {"p": 0.5}), ("barabasi_albert", {"m_attach": 2}),
                         ("path", {})):
        for seed in (-1, 1.5, "3"):
            with pytest.raises(InputError, match="seed"):
                sp.generate(kind, 10, params, seed=seed)
    # checked before any edge: path and star filled a list until memory ran
    # out, barabasi_albert looped, and erdos_renyi raised a bare ValueError
    for kind, params in (("erdos_renyi", {"p": 0.5}), ("barabasi_albert", {"m_attach": 2}),
                         ("path", {}), ("star", {})):
        with pytest.raises(InputError, match=f"node count {10**30} is too large"):
            sp.generate(kind, 10**30, params)


@pytest.mark.parametrize("kind, params, edges", [
    ("path", {}, 19), ("star", {}, 19), ("erdos_renyi", {"p": 0.5}, 95),
    ("barabasi_albert", {"m_attach": 3}, 3 * 17)])
def test_generate_refuses_a_graph_past_physical_memory(monkeypatch, kind, params, edges):
    # path and star once built a Python tuple per edge, so a node count below
    # the key limit could still exhaust memory; erdos_renyi's edges are drawn,
    # so its expected edge count, p n (n - 1) / 2, counts
    need = 8 * 20 + 16 * edges
    monkeypatch.setattr(graphio, "_physical_memory", lambda: need - 1)
    with pytest.raises(InputError, match=f"needs at least {need} bytes"):
        sp.generate(kind, 20, params)
    monkeypatch.setattr(graphio, "_physical_memory", lambda: need)
    assert sp.generate(kind, 20, params).n == 20


def _erdos_renyi_by_tuples(n, p, seed):
    # one Python tuple per drawn edge, the draws in generate's order
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n - 1):
        draws = rng.random(n - i - 1)
        for off in np.nonzero(draws < p)[0]:
            edges.append((i, i + 1 + int(off)))
    return sp.from_edges(n, edges)


@given(st.integers(1, 40), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.integers(0, 10**6))
@example(2100, 0.003, 5)  # rows past the first two joins of 1,024
@settings(max_examples=150, deadline=None)
def test_erdos_renyi_rows_in_numpy_match_the_edge_by_edge_draw(n, p, seed):
    g, ref = sp.generate("erdos_renyi", n, {"p": p}, seed=seed), _erdos_renyi_by_tuples(n, p, seed)
    assert g.n == ref.n and not g.directed
    assert np.array_equal(g.indptr, ref.indptr) and np.array_equal(g.indices, ref.indices)
    assert g.indptr.dtype == g.indices.dtype == np.int64


def test_path_and_star_are_made_in_numpy():
    for n in (1, 2, 9):
        for kind, edges in (("path", [(i, i + 1) for i in range(n - 1)]),
                            ("star", [(0, i) for i in range(1, n)])):
            g, ref = sp.generate(kind, n), sp.from_edges(n, edges)
            assert g.n == ref.n and not g.directed
            assert np.array_equal(g.indptr, ref.indptr) and np.array_equal(g.indices, ref.indices)
            assert g.indptr.dtype == g.indices.dtype == np.int64


def test_graph_metadata(star6):
    meta = sp.graphio.graph_metadata(sp.assign_knapsack_costs(star6))
    assert meta["n"] == 6 and meta["m"] == 5
    assert meta["cost_min"] == 1.0


@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(n, seed):
    g = sp.generate("erdos_renyi", n, {"p": 0.3}, seed=seed % 997)
    lines = io.StringIO()
    for u, v in g.edge_array():
        lines.write(f"{u} {v}\n")
    lines.seek(0)
    back = sp.parse_edge_list(lines)
    # isolated nodes vanish on re-parse; compare over the edge support
    assert back.num_edges == g.num_edges
    degs = dict(zip(back.orig_ids.tolist(), back.degrees.tolist()))
    for v, degree in enumerate(g.degrees.tolist()):
        if degree:
            assert degs[v] == degree


# ---------------------------------------------------------------------------
# array ingest against np.unique and int64 arc keys

def _unique_path(ids, directed):
    """The re-index by ``np.unique`` and the Graph ``_csr`` builds from it."""
    orig, dense = np.unique(ids, return_inverse=True)
    dense = dense.astype(np.int64)
    return orig, dense, graphio._csr(orig.size, dense[0::2], dense[1::2], directed,
                                     orig_ids=orig)


@given(st.integers(0, 30), st.integers(0, 120), st.booleans(), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_csr_builds_a_graph_that_passes_the_adjacency_checks(n, arcs, directed, seed):
    # _csr skips Graph._check_adjacency, so its arrays must pass the checks
    # as built: edge lists with repeated arcs, reversed pairs, self loops and
    # isolated nodes, n = 0 included
    rng = np.random.default_rng(seed)
    arcs = arcs if n else 0
    span = int(rng.integers(1, n + 1)) if n else 1  # nodes from span on are isolated
    src, dst = rng.integers(0, span, arcs), rng.integers(0, span, arcs)
    dst[::4] = src[::4]
    half = arcs // 2
    src = np.concatenate([src, dst[:half], src[::3]])
    dst = np.concatenate([dst, src[:half], dst[::3]])
    graph = graphio._csr(n, src, dst, directed)
    assert not graph.indptr.flags.writeable and not graph.indices.flags.writeable
    rebuilt = sp.Graph(n, graph.indptr.copy(), graph.indices.copy(), directed)
    _assert_same_arrays((rebuilt.indptr, rebuilt.indices), (graph.indptr, graph.indices))


def _assert_same_arrays(got, expect):
    for a, b in zip(got, expect):
        assert a.dtype == b.dtype and np.array_equal(a, b)


_ID_ARRAYS = [
    np.empty(0, dtype=np.int64),
    np.array([0, 1], dtype=np.int64),
    np.array([3, 1, 1, 3, 2, 0], dtype=np.int64),       # dense, top below 2 * size
    np.array([5, 7, 7, 5], dtype=np.int64),             # top of 2 * size - 1
    np.array([8, 1, 1, 8], dtype=np.int64),             # top of 2 * size: np.unique
    np.array([10**12, 3, 3, 10**12], dtype=np.int64),    # sparse: np.unique
    np.array([2**63 - 1, 0, 2**63 - 2, 2**63 - 1], dtype=np.int64),
]


@pytest.mark.parametrize("ids", _ID_ARRAYS, ids=range(len(_ID_ARRAYS)))
@pytest.mark.parametrize("directed", [False, True])
def test_ranked_ids_equal_np_unique(ids, directed):
    orig, dense, expect = _unique_path(ids, directed)
    _assert_same_arrays(graphio._ranked(ids), (orig, dense))
    graph = graphio._from_ids(ids, directed)
    _assert_same_arrays((graph.orig_ids, graph.indptr, graph.indices),
                        (expect.orig_ids, expect.indptr, expect.indices))


@given(st.lists(st.integers(0, 60), max_size=80).map(lambda xs: xs[:len(xs) // 2 * 2]),
       st.sampled_from([1, 2, 10**9, (2**63 - 1) // 60]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_ranked_ids_equal_np_unique_at_any_spread(values, scale, directed):
    # scale 1 and 2 keep most tops below twice the id count, the others never
    ids = np.array(values, dtype=np.int64) * scale
    orig, dense, expect = _unique_path(ids, directed)
    _assert_same_arrays(graphio._ranked(ids), (orig, dense))
    graph = graphio._from_ids(ids, directed)
    _assert_same_arrays((graph.orig_ids, graph.indptr, graph.indices),
                        (expect.orig_ids, expect.indptr, expect.indices))


def _grouped_int64(n, src, dst):
    """Arcs grouped by int64 keys ``u * n + v``, sorted and deduplicated."""
    keys = np.unique(src.astype(np.int64) * n + dst.astype(np.int64))
    src, heads = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, heads


@pytest.mark.parametrize("n", [0, 1, 2**16 - 1, 2**16, 2**16 + 1])
def test_grouped_keys_match_int64_keys_at_the_32_bit_edge(n):
    # at n = 2^16 the largest key, (n - 1) * n + n - 1, is 2^32 - 1
    rng = np.random.default_rng(n)
    src = rng.integers(0, n, 3000) if n else np.empty(0, dtype=np.int64)
    dst = rng.integers(0, n, 3000) if n else np.empty(0, dtype=np.int64)
    if n:
        src[:4], dst[:4] = [n - 1, n - 1, 0, n - 1], [n - 1, n - 1, n - 1, 0]
    got = graphio._grouped(n, src, dst)
    _assert_same_arrays(got, _grouped_int64(n, src, dst))
    # transposed, as the directed cut oracle groups its in-rows
    _assert_same_arrays(graphio._grouped(n, dst, src), _grouped_int64(n, dst, src))


def _csr_by_unique(n, src, dst, directed):
    """The CSR of ``_csr`` built the plain way: self loops dropped, both
    directions of an undirected pair concatenated, ``np.unique`` keys."""
    keep = src != dst
    src, dst = src[keep].astype(np.int64), dst[keep].astype(np.int64)
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    tails, heads = np.divmod(np.unique(src * n + dst), n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return indptr, heads


@pytest.mark.parametrize("n", [1, 7, 2**16, 2**16 + 1])
@pytest.mark.parametrize("directed", [False, True])
def test_csr_matches_a_csr_built_by_np_unique(n, directed):
    # duplicate arcs, reversed pairs, self loops and the largest ids; the
    # arc keys are 32-bit up to n = 2^16 and 64-bit past it
    rng = np.random.default_rng(n)
    src, dst = rng.integers(0, n, 2000), rng.integers(0, n, 2000)
    src = np.concatenate([src, src[:50], dst[:50], src[:20], [n - 1, n - 1, 0]])
    dst = np.concatenate([dst, dst[:50], src[:50], src[:20], [n - 1, 0, n - 1]])
    graph = graphio._csr(n, src, dst, directed)
    _assert_same_arrays((graph.indptr, graph.indices), _csr_by_unique(n, src, dst, directed))
