import csv
import gzip
import json
import math
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import setprune as sp
from conftest import line_file_bytes, with_byte_not_utf8
from setprune.cli import main


def _write_graph(tmp_path, kind="path", n=30, params=None, seed=0, name="g.txt"):
    path = tmp_path / name
    sp.write_edge_list(sp.generate(kind, n, params or {}, seed=seed), path)
    return path


def test_gen_writes_edges_and_metadata(tmp_path):
    out = tmp_path / "star.txt"
    rc = main(["gen", "--kind", "star", "--n", "7", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    meta = json.loads((tmp_path / "star.txt.meta.json").read_text())
    assert meta["n"] == 7 and meta["m"] == 6


def test_prune_defaults_on_path_graph(tmp_path):
    graph = _write_graph(tmp_path)
    ids_file = tmp_path / "pruned.ids"
    report_file = tmp_path / "report.json"
    rc = main(["prune", "--graph", str(graph), "--objective", "coverage",
               "--pruner", "quickprune", "--kappa-min", "2", "--kappa-max", "8",
               "--out-ids", str(ids_file), "--out-report", str(report_file)])
    assert rc == 0
    report = json.loads(report_file.read_text())
    assert report["params"]["delta"] == 0.1
    assert report["params"]["epsilon"] == 0.1
    assert report["params"]["eta"] == 0.5
    assert report["n"] == 30
    assert report["pruned_size"] == len(sp.read_id_file(ids_file))
    assert set(report["per_budget_sizes"]) == {"8.0", "4.0", "2.0", "1.0"}


def test_prune_rejects_inverted_budget_range(tmp_path):
    graph = _write_graph(tmp_path)
    rc = main(["prune", "--graph", str(graph), "--pruner", "quickprune",
               "--kappa-min", "9", "--kappa-max", "3",
               "--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")])
    assert rc == 2


def test_prune_non_finite_budget_is_config_error(tmp_path):
    graph = _write_graph(tmp_path)
    for flag in (["--kappa-max", "inf"], ["--kappa-min", "nan", "--kappa-max", "4"],
                 # ladders that could never be built: too many rungs, and a
                 # lower cutoff that rounds to 0
                 ["--kappa-min", "1", "--kappa-max", "2", "--eta", "1e-12"],
                 ["--kappa-min", "5e-324", "--kappa-max", "1"]):
        rc = main(["prune", "--graph", str(graph), "--pruner", "quickprune", *flag,
                   "--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")])
        assert rc == 2


def test_prune_negative_influence_seed_is_config_error(tmp_path):
    # the live-edge pool once handed -1 to numpy's generator and exited 4
    graph = _write_graph(tmp_path)
    rc = main(["prune", "--graph", str(graph), "--objective", "influence", "--kappa-max", "4",
               "--seed", "-1", "--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")])
    assert rc == 2


def test_gen_negative_seed_is_config_error(tmp_path):
    # generate once handed -1 to numpy's generator and exited 4
    rc = main(["gen", "--kind", "erdos_renyi", "--n", "10", "--p", "0.5", "--seed", "-1",
               "--out", str(tmp_path / "g.txt")])
    assert rc == 2
    assert not (tmp_path / "g.txt").exists()


def test_gen_huge_node_count_is_config_error(tmp_path, capsys):
    # path and star once filled memory before the node count was checked
    for kind in ("path", "star"):
        rc = main(["gen", "--kind", kind, "--n", str(10**30), "--out", str(tmp_path / "g.txt")])
        assert rc == 2
        assert "is too large" in capsys.readouterr().err
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize("directed", [[], ["--directed"]], ids=["undirected", "directed"])
def test_prune_huge_sample_count_is_config_error(tmp_path, directed):
    # once exit 4 undirected, and killed (137) directed, building one dict per
    # sample; 10**11 samples on a 50-node path exited 4 with MemoryError
    graph = _write_graph(tmp_path, n=50)
    for samples in (10**20, 10**11):
        rc = main(["prune", "--graph", str(graph), "--objective", "influence",
                   "--kappa-max", "4", "--samples", str(samples), *directed,
                   "--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")])
        assert rc == 2


_KERNEL = b"1,0.5,0.2\n0.5,1,0.1\n0.2,0.1,1\n"


def _kernel_instance(tmp_path, kernel=_KERNEL, queries=b"0\n"):
    (tmp_path / "k.csv").write_bytes(kernel)
    (tmp_path / "q.txt").write_bytes(queries)
    return ["--objective", "simgraphcut", "--kernel", str(tmp_path / "k.csv"),
            "--queries", str(tmp_path / "q.txt")]


def test_prune_malformed_kernel_csv_is_parse_error(tmp_path, capsys):
    # a query file that is not UTF-8 used to be read in text mode and exit 4
    for kernel, queries, where in ((b"1,0.5\nabc,1\n", b"0\n", ""),
                                   (_KERNEL[:5] + b"\xff" + _KERNEL[5:], b"0\n", ""),
                                   (_KERNEL, b"0\n\xff\n", "line 2")):
        rc = main(["prune", *_kernel_instance(tmp_path, kernel, queries),
                   "--pruner", "quickprune", "--kappa-max", "2",
                   "--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")])
        assert rc == 3
        assert where in capsys.readouterr().err


def test_non_finite_lam_is_config_error(tmp_path):
    # NaN and inf passed the lam >= 2 check and pruned to an empty set
    instance = _kernel_instance(tmp_path)
    for lam, rc in (("nan", 2), ("inf", 2), ("-inf", 2), ("1.5", 2), ("10", 0)):
        assert main(["prune", *instance, f"--lam={lam}", "--kappa-max", "1",
                     "--out-ids", str(tmp_path / "i"),
                     "--out-report", str(tmp_path / "r")]) == rc, lam
        assert main(["solve", *instance, f"--lam={lam}", "--budget", "1",
                     "--out", str(tmp_path / "s.json")]) == rc, lam


def test_non_finite_cost_alpha_is_config_error(tmp_path, capsys):
    graph = _write_graph(tmp_path)
    for alpha in ("nan", "inf", "-inf"):
        assert main(["prune", "--graph", str(graph), "--constraint", "knapsack",
                     f"--cost-alpha={alpha}", "--kappa-max", "4",
                     "--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")]) == 2
        assert "cost_alpha must be finite" in capsys.readouterr().err


def test_directed_knapsack_with_sinks_needs_a_lower_cost_alpha(tmp_path, capsys):
    # read as directed, a BA edge list (each edge listed once) has sinks,
    # which out-degree costs cannot price at the default cost_alpha
    graph = _write_graph(tmp_path, "barabasi_albert", 300, {"m_attach": 4}, seed=5)
    args = ["prune", "--graph", str(graph), "--directed", "--constraint", "knapsack",
            "--objective", "cut", "--kappa-max", "8",
            "--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert re.search(r"\d+ of 300 nodes have degree <= cost_alpha = 0\.05 \(smallest degree 0\)",
                     err)
    assert "prices nodes by out-degree" in err and "--cost-alpha -1" in err
    assert main([*args, "--cost-alpha", "-1"]) == 0


def test_non_finite_kernel_is_config_error(tmp_path, capsys):
    # NaN entries were refused as "must be symmetric", naming the wrong fault
    for kernel in (b"1,nan\nnan,1\n", b"1,inf\ninf,1\n", b"1,0.5\nnan,1\n"):
        rc = main(["solve", *_kernel_instance(tmp_path, kernel), "--budget", "1",
                   "--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert "similarity matrix must be finite" in capsys.readouterr().err


def test_solve_keeps_nothing_rather_than_a_negative_gain(tmp_path, capsys):
    # the one candidate scores -6.0; it used to be committed anyway
    instance = _kernel_instance(tmp_path, b"1,-0.5\n-0.5,1\n")
    for constraint in ("size", "knapsack"):
        assert main(["solve", *instance, "--constraint", constraint, "--budget", "1",
                     "--out", str(tmp_path / "s.json")]) == 0
        assert capsys.readouterr().out.startswith("value 0.0 at cost 0.0")


def test_empty_kernel_is_parse_error_without_warnings(tmp_path, capsys):
    # numpy's "input contained no data" warning reached stderr, then exit 2
    for kernel in (b"", b"\n\n", b"# no rows\n"):
        rc = main(["solve", *_kernel_instance(tmp_path, kernel), "--budget", "1",
                   "--out", str(tmp_path / "s.json")])
        assert rc == 3
        assert capsys.readouterr().err == "error: similarity matrix holds no data\n"


def test_prune_missing_graph_file_is_io_error(tmp_path):
    rc = main(["prune", "--graph", str(tmp_path / "absent.txt"),
               "--pruner", "quickprune", "--kappa-max", "5",
               "--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")])
    assert rc == 3


def test_prune_reports_are_deterministic_modulo_elapsed(tmp_path):
    graph = _write_graph(tmp_path, kind="erdos_renyi", n=60, params={"p": 0.1},
                         seed=4)
    reports = []
    ids_texts = []
    for tag in ("a", "b"):
        ids_file = tmp_path / f"{tag}.ids"
        report_file = tmp_path / f"{tag}.json"
        rc = main(["prune", "--graph", str(graph), "--objective", "influence",
                   "--pruner", "quickprune", "--kappa-max", "6",
                   "--seed", "13",
                   "--out-ids", str(ids_file), "--out-report", str(report_file)])
        assert rc == 0
        report = json.loads(report_file.read_text())
        report.pop("elapsed_seconds")
        report.pop("ids_file")  # the two runs intentionally write different paths
        reports.append(report)
        ids_texts.append(ids_file.read_bytes())
    assert reports[0] == reports[1]
    assert ids_texts[0] == ids_texts[1]


def test_prune_with_baselines(tmp_path):
    graph = _write_graph(tmp_path, kind="erdos_renyi", n=40, params={"p": 0.15},
                         seed=1)
    for pruner, extra in (("topk", ["--target-size", "10"]),
                          ("random", ["--target-size", "10"]),
                          ("ss", ["--r", "2", "--c", "4"])):
        ids_file = tmp_path / f"{pruner}.ids"
        rc = main(["prune", "--graph", str(graph), "--pruner", pruner,
                   "--out-ids", str(ids_file),
                   "--out-report", str(tmp_path / f"{pruner}.json")] + extra)
        assert rc == 0
        ids = sp.read_id_file(ids_file)
        assert ids <= set(range(40))
        if pruner != "ss":
            assert len(ids) == 10


def test_ss_r_past_the_float_range_is_config_error(tmp_path, capsys):
    # r * ln(n) once raised OverflowError and exited 4
    graph = _write_graph(tmp_path)
    rc = main(["prune", "--graph", str(graph), "--pruner", "ss", "--r", str(10**400),
               "--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")])
    assert rc == 2
    assert "past the float range" in capsys.readouterr().err


def test_prune_report_keys_are_shared_by_every_pruner(tmp_path):
    graph = _write_graph(tmp_path, kind="erdos_renyi", n=40, params={"p": 0.15},
                         seed=1)
    keys = {"pruner", "params", "n", "pruned_size", "oracle_calls", "deletions",
            "per_budget_sizes", "deletion_log", "elapsed_seconds", "ids_file"}
    for pruner, extra in (("quickprune", ["--kappa-min", "2", "--kappa-max", "8"]),
                          ("quickprune-single", ["--kappa", "4"]),
                          ("ss", ["--r", "2", "--c", "4"]),
                          ("topk", ["--target-size", "10"]),
                          ("random", ["--target-size", "10"])):
        report_file = tmp_path / f"{pruner}.json"
        rc = main(["prune", "--graph", str(graph), "--pruner", pruner,
                   "--out-ids", str(tmp_path / f"{pruner}.ids"),
                   "--out-report", str(report_file)] + extra)
        assert rc == 0
        report = json.loads(report_file.read_text())
        assert set(report) == keys
        assert report["pruner"] == pruner
        assert report["pruned_size"] == len(sp.read_id_file(tmp_path / f"{pruner}.ids"))
        if pruner == "quickprune-single":
            assert report["per_budget_sizes"] == {"4.0": report["pruned_size"]}
        elif pruner != "quickprune":
            assert report["per_budget_sizes"] == {} and report["deletion_log"] == []
            assert report["deletions"] == 0 and report["elapsed_seconds"] == 0.0


def test_config_file_with_flag_override(tmp_path):
    graph = _write_graph(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": str(graph), "pruner": "quickprune-single", "kappa": 4,
        "delta": 0.2, "seed": 5,
    }))
    report_file = tmp_path / "r.json"
    rc = main(["prune", "--config", str(cfg), "--delta", "0.3",
               "--out-ids", str(tmp_path / "i.ids"),
               "--out-report", str(report_file)])
    assert rc == 0
    report = json.loads(report_file.read_text())
    assert report["params"]["delta"] == 0.3  # flag beats config
    assert report["params"]["seed"] == 5


def test_bad_config_json_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    # a byte that is not UTF-8, an int of 5,000 digits and nesting past the
    # decoder's depth used to exit 4
    for data in (b"{not json", b'{"seed": 1\xff}', b'{"seed": 1' + b"0" * 5000 + b"}",
                 b"[" * 100_000 + b"]" * 100_000):
        cfg.write_bytes(data)
        rc = main(["prune", "--config", str(cfg), "--out-ids", "x", "--out-report", "y"])
        assert rc == 2


def test_config_values_must_have_their_flag_types(tmp_path):
    graph = _write_graph(tmp_path, n=3)

    def prune(config, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": str(graph), "objective": "influence",
                                   "samples": 4, "kappa_max": 2, **config}))
        return main(["prune", "--config", str(cfg), *flags,
                     "--out-ids", str(tmp_path / "i.ids"),
                     "--out-report", str(tmp_path / "r.json")])

    # an int past the float range used to exit 4
    for bad in ({"kappa_max": "x"}, {"seed": "1"}, {"directed": "no"},
                {"samples": 2.5}, {"delta": True}, {"kappa_max": 10**400}):
        assert prune(bad) == 2, bad
    for good in ({}, {"directed": False}, {"delta": 1}, {"kappa_min": 1.5}):
        assert prune(good) == 0, good
    assert prune({"seed": "1"}, "--seed", "1") == 0  # the flag beats the config


def test_config_list_values_are_checked_item_by_item(tmp_path):
    graph = _write_graph(tmp_path, n=6)
    ids_file = tmp_path / "all.ids"
    sp.write_id_file(range(6), ids_file)
    for budgets, rc in (([2, 4.5], 0), (4, 2), ([2, "4"], 2), ([True], 2)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budgets": budgets}))
        assert main(["sweep", "--config", str(cfg), "--graph", str(graph),
                     "--ids", str(ids_file), "--out", str(tmp_path / "w.csv")]) == rc


def test_solve_writes_solution(tmp_path):
    graph = _write_graph(tmp_path, kind="star", n=9)
    out = tmp_path / "sol.json"
    rc = main(["solve", "--graph", str(graph), "--objective", "coverage",
               "--budget", "1", "--out", str(out)])
    assert rc == 0
    sol = json.loads(out.read_text())
    assert sol["ids"] == [0] and sol["value"] == 9


def test_non_finite_solver_budget_is_config_error(tmp_path):
    graph = _write_graph(tmp_path, kind="star", n=9)
    ids_file = tmp_path / "all.ids"
    sp.write_id_file(range(9), ids_file)
    for constraint in ("size", "knapsack"):
        for budget in ("nan", "inf", "-inf"):
            common = ["--graph", str(graph), "--constraint", constraint]
            assert main(["solve", *common, f"--budget={budget}",
                         "--out", str(tmp_path / "s.json")]) == 2
            assert main(["eval", *common, "--ids", str(ids_file), f"--budget={budget}",
                         "--out", str(tmp_path / "e.csv")]) == 2
            assert main(["sweep", *common, "--ids", str(ids_file),
                         f"--budgets={budget}", "--out", str(tmp_path / "w.csv")]) == 2
            # a non-finite budget range would flag every row out of range
            for lo, hi in ((budget, "8"), ("1", budget)):
                for command, budgets in (("sweep", "--budgets=4"), ("eval", "--budget=4")):
                    assert main([command, *common, "--ids", str(ids_file), budgets,
                                 f"--kappa-min={lo}", f"--kappa-max={hi}",
                                 "--out", str(tmp_path / "w.csv")]) == 2


def test_eval_identity_pruning_row(tmp_path):
    graph = _write_graph(tmp_path, n=20)
    ids_file = tmp_path / "all.ids"
    sp.write_id_file(range(20), ids_file)
    out = tmp_path / "eval.csv"
    rc = main(["eval", "--graph", str(graph), "--ids", str(ids_file),
               "--budget", "3", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1
    assert float(rows[0]["p_g"]) == 0.0
    assert float(rows[0]["p_r"]) == 1.0


def test_eval_missing_ids_file_is_io_error(tmp_path):
    graph = _write_graph(tmp_path)
    rc = main(["eval", "--graph", str(graph), "--ids", str(tmp_path / "gone.ids"),
               "--budget", "3", "--out", str(tmp_path / "o.csv")])
    assert rc == 3


def test_sweep_emits_one_row_per_budget(tmp_path):
    graph = _write_graph(tmp_path, kind="erdos_renyi", n=50, params={"p": 0.1},
                         seed=2)
    ids_file = tmp_path / "p.ids"
    sp.write_id_file(range(0, 50, 2), ids_file)
    out = tmp_path / "sweep.csv"
    budgets = [str(b) for b in range(10, 101, 10)]
    rc = main(["sweep", "--graph", str(graph), "--ids", str(ids_file),
               "--budgets", *budgets, "--out", str(out),
               "--out-jsonl", str(tmp_path / "sweep.jsonl")])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 10
    assert [float(r["budget"]) for r in rows] == [float(b) for b in budgets]
    assert len((tmp_path / "sweep.jsonl").read_text().splitlines()) == 10


def test_sweep_prints_the_queries_it_asked_and_billed(tmp_path, capsys):
    # the shared solve seed asks each set's singletons once per sweep, while
    # every row bills them as a standalone solve would; with one budget the
    # two counts agree
    graph = _write_graph(tmp_path, kind="barabasi_albert", n=80,
                         params={"m_attach": 2}, seed=3)
    ids_file = tmp_path / "p.ids"
    sp.write_id_file(range(0, 80, 3), ids_file)
    out = tmp_path / "w.csv"
    common = ["--graph", str(graph), "--objective", "cut", "--constraint", "knapsack",
              "--ids", str(ids_file), "--out", str(out)]
    for argv, shared in ((["sweep", "--budgets", "2", "6", "4"], True),
                         (["sweep", "--budgets", "6"], False),
                         (["eval", "--budget", "6"], False)):
        assert main([*argv, *common]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(lines) == len(rows) + 1
        summary = re.fullmatch(r"solver queries: (\d+) asked, (\d+) billed", lines[-1])
        asked, billed = map(int, summary.groups())
        assert billed == sum(int(r["oracle_calls_solve"]) for r in rows)
        assert (asked < billed) if shared else (asked == billed)


def test_bounds_prints_closed_forms(capsys):
    rc = main(["bounds", "--n", "1000", "--kappa", "100", "--delta", "1",
               "--epsilon", "0", "--gamma", "1", "--c-min", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha_multi" in out and f"{1 / 24:.6f}" in out
    assert f"{1 / 8:.6f}" in out


def test_bounds_vanishing_retention_at_epsilon_equals_gamma(capsys):
    rc = main(["bounds", "--n", "100", "--kappa", "10", "--delta", "0.5",
               "--epsilon", "0.8", "--gamma", "0.8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.000000" in out


def test_bounds_size_value(capsys):
    rc = main(["bounds", "--n", "1000", "--kappa", "100", "--delta", "0.1",
               "--epsilon", "0.1", "--c-min", "1"])
    assert rc == 0
    expect = 2 * (1 + 100 / 0.1) * __import__("math").log(10000) + 3
    assert f"{expect:.2f}" in capsys.readouterr().out


def test_bounds_bad_params_exit_code():
    rc = main(["bounds", "--n", "1000", "--kappa", "100", "--delta", "1",
               "--epsilon", "2", "--gamma", "1"])
    assert rc == 2
    for flag in (["--epsilon", "nan"], ["--delta", "inf"], ["--gamma", "nan"],
                 ["--n", "inf"], ["--kappa", "nan"]):
        args = {"--n": "100", "--kappa": "4"}
        args.update([flag])
        assert main(["bounds", *[x for kv in args.items() for x in kv]]) == 2


def test_coverage_eval_on_midsize_graph_is_fast(tmp_path):
    # the CLI pipeline on a few-thousand-node instance stays well inside
    # interactive time
    graph = _write_graph(tmp_path, kind="barabasi_albert", n=2000,
                         params={"m_attach": 8}, seed=3, name="ba.txt")
    ids_file = tmp_path / "p.ids"
    report_file = tmp_path / "r.json"
    start = time.monotonic()
    assert main(["prune", "--graph", str(graph), "--pruner", "quickprune",
                 "--kappa-min", "10", "--kappa-max", "100",
                 "--out-ids", str(ids_file), "--out-report", str(report_file)]) == 0
    assert main(["eval", "--graph", str(graph), "--ids", str(ids_file),
                 "--budget", "100", "--out", str(tmp_path / "e.csv")]) == 0
    assert time.monotonic() - start < 60


# ---------------------------------------------------------------------------
# bounded fuzz of the numeric flags: the CLI exits 0 or 2, never 4, never hangs

FUZZ_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310,
                     2.2250738585072014e-308, 1e308, -1e308, 1e-12, 0.1, 0.5, 1.0]),
    st.floats(min_value=0.01, max_value=64.0),
    st.floats())
MAYBE_FLOAT = st.one_of(st.none(), FUZZ_FLOATS)


def _flags(**values):
    # "--flag=value" keeps argparse from reading a negative value as a flag
    return [f"--{k.replace('_', '-')}={v!r}" for k, v in values.items() if v is not None]


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["prune", "solve", "sweep", "bounds"]))
    if command == "bounds":
        return ["bounds", *_flags(n=draw(MAYBE_FLOAT), kappa=draw(MAYBE_FLOAT),
                                  delta=draw(MAYBE_FLOAT), epsilon=draw(MAYBE_FLOAT),
                                  gamma=draw(MAYBE_FLOAT))]
    argv = [command, "--constraint", draw(st.sampled_from(["size", "knapsack"]))]
    if command == "prune":
        return argv + _flags(kappa_min=draw(MAYBE_FLOAT), kappa_max=draw(MAYBE_FLOAT),
                             eta=draw(MAYBE_FLOAT))
    if command == "solve":
        return argv + _flags(budget=draw(FUZZ_FLOATS))
    budgets = draw(st.lists(FUZZ_FLOATS, min_size=1, max_size=3))
    return (argv + _flags(kappa_min=draw(MAYBE_FLOAT), kappa_max=draw(MAYBE_FLOAT))
            + _flags(budgets=budgets[0]) + [repr(b) for b in budgets[1:]])


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the command line with exit 2
        return exc.code


@given(fuzz_argv())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_numeric_flag_fuzz_exits_zero_or_two(tmp_path, argv):
    graph = tmp_path / "path30.txt"
    if not graph.exists():
        sp.write_edge_list(sp.generate("path", 30, {}, seed=0), graph)
        sp.write_id_file(range(0, 30, 2), tmp_path / "half.ids")
    files = {"prune": ["--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")],
             "solve": ["--out", str(tmp_path / "s.json")],
             "sweep": ["--ids", str(tmp_path / "half.ids"), "--out", str(tmp_path / "w.csv")],
             "bounds": []}[argv[0]]
    instance = [] if argv[0] == "bounds" else ["--graph", str(graph)]
    assert _exit_code([argv[0], *instance, *argv[1:], *files]) in (0, 2)


def test_unreadable_edge_and_id_files_exit_three(tmp_path, capsys):
    graph = _write_graph(tmp_path)
    out = ["--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")]
    for name, data in (("bad.txt", b"0 1\n\xff 2\n"),
                       ("big.txt", b"0 1\n1 100000000000000000000000\n"),
                       ("bad.txt.gz", b"\x1f\x8b\x08\x00garbage")):
        (tmp_path / name).write_bytes(data)
        rc = main(["prune", "--graph", str(tmp_path / name), "--pruner", "quickprune",
                   "--kappa-max", "4", *out])
        assert rc == 3
        assert "line 2" in capsys.readouterr().err or name.endswith(".gz")
    (tmp_path / "bad.ids").write_bytes(b"1\n2\xff\n")
    rc = main(["sweep", "--graph", str(graph), "--ids", str(tmp_path / "bad.ids"),
               "--budgets", "2", "--out", str(tmp_path / "w.csv")])
    assert rc == 3
    assert "line 2" in capsys.readouterr().err


# bounded fuzz of the input files: the CLI exits 0, 2 or 3, never 4

@given(st.one_of(line_file_bytes(), line_file_bytes(oddities=())),
       st.one_of(line_file_bytes(width=1), line_file_bytes(width=1, oddities=())),
       st.booleans(), st.sampled_from(["coverage", "cut"]),
       st.sampled_from(["size", "knapsack"]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_edge_and_id_file_fuzz_exits_zero_two_or_three(tmp_path, edges, ids, gz,
                                                        objective, constraint):
    graph = tmp_path / ("g.txt.gz" if gz else "g.txt")
    graph.write_bytes(gzip.compress(edges) if gz else edges)
    (tmp_path / "f.ids").write_bytes(ids)
    instance = ["--graph", str(graph), "--objective", objective, "--constraint", constraint]
    assert main(["prune", *instance, "--pruner", "quickprune", "--kappa-max", "4",
                 "--out-ids", str(tmp_path / "i"),
                 "--out-report", str(tmp_path / "r")]) in (0, 2, 3)
    assert main(["sweep", *instance, "--ids", str(tmp_path / "f.ids"), "--budgets", "2",
                 "4", "--out", str(tmp_path / "w.csv")]) in (0, 2, 3)


_CELLS = st.one_of(st.floats(-1, 1).map(repr),
                   st.sampled_from(["0", "1", "-1", "0.5", " 0.25 ", "nan", "inf", "-inf",
                                    "1e400", "2", "", "x", "0x1", "1_0", "\u00bd"]))


@st.composite
def kernel_csv_bytes(draw):
    """A similarity matrix CSV: symmetric with entries in [-1, 1], or odd:
    rows of arbitrary cells and widths, maybe with a byte that is not
    UTF-8."""
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    odd = draw(st.booleans())
    size = draw(st.integers(0, 4) if odd else st.integers(2, 4))
    if odd:
        rows = [[draw(_CELLS) for _ in range(draw(st.integers(0, size + 1)))]
                for _ in range(size)]
    else:
        rows = [[1.0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                rows[i][j] = rows[j][i] = draw(st.floats(-1, 1))
        rows = [[repr(x) for x in row] for row in rows]
    data = "".join(",".join(row) + ending for row in rows).encode("utf-8")
    return with_byte_not_utf8(draw, data) if odd and draw(st.booleans()) else data


_QUERY_LINES = st.sampled_from(["0", "1", "0 1", "", " 2\t", "9", "-1", "x", "+1",
                                "\u00a0 0", "0\x0b1", "#"])
_JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 10**6),
                         st.integers(10**308, 10**400), st.floats(), st.text(max_size=4),
                         st.sampled_from(["quickprune", "quickprune-single", "ss", "random",
                                          "size", "knapsack", "simgraphcut", "coverage"]))
_CONFIG_KEYS = st.sampled_from(["objective", "constraint", "pruner", "kappa", "kappa_min",
                                "kappa_max", "delta", "epsilon", "eta", "lam", "seed",
                                "budget", "budgets", "directed", "p"])
_JSON = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=5)


@st.composite
def config_bytes(draw):
    """A JSON config: an object over the options these commands read, or
    odd: any JSON value, maybe cut short or holding a byte that is not
    UTF-8."""
    options = st.dictionaries(_CONFIG_KEYS, _JSON, max_size=5)
    if not draw(st.booleans()):
        return json.dumps(draw(options)).encode("utf-8")
    data = json.dumps(draw(st.one_of(options, _JSON))).encode("utf-8")
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data)))]
    return with_byte_not_utf8(draw, data)


@given(kernel_csv_bytes(),
       st.one_of(st.just(b"0\n"), line_file_bytes(width=1),
                 st.lists(_QUERY_LINES, max_size=4).map(lambda ls: "\n".join(ls).encode())),
       st.one_of(st.none(), config_bytes()), st.booleans())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_kernel_query_and_config_fuzz_exits_zero_two_or_three(tmp_path, kernel, queries,
                                                              config, budget_flags):
    instance = _kernel_instance(tmp_path, kernel, queries)
    if config is not None:
        (tmp_path / "cfg.json").write_bytes(config)
        instance += ["--config", str(tmp_path / "cfg.json")]
    (tmp_path / "all.ids").write_text("0\n1\n")
    budgets = {"prune": ["--kappa-max", "2"], "sweep": ["--budgets", "1", "2"],
               "solve": ["--budget", "2"]}
    outputs = {"prune": ["--out-ids", str(tmp_path / "i"), "--out-report", str(tmp_path / "r")],
               "sweep": ["--ids", str(tmp_path / "all.ids"), "--out", str(tmp_path / "w.csv")],
               "solve": ["--out", str(tmp_path / "s.json")]}
    for command in ("prune", "sweep", "solve"):
        # without the flags, the budgets come from the config or are missing
        flags = budgets[command] if budget_flags or config is None else []
        assert main([command, *instance, *flags, *outputs[command]]) in (0, 2, 3)
