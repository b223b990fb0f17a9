"""Benchmark of the setprune prune -> sweep pipeline.

    python3 bench/run.py --workload cut-knapsack-sweep --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each
    python3 bench/run.py --smoke                 # all workloads at small n, all checks

A run makes its inputs from ``--seed``, repeats the pipeline on them until
``--seconds`` have passed, checks every output, prints one line per metric,
an ``env`` line and, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
(medians over the repetitions, times scaled to a reference host speed by
``HostGauge``); ``--trace 1`` reports the per-layer metrics
from traced repetitions, and adds the CLI run and the oracle probes. See
``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Set-ups and sweeps are short and the host's speed swings between a fast
# and a slow mode for seconds at a time, so each repetition times more of
# them, for this share of its pipeline time, and averages them. On the same
# seeds this narrowed the spread of sweep_s on every workload (bench/README.md).
EXTRA_SHARE = 0.25
# About the mean HostGauge sample on the 2-core Xeon host the bounds were set
# on; the end-to-end times are reported in seconds at that host speed.
GAUGE_REF_S = 0.005
GAUGE_ROWS, GAUGE_BITS, GAUGE_PICKS, GAUGE_LOOPS = 2000, 20_000, 800, 20_000
GAUGE_EDGE_SAMPLES = 10     # before and after the repetitions of every run


class HostGauge:
    """A fixed benchmark-owned kernel, timed between the measured phases.

    The host's speed swings up to ~1.8x, per CPU, for seconds at a time,
    and how much of a run falls in the fast mode drifts over minutes. The
    gauge samples the host at the phase boundaries of the same process, so
    the mean of its samples follows that drift, and the run's wall times
    are scaled by GAUGE_REF_S over that mean. Half of a sample is big-int
    AND and bit counts over a 5 MB table (cut and heavytail query like
    that), half is interpreter arithmetic (influence's set and list
    lookups are closer to that)."""

    def __init__(self):
        rng = random.Random("host-gauge")
        self.table = [rng.getrandbits(GAUGE_BITS) for _ in range(GAUGE_ROWS)]
        self.mask = rng.getrandbits(GAUGE_BITS)
        self.picks = [rng.randrange(GAUGE_ROWS) for _ in range(GAUGE_PICKS)]
        self.samples = []

    def sample(self) -> None:
        table, mask = self.table, self.mask
        t0 = perf_counter()
        acc = 0
        for row in self.picks:
            acc += (table[row] & mask).bit_count()
        for i in range(GAUGE_LOOPS):
            acc = (acc + i * i) % 1_000_003
        self.samples.append(perf_counter() - t0)

    def mean_s(self, first: int = 0) -> float:
        """Mean of the samples from index ``first`` on."""
        return statistics.fmean(self.samples[first:])


def environment(calib_s: float) -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "host.calib_s": calib_s,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Session:
    """One workload run: inputs in a private work directory, repetitions of
    the pipeline, and the tallies that end up in the result line."""

    def __init__(self, wl, n: int, seed: int, seconds: float):
        import pipeline
        self.pl = pipeline
        self.wl, self.n, self.seed, self.seconds = wl, n, seed, seconds
        self.checks = pipeline.Checks()
        self.first_peak = None
        self.digests = {}
        self.reps = 0
        self.wall = {}
        self.gauge = HostGauge()
        WORK.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
        try:
            self.inputs = pipeline.make_inputs(wl, n, seed, self.workdir)
        except BaseException:
            self.close()
            raise

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def rep(self, inputs, tracer=None, gauge=False):
        """One pipeline repetition on one graph; an exception counts as a
        failed op. With ``gauge`` the host gauge is sampled at every phase
        boundary."""
        gc.collect()
        between = self.gauge.sample if gauge else self.pl._nothing
        try:
            rep = self.pl.run_pipeline(self.wl, inputs, tracer, between)
        except Exception:
            self.checks.op(False, traceback.format_exc())
            return None
        self.checks.merge(rep.checks)
        if self.first_peak is None:
            self.first_peak = peak_rss_mb()
        return rep

    def check_repeatable(self, reps):
        """Counts, ratios and digests must repeat exactly on one graph."""
        prints = {r.fingerprint() for r in reps}
        self.checks.op(len(prints) == 1, f"outputs differ between repetitions: {prints}")

    def repeat_until_deadline(self, one_round) -> list:
        """Call ``one_round`` on the graphs in turn until ``seconds`` have
        passed, stopping before a call that would overrun; at least once per
        graph. Returns, per graph, what its calls gave, failed ones left out."""
        deadline = perf_counter() + self.seconds
        per_graph = [[] for _ in self.inputs]
        i = 0
        while True:
            t0 = perf_counter()
            got = one_round(self.inputs[i % len(self.inputs)])
            if got is not None:
                per_graph[i % len(self.inputs)].append(got)
            i += 1
            if i >= len(self.inputs) and perf_counter() + (perf_counter() - t0) > deadline:
                return per_graph


def joined_digests(reps) -> dict:
    """The digests of one repetition per graph, joined key by key."""
    return {k: ",".join(r.digests[k] for r in reps) for k in reps[0].digests}


def run_plain(s: Session) -> dict:
    first_sample = len(s.gauge.samples)

    def rep_with_extras(inputs):
        """A full pipeline, then more set-ups and sweeps on the same input
        until they have taken EXTRA_SHARE of the pipeline's time: the short
        phases need more samples. Their means stand for this repetition."""
        rep = s.rep(inputs, gauge=True)
        if rep is None:
            return None
        setups, sweeps = [rep.setup_s], [rep.sweep_s]
        while sum(setups[1:]) + sum(sweeps[1:]) < EXTRA_SHARE * rep.pipeline_s:
            gc.collect()
            setup_s, sweep_s, records = s.pl.time_setup_and_sweep(
                s.wl, inputs, rep.pruned, s.gauge.sample)
            setups.append(setup_s)
            sweeps.append(sweep_s)
            s.checks.op(records == rep.records, "a repeated sweep gave other records")
        return rep, statistics.fmean(setups), statistics.fmean(sweeps)

    per_graph = s.repeat_until_deadline(rep_with_extras)
    if not all(per_graph):
        return {}
    for rounds in per_graph:
        s.check_repeatable([rep for rep, _, _ in rounds])
    # A run's time for a phase is the sum over its graphs of the phase's
    # median on that graph.
    s.wall = {
        "setup_s": sum(statistics.median(setup for _, setup, _ in rounds)
                       for rounds in per_graph),
        "prune_s": sum(statistics.median(rep.prune_s for rep, _, _ in rounds)
                       for rounds in per_graph),
        "sweep_s": sum(statistics.median(sweep for _, _, sweep in rounds)
                       for rounds in per_graph),
        "pipeline_s": sum(statistics.median(rep.pipeline_s for rep, _, _ in rounds)
                          for rounds in per_graph),
    }
    # Times in seconds at the gauge's reference speed, so that host drift
    # between runs cancels; the wall-clock medians are printed beside them.
    scale = GAUGE_REF_S / s.gauge.mean_s(first_sample)
    out = {k: v * scale for k, v in s.wall.items()}
    # Peak memory of one pipeline: later repetitions add allocator
    # fragmentation, and how many fit depends on the host's speed.
    last = [rounds[-1][0] for rounds in per_graph]
    out.update(peak_rss_mb=s.first_peak,
               oracle_calls_prune=sum(r.oracle_calls_prune for r in last),
               oracle_calls_solve=sum(r.oracle_calls_solve for r in last),
               pruned_frac=statistics.fmean(r.pruned_frac for r in last),
               retention_min=min(r.retention_min for r in last))
    s.digests = joined_digests(last)
    s.reps = sum(map(len, per_graph))
    return out


def run_traced(s: Session) -> dict:
    from tracing import Tracer, layer_metrics
    pl, wl = s.pl, s.wl
    run_id = f"{wl.name}-seed{s.seed}-pid{os.getpid()}"
    last_tracer = []    # the spans written out at the end

    def one_round(inputs):
        """An untraced repetition, a traced one and, where the CLI has the
        objective, the CLI pair, back to back on one graph: the CLI's
        overhead is taken against the library sweep of its own round, so host
        drift between rounds does not enter it."""
        plain = s.rep(inputs)
        tracer = Tracer(run_id)
        traced = s.rep(inputs, tracer)
        if plain is None or traced is None:
            return None
        last_tracer[:] = [tracer]
        cli = (pl.run_cli(wl, inputs, s.workdir, plain, s.checks)
               if wl.has_cli else (0.0, 0.0))
        return plain, traced, layer_metrics(tracer.spans, s.n, traced.rungs), cli

    per_graph = s.repeat_until_deadline(one_round)
    if not all(per_graph):
        return {}
    for graph_rounds in per_graph:
        s.check_repeatable([r[0] for r in graph_rounds] + [r[1] for r in graph_rounds])
    # Per-layer metrics are per graph: medians over the rounds of all graphs.
    rounds = [r for graph_rounds in per_graph for r in graph_rounds]
    out = {k: statistics.median(r[2][k] for r in rounds) for k in rounds[0][2]}
    last = per_graph[0][-1][1]
    out.update({
        "graphio.input_bytes": s.inputs[0].input_bytes,
        "graphio.generate_s": pl.time_generate(s.n, s.seed),
        "pruning.deletions": last.deletions,
        "pruning.removed": last.removed,
        "pruning.size_to_bound_max": last.size_to_bound_max,
    })
    out.update(pl.probe_marginals(pl.setup(wl, s.inputs[0])[1], s.n, s.seed))
    # The sweep command loads the graph and builds the oracle again; what it
    # takes beyond the library sweep of its own round is that overhead. The
    # prune command does the library's work plus file writes, and comparing
    # it would only add the prune's much larger noise.
    cli_overhead = (statistics.median(cs - p.sweep_s for p, _, _, (_, cs) in rounds)
                    if wl.has_cli else 0.0)
    out.update({
        "cli.prune_s": statistics.median(r[3][0] for r in rounds),
        "cli.sweep_s": statistics.median(r[3][1] for r in rounds),
        "cli.overhead_s": cli_overhead,
        "trace.overhead_frac": statistics.median(r[1].pipeline_s for r in rounds)
        / statistics.median(r[0].pipeline_s for r in rounds) - 1.0,
    })
    OUT.mkdir(exist_ok=True)
    last_tracer[0].write_jsonl(OUT / f"spans-{wl.name}-seed{s.seed}.jsonl")
    s.digests = joined_digests([graph_rounds[-1][1] for graph_rounds in per_graph])
    s.reps = len(rounds)
    return out


def run_workload(wl, n: int, seed: int, seconds: float, trace: bool) -> dict:
    s = Session(wl, n, seed, seconds)
    try:
        for _ in range(GAUGE_EDGE_SAMPLES):
            s.gauge.sample()
        values = run_traced(s) if trace else run_plain(s)
        for _ in range(GAUGE_EDGE_SAMPLES):
            s.gauge.sample()
        calib = s.gauge.mean_s()
    finally:
        s.close()
    if trace and values:
        values["host.calib_s"] = calib
    return {"session": s, "values": values, "env": environment(calib)}


def metric_units(trace: bool) -> dict:
    """Names and units of the reported metrics, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def emit(wl, out: dict, trace: bool):
    """Print the human lines and, last, the result JSON. Returns whether the
    outputs were correct, or None when a metric is missing and nothing was
    printed."""
    s, values = out["session"], out["values"]
    checks = s.checks
    for msg in checks.messages:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    units = metric_units(trace)
    missing = [k for k in units if k not in values]
    if missing:
        print(f"no result for {wl.name}: missing {missing}", file=sys.stderr)
        return None
    correct = checks.failed == 0
    print(f"workload {wl.name}  n={s.n}  seed={s.seed}  reps={s.reps}  "
          f"trace={int(trace)}")
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>16.6g} {unit}")
    print(f"  {'failed_ops_frac':<40} {checks.failed / max(1, checks.attempted):>16.6g}"
          f" ratio  ({checks.failed} of {checks.attempted} ops)")
    if s.wall:
        print("wall " + json.dumps(s.wall, sort_keys=True))
    print("digests " + json.dumps(s.digests, sort_keys=True))
    print("env " + json.dumps(out["env"], sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": checks.attempted, "failed": checks.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return correct


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time."""
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def run_smoke(args) -> int:
    """Every workload at small n, untraced and traced with the CLI, one
    repetition each; exit status 1 when any output check fails."""
    from workloads import WORKLOADS
    ok = True
    for wl in WORKLOADS.values():
        for trace in (False, True):
            out = run_workload(wl, wl.smoke_n, args.seed, 0.0, trace)
            ok &= bool(emit(wl, out, trace))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "setprune" / "__init__.py").is_file():
        print(f"setprune sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import setprune
    if Path(setprune.__file__).resolve().parent != SRC / "setprune":
        print(f"imported setprune from {setprune.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.smoke:
        return run_smoke(args)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    out = run_workload(wl, wl.n, args.seed, args.seconds, bool(args.trace))
    if not out["values"]:
        for msg in out["session"].checks.messages:
            print(msg, file=sys.stderr)
        print(f"{wl.name}: every repetition failed", file=sys.stderr)
        return 1
    return 0 if emit(wl, out, bool(args.trace)) is True else 1


if __name__ == "__main__":
    sys.exit(main())
