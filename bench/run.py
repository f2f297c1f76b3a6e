"""Solve-path benchmark for vsreconf.

Usage (from the repository root)::

    python3 bench/run.py --workload sp-tame --seed 1 --seconds 60 --trace 0

Generates the workload's instances from the seed, writes them as
instance files, and solves them one after another in this process with
``vsreconf.cli.main(["solve", FILE, "--sequence"])`` (a closed loop with
one client), in complete passes over the instance set until ``--seconds``
would be exceeded.  Every answer is checked outside the timed region
against :mod:`reference`, which does not import the library.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced phase and then one traced pass, and prints the per-layer
metrics.  The last line of standard output is the result object; the
line before it is a report with the input statistics and any failures.
See ``bench/README.md`` for the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from reference import check_certificate
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 8  # before the loop; the loop sets up once more after each pass
MIN_SOLVES = 100  # so that ten solves lie beyond the 90th percentile
# consecutive solves timed together for solves_per_s: short enough (about
# 0.1 s) to fall between the machine's slow spells, long enough to keep
# the collection and loop costs between solves
CHUNK = 8
SOLVE_LIMIT_S = 20.0
# no solve starts after this many seconds, so that a run ends within 180 s
RUN_BUDGET_S = 140.0

# solver entry points that decide a route; the outermost one that
# returns inside a solve names the route auto dispatch took
ROUTES = {
    "cliquepair.solve_ts_3p1d": "class",
    "cliquepair.solve_tar_tj_3p1d": "class",
    "seriesparallel.sp_solve_tj": "sp",
    "minsep.tame_solve": "tame",
    "oracle.solve_bfs": "oracle",
}

# per-layer metric name -> span names it sums over
SPANS = {
    "cli.load_instance": ("cli.load_instance",),
    "cli.main": ("cli.main",),
    "instance.post_init": ("instance.ReconfigInstance.__post_init__",),
    "graph.reachable_from": ("graph.Graph.reachable_from",),
    "graph.components": ("graph.Graph.components",),
    "graph.blocks": ("graph.Graph.blocks",),
    "separators.is_separator": ("separators.is_separator",),
    "separators.is_minimal_separator": ("separators.is_minimal_separator",),
    "separators.shrink_to_minimal": ("separators.shrink_to_minimal",),
    "oracle.solve_bfs": ("oracle.solve_bfs",),
    "oracle.rule_neighbors": ("oracle.rule_neighbors",),
    "oracle.verify_sequence": ("oracle.verify_sequence",),
    "tar_tj.convert": (
        "tar_tj.tj_to_tar_instance",
        "tar_tj.tar_to_tj_instance",
        "tar_tj.tj_to_tar_sequence",
        "tar_tj.tar_to_tj_sequence",
        "tar_tj.normalize_tar_sequence",
        "tar_tj.is_trivially_negative_tar",
    ),
    "minsep.enumerate": ("minsep.enumerate_minimal_separators",),
    "minsep.overlap_build": ("minsep.build_overlap_graph",),
    "minsep.overlap_neighbors": ("minsep.OverlapGraph.neighbors",),
    "minsep.tame_solve": ("minsep.tame_solve",),
    "cliquepair.characterize": ("cliquepair.characterize",),
    "cliquepair.is_3p1_diamond_free": ("cliquepair.is_3p1_diamond_free",),
    "cliquepair.solve": ("cliquepair.solve_ts_3p1d", "cliquepair.solve_tar_tj_3p1d"),
    "seriesparallel.recognize_and_decompose": ("seriesparallel.recognize_and_decompose",),
    "seriesparallel.build_ps_tree": ("seriesparallel.build_ps_tree",),
    "seriesparallel.reconfigure_to_canonical": ("seriesparallel.reconfigure_to_canonical",),
    "seriesparallel.sp_solve_tj": ("seriesparallel.sp_solve_tj",),
}
LAYERS = ("cli", "instance", "graph", "separators", "oracle", "tar_tj",
          "minsep", "cliquepair", "seriesparallel")
BUCKETS = (1, 2, 3, 4)


class SolveTimeout(BaseException):
    """Raised by SIGALRM inside a solve that outlives SOLVE_LIMIT_S.  A
    BaseException, so no ``except Exception`` in the library swallows it."""


def _on_alarm(signum, frame):
    raise SolveTimeout


@dataclass(frozen=True)
class Outcome:
    case: int  # index into the case list
    seconds: float
    code: int | None
    out: str
    error: str | None  # exception or time limit


# ---------------------------------------------------------------------------
# set-up


def purge_library() -> None:
    for name in [m for m in sys.modules if m == "vsreconf" or m.startswith("vsreconf.")]:
        del sys.modules[name]


def set_up(cases, paths: list[str]):
    """Import the library afresh and write each case to its path; returns
    the seconds taken and the CLI module."""
    purge_library()
    t0 = perf_counter()
    cli = importlib.import_module("vsreconf.cli")
    for case, path in zip(cases, paths):
        Path(path).write_text(case.inst.to_text())
    return perf_counter() - t0, cli


# ---------------------------------------------------------------------------
# the closed loop


def solve_one(cli, index: int, path: str) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    signal.setitimer(signal.ITIMER_REAL, SOLVE_LIMIT_S)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve", path, "--sequence"])
    except SolveTimeout:
        error = f"ran past the {SOLVE_LIMIT_S:g} s solve limit"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - t0
    return Outcome(index, seconds, code, out.getvalue(), error)


def solve_passes(cli, paths, seconds: float, deadline: float, max_passes: int | None = None,
                 between=None):
    """Complete passes over ``paths`` while another pass still fits in
    ``seconds`` (at least one pass and MIN_SOLVES solves).  ``between``,
    if given, is called after each pass but the last and returns the CLI
    module for the next.  Returns the outcomes, the number of passes
    begun and, for each complete pass, the wall time of each of its
    chunks of CHUNK consecutive solves."""
    outcomes: list[Outcome] = []
    passes = 0
    walls: list[list[float]] = []
    t0 = perf_counter()
    while True:
        passes += 1
        chunks = []
        for start in range(0, len(paths), CHUNK):
            c0 = perf_counter()
            for i in range(start, min(start + CHUNK, len(paths))):
                if perf_counter() > deadline:
                    return outcomes, passes, walls
                outcomes.append(solve_one(cli, i, paths[i]))
            chunks.append(perf_counter() - c0)
        walls.append(chunks)
        wall = perf_counter() - t0
        if max_passes is not None and passes >= max_passes:
            return outcomes, passes, walls
        if len(outcomes) >= MIN_SOLVES and wall * (passes + 1) / passes > seconds:
            return outcomes, passes, walls
        if between is not None:
            cli = between()


def check(case: workloads.Case, o: Outcome) -> tuple[str | None, bool]:
    """The failure of one solve, if any, and whether it is a wrong
    answer (as opposed to a crash, a cap or a time-out)."""
    if o.error is not None:
        return o.error, False
    if o.code != 0:
        return f"exit code {o.code}", False
    lines = o.out.splitlines()
    answer = lines[0] if lines else ""
    if answer not in ("YES", "NO"):
        return f"answer {answer!r}", False
    if answer != case.expected:
        return f"answered {answer}, expected {case.expected} ({case.basis})", True
    if answer == "YES":
        try:
            seq = [frozenset(int(v) for v in line.split()) for line in lines[1:]]
        except ValueError:
            return "certificate is not a list of states", True
        reason = check_certificate(case.inst, seq)
        if reason is not None:
            return f"certificate rejected: {reason}", True
    return None, False


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, cases, outcomes, expected_solves: int) -> None:
        """Check outcomes (each distinct output once); solves the run
        budget cut off count as failed."""
        seen: dict[tuple, tuple[str | None, bool]] = {}
        for o in outcomes:
            key = (o.case, o.code, o.out, o.error)
            if key not in seen:
                seen[key] = check(cases[o.case], o)
            failure, wrong = seen[key]
            self.attempted += 1
            if failure is not None:
                self.failed += 1
                self.wrong += wrong
                if len(self.failures) < 10:
                    self.failures.append(f"{cases[o.case].name}: {failure}")
        cut = max(0, expected_solves - len(outcomes))
        if cut:
            self.attempted += cut
            self.failed += cut
            self.failures.append(f"{cut} solves cut off by the {RUN_BUDGET_S:g} s run budget")


def machine_speed_ms() -> float:
    """Fastest of five runs of a fixed pure-Python loop, in ms: printed in
    the report so that a run made in a slow spell of a shared machine
    can be told from a slower program."""
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, perf_counter() - t0)
    return best * 1e3


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# traced metrics


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one traced pass, and its route counts."""
    calls, own, total = tracer.self_times()
    index = {name: i for i, name in enumerate(tracer.names)}

    def agg(metric: str, which: list) -> float:
        return sum(which[index[n]] for n in SPANS[metric] if n in index)

    m: dict[str, float] = {}
    for metric in SPANS:
        m[f"{metric}.calls"] = agg(metric, calls)
        m[f"{metric}.self_s"] = agg(metric, own)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            s for name, s in zip(tracer.names, own) if name.split(".")[0] == layer)

    # counts that need a span's parent: separator checks made directly
    # by rule_neighbors, minimality checks made directly by enumeration
    names, name_of, parent = tracer.names, tracer.name_of, tracer.parent
    under = {("separators.is_separator", "oracle.rule_neighbors"): 0,
             ("separators.is_minimal_separator", "minsep.enumerate_minimal_separators"): 0}
    recog = {0: 0, 1: 0}
    routes = {"class": 0, "sp": 0, "tame": 0, "oracle": 0}
    for i in range(len(tracer)):
        name = names[name_of[i]]
        p = parent[i]
        pair = (name, names[name_of[p]] if p >= 0 else "")
        if pair in under:
            under[pair] += 1
        if name == "seriesparallel.recognize_and_decompose":
            recog[tracer.raised[i]] += 1
        if name in ROUTES and not tracer.raised[i]:
            # outermost route solver only (class solvers call solve_bfs)
            while p >= 0 and names[name_of[p]] not in ROUTES:
                p = parent[p]
            if p < 0:
                routes[ROUTES[name]] += 1
    for route, count in routes.items():
        m[f"cli.route.{route}"] = count

    c = tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    bfs_s = agg("oracle.solve_bfs", total)
    m["oracle.states_explored"] = c["oracle.states_explored"]
    m["oracle.states_per_s"] = ratio(c["oracle.states_explored"], bfs_s)
    m["oracle.sep_check_yield"] = ratio(
        c["oracle.neighbour_states"], under[("separators.is_separator", "oracle.rule_neighbors")])
    m["oracle.cert_states"] = c["oracle.cert_states"]
    m["minsep.family_size"] = c["minsep.family_size"]
    m["minsep.candidate_yield"] = ratio(
        c["minsep.family_size"],
        under[("separators.is_minimal_separator", "minsep.enumerate_minimal_separators")])
    m["minsep.overlap_edges"] = c["minsep.overlap_edges"]
    m["minsep.overlap_pair_yield"] = ratio(c["minsep.overlap_edges"], c["minsep.overlap_pairs"])
    m["seriesparallel.attempt_yield"] = ratio(recog[0], recog[0] + recog[1])
    return m, routes


# ---------------------------------------------------------------------------
# command line


def input_stats(cases) -> dict:
    ns = [c.inst.n for c in cases]
    ms = [len(c.inst.edges) for c in cases]
    return {
        "instances": len(cases),
        "n_range": [min(ns), max(ns)],
        "m_range": [min(ms), max(ms)],
        "rules": dict(sorted(Counter(c.inst.rule for c in cases).items())),
        "expected": dict(sorted(Counter(c.expected for c in cases).items())),
        "basis": dict(sorted(Counter(c.basis.split(":")[0] for c in cases).items())),
    }


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(workload: str, seed: int, seconds: float, trace: bool, spans: str | None) -> int:
    deadline = perf_counter() + RUN_BUDGET_S
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        t0 = perf_counter()
        cases = workloads.generate(workload, seed)
        generate_s = perf_counter() - t0
        paths = [str(workdir / f"{case.name}.inst") for case in cases]
        setups = []

        def fresh():
            took, cli = set_up(cases, paths)
            setups.append(took)
            gc.collect()  # the modules replaced, outside the timed solves
            return cli

        # set-up repeats spread over the run, so that their minimum is
        # taken from more than one spell of a shared machine
        for _ in range(SETUP_REPEATS):
            cli = fresh()
        solve_one(cli, 0, paths[0])  # warm-up: first-call costs such as argparse's

        budget = seconds / 2 if trace else seconds
        speed = [machine_speed_ms()]
        outcomes, passes, walls = solve_passes(cli, paths, budget, deadline, between=fresh)
        speed.append(machine_speed_ms())
        tally = Tally()
        tally.add(cases, outcomes, passes * len(paths))
        # an instance's time is its fastest solve over the passes, which
        # are spread over the run: a shared machine runs the same solve up
        # to twice as slow in spells of seconds to minutes, and the fastest
        # of several passes is the one least disturbed
        typical: dict[int, float] = {}
        for o in outcomes:
            typical[o.case] = min(o.seconds, typical.get(o.case, o.seconds))
        succeeded = (tally.attempted - tally.failed) / tally.attempted
        # the closed-loop rate with each chunk of consecutive solves at its
        # fastest over the passes: a chunk keeps the collection, allocator
        # and loop costs between its solves, which the per-instance minima
        # drop, while stepping over the slow spells that almost every
        # whole pass meets
        fastest = sum(map(min, zip(*walls))) if walls else 0.0
        rate = succeeded * len(paths) / fastest if walls else 0.0
        mean_rate = succeeded * len(paths) * len(walls) / sum(map(sum, walls)) if walls else 0.0
        report = {"workload": workload, "seed": seed, "trace": int(trace),
                  **input_stats(cases), "passes": passes, "samples": len(outcomes),
                  "machine_speed_ms": speed, "generate_s": generate_s,
                  "setup_runs_s": setups, "pass_walls_s": [sum(w) for w in walls],
                  "mean_solves_per_s": mean_rate}
        if not trace:
            metrics = {
                "solve_p50_ms": statistics.median(typical.values()) * 1e3,
                "solve_p90_ms": percentile(list(typical.values()), 90) * 1e3,
                "solves_per_s": rate,
                "setup_s": min(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            cli = sys.modules["vsreconf.cli"]  # as the last set-up loaded it
            tracer = Tracer()
            with tracer:
                traced, _, traced_walls = solve_passes(cli, paths, 0, deadline, max_passes=1)
            tally.add(cases, traced, len(paths))
            metrics, report["routes"] = layer_metrics(tracer)
            traced_rate = len(traced) / sum(traced_walls[0]) if traced_walls else 0.0
            metrics["trace.untraced_solves_per_s"] = rate
            metrics["trace.solves_per_s"] = traced_rate
            metrics["trace.overhead"] = rate / traced_rate - 1 if traced_rate else 0.0
            metrics["input.instances"] = len(cases)
            metrics["input.expected_no"] = sum(c.expected == "NO" for c in cases)
            metrics["input.vertices"] = sum(c.inst.n for c in cases)
            metrics["input.edges"] = sum(len(c.inst.edges) for c in cases)
            for b in BUCKETS:
                idx = {i for i, c in enumerate(cases) if c.bucket == b}
                metrics[f"size.b{b}.solve_p50_ms"] = statistics.median(
                    typical[i] for i in idx if i in typical) * 1e3
                metrics[f"size.b{b}.n"] = statistics.median(cases[i].inst.n for i in idx)
            if spans:
                tracer.write(spans)
        report.update(attempted=tally.attempted, failed=tally.failed,
                      fail_ratio=tally.failed / tally.attempted, wrong=tally.wrong,
                      failures=tally.failures)
        units = declared("per_layer" if trace else "end_to_end")
        print(json.dumps(report, sort_keys=True))
        print(json.dumps({
            "correct": tally.wrong == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }))
        return 0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", metavar="FILE", help="with --trace 1, write the spans here")
    args = p.parse_args(argv)
    library = ROOT / "src" / "vsreconf"
    if not (library / "__init__.py").is_file():
        print(f"bench: library sources not found at {library}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)


if __name__ == "__main__":
    sys.exit(main())
