"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads
from reference import Instance, check_certificate, search

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def path_instance(rule: str, k: int | None = None) -> Instance:
    """Path 0-1-2-3-4 with a pendant 5 on 2: s=0, t=4."""
    edges = ((0, 1), (1, 2), (2, 3), (2, 5), (3, 4))
    src, dst = frozenset({1}), frozenset({3})
    return Instance(6, edges, 0, 4, rule, src, dst, k)


# -- inputs -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_instance_files(workload, tmp_path):
    files = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        cases = workloads.generate(workload, 11)
        paths = [str(workdir / f"{c.name}.inst") for c in cases]
        run.set_up(cases, paths)
        files.append([Path(p).read_bytes() for p in paths])
    assert files[0] == files[1]
    other = [c.inst.to_text().encode() for c in workloads.generate(workload, 12)]
    assert other != files[0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_cases_are_valid_instances(workload):
    cases = workloads.generate(workload, 3)
    assert len(cases) >= run.MIN_SOLVES
    assert {c.bucket for c in cases} == set(run.BUCKETS)
    for c in cases:
        inst = c.inst
        adj = reference.adjacency(inst.n, inst.edges)
        assert reference.reach(adj, 0, 0) == (1 << inst.n) - 1, c.name
        assert not adj[inst.s] >> inst.t & 1
        for st in (inst.source, inst.target):
            assert inst.s not in st and inst.t not in st
            assert reference.separates(adj, inst.s, inst.t, reference.mask(st))
        if inst.rule == "TAR":
            assert max(len(inst.source), len(inst.target)) <= inst.k
        else:
            assert len(inst.source) == len(inst.target)


def small_construction_cases(monkeypatch) -> list[workloads.Case]:
    """Every construction-based family at sizes the reference search
    can settle."""
    monkeypatch.setattr(workloads, "SP_SIZES", range(12, 16))
    monkeypatch.setattr(workloads, "TAME_CYCLES", range(6, 12))
    monkeypatch.setattr(workloads, "TAME_GRID_COLS", range(4, 7))
    monkeypatch.setattr(workloads, "TS_CYCLES", range(8, 12))
    monkeypatch.setattr(workloads, "TS_CHECKS", (1, 10**6))
    monkeypatch.setattr(workloads, "TS_GRIDS", ())
    monkeypatch.setattr(workloads, "TS_GNP", ())
    monkeypatch.setattr(workloads, "CLASS_BIG", range(10, 14))
    monkeypatch.setattr(workloads, "CLASS_PARTY", (6, 8))
    cases = []
    for gen in workloads.PARTS.values():
        cases += [c for c in gen(random.Random(5)) if c.basis.startswith("construction")]
    return cases


def test_construction_answers_agree_with_reference_search(monkeypatch):
    cases = small_construction_cases(monkeypatch)
    assert {c.expected for c in cases} == {"YES", "NO"}
    for c in cases:
        found = search(c.inst)
        assert ("YES" if found is not None else "NO") == c.expected, c.name


# -- the independent checker ---------------------------------------------


def test_reference_search_certificates_pass_the_checker():
    for rule, k in (("TS", None), ("TJ", None), ("TAR", 2)):
        inst = path_instance(rule, k)
        seq = search(inst)
        assert seq is not None and check_certificate(inst, seq) is None


def test_corrupted_certificates_are_rejected():
    inst = path_instance("TS")
    good = [frozenset({1}), frozenset({2}), frozenset({3})]
    assert check_certificate(inst, good) is None
    corrupt = {
        "skips a move": [good[0], good[2]],
        "wrong source": [frozenset({2})] + good[1:],
        "wrong target": good[:-1] + [frozenset({2})],
        "holds a terminal": [good[0], frozenset({0}), good[2]],
        "not a separator": [good[0], frozenset({5}), frozenset({3})],
        "empty": [],
    }
    for what, seq in corrupt.items():
        assert check_certificate(inst, seq) is not None, what
    # a TJ jump is not a slide
    tj = Instance(6, inst.edges, 0, 4, "TS", frozenset({1}), frozenset({3}))
    assert check_certificate(tj, [frozenset({1}), frozenset({3})]) is not None
    # TAR: one token per step, within k
    tar = path_instance("TAR", 1)
    assert check_certificate(tar, [frozenset({1}), frozenset({1, 2}), frozenset({2})]) is not None


def test_corrupted_engine_certificate_counts_as_wrong(tmp_path):
    case = workloads.Case("p", path_instance("TJ"), "YES", "reference search", 1)
    path = tmp_path / "p.inst"
    path.write_text(case.inst.to_text())
    cli = pytest.importorskip("vsreconf.cli")
    o = run.solve_one(cli, 0, str(path))
    assert run.check(case, o) == (None, False)
    lines = o.out.splitlines()
    broken = run.Outcome(0, o.seconds, o.code, "\n".join(lines[:1] + ["0"] + lines[1:]), None)
    failure, wrong = run.check(case, broken)
    assert wrong and "certificate rejected" in failure


def test_flipped_expected_answer_counts_as_failure(tmp_path):
    cli = pytest.importorskip("vsreconf.cli")
    case = workloads.Case("c", path_instance("TJ"), "YES", "test", 1)
    path = tmp_path / "c.inst"
    path.write_text(case.inst.to_text())
    o = run.solve_one(cli, 0, str(path))
    tally = run.Tally()
    tally.add([case], [o], 1)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, 0)
    flipped = workloads.Case(case.name, case.inst, "NO", case.basis, 1)
    tally = run.Tally()
    tally.add([flipped], [o], 1)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    assert "expected NO" in tally.failures[0]


# -- the loop -----------------------------------------------------------


def test_solve_limit_turns_a_runaway_into_a_failure(monkeypatch):
    class Runaway:
        @staticmethod
        def main(argv):
            while True:
                pass

    monkeypatch.setattr(run, "SOLVE_LIMIT_S", 0.05)
    old = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    try:
        o = run.solve_one(Runaway, 0, "unused")
    finally:
        run.signal.signal(run.signal.SIGALRM, old)
    assert o.code is None and "solve limit" in o.error
    case = workloads.Case("r", path_instance("TJ"), "YES", "test", 1)
    assert run.check(case, o) == (o.error, False)


def test_tracer_restores_originals_and_accounts_for_time(tmp_path):
    cli = pytest.importorskip("vsreconf.cli")
    import vsreconf.instance
    import vsreconf.oracle
    import vsreconf.separators
    from tracer import Tracer

    before = (vsreconf.separators.is_separator, vsreconf.oracle.is_separator,
              vsreconf.instance.is_separator, vsreconf.oracle.solve_bfs)
    paths = []
    for rule in ("TS", "TJ"):
        path = tmp_path / f"{rule}.inst"
        path.write_text(path_instance(rule).to_text())
        paths.append(str(path))
    tracer = Tracer()
    with tracer:
        assert vsreconf.oracle.is_separator is not before[1]
        assert vsreconf.oracle.is_separator is vsreconf.instance.is_separator
        outcomes = [run.solve_one(cli, i, p) for i, p in enumerate(paths)]
    after = (vsreconf.separators.is_separator, vsreconf.oracle.is_separator,
             vsreconf.instance.is_separator, vsreconf.oracle.solve_bfs)
    assert after == before
    assert all(o.code == 0 for o in outcomes)

    calls, own, total = tracer.self_times()
    main = tracer.names.index("cli.main")
    assert calls[main] == 2
    assert sum(own) == pytest.approx(total[main], rel=1e-9, abs=1e-9)
    metrics, routes = run.layer_metrics(tracer)
    assert sum(routes.values()) == 2
    assert metrics["oracle.states_explored"] > 0


# -- the command ----------------------------------------------------------


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_names_every_declared_metric(trace, tmp_path):
    spans = tmp_path / "spans.tsv"
    proc = run_bench(ROOT, "--workload", "oracle-class", "--seed", "1", "--seconds", "0.1",
                     "--trace", trace, "--spans", str(spans))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_SOLVES
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert [v["unit"] for v in result["metrics"].values()] == [m["unit"] for m in declared]
    report = json.loads(lines[-2])
    assert report["instances"] >= run.MIN_SOLVES and report["fail_ratio"] == 0
    if trace == "1":
        routes = [result["metrics"][f"cli.route.{r}"]["value"] for r in report["routes"]]
        assert sum(routes) == report["instances"]
        assert spans.read_text().startswith("name\tstart\tend\tparent\traised\n")
    else:
        assert not spans.exists()


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "sp-tame", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
