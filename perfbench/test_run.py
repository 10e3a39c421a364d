"""Tests of the benchmark itself, at reduced sizes.

Run from the root of the repository with

    python -m pytest -q perfbench
"""

import io
import json
import shutil
import statistics
import subprocess
import sys

import pytest

import calibrate
import run
import workloads
from tracer import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_small_untraced(workload):
    result, info = run.bench(workload, seed=3, seconds=0, trace=0, small=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["cases_failed_frac"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_small_traced(workload):
    result, info = run.bench(workload, seed=3, seconds=0, trace=1, small=True)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert len(info["walls"][True]) == len(info["walls"][False]) == 1
    inserts = result["metrics"]["linalg.Echelon.insert.calls"]["value"]
    assert (inserts > 0) == (workload in ("battery", "ideals", "modules"))


def test_seed_changes_inputs_not_faces():
    pb = run.load_package()
    one = workloads.make_inputs(pb, "ideals", 1)
    two = workloads.make_inputs(pb, "ideals", 2)
    assert one["minors"] != two["minors"]
    seeded = [A for label, A in one["systems"] + two["systems"] if label.startswith("seeded")]
    assert len({A.entries for A in seeded}) > 1
    assert all(pb.weights.is_interior(A) for A in seeded)


def test_wrong_oracle_counts_as_failed_case():
    pb = run.load_package()
    cases = workloads.build_cases(pb, "modules", workloads.make_inputs(pb, "modules", 1, small=True))
    good = cases[0].run

    def wrong_oracle():
        got, want, canon = good()
        return got, want + 1, canon

    def raises():
        raise ZeroDivisionError("deliberate")

    cases[0] = workloads.Case("wrong oracle", wrong_oracle)
    cases[1] = workloads.Case("raises", raises)
    failed, _ = run.run_cases(cases, log=io.StringIO())
    assert failed == 2


def test_tracer_keeps_cache_identity_and_uninstalls():
    pb = run.load_package()
    original = pb.ideals.plucker_relations
    tracer = Tracer(pb)
    tracer.install()
    try:
        wrapped = pb.ideals.plucker_relations
        assert wrapped is not original and pb.tropical.plucker_relations is wrapped
        assert wrapped(3, (1, 2)) is original(3, (1, 2))
        assert wrapped.cache_info().hits >= 1
    finally:
        tracer.uninstall()
    assert pb.ideals.plucker_relations is original
    assert pb.tropical.plucker_relations is original
    assert tracer.stats["ideals.plucker_relations"].calls == 1


def test_host_clock_ticks_at_most_every_interval():
    clock = calibrate.HostClock()
    clock.tick(force=True)
    clock.tick()  # within INTERVAL_S of the last tick: skipped
    assert len(clock.samples) == 1
    clock.tick(force=True)
    assert len(clock.samples) == 2
    assert clock.spent >= sum(clock.samples)
    assert clock.factor() == calibrate.REFERENCE_S / statistics.median(clock.samples)


def test_reported_times_exclude_the_reference_kernel():
    pb = run.load_package()
    inputs = workloads.make_inputs(pb, "modules", 1, small=True)
    clock = calibrate.HostClock()
    start = run.perf_counter()
    wall, attempted, failed, _ = run.repetition(pb, "modules", inputs, clock)
    total = run.perf_counter() - start
    assert failed == 0 and attempted >= 1
    assert len(clock.samples) >= 2
    assert wall <= total - sum(clock.samples)


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
