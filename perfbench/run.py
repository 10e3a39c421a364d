"""Benchmark of pbwdegen: four cold-cache workloads, checked against oracles.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ideals --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client in one process: a case
starts when the previous one returns. A repetition runs every case of the
workload once, starting with every lru_cache of the package empty, as a
fresh CLI process would. Repetitions run while the next one is likely to
end within ``--seconds``; there is always at least one.

With ``--trace 0`` the run reports the end-to-end metrics, medians over
its repetitions. Times are scaled to a nominal host speed, measured by a
fixed reference kernel run between cases (see calibrate.py); the raw
medians are printed beside them. With ``--trace 1`` it alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones; the difference of the two medians is the tracing overhead. The last line of
standard output is one JSON object; the lines before it give the run
header, the result digest and every metric by name with its unit. The
exit code is 1 if any case failed its oracle or raised, 2 if the package
source is missing.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from calibrate import HostClock
from tracer import Tracer
from workloads import LRU_CACHES, WORKLOADS, build_cases, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("weights", "degrees", "fflv", "tableaux", "linalg", "ideals",
           "representations", "tropical", "suite", "cli")
SETUPS_PER_REP = 3


def load_package():
    """Import pbwdegen afresh from the source tree: drop every module of
    the package from sys.modules first, so each import is a full one."""
    for name in [m for m in sys.modules if m == "pbwdegen" or m.startswith("pbwdegen.")]:
        del sys.modules[name]
    pb = SimpleNamespace(MODULES=MODULES)
    for name in MODULES:
        setattr(pb, name, importlib.import_module(f"pbwdegen.{name}"))
    return pb


def setup(workload, seed, small):
    """Import plus seeded input generation; returns (seconds, pb, inputs)."""
    start = perf_counter()
    pb = load_package()
    inputs = make_inputs(pb, workload, seed, small)
    return perf_counter() - start, pb, inputs


def clear_caches(pb):
    for mod_name, func_name in LRU_CACHES:
        func = getattr(getattr(pb, mod_name), func_name)
        func.cache_clear()
        if func.cache_info().currsize:
            raise RuntimeError(f"{mod_name}.{func_name} is not empty")


def run_cases(cases, between=None, log=sys.stderr):
    """Run every case, calling ``between()`` before each one if given; a
    wrong answer or an exception counts as failed and does not stop the
    run. Returns (failed, sha256 of canonical outputs)."""
    failed = 0
    digest = hashlib.sha256()
    for case in cases:
        if between is not None:
            between()
        try:
            got, want, canon = case.run()
        except Exception:
            failed += 1
            print(f"case {case.label!r} raised:\n{traceback.format_exc()}", file=log)
            continue
        digest.update(f"{case.label}\n".encode())
        for chunk in canon:
            digest.update(f"{chunk}\n".encode())
        if got != want:
            failed += 1
            print(f"case {case.label!r} failed its oracle", file=log)
    return failed, digest.hexdigest()


def repetition(pb, workload, inputs, clock):
    """One cold-cache repetition; returns (wall_s, attempted, failed, digest).

    ``clock`` times the reference kernel before, between and after the
    cases; the time it takes is not part of wall_s.
    """
    clear_caches(pb)
    # Collect the garbage of earlier rounds, such as replaced module copies,
    # before the clock starts rather than inside the timed region.
    gc.collect()
    clock.tick(force=True)
    spent = clock.spent
    start = perf_counter()
    cases = build_cases(pb, workload, inputs)
    failed, digest = run_cases(cases, between=clock.tick)
    wall = perf_counter() - start - (clock.spent - spent)
    clock.tick(force=True)
    return wall, len(cases), failed, digest


def header(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted((SRC / "pbwdegen").glob("*.py"))),
    }


def git_commit():
    """HEAD commit read from .git without running git; "unknown" outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def bench(workload, seed, seconds, trace, small=False):
    """Measure one workload; returns the result object and run details.

    Every repetition imports the package afresh and rebuilds its inputs,
    SETUPS_PER_REP times, so setup_s is a median over samples spread
    across the whole run, like wall_s. Each round's times are scaled by
    the host factor of that round's reference-kernel samples.
    """
    setup_times = []
    raw = {"setup": [], "wall": [], "factor": []}
    walls = {False: [], True: []}
    rounds = []
    attempted = failed = 0
    digests = []
    layer_samples = []
    start = perf_counter()
    traced = False
    while True:
        round_start = perf_counter()
        clock = HostClock()
        setups = []
        for _ in range(SETUPS_PER_REP):
            clock.tick(force=True)
            took, pb, inputs = setup(workload, seed, small)
            setups.append(took)
        tracer = Tracer(pb) if traced else None
        if tracer:
            tracer.install()
        try:
            wall, n_cases, n_failed, digest = repetition(pb, workload, inputs, clock)
        finally:
            if tracer:
                tracer.uninstall()
        factor = clock.factor()
        setup_times.extend(s * factor for s in setups)
        if tracer:
            layer_samples.append(tracer.metrics(wall))
        else:
            raw["setup"].extend(setups)
            raw["wall"].append(wall)
            raw["factor"].append(factor)
        walls[traced].append(wall * factor)
        attempted += n_cases
        failed += n_failed
        digests.append(digest)
        rounds.append(perf_counter() - round_start)
        # Stop when the next round would likely end after the budget.
        done = perf_counter() - start + statistics.median(rounds) > seconds
        if trace:
            if done and walls[True]:
                break
            traced = not traced
        elif done:
            break
    if trace:
        metrics = {name: {"value": statistics.median(s[name][0] for s in layer_samples),
                          "unit": unit}
                   for name, (_, unit) in layer_samples[0].items()}
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    info = {"walls": walls, "cases_failed_frac": failed / attempted, "digests": digests,
            "raw": {key: statistics.median(values) for key, values in raw.items()}}
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pbwdegen" / "__init__.py").is_file():
        print(f"error: no pbwdegen source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print("# header " + json.dumps(header(args.seed), sort_keys=True))
    result, info = bench(args.workload, args.seed, args.seconds, args.trace)
    if len(set(info["digests"])) > 1:
        print("warning: repetitions gave different result digests", file=sys.stderr)
    for traced, samples in info["walls"].items():
        if samples:
            kind = "traced" if traced else "untraced"
            print(f"# {args.workload}: {len(samples)} {kind} repetitions, wall_s "
                  + " ".join(f"{w:.4f}" for w in samples))
    print(f"result_digest {info['digests'][0]}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"cases_failed_frac {info['cases_failed_frac']} ratio")
    print(f"wall_raw_s {info['raw']['wall']} s")
    print(f"setup_raw_s {info['raw']['setup']} s")
    print(f"host_factor {info['raw']['factor']} ratio")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
