"""Every lru_cache of the package is one the benchmark clears, and the
package keeps no other memo.

``perfbench/workloads.py`` lists the caches in ``LRU_CACHES`` and empties
them before each repetition, so every repetition starts as cold as a new
CLI process. A cache missing from that list, or a memo kept in a
module-level dict, list or set, would stay warm across repetitions and
show as a speedup that no single run has.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pbwdegen
from pbwdegen import ideals, suite
from pbwdegen.degrees import grading_vector
from pbwdegen.weights import toric_weight_system

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _listed_caches():
    """LRU_CACHES of the benchmark, read from its source."""
    tree = ast.parse(WORKLOADS.read_text())
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names == ["LRU_CACHES"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("LRU_CACHES not found")


def _package_caches():
    found = set()
    for info in pkgutil.iter_modules(pbwdegen.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pbwdegen.{info.name}")
        for name, value in vars(module).items():
            defined_here = getattr(value, "__module__", None) == module.__name__
            if hasattr(value, "cache_clear") and defined_here:
                found.add((info.name, name))
    return found


def test_benchmark_clears_every_lru_cache():
    assert _package_caches() == _listed_caches()


def test_every_lru_cache_is_bounded():
    for mod_name, func_name in _package_caches():
        func = getattr(importlib.import_module(f"pbwdegen.{mod_name}"), func_name)
        assert func.cache_parameters()["maxsize"] is not None, (mod_name, func_name)


def _module_containers():
    """{(module, name): len} of every dict, list and set held at module
    level by pbwdegen, or by a class a module defines."""
    sizes = {}
    for info in pkgutil.iter_modules(pbwdegen.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pbwdegen.{info.name}")
        spaces = [(info.name, vars(module))] + [
            (f"{info.name}.{name}", vars(value)) for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__]
        for where, space in spaces:
            for name, value in space.items():
                if isinstance(value, (dict, list, set)):
                    sizes[where, name] = len(value)
    return sizes


def _grown_by_cold_calls():
    """The module-level containers, with their lengths before and after,
    that cold calls of the relations, an initial component and the battery
    at cap 3 grow."""
    before = _module_containers()
    assert before  # the walk sees the package's tables, such as suite.CHECKS
    n, d = 5, (1, 2, 3, 4)
    ideals.plucker_relations(n, d)
    ideals.plucker_relations(n, d, (1, 1, 0, 0))
    g = grading_vector(toric_weight_system(n), d)
    ideals.initial_component(ideals.plucker_relations(n, d), n, d, (1, 1, 1, 0), g)
    suite.run_suite(cap=3)
    after = _module_containers()
    return {key: (before.get(key), size) for key, size in after.items() if before.get(key) != size}


def test_cold_calls_leave_no_module_level_memo():
    # in a new interpreter: a memo that earlier tests warmed would not grow
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import test_cold_start as t; print(t._grown_by_cold_calls())"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{}\n"
