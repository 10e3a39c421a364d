"""Every lru_cache of the package is one the benchmark clears.

``perfbench/workloads.py`` lists the caches in ``LRU_CACHES`` and empties
them before each repetition, so every repetition starts as cold as a new
CLI process. A cache missing from that list would stay warm across
repetitions and show as a speedup that no single run has.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pbwdegen

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
