"""Outside-in tracing: wrap public functions of pbwdegen at layer boundaries.

The wrappers are patched into the module that defines each function and
into every module that imported it by name, and are removed again by
``uninstall``. Each wrapper counts calls and measures inclusive time and
self time (inclusive time minus the time of nested wrapped calls).
Per-element hot calls, such as the wedge actions, are deliberately not
wrapped: their count would make the overhead larger than the effects the
trace is meant to show.
"""

import functools
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    items: int = 0  # size of what was returned, summed over calls
    nnz: int = 0  # nonzeros of returned rows (initial_component)
    useful: int = 0  # non-None returns (Echelon.insert)
    tests: int = 0  # membership tests made inside (random_cone_points)


def _items(stat, result):
    stat.items += len(result)


def _nnz(stat, result):
    stat.nnz += sum(len(row) for row in result.rows)


def _useful(stat, result):
    stat.useful += result is not None


# (module, function, what to record about the result). A dotted function
# name is a method of a class defined in the module.
TRACED = (
    ("weights", "check_cone_membership", None),
    ("weights", "random_cone_points", _items),
    ("degrees", "degree_s", None),
    ("degrees", "grading_vector", None),
    ("fflv", "enumerate_patterns", _items),
    ("tableaux", "enumerate_ssyt", _items),
    ("tableaux", "zeta", None),
    ("tableaux", "tau", None),
    ("ideals", "plucker_relations", None),
    ("ideals", "initial_component", _nnz),
    ("ideals", "component_monomials", _items),
    ("linalg", "Echelon.insert", _useful),
    ("linalg", "Echelon.reduced_rows", None),
    ("representations", "apply_generator", None),
    ("representations", "cyclic_module_dim", None),
    ("tropical", "map_h", None),
    ("tropical", "cone_C_membership", None),
    ("tropical", "in_trop_necessary_check", None),
    ("cli", "main", None),
)


# (function, field) pairs reported as "<function>.<field>".
REPORTED = (
    ("weights.check_cone_membership", "calls"),
    ("weights.random_cone_points", "self_s"),
    ("degrees.degree_s", "calls"),
    ("degrees.degree_s", "incl_s"),
    ("degrees.grading_vector", "incl_s"),
    ("fflv.enumerate_patterns", "self_s"),
    ("fflv.enumerate_patterns", "items"),
    ("tableaux.enumerate_ssyt", "self_s"),
    ("tableaux.enumerate_ssyt", "items"),
    ("tableaux.zeta", "self_s"),
    ("tableaux.tau", "self_s"),
    ("ideals.plucker_relations", "self_s"),
    ("ideals.initial_component", "calls"),
    ("ideals.initial_component", "self_s"),
    ("ideals.initial_component", "nnz"),
    ("ideals.component_monomials", "items"),
    ("linalg.Echelon.insert", "calls"),
    ("linalg.Echelon.insert", "self_s"),
    ("linalg.Echelon.reduced_rows", "self_s"),
    ("representations.apply_generator", "calls"),
    ("representations.apply_generator", "self_s"),
    ("representations.cyclic_module_dim", "incl_s"),
    ("tropical.map_h", "self_s"),
    ("tropical.map_h", "incl_s"),
    ("tropical.cone_C_membership", "self_s"),
    ("tropical.in_trop_necessary_check", "incl_s"),
    ("cli.main", "incl_s"),
)

# Caches whose hit ratio is read from cache_info().
CACHES_REPORTED = (
    ("ideals", "plucker_relations"),
    ("ideals", "component_monomials"),
    ("ideals", "_canonical_rows_cache"),
    ("representations", "_coordinate_degree"),
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Per-layer counters for one traced repetition."""

    def __init__(self, pb):
        self.pb = pb
        self.stats = {}
        self.covered_s = 0.0  # time inside top-level wrapped calls
        self._child_s = []  # time of nested calls, per open wrapped call
        self._patches = []

    def _wrap(self, name, func, record=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._child_s

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stat.calls += 1
                stat.incl_s += elapsed
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
            if record is not None:
                record(stat, result)
            return result

        # ideals._ideal_rows tests the returned list by identity, which the
        # wrapper keeps; cache_info and cache_clear must stay reachable.
        for attr in ("cache_info", "cache_clear"):
            if hasattr(func, attr):
                setattr(wrapper, attr, getattr(func, attr))
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_membership_tests(self, func):
        membership = self.stats["weights.check_cone_membership"]
        sampler = self.stats.setdefault("weights.random_cone_points", Stat())

        def sample(*args, **kwargs):
            before = membership.calls
            try:
                return func(*args, **kwargs)
            finally:
                sampler.tests += membership.calls - before

        return sample

    def install(self):
        modules = [getattr(self.pb, name) for name in self.pb.MODULES]
        for mod_name, func_name, record in TRACED:
            module = getattr(self.pb, mod_name)
            name = f"{mod_name}.{func_name}"
            if "." in func_name:
                cls_name, meth = func_name.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth), record))
                continue
            original = getattr(module, func_name)
            inner = original
            if name == "weights.random_cone_points":
                inner = self._count_membership_tests(original)
            wrapper = self._wrap(name, inner, record)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        suite = self.pb.suite
        checks = list(suite.CHECKS)
        self._patches.append((suite, "CHECKS", checks))
        suite.CHECKS = [(label, self._wrap(f"suite.{f.__name__}", f)) for label, f in checks]

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def metrics(self, wall_s):
        """Per-layer metrics of the traced repetition that took wall_s, as
        name -> (value, unit)."""
        stats = self.stats
        out = {}
        for func, field in REPORTED:
            value = getattr(stats.get(func, Stat()), field)
            out[f"{func}.{field}"] = (value, "s" if field.endswith("_s") else "count")
        sampler = stats.get("weights.random_cone_points", Stat())
        insert = stats.get("linalg.Echelon.insert", Stat())
        out["weights.random_cone_points.accept_ratio"] = (_ratio(sampler.items, sampler.tests), "ratio")
        out["linalg.Echelon.insert.useful_ratio"] = (_ratio(insert.useful, insert.calls), "ratio")
        for mod_name, func_name in CACHES_REPORTED:
            info = getattr(getattr(self.pb, mod_name), func_name).cache_info()
            out[f"{mod_name}.{func_name}.hit_ratio"] = (_ratio(info.hits, info.hits + info.misses), "ratio")
        for _, f in self.pb.suite.CHECKS:
            name = f"suite.{f.__name__}"
            out[f"{name}.incl_s"] = (stats.get(name, Stat()).incl_s, "s")
        out["trace.uncovered_s"] = (wall_s - self.covered_s, "s")
        return out
