"""Seeded inputs and checked cases for the four benchmark workloads.

A workload is a list of cases. Each case calls the public API of pbwdegen
and returns ``(got, want, canon)``: its answer, the answer an independent
oracle expects, and the canonical text of its output for the result
digest, as an iterable of strings so no large text is held at once.
Inputs come from the seed alone and are built before the timed region;
every seeded weight system is interior, so all seeds reach the same face
of the cone and do the same amount of work.
"""

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

WORKLOADS = ("battery", "ideals", "modules", "combinatorics")

# Every lru_cache in the package; each repetition starts with all of them
# empty, as a fresh CLI process does.
LRU_CACHES = (
    ("ideals", "plucker_relations"),
    ("ideals", "component_monomials"),
    ("ideals", "_canonical_rows_cache"),
    ("representations", "_coordinate_degree"),
    ("fflv", "dyck_paths"),
)

# Full sizes are the benchmark; small sizes keep the benchmark's own test
# within the time of the unit tests.
SIZES = {
    "battery": {
        False: {"argv": ["--format", "json", "suite"]},
        True: {"argv": ["--format", "json", "suite", "--n", "3"]},
    },
    "ideals": {
        False: {"rel_n": 6, "n": 5, "points": 2},
        True: {"rel_n": 4, "n": 3, "points": 1},
    },
    "modules": {
        False: {"cases": [((1, 1, 1, 1), ("classical", "abelian", "toric", "seeded")),
                          ((2, 1, 2), ("classical", "toric"))]},
        True: {"cases": [((1, 1), ("classical", "abelian", "toric", "seeded")),
                         ((2, 1), ("classical", "toric"))]},
    },
    "combinatorics": {
        False: {"enum_n": 6, "roundtrip_n": 5, "cone_n": 11, "points": 2},
        True: {"enum_n": 4, "roundtrip_n": 3, "cone_n": 5, "points": 2},
    },
}


@dataclass
class Case:
    label: str
    run: Callable  # () -> (got, want, iterable of str)


def interior_point(pb, n, rng):
    """The toric system plus a seeded nonnegative integer combination of
    closed-form cone points: abelian, toric and a column-independent
    system a_{i,j} = u_i with u_i >= 0.

    The toric system is interior and each added point lies in the cone,
    so the sum is interior whatever the seed.
    """
    c_abelian = rng.randint(0, 2)
    c_toric = rng.randint(0, 2)
    u = [rng.randint(0, 2) for _ in range(n)]
    A = pb.weights.WeightSystem.from_function(
        n, lambda i, j: (1 + c_toric) * (j - i + 1) * (n - j) + c_abelian + u[i - 1]
    )
    if not pb.weights.check_cone_membership(A) or not pb.weights.is_interior(A):
        raise RuntimeError(f"seeded weight system is not interior: {A.entries}")
    return A


def _systems(pb, n, names, seeded):
    known = {
        "classical": None,
        "abelian": pb.weights.abelian_weight_system(n),
        "toric": pb.weights.toric_weight_system(n),
        "seeded": seeded,
    }
    return [(name, known[name]) for name in names]


def _det(rows):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def flag_minors(matrix):
    """Pluecker coordinates of the flag spanned by the leading columns of
    a square integer matrix: X_I is the minor on rows I, columns 1..|I|."""
    n = len(matrix)
    return {
        rows: _det([[matrix[r - 1][c] for c in range(k)] for r in rows])
        for k in range(1, n)
        for rows in combinations(range(1, n + 1), k)
    }


def make_inputs(pb, workload, seed, small=False):
    """Seeded inputs of one workload. Runs outside the timed region."""
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[workload][small]
    if workload == "battery":
        return {"argv": size["argv"]}
    if workload == "ideals":
        n, rel_n = size["n"], size["rel_n"]
        matrix = [[rng.randint(-3, 3) for _ in range(rel_n)] for _ in range(rel_n)]
        return {
            "rel_n": rel_n,
            "minors": flag_minors(matrix),
            "n": n,
            "systems": pb.weights.canonical_weight_systems(n)
            + [(f"seeded-{t}", interior_point(pb, n, rng)) for t in range(size["points"])],
        }
    if workload == "modules":
        cases = []
        for coeffs, names in size["cases"]:
            n = len(coeffs) + 1
            seeded = interior_point(pb, n, rng)
            cases.append((coeffs, _systems(pb, n, names, seeded)))
        return {"cases": cases}
    if workload == "combinatorics":
        n = size["cone_n"]
        return {
            "enum_n": size["enum_n"],
            "roundtrip_n": size["roundtrip_n"],
            "points": [interior_point(pb, n, rng) for _ in range(size["points"])],
        }
    raise ValueError(f"unknown workload {workload!r}")


# -- cases -------------------------------------------------------------------


def _battery_cases(pb, inputs):
    argv = inputs["argv"]

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            code = pb.cli.main(list(argv))
        verdicts = [(r["check"], r["ok"]) for r in json.loads(out.getvalue())["result"]]
        want = (0, [(name, True) for name, _ in pb.suite.CHECKS])
        return (code, verdicts), want, [repr(verdicts)]

    return [Case("suite", run)]


def _ideals_cases(pb, inputs):
    fflv, ideals = pb.fflv, pb.ideals
    rel_n, minors = inputs["rel_n"], inputs["minors"]

    def relations():
        rels = ideals.plucker_relations(rel_n, tuple(range(1, rel_n)))
        values = []
        for rel in rels:
            total = 0
            for mono, coeff in rel.terms.items():
                term = coeff
                for elems, exp in mono:
                    term *= minors[elems] ** exp
                total += term
            values.append(total)
        # Pluecker relations vanish on every flag; an empty list would too.
        return (bool(rels), values), (True, [0] * len(rels)), (repr(r.key()) for r in rels)

    cases = [Case(f"plucker_relations n={rel_n}", relations)]
    n = inputs["n"]
    d = tuple(range(1, n))
    mus = [mu for mu in ideals.multidegrees_up_to(d, 3) if sum(mu) >= 2]
    gradings = {}

    def component(label, A, mu):
        def run():
            if label not in gradings:
                gradings[label] = pb.degrees.grading_vector(A, d)
            gens = ideals.plucker_relations(n, d)
            ring_dim = len(ideals.component_monomials(n, d, mu))
            cb = ideals.initial_component(gens, n, d, mu, gradings[label])
            coeffs = [0] * (n - 1)
            for k, m in zip(d, mu):
                coeffs[k - 1] = m
            want = fflv.weyl_dim(fflv.DominantWeight(n, tuple(coeffs)))
            return ring_dim - cb.rank, want, map(repr, sorted(cb.span_key()))

        return Case(f"initial_component {label} mu={mu}", run)

    for label, A in inputs["systems"]:
        cases.extend(component(label, A, mu) for mu in mus)
    return cases


def _modules_cases(pb, inputs):
    fflv, rep = pb.fflv, pb.representations

    def module(coeffs, label, A):
        def run():
            lam = fflv.DominantWeight(len(coeffs) + 1, coeffs)
            dim = rep.cyclic_module_dim(A, lam)
            return dim, fflv.weyl_dim(lam), [str(dim)]

        return Case(f"cyclic_module_dim lam={coeffs} {label}", run)

    return [module(coeffs, label, A)
            for coeffs, systems in inputs["cases"] for label, A in systems]


def _combinatorics_cases(pb, inputs):
    fflv, tableaux, tropical = pb.fflv, pb.tableaux, pb.tropical
    enum_lam = fflv.DominantWeight(inputs["enum_n"], (1,) * (inputs["enum_n"] - 1))
    trip_lam = fflv.DominantWeight(inputs["roundtrip_n"], (1,) * (inputs["roundtrip_n"] - 1))

    def patterns():
        pats = fflv.enumerate_patterns(enum_lam)
        return len(pats), fflv.weyl_dim(enum_lam), (repr(T.entries) for T in pats)

    def ssyt():
        tabs = tableaux.enumerate_ssyt(enum_lam)
        return len(tabs), fflv.weyl_dim(enum_lam), (repr(Y.columns) for Y in tabs)

    def roundtrip():
        pats = fflv.enumerate_patterns(trip_lam)
        back = [tableaux.tau(tableaux.zeta(T, trip_lam)).entries for T in pats]
        return back, [T.entries for T in pats], map(repr, back)

    def cone(A):
        def run():
            point = tropical.map_h(A)
            ok, _ = tropical.cone_C_membership(point)
            return ok, True, map(repr, sorted(point.s.items()))

        return run

    cases = [
        Case(f"enumerate_patterns n={inputs['enum_n']}", patterns),
        Case(f"enumerate_ssyt n={inputs['enum_n']}", ssyt),
        Case(f"tau(zeta(T)) n={inputs['roundtrip_n']}", roundtrip),
    ]
    cases += [Case(f"cone_C_membership(map_h) point {t}", cone(A))
              for t, A in enumerate(inputs["points"])]
    return cases


_CASE_MAKERS = {
    "battery": _battery_cases,
    "ideals": _ideals_cases,
    "modules": _modules_cases,
    "combinatorics": _combinatorics_cases,
}


def build_cases(pb, workload, inputs):
    """The cases of one repetition; nothing runs until a case is called."""
    return _CASE_MAKERS[workload](pb, inputs)
