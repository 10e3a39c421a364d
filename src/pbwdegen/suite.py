"""Desk-scale verification battery tying all modules together.

Each check returns (ok, detail). The scales are fixed so the whole
battery runs in minutes with exact arithmetic; an optional cap on n
shrinks the battery further; below MIN_CAP some check would run no case,
so such caps are refused. The CLI and the test suite both drive the
same functions.
"""

import random
import time

from . import degrees, fflv, ideals, representations, tableaux, tropical, weights
from .fflv import DominantWeight

# the least cap at which every check still runs at least one case
MIN_CAP = 3


def _dominant_weights(n, total):
    """All dominant weights for sl_n with coefficient sum <= total: the
    zero weight, then the multidegrees over the sizes 1..n-1."""
    coeffs = [(0,) * (n - 1)] + ideals.multidegrees_up_to(range(1, n), total)
    return [DominantWeight(n, c) for c in coeffs]


def _weight_from_mu(n, d, mu):
    coeffs = [0] * (n - 1)
    for k, m in zip(d, mu):
        coeffs[k - 1] = m
    return DominantWeight(n, tuple(coeffs))


def _ns(ns, cap):
    return [n for n in ns if cap is None or n <= cap]


def check_cone_soundness(cap=None):
    """Derived inequalities hold on random triangles filtered to the cone,
    n <= 6."""
    start = time.monotonic()
    rng = random.Random(1)
    hits = drawn = 0
    for n in _ns((3, 4, 5, 6), cap):
        pairs = weights.triangle_pairs(n)
        for _ in range(50):
            A = weights.WeightSystem(
                n, tuple(rng.randint(-3, 3) for _ in pairs)
            )
            drawn += 1
            if not weights.check_cone_membership(A):
                continue
            hits += 1
            if not weights.derived_inequalities_hold(A):
                return False, f"derived inequality fails for n={n}"
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        return False, f"too slow: {elapsed:.2f}s"
    return True, f"{drawn} triangles, {hits} in the cone, {elapsed:.2f}s"


def check_dimension_agreement(cap=None):
    """|patterns| = |tableaux| = Weyl dimension, n <= 5, coefficient sum <= 3."""
    start = time.monotonic()
    cases = 0
    for n in _ns((2, 3, 4, 5), cap):
        for lam in _dominant_weights(n, 3):
            np = fflv.count_patterns(lam)
            ny = tableaux.count_ssyt(lam)
            dim = fflv.weyl_dim(lam)
            if not np == ny == dim:
                return False, f"n={n} lam={lam.coeffs}: {np} vs {ny} vs {dim}"
            cases += 1
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        return False, f"too slow: {elapsed:.1f}s"
    return True, f"{cases} weights agree, {elapsed:.1f}s"


def check_bijection_roundtrip(cap=None):
    """tau and zeta invert each other, n <= 4, coefficient sum <= 2."""
    cases = 0
    for n in _ns((2, 3, 4), cap):
        for lam in _dominant_weights(n, 2):
            failure = tableaux.bijection_failure(lam)
            if failure:
                return False, f"{failure} at n={n} lam={lam.coeffs}"
            cases += 1
    return True, f"{cases} shapes round-trip"


def check_minkowski(cap=None):
    """Pattern sets add under Minkowski sum for fundamental pairs, n <= 4."""
    cases = 0
    for n in _ns((2, 3, 4), cap):
        for k in range(1, n):
            for m in range(k, n):
                lam = DominantWeight.fundamental(n, k)
                mu = DominantWeight.fundamental(n, m)
                if not fflv.minkowski_check(lam, mu):
                    return False, f"fails for omega_{k} + omega_{m}, n={n}"
                cases += 1
    return True, f"{cases} fundamental pairs"


def _flag_setups(cap):
    return [(n, d) for n, d in ((3, (1, 2)), (4, (2,))) if cap is None or n <= cap]


def check_initial_dimensions(cap=None):
    """Graded dimension of each initial ideal matches the Weyl dimension."""
    start = time.monotonic()
    cases = 0
    for n, d in _flag_setups(cap):
        gens = ideals.plucker_relations(n, d)
        for label, A in weights.canonical_weight_systems(n):
            g = degrees.grading_vector(A, d)
            for mu in ideals.multidegrees_up_to(d, 3):
                ring_dim = len(ideals.component_monomials(n, d, mu))
                rank = ideals.initial_component(gens, n, d, mu, g).rank
                want = fflv.weyl_dim(_weight_from_mu(n, d, mu))
                if ring_dim - rank != want:
                    return False, (
                        f"{label} n={n} mu={mu}: {ring_dim}-{rank} != {want}"
                    )
                cases += 1
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        return False, f"too slow: {elapsed:.1f}s"
    return True, f"{cases} components, {elapsed:.1f}s"


def check_classical_recovery(cap=None):
    """Zero weight system leaves every ideal component unchanged."""
    for n, d in _flag_setups(cap):
        gens = ideals.plucker_relations(n, d)
        for mu in ideals.multidegrees_up_to(d, 3):
            plain = ideals.component_basis(gens, n, d, mu).span_key()
            recovered = ideals.classical_component(n, d, mu).span_key()
            if plain != recovered:
                return False, f"n={n} mu={mu} differs"
    return True, "in(I) = I componentwise for the zero system"


def check_quadratic_generation(cap=None):
    """Initial parts of the quadratic relations generate in degree 3, n=3."""
    n, d = 3, (1, 2)
    for label, A in weights.canonical_weight_systems(n):
        for mu in ideals.multidegrees_up_to(d, 3):
            if sum(mu) != 3:
                continue
            if not ideals.quadratic_generation_check(A, n, d, mu):
                return False, f"{label} mu={mu}"
    return True, "all canonical systems, degree 3"


def check_face_degeneration(cap=None):
    """Degenerating along a larger face lands on that face's ideal, n=3."""
    n, d = 3, (1, 2)
    systems = {
        "zero": weights.zero_weight_system(n),
        "abelian": weights.abelian_weight_system(n),
        "toric": weights.toric_weight_system(n),
    }
    pairs = [("zero", "abelian"), ("abelian", "toric"), ("zero", "toric")]
    for name_a, name_b in pairs:
        A, B = systems[name_a], systems[name_b]
        for mu in ideals.multidegrees_up_to(d, 2):
            if not ideals.face_degeneration_check(A, B, n, d, mu):
                return False, f"({name_a}, {name_b}) mu={mu}"
    return True, f"{len(pairs)} face pairs"


def check_toric_detection(cap=None):
    """Interior system: monomial exp coordinates and binomial degree-2
    initial components, n <= 4."""
    for n in _ns((3, 4), cap):
        A = weights.toric_weight_system(n)
        for k in range(1, n):
            coords = representations.exp_coordinates(n, k, A)
            for I in degrees.all_indices(n, (k,)):
                poly = coords.get(I, ideals.GradedPolynomial()).terms
                if len(poly) != 1:
                    return False, f"C_{degrees.index_label(I)} is not a monomial, n={n}"
                (mono,) = poly
                exps = {var[1:]: e for var, e in mono}
                T = degrees.fundamental_pattern(n, I)
                want = {c: T.a(*c) for c in T.support()}
                if exps != want:
                    return False, f"C_{degrees.index_label(I)} exponent mismatch, n={n}"
        d = tuple(range(1, n))
        gens = ideals.plucker_relations(n, d)
        g = degrees.grading_vector(A, d)
        for mu in ideals.multidegrees_up_to(d, 2):
            if sum(mu) != 2:
                continue
            cb = ideals.initial_component(gens, n, d, mu, g)
            if not ideals.is_binomially_spanned(cb):
                return False, f"n={n} mu={mu} not binomial"
    return True, "monomial coordinates and binomial components"


def check_representation_dimensions(cap=None):
    """Cyclic module dimensions equal pattern counts, n <= 4."""
    cases = 0
    for n in _ns((2, 3, 4), cap):
        for label, A in weights.canonical_weight_systems(n):
            for lam in _dominant_weights(n, 2):
                if lam.total() == 0:
                    continue
                # a pattern basis has the pattern count as its dimension,
                # so a module that passes is closed once
                if not representations.fflv_basis_check(A, lam):
                    want = fflv.count_patterns(lam)
                    got = representations.cyclic_module_dim(A, lam)
                    if got != want:
                        return False, f"{label} n={n} lam={lam.coeffs}: {got} != {want}"
                    return False, f"{label} n={n} lam={lam.coeffs}: basis check"
                cases += 1
    return True, f"{cases} modules"


def check_monomial_annihilator(cap=None):
    """The annihilator of the cyclic vector is monomial for interior A, n=3."""
    n = 3
    A = weights.toric_weight_system(n)
    lams = [
        DominantWeight.fundamental(n, 1),
        DominantWeight.fundamental(n, 2),
        DominantWeight(n, (1, 1)),
    ]
    for lam in lams:
        if not representations.annihilator_monomial_check(A, lam):
            return False, f"lam={lam.coeffs}"
    return True, f"{len(lams)} weights"


def check_tropical_cone(cap=None):
    """Image of the cone lands in C, bounded membership tests pass,
    violations yield witnesses in the ideal with monomial initial parts,
    and the degree map is injective."""
    for n in _ns((3, 4, 5), cap):
        points = [A for _, A in weights.canonical_weight_systems(n)]
        points += weights.random_cone_points(n, 50, bound=3, seed=10 + n)
        for A in points:
            ok, bad = tropical.cone_C_membership(tropical.map_h(A))
            if not ok:
                return False, f"h(A) outside C at n={n}: {bad}"
    for n in _ns((3, 4), cap):
        d = tuple(range(1, n))
        names = ("classical", "abelian", "toric")
        for label, A in weights.canonical_weight_systems(n):
            if label not in names:
                continue
            s = tropical.map_h(A)
            if not tropical.in_trop_necessary_check(s, d, 3):
                return False, f"monomial found for {label}, n={n}"
    bad_triangles = [
        (3, {(1, 2): 0, (2, 3): 0, (1, 3): 1}),
        (4, {(1, 2): 0, (2, 3): 0, (3, 4): 0, (1, 3): 2, (2, 4): 0, (1, 4): 0}),
        (4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 3): 0, (2, 4): 0, (1, 4): 2}),
    ]
    for n, values in bad_triangles:
        if cap is not None and n > cap:
            continue
        s = tropical.point_from_triangle(n, values)
        ok, _ = tropical.cone_C_membership(s)
        if ok:
            return False, f"intended violation is in C, n={n}"
        w = tropical.maximality_witness(s)
        if w is None:
            return False, f"no witness, n={n}"
        d = tuple(range(1, n))
        init = ideals.initial_part(w, tropical.grading_from_point(s, d))
        if len(init.terms) != 1:
            return False, f"witness initial part not a monomial, n={n}"
        if not representations.psi_substitution_check([w], n, d):
            return False, f"witness not in the Pluecker ideal, n={n}"
    for n in _ns((2, 3, 4, 5, 6), cap):
        want = n * (n - 1) // 2
        got = tropical.h_image_rank(n)
        if got != want:
            return False, f"rank of h at n={n}: {got} != {want}"
    return True, "membership, bounded checks, witnesses, rank"


def check_psi_substitution(cap=None):
    """Relations vanish under the substitution X_I -> z_k C_I, classical
    for n <= 4 and degenerate for n = 3."""
    for n in _ns((2, 3, 4), cap):
        d = tuple(range(1, n))
        if not representations.psi_substitution_check(ideals.plucker_relations(n, d), n, d):
            return False, f"classical relation survives, n={n}"
    n, d = 3, (1, 2)
    for label, A in weights.canonical_weight_systems(n):
        g = degrees.grading_vector(A, d)
        inits = [ideals.initial_part(rel, g) for rel in ideals.plucker_relations(n, d)]
        if not representations.psi_substitution_check(inits, n, d, A):
            return False, f"initial part survives for {label}"
    return True, "classical and degenerate substitutions vanish"


CHECKS = [
    ("cone soundness", check_cone_soundness),
    ("dimension agreement", check_dimension_agreement),
    ("bijection round-trip", check_bijection_roundtrip),
    ("Minkowski property", check_minkowski),
    ("initial-ideal dimension", check_initial_dimensions),
    ("classical recovery", check_classical_recovery),
    ("quadratic generation", check_quadratic_generation),
    ("face degeneration", check_face_degeneration),
    ("toric detection", check_toric_detection),
    ("representation dimensions", check_representation_dimensions),
    ("monomial annihilator", check_monomial_annihilator),
    ("tropical cone", check_tropical_cone),
    ("psi substitution", check_psi_substitution),
]


def run_suite(cap=None):
    """Run every check; returns a list of (name, ok, detail)."""
    if cap is not None and cap < MIN_CAP:
        raise ValueError(f"cap must be at least {MIN_CAP}, got {cap}")
    return [(name,) + func(cap) for name, func in CHECKS]
