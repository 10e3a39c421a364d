"""Desk-scale verification battery tying all modules together.

Each check yields its cases as (failure text, ok); one runner, _check,
makes it a function check(cap) -> (ok, detail). The runner counts the
cases, stops at the first failing one and returns its text (later cases
may rely on earlier ones having held), fails a check that ran no case
with "no case ran", and fails one slower than its time bound. A passing
detail reads "<count> <noun>, <seconds>s". The whole battery runs in well
under a second with exact arithmetic; an optional cap on n shrinks it
further, and below MIN_CAP some check would run no case, so such caps are
refused. The CLI and the test suite both drive the same functions.
"""

import functools
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


def _check(noun, bound=None):
    """Make a generator of (failure text, ok) cases into check(cap) ->
    (ok, detail), timed against bound seconds when one is given."""
    def wrap(cases):
        @functools.wraps(cases)
        def check(cap=None):
            start = time.monotonic()
            count = 0
            for failure, ok in cases(cap):
                if not ok:
                    return False, failure
                count += 1
            elapsed = time.monotonic() - start
            if not count:
                return False, "no case ran"
            if bound is not None and elapsed >= bound:
                return False, f"too slow: {elapsed:.2f}s"
            return True, f"{count} {noun}, {elapsed:.2f}s"
        return check
    return wrap


@_check("triangles", bound=1.0)
def check_cone_soundness(cap):
    """Derived inequalities hold on triangles of the cone: 50 seeded cone
    points at each n = 3, 4, 5, 6."""
    for n in _ns((3, 4, 5, 6), cap):
        for A in weights.random_cone_points(n, 50, seed=1):
            yield f"derived inequality fails for n={n}", weights.derived_inequalities_hold(A)


@_check("weights", bound=30.0)
def check_dimension_agreement(cap):
    """|patterns| = |tableaux| = Weyl dimension, n <= 5, coefficient sum <= 3."""
    for n in _ns((2, 3, 4, 5), cap):
        for lam in _dominant_weights(n, 3):
            np = fflv.count_patterns(lam)
            ny = tableaux.count_ssyt(lam)
            dim = fflv.weyl_dim(lam)
            yield f"n={n} lam={lam.coeffs}: {np} vs {ny} vs {dim}", np == ny == dim


@_check("shapes")
def check_bijection_roundtrip(cap):
    """tau and zeta invert each other, n <= 4, coefficient sum <= 2."""
    for n in _ns((2, 3, 4), cap):
        for lam in _dominant_weights(n, 2):
            failure = tableaux.bijection_failure(lam)
            yield f"{failure} at n={n} lam={lam.coeffs}", not failure


@_check("fundamental pairs")
def check_minkowski(cap):
    """Pattern sets add under Minkowski sum for fundamental pairs, n <= 4."""
    for n in _ns((2, 3, 4), cap):
        for k in range(1, n):
            for m in range(k, n):
                lam = DominantWeight.fundamental(n, k)
                mu = DominantWeight.fundamental(n, m)
                yield f"fails for omega_{k} + omega_{m}, n={n}", fflv.minkowski_check(lam, mu)


def _flag_setups(cap):
    return [(n, d) for n, d in ((3, (1, 2)), (4, (2,))) if cap is None or n <= cap]


@_check("components", bound=300.0)
def check_initial_dimensions(cap):
    """Graded dimension of each initial ideal matches the Weyl dimension."""
    for n, d in _flag_setups(cap):
        gens = ideals.plucker_relations(n, d)
        for label, A in weights.canonical_weight_systems(n):
            g = degrees.grading_vector(A, d)
            for mu in ideals.multidegrees_up_to(d, 3):
                ring_dim = len(ideals.component_monomials(n, d, mu))
                rank = ideals.initial_component(gens, n, d, mu, g).rank
                want = fflv.weyl_dim(_weight_from_mu(n, d, mu))
                yield (f"{label} n={n} mu={mu}: {ring_dim}-{rank} != {want}",
                       ring_dim - rank == want)


@_check("components")
def check_classical_recovery(cap):
    """Zero weight system leaves every ideal component unchanged."""
    for n, d in _flag_setups(cap):
        gens = ideals.plucker_relations(n, d)
        g = degrees.grading_vector(weights.zero_weight_system(n), d)
        for mu in ideals.multidegrees_up_to(d, 3):
            # an unmarked copy is reduced afresh, not served from the cache
            plain = ideals.component_basis(list(gens), n, d, mu).span_key()
            recovered = ideals.initial_component(gens, n, d, mu, g).span_key()
            yield f"n={n} mu={mu} differs", plain == recovered


@_check("components")
def check_quadratic_generation(cap):
    """Initial parts of the quadratic relations generate in degree 3, n=3."""
    n, d = 3, (1, 2)
    for label, A in weights.canonical_weight_systems(n):
        for mu in ideals.multidegrees_up_to(d, 3):
            if sum(mu) == 3:
                yield f"{label} mu={mu}", ideals.quadratic_generation_check(A, n, d, mu)


@_check("components")
def check_face_degeneration(cap):
    """Degenerating along a larger face lands on that face's ideal, n=3."""
    n, d = 3, (1, 2)
    systems = {
        "zero": weights.zero_weight_system(n),
        "abelian": weights.abelian_weight_system(n),
        "toric": weights.toric_weight_system(n),
    }
    for name_a, name_b in [("zero", "abelian"), ("abelian", "toric"), ("zero", "toric")]:
        A, B = systems[name_a], systems[name_b]
        for mu in ideals.multidegrees_up_to(d, 2):
            yield f"({name_a}, {name_b}) mu={mu}", ideals.face_degeneration_check(A, B, n, d, mu)


@_check("conditions")
def check_toric_detection(cap):
    """Interior system: monomial exp coordinates and binomial degree-2
    initial components, n <= 4."""
    for n in _ns((3, 4), cap):
        A = weights.toric_weight_system(n)
        for k in range(1, n):
            coords = representations.exp_coordinates(n, k, A)
            for I in degrees.all_indices(n, (k,)):
                poly = coords.get(I, {})
                yield f"C_{degrees.index_label(I)} is not a monomial, n={n}", len(poly) == 1
                (word,) = poly
                T = degrees.fundamental_pattern(n, I)
                want = tuple(x for x, c in enumerate(weights.triangle_pairs(n))
                             for _ in range(T.a(*c)))
                yield f"C_{degrees.index_label(I)} exponent mismatch, n={n}", word == want
        d = tuple(range(1, n))
        gens = ideals.plucker_relations(n, d)
        g = degrees.grading_vector(A, d)
        for mu in ideals.multidegrees_up_to(d, 2):
            if sum(mu) == 2:
                cb = ideals.initial_component(gens, n, d, mu, g)
                yield f"n={n} mu={mu} not binomial", ideals.is_binomially_spanned(cb)


@_check("modules")
def check_representation_dimensions(cap):
    """Cyclic module dimensions equal pattern counts, n <= 4."""
    for n in _ns((2, 3, 4), cap):
        # the patterns of each weight, walked once for all systems
        lams = [(lam, fflv.pattern_entries(lam)) for lam in _dominant_weights(n, 2) if lam.total()]
        for label, A in weights.canonical_weight_systems(n):
            for lam, patterns in lams:
                # fflv_basis_check on the walked patterns: a pattern basis
                # has the pattern count as its dimension, so a module that
                # passes is closed once
                ok = representations.essential_closure(A, lam)[0] == patterns
                failure = f"{label} n={n} lam={lam.coeffs}: "
                if not ok:
                    got = representations.cyclic_module_dim(A, lam)
                    failure += f"{got} != {len(patterns)}" if got != len(patterns) else "basis check"
                yield failure, ok


@_check("weights")
def check_monomial_annihilator(cap):
    """The annihilator of the cyclic vector is monomial for interior A, n=3."""
    n = 3
    A = weights.toric_weight_system(n)
    for coeffs in ((1, 0), (0, 1), (1, 1)):
        lam = DominantWeight(n, coeffs)
        yield f"lam={lam.coeffs}", representations.annihilator_monomial_check(A, lam)


@_check("conditions")
def check_tropical_cone(cap):
    """Image of the cone lands in C, bounded membership tests pass,
    violations yield witnesses in the ideal with monomial initial parts,
    and the degree map is injective."""
    for n in _ns((3, 4, 5), cap):
        points = [A for _, A in weights.canonical_weight_systems(n)]
        points += weights.random_cone_points(n, 50, seed=10 + n)
        for A in points:
            ok, bad = tropical.cone_C_membership(tropical.map_h(A))
            yield f"h(A) outside C at n={n}: {bad}", ok
    for n in _ns((3, 4), cap):
        d = tuple(range(1, n))
        for label, A in weights.canonical_weight_systems(n):
            if label in ("classical", "abelian", "toric"):
                yield (f"monomial found for {label}, n={n}",
                       tropical.in_trop_necessary_check(tropical.map_h(A), d, 3))
    bad_triangles = [
        (3, {(1, 2): 0, (2, 3): 0, (1, 3): 1}),
        (4, {(1, 2): 0, (2, 3): 0, (3, 4): 0, (1, 3): 2, (2, 4): 0, (1, 4): 0}),
        (4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 3): 0, (2, 4): 0, (1, 4): 2}),
    ]
    for n, values in bad_triangles:
        if cap is not None and n > cap:
            continue
        s = tropical.point_from_triangle(n, values)
        yield f"intended violation is in C, n={n}", not tropical.cone_C_membership(s)[0]
        w = tropical.maximality_witness(s)
        yield f"no witness, n={n}", w is not None
        d = tuple(range(1, n))
        init = ideals.initial_part(w, tropical.grading_from_point(s, d))
        yield f"witness initial part not a monomial, n={n}", len(init.terms) == 1
        yield (f"witness not in the Pluecker ideal, n={n}",
               representations.psi_substitution_check([w], n, d))
    for n in _ns((2, 3, 4, 5, 6), cap):
        want = n * (n - 1) // 2
        got = tropical.h_image_rank(n)
        yield f"rank of h at n={n}: {got} != {want}", got == want


@_check("substitutions")
def check_psi_substitution(cap):
    """Relations vanish under the substitution X_I -> z_k C_I, classical
    for n <= 4 and degenerate for n = 3."""
    for n in _ns((2, 3, 4), cap):
        d = tuple(range(1, n))
        yield (f"classical relation survives, n={n}",
               representations.psi_substitution_check(ideals.plucker_relations(n, d), n, d))
    n, d = 3, (1, 2)
    for label, A in weights.canonical_weight_systems(n):
        g = degrees.grading_vector(A, d)
        inits = [ideals.initial_part(rel, g) for rel in ideals.plucker_relations(n, d)]
        yield (f"initial part survives for {label}",
               representations.psi_substitution_check(inits, n, d, A))


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
