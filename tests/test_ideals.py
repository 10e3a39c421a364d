import hashlib
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_echelon import FractionEchelon, canonical_rows
from fraction_relations import exchange_relation, fraction_plucker_relations, normalize_index
from reference_components import column_grades as reference_column_grades
from reference_components import component_monomials as reference_component_monomials
from reference_components import mono_mul, pair_sorted_id_monomials
from reference_kernel import images_rank, toric_kernel_key
from reference_sampling import slack_point
from pbwdegen import ideals, linalg, tropical
from pbwdegen.degrees import all_indices, degree_s, grading_vector
from pbwdegen.fflv import DominantWeight, weyl_dim
from pbwdegen.linalg import pivot_one
from pbwdegen.representations import psi_images, psi_vanishes
from pbwdegen.tropical import TropicalPoint, map_h
from pbwdegen.ideals import (
    GradedPolynomial,
    component_basis,
    component_monomials,
    contains_monomial,
    face_degeneration_check,
    initial_component,
    initial_part,
    is_binomially_spanned,
    mono_grade,
    mono_str,
    multidegrees_up_to,
    pair_monomials,
    plucker_relations,
    quadratic_generation_check,
    relation_exchanges,
    relation_pairs,
)
from pbwdegen.weights import (
    abelian_weight_system,
    canonical_weight_systems,
    face_contains,
    face_signature,
    is_interior,
    random_cone_points,
    toric_weight_system,
    WeightSystem,
    zero_weight_system,
)


def test_normalize_index():
    I, sign = normalize_index(4, (3, 1))
    assert I == (1, 3) and sign == -1
    I, sign = normalize_index(4, (2, 3, 4))
    assert I == (2, 3, 4) and sign == 1
    I, sign = normalize_index(4, (2, 2))
    assert I is None and sign == 0


def test_normalize_index_sign_is_inversion_parity():
    for k in range(1, 6):
        for seq in permutations(range(1, k + 1)):
            inversions = sum(a > b for a, b in combinations(seq, 2))
            I, sign = normalize_index(6, seq)
            assert I == tuple(range(1, k + 1))
            assert sign == (-1) ** inversions
            # the builder's own sorting agrees with the reference
            assert ideals._sort_sign(seq) == (I, sign)
    assert normalize_index(6, (3, 1, 3)) == (None, 0)
    assert ideals._sort_sign((3, 1, 3)) == (None, 0)


def _all_sizes(n):
    return [d for r in range(1, n) for d in combinations(range(1, n), r)]


@pytest.mark.parametrize(
    "n, d",
    [(n, d) for n in range(2, 6) for d in _all_sizes(n)]
    + [(6, (1, 2, 3, 4, 5)), (6, (3,)), (6, (2, 4))],
)
def test_relations_match_fraction_reference(n, d):
    ours = plucker_relations(n, d)
    ref = fraction_plucker_relations(n, d)
    assert len(ours) == len(ref)
    for rel, want in zip(ours, ref):
        # same monomials in the same order, so every output is byte-identical
        assert list(rel.terms.items()) == list(want.terms.items())
        assert all(type(c) is Fraction for c in rel.terms.values())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exchange_with_a_rest_entry_in_i(n):
    # plucker_relations draws rests off i: an exchange of i with
    # block + rest whose rest holds r in i is zero when the block has
    # p - 1 entries, else +-1 times the one with r moved into the block
    ground = range(1, n + 1)
    moved = zero = 0
    for p in range(2, n):
        for q in range(1, p + 1):
            for i_set in combinations(ground, p):
                for k in range(1, min(q, p - 1) + 1):
                    for block in combinations(ground, k):
                        if set(block) <= set(i_set):
                            continue
                        off = [v for v in ground if v not in block]
                        for rest in combinations(off, q - k):
                            for gamma, r in enumerate(rest):
                                if r not in i_set:
                                    continue
                                rel = exchange_relation(n, i_set, block + rest, k)
                                if k == p - 1:
                                    assert not rel
                                    zero += 1
                                    continue
                                new_block = tuple(sorted(block + (r,)))
                                beta = new_block.index(r)
                                new_rest = rest[:gamma] + rest[gamma + 1 :]
                                want = exchange_relation(n, i_set, new_block + new_rest, k + 1)
                                assert rel == want.scale((-1) ** (k + gamma - beta))
                                moved += bool(rel)
    assert zero and (moved or n == 3)  # at n=3 every block has p - 1 = 1 entry


def _det(rows):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    size, sign, prev = len(m), 1, 1
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


@st.composite
def flags(draw):
    n = draw(st.integers(3, 6))
    d = tuple(sorted(draw(st.sets(st.integers(1, n - 1), min_size=1))))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, d, seed


@settings(derandomize=True, max_examples=40, deadline=None)
@given(flags())
def test_relations_vanish_on_flag_minors(case):
    """X_I = minor on rows I and the first |I| columns of an integer
    matrix; every Pluecker relation vanishes there."""
    import random

    n, d, seed = case
    rng = random.Random(seed)
    M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    minors = {
        I: _det([M[i - 1][:k] for i in I])
        for k in d
        for I in combinations(range(1, n + 1), k)
    }
    for rel in plucker_relations(n, d):
        total = 0
        for mono, coeff in rel.terms.items():
            term = coeff
            for elems, exp in mono:
                term *= minors[elems] ** exp
            total += term
        assert total == 0


def test_marked_relations_take_the_cached_rows():
    n, d, mu = 4, (1, 2, 3), (1, 1, 1)
    rels = plucker_relations(n, d)
    copy = tuple(GradedPolynomial(dict(r.terms)) for r in rels)
    assert copy is not rels and copy == rels
    g = grading_vector(toric_weight_system(n), d)
    want = initial_component(rels, n, d, mu, g).span_key()
    hits = ideals._canonical_rows_cache.cache_info().hits
    assert initial_component(rels, n, d, mu, g).span_key() == want
    assert ideals._canonical_rows_cache.cache_info().hits == hits + 1
    # an unmarked copy and a proper subset are spanned afresh
    assert initial_component(copy, n, d, mu, g).span_key() == want
    part = initial_component(rels[1:], n, d, mu, g)
    assert ideals._canonical_rows_cache.cache_info().hits == hits + 1
    assert part.rank <= len(want)
    # only the full relation set of (n, d) carries the mark
    assert rels.ideal == (n, d) and plucker_relations(n, d, mu).ideal is None


def _refuse(*args):
    raise AssertionError("built the Pluecker relations")


def test_other_generators_do_not_build_the_relations(monkeypatch):
    n, d, mu = 4, (2,), (2,)
    rels = plucker_relations(n, d)
    g = grading_vector(toric_weight_system(n), d)
    want = component_basis(rels, n, d, mu).span_key()
    want_initial = initial_component(rels, n, d, mu, g).span_key()
    monkeypatch.setattr(ideals, "plucker_relations", _refuse)
    copy = [GradedPolynomial(dict(r.terms)) for r in rels]
    assert component_basis(copy, n, d, mu).span_key() == want
    assert initial_component(copy, n, d, mu, g).span_key() == want_initial
    x12_x34 = GradedPolynomial({(((1, 2), 1), ((3, 4), 1)): 1})
    assert component_basis([x12_x34], n, d, mu).rank == 1
    # n=9, d=(4): the relation set would take seconds to build
    assert component_basis([], 9, (4,), (1,)).rank == 0


def test_relation_pairs_that_fit_mu():
    d = (1, 2, 3)
    assert relation_pairs(d) == [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]  # (1, 1) has no block
    # e_p + e_q <= mu: a pair of equal sizes needs that size twice
    assert relation_pairs(d, (1, 1, 0)) == [(2, 1)]
    assert relation_pairs(d, (0, 2, 1)) == [(2, 2), (3, 2)]
    assert relation_pairs(d, (0, 1, 0)) == []
    # with mu, plucker_relations keeps exactly the relations that fit mu
    for n, d, bound in [(4, d, 3), (5, (1, 2, 3, 4), 2)]:
        full = plucker_relations(n, d)
        for mu in multidegrees_up_to(d, bound):
            fit = [r for r in full if all(a <= b for a, b in zip(r.multidegree(d), mu))]
            got = plucker_relations(n, d, mu)
            assert got == tuple(fit), mu
            # terms in the same order too, so the outputs are byte-identical
            assert [list(r.terms.items()) for r in got] == [list(r.terms.items()) for r in fit]


def _loop_exchanges(n, d, mu=None):
    """The exchanges plucker_relations' loop examines, one at a time: an
    index i, a block not inside i, of one entry only past max(i), and a
    rest off block and i."""
    ground = range(1, n + 1)
    count = 0
    for p, q in relation_pairs(d, mu):
        for i in combinations(ground, p):
            for k in range(1, min(q, p - 1) + 1):
                for block in combinations(ground, k):
                    if set(block) <= set(i) or (k == 1 and block[0] < i[-1]):
                        continue
                    off = [v for v in ground if v not in block and v not in i]
                    count += sum(1 for _ in combinations(off, q - k))
    return count


def test_relation_exchanges_count_the_loop():
    for n in range(2, 8):
        for size in range(1, n):
            for d in combinations(range(1, n), size):
                assert relation_exchanges(n, d) == _loop_exchanges(n, d), (n, d)
    for n, d, mu in [(5, (2,), (2,)), (5, (2,), (1,)), (6, (2, 3), (1, 1)),
                     (6, (2, 3), (0, 2)), (6, (1, 2, 3), (2, 0, 1)),
                     (7, (1, 3, 5), (1, 1, 0)), (7, (3, 4), (0, 0))]:
        assert relation_exchanges(n, d, mu) == _loop_exchanges(n, d, mu), (n, d, mu)
    # the full flag at n = 6, 7, 8 and the middle Grassmannian at n = 12
    assert [relation_exchanges(n, tuple(range(1, n))) for n in (6, 7, 8)] == [1638, 10312, 59195]
    assert relation_exchanges(12, (6,)) == 6594456


def test_one_entry_exchanges_of_the_same_entries_agree_up_to_sign():
    """The premise of plucker_relations' one-entry skip, on the Fraction
    reference: for n <= 6, every size pair p >= q, p >= 2, every U of p + 1
    entries, every W of q - 1 entries off U and every s in U, the exchange
    of U - s with the block {s} and rest W is (-1)**alpha(s) times one sum,
    alpha the rank in U, so +-1 times the one of s = max U."""
    cases = 0
    for n in range(3, 7):
        ground = range(1, n + 1)
        for p, q in relation_pairs(tuple(range(1, n))):
            for U in combinations(ground, p + 1):
                for W in combinations([v for v in ground if v not in U], q - 1):
                    top = exchange_relation(n, U[:-1], (U[-1],) + W, 1)
                    assert len(top.terms) == p + 1
                    for alpha, s in enumerate(U[:-1]):
                        i = tuple(v for v in U if v != s)
                        assert exchange_relation(n, i, (s,) + W, 1) == top.scale((-1) ** (alpha - p))
                        cases += 1
    assert cases == 508


def test_initial_component_from_the_relations_that_fit_mu():
    """Only relations of multidegree <= mu reach the component, so building
    just those gives the component of the full generating set. Every
    canonical system at n=4, every multidegree of degree <= 3."""
    n, d = 4, (1, 2, 3)
    gens = plucker_relations(n, d)
    for _, A in canonical_weight_systems(n):
        g = grading_vector(A, d)
        for mu in multidegrees_up_to(d, 3):
            fit = initial_component(plucker_relations(n, d, mu), n, d, mu, g)
            full = initial_component(gens, n, d, mu, g)
            assert (fit.monomials, fit.rows) == (full.monomials, full.rows), mu


def test_grade_lookup_by_elems_is_not_a_field():
    d = (1, 2, 3)
    A = toric_weight_system(4)
    g = grading_vector(A, d)
    indices = all_indices(4, d)
    assert list(g) == indices
    basis = component_monomials(4, d, (1, 1, 1))
    grades = ideals._column_grades(basis, g, 4, d)
    for m, pairs, grade in zip(basis, pair_monomials(4, d, basis), grades):
        assert mono_grade(pairs, g) == sum(e * degree_s(A, elems) for elems, e in pairs)
        assert grade == sum(degree_s(A, indices[i]) for i in m)


def test_trivial_relation_sets():
    assert plucker_relations(2, (1,)) == ()
    assert plucker_relations(3, (1,)) == ()


def test_cached_relations_cannot_be_changed():
    rels = plucker_relations(3, (1, 2))
    assert rels is plucker_relations(3, (1, 2))
    with pytest.raises(AttributeError):
        rels.append(rels[0])
    with pytest.raises(TypeError):
        rels[0] = rels[0]
    assert len(plucker_relations(3, (1, 2))) == 1


def test_flag_three_relation():
    rels = plucker_relations(3, (1, 2))
    assert len(rels) == 1
    (rel,) = rels
    terms = {mono_str(m): c for m, c in rel.terms.items()}
    assert terms == {
        "X_{1}*X_{2,3}": Fraction(1),
        "X_{1,2}*X_{3}": Fraction(1),
        "X_{1,3}*X_{2}": Fraction(-1),
    }


def test_klein_quadric():
    rels = plucker_relations(4, (2,))
    assert len(rels) == 1
    (rel,) = rels
    assert len(rel.terms) == 3
    assert rel.multidegree((2,)) == (2,)


def test_component_dimensions_classical():
    # graded dimension of the coordinate ring = Weyl dimension
    cases = [
        ((1, 0), 3),
        ((0, 1), 3),
        ((1, 1), 8),
        ((2, 1), 15),
    ]
    n, d = 3, (1, 2)
    gens = plucker_relations(n, d)
    for mu, dim in cases:
        total = len(component_monomials(n, d, mu))
        rank = component_basis(gens, n, d, mu).rank
        assert total - rank == dim


def test_linear_components_are_empty():
    gens = plucker_relations(3, (1, 2))
    assert component_basis(gens, 3, (1, 2), (1, 0)).rank == 0
    assert component_basis(gens, 3, (1, 2), (0, 1)).rank == 0


def test_full_flag_four_component_rank():
    # 4 * 6 * 4 = 96 monomials, dim L = 64, so the ideal has rank 32
    n, d, mu = 4, (1, 2, 3), (1, 1, 1)
    gens = plucker_relations(n, d)
    assert len(component_monomials(n, d, mu)) == 96
    assert component_basis(gens, n, d, mu).rank == 32


def test_quadratic_generation_full_flag_four():
    A = toric_weight_system(4)
    assert quadratic_generation_check(A, 4, (1, 2, 3), (1, 1, 1))


def test_ssyt_monomials_complement_the_ideal():
    """Products of the column variables of PBW semistandard tableaux form
    a basis of the quotient component."""
    from pbwdegen.linalg import Echelon
    from pbwdegen.tableaux import enumerate_ssyt

    setups = [(3, (1, 2), (1, 1)), (3, (1, 2), (2, 1)), (4, (2,), (2,))]
    for n, d, mu in setups:
        coeffs = [0] * (n - 1)
        for k, m in zip(d, mu):
            coeffs[k - 1] = m
        lam = DominantWeight(n, tuple(coeffs))
        cb = component_basis(plucker_relations(n, d), n, d, mu)
        col = {m: idx for idx, m in enumerate(cb.monomials)}
        ids = {I: i for i, I in enumerate(all_indices(n, d))}
        ech = Echelon()
        for row in cb.rows:
            ech.insert(dict(row))
        added = 0
        for Y in enumerate_ssyt(lam):
            # one id per column, the ids of equal columns repeated
            mono = tuple(sorted(ids[tuple(sorted(set(c)))] for c in Y.columns))
            if ech.insert({col[mono]: Fraction(1)}) is not None:
                added += 1
        assert added == len(enumerate_ssyt(lam))
        assert added == len(cb.monomials) - cb.rank


@pytest.mark.parametrize("n, bound, toric_only", [(3, 3, False), (4, 3, False), (5, 2, True)])
def test_initial_components_are_kernels_of_psi(n, bound, toric_only):
    """in_A(I)_mu = ker(psi_A)_mu on every canonical system of the full
    flag, up to degree bound: psi_A kills every RREF row, the images of
    the monomials have the Weyl dimension as rank, and at the toric point
    the rows are the closed form of the kernel, signs included."""
    d = tuple(range(1, n))
    gens = plucker_relations(n, d)
    toric = 0
    for label, A in canonical_weight_systems(n):
        if toric_only and label != "toric":
            continue
        g = grading_vector(A, d)
        images = psi_images(n, d, A)
        for mu in multidegrees_up_to(d, bound):
            cb = initial_component(gens, n, d, mu, g)
            assert psi_vanishes(cb.row_polynomials(), images), (label, mu)
            coeffs = [0] * (n - 1)
            for k, m in zip(d, mu):
                coeffs[k - 1] = m
            want = weyl_dim(DominantWeight(n, tuple(coeffs)))
            assert images_rank(n, d, mu, A) == want == len(cb.monomials) - cb.rank, (label, mu)
            if label == "toric":
                assert cb.span_key() == toric_kernel_key(n, d, mu), mu
                toric += 1
    assert toric == len(multidegrees_up_to(d, bound))


def test_toric_kernel_key_carries_the_signs():
    """The closed form is not sign-blind: at n=4 some word class pairs
    monomials of opposite sign, so a row reads e_c + e_c'."""
    d, mu = (1, 2, 3), (1, 1, 1)
    key = toric_kernel_key(4, d, mu)
    assert {row[1][1] for row in key} == {1, -1}


def test_initial_part_min_convention():
    (rel,) = plucker_relations(3, (1, 2))
    g = grading_vector(abelian_weight_system(3), (1, 2))
    init = initial_part(rel, g)
    # X_1 X_23 and X_12 X_3 have grade 1, X_13 X_2 has grade 2
    names = {mono_str(m) for m in init.terms}
    assert names == {"X_{1}*X_{2,3}", "X_{1,2}*X_{3}"}


def test_zero_grading_recovers_ideal():
    """The zero grading gives the component as a fresh reduction of an
    unmarked copy of the relations spans it, not the cached basis."""
    n, d = 3, (1, 2)
    gens = plucker_relations(n, d)
    for mu in multidegrees_up_to(d, 3):
        plain = component_basis(list(gens), n, d, mu)
        assert plain is not component_basis(gens, n, d, mu)
        recovered = initial_component(gens, n, d, mu, grading_vector(zero_weight_system(n), d))
        assert recovered.span_key() == plain.span_key()


def test_toric_component_is_binomial():
    n, d = 4, (2,)
    g = grading_vector(toric_weight_system(n), d)
    cb = initial_component(plucker_relations(n, d), n, d, (2,), g)
    assert cb.rank == 1
    assert is_binomially_spanned(cb)
    assert contains_monomial(cb) is None


def test_contains_monomial_detects_unit_rows():
    n, d, mu = 3, (1, 2), (1, 1)
    basis = pair_monomials(n, d, component_monomials(n, d, mu))
    fake = GradedPolynomial({basis[0]: Fraction(1)})
    cb = component_basis((fake,), n, d, mu)
    assert contains_monomial(cb) == basis[0]


def test_quadratic_generation_n3():
    A = abelian_weight_system(3)
    assert quadratic_generation_check(A, 3, (1, 2), (2, 1))
    assert quadratic_generation_check(A, 3, (1, 2), (1, 2))


def test_face_degeneration_requires_nested_faces():
    A = toric_weight_system(3)  # interior
    B = zero_weight_system(3)  # minimal face
    with pytest.raises(ValueError):
        face_degeneration_check(A, B, 3, (1, 2), (1, 1))


def test_face_degeneration_positive():
    A = zero_weight_system(3)
    B = abelian_weight_system(3)
    assert face_degeneration_check(A, B, 3, (1, 2), (1, 1))


def _face_points(n):
    """A point on every face of the cone, from superdiagonal 1 and slack 1
    on each inequality off the face's tight set."""
    count = (n - 1) * (n - 2) // 2  # one inequality per entry off the superdiagonal
    points = []
    for tight in product((True, False), repeat=count):
        slacks = iter([0 if t else 1 for t in tight])
        points.append(slack_point(n, [1] * (n - 1), lambda: next(slacks)))
    return points


def test_quadratic_generation_on_every_face_n4():
    n, d = 4, (1, 2, 3)
    points = _face_points(n)
    assert len({face_signature(A) for A in points}) == 8
    mus = [mu for mu in multidegrees_up_to(d, 3) if sum(mu) == 3]
    for A in points:
        for mu in mus:
            assert quadratic_generation_check(A, n, d, mu), (face_signature(A), mu)


def test_quadratic_generation_reuses_the_cached_component(monkeypatch):
    """Where every initial part is its relation (the classical grading,
    pbw-locus-1 at n=3 and pbw-locus-12 at n=4), the check spans no rows
    past the cached component. Verdicts are those of spanning the distinct
    initial parts, on every canonical system."""
    calls = []
    spanning = ideals._spanning_rows
    monkeypatch.setattr(ideals, "_spanning_rows", lambda *args: calls.append(args) or spanning(*args))
    for n in (3, 4):
        d = tuple(range(1, n))
        gens = plucker_relations(n, d)
        reusing = {"classical", "pbw-locus-" + "".join(map(str, range(1, n - 1)))}
        for label, A in canonical_weight_systems(n):
            g = grading_vector(A, d)
            inits = [initial_part(rel, g).canonical() for rel in gens]
            assert (inits == list(gens)) == (label in reusing)
            quad = list({init.key(): init for init in inits}.values())
            for mu in multidegrees_up_to(d, 3):
                full = initial_component(gens, n, d, mu, g)  # warms the cache
                calls.clear()
                verdict = quadratic_generation_check(A, n, d, mu)
                assert len(calls) == (0 if label in reusing else 1), (label, mu)
                assert verdict == (component_basis(quad, n, d, mu).rank == full.rank)


def test_face_degeneration_along_every_containment_n4():
    """Each of the 27 pairs of nested faces at n=4 (B's face contains A's,
    equal faces included) on every component of degree 2; the step re-reduces
    the Fraction RREF rows of A's initial component."""
    n, d = 4, (1, 2, 3)
    points = _face_points(n)
    mus = [mu for mu in multidegrees_up_to(d, 2) if sum(mu) == 2]
    pairs = [
        (A, B) for A in points for B in points
        if face_contains(face_signature(B), face_signature(A))
    ]
    assert len(pairs) == 27
    for A, B in pairs:
        for mu in mus:
            assert face_degeneration_check(A, B, n, d, mu), (face_signature(A), face_signature(B), mu)


def test_multidegrees_up_to():
    assert multidegrees_up_to((1, 2), 2) == [
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    ]


def test_polynomial_algebra():
    (rel,) = plucker_relations(3, (1, 2))
    doubled = GradedPolynomial({m: c + c for m, c in rel.terms.items()})
    assert doubled == rel.scale(2)
    assert not GradedPolynomial({m: c - c for m, c in rel.terms.items()})
    assert rel.canonical().terms[min(rel.terms)] == 1


def test_multihomogeneity_error():
    x_plus_y = GradedPolynomial({(((1,), 1),): 1, (((1, 2), 1),): 1})
    with pytest.raises(ValueError):
        x_plus_y.multidegree((1, 2))


def reference_initial_rows(rows, grades):
    """The graded initial-span step as first written, over Fractions:
    pivots in (grade, column) order, RREF, initial parts of the RREF rows,
    then RREF in column order."""
    graded = FractionEchelon(lambda c: (grades[c], c))
    for row in rows:
        graded.insert(row)
    out = FractionEchelon()
    for row in graded.reduced_rows():
        lowest = min(grades[c] for c in row)
        out.insert({c: v for c, v in row.items() if grades[c] == lowest})
    return canonical_rows(out.reduced_rows())


COLUMNS = 6
_cols = st.integers(0, COLUMNS - 1)
# All-int rows, as the ideal components insert, and rational rows, as the
# face-degeneration check re-reduces; more rows than columns, so that many
# inserts are dependent.
_rows = st.lists(
    st.one_of(
        st.dictionaries(_cols, st.integers(-4, 4).filter(bool), max_size=COLUMNS),
        st.dictionaries(
            _cols,
            st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
            max_size=COLUMNS,
        ),
    ),
    max_size=12,
)
# Integer grades, and Fraction grades, as a tropical point gives them.
_grades = st.lists(
    st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))),
    min_size=COLUMNS,
    max_size=COLUMNS,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_rows, _grades)
def test_initial_rows_match_fraction_reference(rows, grades):
    got = ideals._initial_rows(rows, grades)
    assert got == reference_initial_rows(rows, grades)
    assert all(type(v) is Fraction for row in got for _, v in row)


@pytest.mark.parametrize("n, bound", [(5, 3), (6, 2)])
def test_initial_component_dimensions_frontier(n, bound):
    """Every canonical system: the quotient of each initial-ideal
    component has the Weyl dimension of its multidegree."""
    d = tuple(range(1, n))
    gens = plucker_relations(n, d)
    mus = multidegrees_up_to(d, bound)
    assert len(mus) == {5: 34, 6: 20}[n]
    for label, A in canonical_weight_systems(n):
        g = grading_vector(A, d)
        for mu in mus:
            cb = initial_component(gens, n, d, mu, g)
            want = weyl_dim(DominantWeight(n, mu))
            assert len(cb.monomials) - cb.rank == want, (label, mu)


def test_fraction_generators_span_their_own_multiples():
    """Generators with Fraction coefficients are scaled to integer rows
    that span exactly their multiples."""
    n, d = 3, (1, 2)
    basis = pair_monomials(n, d, component_monomials(n, d, (1, 1)))
    p = GradedPolynomial({basis[0]: Fraction(1, 2), basis[1]: Fraction(-2, 3), basis[4]: 5})
    for mu in [(1, 1), (2, 1), (1, 2)]:
        cb = component_basis((p,), n, d, mu)
        col = {m: c for c, m in enumerate(pair_monomials(n, d, cb.monomials))}
        ref = FractionEchelon()
        for m in pair_monomials(n, d, component_monomials(n, d, (mu[0] - 1, mu[1] - 1))):
            ref.insert({col[mono_mul(t, m)]: v for t, v in p.terms.items()})
        assert cb.rows == canonical_rows(ref.reduced_rows())


def test_cached_echelon_rows_match_the_spanning_rows():
    """The Pluecker component is reduced once and shared by every grading:
    each grading's initial component, and the plain component of the
    marked relations and of an unmarked copy, agree with the Fraction
    references applied to the raw spanning rows. Every canonical system at
    n=4 (degree <= 3) and n=5 (degree 2)."""
    for n, degrees in [(4, (1, 2, 3)), (5, (2,))]:
        d = tuple(range(1, n))
        gens = plucker_relations(n, d)
        gradings = [(label, grading_vector(A, d)) for label, A in canonical_weight_systems(n)]
        for mu in [mu for mu in multidegrees_up_to(d, 3) if sum(mu) in degrees]:
            basis, rows = ideals._spanning_rows(gens, n, d, mu)
            ref = FractionEchelon()
            for row in rows:
                ref.insert(row)
            for spanned in (gens, list(gens)):  # the cached rows, and all rows afresh
                plain = component_basis(spanned, n, d, mu)
                assert plain.monomials == basis
                assert plain.rows == canonical_rows(ref.reduced_rows()), mu
            cached_basis, cached_rows = ideals._canonical_rows_cache(n, d, mu)
            assert cached_basis == basis and len(cached_rows) == ref.rank
            # integer RREF: primitive, positive pivot, zero on every other
            # row's pivot column, sorted by pivot
            pivots = [min(row) for row in cached_rows]
            assert pivots == sorted(set(pivots))
            for row, pivot in zip(cached_rows, pivots):
                assert all(type(v) is int for v in row.values())
                assert row[pivot] > 0 and gcd(*row.values()) == 1
                assert not set(row) & set(pivots) - {pivot}
            # each basis monomial is a sorted tuple of sum(mu) variable ids
            # that spells out its pair monomial
            indices = all_indices(n, d)
            pairs = pair_monomials(n, d, basis)
            assert {i for m in basis for i in m} <= set(range(len(indices)))
            for m, pair in zip(basis, pairs):
                assert len(m) == sum(mu) and list(m) == sorted(m)
                distinct = sorted(set(m), key=indices.__getitem__)
                assert tuple((indices[i], m.count(i)) for i in distinct) == pair
            for label, g in gradings:
                grades = [mono_grade(m, g) for m in pairs]
                got = initial_component(gens, n, d, mu, g)
                assert got.rows == reference_initial_rows(rows, grades), (label, mu)


def test_initial_rows_on_the_benchmark_components(monkeypatch):
    """The n=5 components of the benchmark's ideals workload, degree 2 and
    3 (30 of them), under every canonical system and two seeded interior
    points: the (grade, column) Echelon gives the reference rows, and
    both of its branches run: some components take every row as it is,
    others have a leading term that collides and a row that is reduced."""
    n = 5
    d = tuple(range(1, n))
    mus = [mu for mu in multidegrees_up_to(d, 3) if sum(mu) >= 2]
    assert len(mus) == 30
    systems = [A for _, A in canonical_weight_systems(n)]
    systems += [_seeded_interior_point(n, seed) for seed in (1, 2)]
    collisions = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *a: collisions.append(1) or eliminate(*a))
    clean = 0
    for A in systems:
        g = grading_vector(A, d)
        for mu in mus:
            basis, rows = ideals._canonical_rows_cache(n, d, mu)
            grades = ideals._column_grades(basis, g, n, d)
            before = len(collisions)
            assert ideals._initial_rows(rows, grades) == reference_initial_rows(rows, grades)
            clean += len(collisions) == before
    assert collisions and clean


def test_initial_rows_of_fraction_rows():
    """Rational rows, as face_degeneration_check passes them, with
    denominators 2 and 3 and leading terms that collide: the pass clears
    their denominators before it reduces one row by another."""
    rows = [
        {0: Fraction(1, 2), 1: Fraction(1, 3), 3: 1},
        {0: Fraction(2, 3), 2: Fraction(-1, 2), 3: Fraction(1, 3)},
    ]
    grades = [0, 0, 0, 1]
    # 6 * rows: (3, 2, 0, 6) and (4, 0, -3, 2) both lead at column 0; the
    # second becomes 3 * (4, 0, -3, 2) - 4 * (3, 2, 0, 6) = (0, -8, -9, -18),
    # whose initial part (0, 8, 9, 0), with (3, 2, 0, 0), spans in(V)
    want = (((0, 1), (2, Fraction(-3, 4))), ((1, 1), (2, Fraction(9, 8))))
    assert ideals._initial_rows(rows, grades) == want == reference_initial_rows(rows, grades)


def test_fraction_grades_of_a_tropical_point():
    """A seeded cone point plus abelian/6 at n=4: on every full flag
    component of degree <= 3, the point's grades, in sixths, give the
    initial component of their primitive integer multiple, each computed
    from a cold cache, and the Fraction reference. Ranking the columns by
    the key grade * width + column instead changes four of the 19."""
    n, d = 4, (1, 2, 3)
    (A,) = random_cone_points(n, 1, seed=3)
    cone, abelian = map_h(A).s, map_h(abelian_weight_system(n)).s
    point = TropicalPoint(n, {I: cone[I] + Fraction(abelian[I], 6) for I in cone})
    fractional = tropical.grading_from_point(point, d)
    integral = linalg._integral(point.s)
    assert any(v.denominator > 1 for v in fractional.values())
    gens = plucker_relations(n, d)
    for mu in multidegrees_up_to(d, 3):
        ideals._canonical_rows_cache.cache_clear()
        got = initial_component(gens, n, d, mu, fractional)
        ideals._canonical_rows_cache.cache_clear()
        assert got.rows == initial_component(gens, n, d, mu, integral).rows, mu
        basis, rows = ideals._canonical_rows_cache(n, d, mu)
        grades = reference_column_grades(pair_monomials(n, d, basis), fractional)
        assert got.rows == reference_initial_rows(rows, grades), mu


def test_homogeneous_components_are_their_own_initial_components():
    """Every canonical system on the full flag components of degree 2 and
    3, n=4 and n=5: the initial component equals the Fraction reference,
    and is the component's own shared basis exactly when every cached row
    is homogeneous for the grading. The pairs where it is are pinned."""
    for n, want_shared in [(4, (66, 112)), (5, (163, 330))]:
        d = tuple(range(1, n))
        gens = plucker_relations(n, d)
        mus = [mu for mu in multidegrees_up_to(d, 3) if sum(mu) >= 2]
        shared = {}
        for label, A in canonical_weight_systems(n):
            g = grading_vector(A, d)
            for mu in mus:
                basis, rows = ideals._canonical_rows_cache(n, d, mu)
                grades = ideals._column_grades(basis, g, n, d)
                got = initial_component(gens, n, d, mu, g)
                assert got.rows == reference_initial_rows(rows, grades), (label, mu)
                homogeneous = all(
                    grades[c] == grades[min(row)] for row in rows for c in row)
                own = component_basis(gens, n, d, mu)
                assert (got is own) == homogeneous, (label, mu)
                shared[label] = shared.get(label, 0) + (got is own)
        assert (sum(shared.values()), len(mus) * len(shared)) == want_shared
        if n == 5:
            assert shared["classical"] == shared["pbw-locus-123"] == len(mus) == 30


def test_a_grading_off_one_row_leaves_the_shortcut(monkeypatch):
    """The classical grading on the n=4 component (1, 1, 1), its 96 column
    grades all zero, with one column of one row raised off its pivot's
    grade: the rows are no longer the answer, and the pass that files them
    gives the Fraction reference for the perturbed grades."""
    n, d, mu = 4, (1, 2, 3), (1, 1, 1)
    gens = plucker_relations(n, d)
    g = grading_vector(zero_weight_system(n), d)
    own = initial_component(gens, n, d, mu, g)
    assert own is component_basis(gens, n, d, mu)
    basis, rows = ideals._canonical_rows_cache(n, d, mu)
    row = rows[len(rows) // 2]
    col = max(row)
    assert col != min(row)
    grades = [0] * len(basis)
    grades[col] = 1
    monkeypatch.setattr(ideals, "_column_grades", lambda *args: list(grades))
    got = initial_component(gens, n, d, mu, g)
    assert got is not own
    assert got.rows == reference_initial_rows(rows, grades)
    assert got.rank == own.rank and got.span_key() != own.span_key()
    assert own.rows == pivot_one(rows)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.integers(0, 2**32))
def test_initial_components_at_random_cone_points(seed):
    """A seeded cone point at n=4, faces included: on every full flag
    component of degree <= 3 the quotient has the Weyl dimension, and the
    rows equal the Fraction reference, shortcut or not."""
    (A,) = random_cone_points(4, 1, seed=seed)
    n, d = 4, (1, 2, 3)
    gens = plucker_relations(n, d)
    g = grading_vector(A, d)
    for mu in multidegrees_up_to(d, 3):
        basis, rows = ideals._canonical_rows_cache(n, d, mu)
        got = initial_component(gens, n, d, mu, g)
        assert len(basis) - got.rank == weyl_dim(DominantWeight(n, mu)), mu
        grades = ideals._column_grades(basis, g, n, d)
        assert got.rows == reference_initial_rows(rows, grades), mu


def test_the_shared_component_basis_is_read_only():
    """The component's own basis, served to every caller, and the basis of
    the abelian grading, served by its certificate once it is computed,
    still equal the Fraction references of the spanning rows after the
    checks and readers that take them have run: face degeneration,
    quadratic generation, the monomial test and the row polynomials."""
    n, d = 4, (1, 2, 3)
    gens = plucker_relations(n, d)
    zero, abelian = zero_weight_system(n), abelian_weight_system(n)
    g = grading_vector(abelian, d)
    for mu in [mu for mu in multidegrees_up_to(d, 3) if sum(mu) >= 2]:
        _, spanning = ideals._spanning_rows(gens, n, d, mu)
        ref = FractionEchelon()
        for row in spanning:
            ref.insert(row)
        want = canonical_rows(ref.reduced_rows())
        shared = initial_component(gens, n, d, mu, grading_vector(zero, d))
        assert shared is component_basis(gens, n, d, mu)
        served = initial_component(gens, n, d, mu, g)
        assert initial_component(gens, n, d, mu, g) is served
        assert face_degeneration_check(zero, abelian, n, d, mu)
        assert quadratic_generation_check(zero, n, d, mu)
        assert quadratic_generation_check(abelian, n, d, mu)
        for basis in (shared, served):
            contains_monomial(basis)
            basis.row_polynomials()
        assert component_basis(gens, n, d, mu) is shared
        assert initial_component(gens, n, d, mu, g) is served
        assert shared.rows == want, mu
        assert shared.span_key() == want and shared.span_key() is shared.rows
        grades = reference_column_grades(pair_monomials(n, d, served.monomials), g)
        assert served.rows == reference_initial_rows(spanning, grades), mu


def _toric_combination(n, rng):
    """The toric system plus a seeded nonnegative integer combination of
    cone points: abelian, toric and a_{i,j} = u_i with u_i >= 0."""
    c_toric, c_abelian = rng.randint(0, 2), rng.randint(0, 2)
    u = [rng.randint(0, 2) for _ in range(n)]
    A = WeightSystem.from_function(
        n, lambda i, j: (1 + c_toric) * (j - i + 1) * (n - j) + c_abelian + u[i - 1])
    assert is_interior(A)
    return A


def test_certificates_serve_the_reference_rows(monkeypatch):
    """From cold caches, on the components of degree <= 3 at n=4 and of
    degree 2 and 3 at n=5: every canonical system, then two interior
    points, the toric system plus seeded nonnegative combinations of cone
    points, then 10 random cone points. Every basis, served by a
    certificate or computed, equals the Fraction reference on grades taken
    afresh. Once the toric system has run on a component, the interior
    points are served without one more (grade, column) reduction; some
    calls of the canonical and random stages are served by a certificate
    that is not the rows' own, and some are computed."""
    calls = []
    initial_rows = ideals._initial_rows
    monkeypatch.setattr(ideals, "_initial_rows", lambda *a: calls.append(1) or initial_rows(*a))
    ideals._canonical_rows_cache.cache_clear()
    for n, degrees in [(4, (1, 2, 3)), (5, (2, 3))]:
        d = tuple(range(1, n))
        gens = plucker_relations(n, d)
        mus = [mu for mu in multidegrees_up_to(d, 3) if sum(mu) in degrees]
        rng = Random(n)
        stages = [
            [A for _, A in canonical_weight_systems(n)],
            [_toric_combination(n, rng) for _ in range(2)],
            random_cone_points(n, 10, seed=n),
        ]
        for stage, systems in enumerate(stages):
            computed = by_certificate = 0
            for A in systems:
                g = grading_vector(A, d)
                for mu in mus:
                    before = len(calls)
                    got = initial_component(gens, n, d, mu, g)
                    _, rows = ideals._canonical_rows_cache(n, d, mu)
                    grades = reference_column_grades(pair_monomials(n, d, got.monomials), g)
                    assert got.rows == reference_initial_rows(rows, grades), (n, stage, mu)
                    computed += len(calls) > before
                    by_certificate += (len(calls) == before
                                       and got is not component_basis(gens, n, d, mu))
            if stage == 1:
                assert computed == 0, n
            else:
                assert computed and by_certificate, (n, stage)


def test_a_grading_that_moves_one_initial_support_is_not_served(monkeypatch):
    """The toric grading on the n=4 component (1, 1, 1), with one column of
    an initial support of its certificate raised by one: that row's
    initial part changes, so the certificate no longer holds, and the
    component is computed afresh and equals the Fraction reference for the
    perturbed grades."""
    n, d, mu = 4, (1, 2, 3), (1, 1, 1)
    gens = plucker_relations(n, d)
    ideals._canonical_rows_cache.cache_clear()
    g = grading_vector(toric_weight_system(n), d)
    toric = initial_component(gens, n, d, mu, g)
    assert initial_component(gens, n, d, mu, g) is toric
    basis, rows = ideals._canonical_rows_cache(n, d, mu)
    assert len(rows.certificates) == 2  # the rows' own and the toric grading's
    inside, leads, outside, _, served = rows.certificates[1]
    assert served is toric and outside
    col = next(c for c, lead in zip(inside, leads) if c != lead)
    grades = ideals._column_grades(basis, g, n, d)
    grades[col] += 1
    calls = []
    initial_rows = ideals._initial_rows
    monkeypatch.setattr(ideals, "_initial_rows", lambda *a: calls.append(1) or initial_rows(*a))
    monkeypatch.setattr(ideals, "_column_grades", lambda *args: list(grades))
    got = initial_component(gens, n, d, mu, g)
    assert calls == [1] and got is not toric
    assert got.rows == reference_initial_rows(rows, grades)
    assert got.span_key() != toric.span_key()


class _CountingSigns:
    """The ranked sign memo of plucker_relations, counting its lookups: one
    per placement built."""

    def __init__(self, signs):
        self.signs = signs
        self.gets = 0

    def __getitem__(self, key):
        self.gets += 1
        return self.signs[key]


def _all_first_factors(r_i, i_set, block, placements, sort_sign, rank):
    """Every placement built and sorted by sort_sign, those that repeat an
    entry dropped, each sorted index given by its rank."""
    firsts = [(r_i, -1, block)]
    for positions in placements:
        i_new = list(i_set)
        for m, pos in enumerate(positions):
            i_new[pos] = block[m]
        e1, s1 = sort_sign(i_new)
        if s1:
            firsts.append((rank[e1], s1, tuple(i_set[pos] for pos in positions)))
    return firsts


def test_placements_that_repeat_an_entry_are_not_built(monkeypatch):
    """At the n=6 full flag the first factors are those of building every
    placement, but only the 3,478 placements that repeat no entry are
    built, of the 6,118 offered (as an earlier builder built them all).
    The multidegrees, taken from the size pairs, are those of the terms.
    No sequence _sort_sign sorts repeats an entry: neither a placement
    built nor a second factor, so every term's sign is +-1. It sorts 268:
    the memo starts with the 62 sorted indices, each of sign 1."""
    first_factors, sort_sign = ideals._first_factors, ideals._sort_sign
    seen = {"calls": 0, "offered": 0, "built": 0, "sorted": 0}
    n, d = 6, (1, 2, 3, 4, 5)
    rank = {I: r for r, I in enumerate(sorted(all_indices(n, d)))}  # every size is paired

    def counting(r_i, i_set, block, placements, signs):
        assert r_i == rank[i_set]
        memo = _CountingSigns(signs)
        out = first_factors(r_i, i_set, block, placements, memo)
        assert out == _all_first_factors(r_i, i_set, block, placements, sort_sign, rank)
        seen["calls"] += 1
        seen["offered"] += len(placements)
        seen["built"] += memo.gets
        return out

    def distinct(seq):
        assert len(set(seq)) == len(seq), seq
        seen["sorted"] += 1
        return sort_sign(seq)

    monkeypatch.setattr(ideals, "_first_factors", counting)
    monkeypatch.setattr(ideals, "_sort_sign", distinct)
    rels = plucker_relations.__wrapped__(n, d)  # built afresh, not from the cache
    assert seen == {"calls": 1403, "offered": 6118, "built": 3478, "sorted": 268}
    assert len(rels) == 509
    assert rels.multidegrees == tuple(rel.multidegree(d) for rel in rels)


def test_relations_are_squarefree_with_unit_coefficients():
    """The 3,172 relations of the n=7 full flag, beyond the Fraction
    reference: every term is X_a X_b with a != b and coefficient +-1, as
    the proof in plucker_relations says of every exchange."""
    n, d = 7, (1, 2, 3, 4, 5, 6)
    rels = plucker_relations.__wrapped__(n, d)
    assert len(rels) == 3172
    for rel in rels:
        for mono, c in rel.terms.items():
            (a, e), (b, f) = mono
            assert a != b and e == f == 1 and c in (1, -1), rel


# sha256 over each relation's (key, list(terms.items()), multidegree) at the
# n=7 full flag, taken from the Fraction-free builder before relations were
# generated on lex ranks; the Fraction reference takes seconds at n=7
N7_FULL_FLAG_SHA256 = "d89536ccc0143444592eefb828c663bbc2e7278fd4f157dcef9b83a0346def2f"


def test_relations_at_the_n7_full_flag_are_pinned():
    """Keys, term order and multidegrees of the 3,172 relations at n=7,
    where tier-1 cannot afford the reference that n <= 6 is checked on."""
    rels = plucker_relations(7, (1, 2, 3, 4, 5, 6))
    h = hashlib.sha256()
    for rel, nu in zip(rels, rels.multidegrees):
        h.update(repr((rel.key(), list(rel.terms.items()), nu)).encode())
    assert h.hexdigest() == N7_FULL_FLAG_SHA256


def test_relations_carry_their_id_terms():
    """Each marked relation's id terms are its terms, in the same order,
    over the ids of all_indices(n, d); relations marked with another n are
    spanned from their terms."""
    for n, d, mu in [(4, (1, 2, 3), None), (5, (1, 2, 3, 4), (1, 1, 0, 0)),
                     (6, (2, 4), None), (5, (2,), None), (6, (1, 5), (1, 1))]:
        rels = plucker_relations(n, d, mu)
        ids = {I: i for i, I in enumerate(all_indices(n, d))}
        assert (rels.n, rels.d) == (n, d) and rels
        assert rels.id_terms == tuple(
            tuple((tuple(sorted(ids[I] for I, _ in m)), int(c)) for m, c in rel.terms.items())
            for rel in rels)
    d, mu = (1, 2, 3), (1, 1, 0)
    small = plucker_relations(4, d)
    want = ideals._spanning_rows(list(small), 5, d, mu)
    assert want[1] and ideals._spanning_rows(small, 5, d, mu) == want


def test_relations_carry_their_multidegrees(monkeypatch):
    """plucker_relations takes each relation's multidegree once; the
    spanning rows read it from there, and check other generators per call."""
    n, d = 4, (1, 2, 3)
    gens = plucker_relations(n, d)
    assert gens.d == d and gens.multidegrees == tuple(g.multidegree(d) for g in gens)
    fitting = plucker_relations(n, d, (1, 1, 0))
    assert fitting.multidegrees == tuple(g.multidegree(d) for g in fitting)
    want = ideals._spanning_rows(list(gens), n, d, (1, 1, 1))

    def refuse(self, d):
        raise AssertionError("multidegree taken again")

    monkeypatch.setattr(GradedPolynomial, "multidegree", refuse)
    assert ideals._spanning_rows(gens, n, d, (1, 1, 1)) == want
    with pytest.raises(AssertionError):
        ideals._spanning_rows(list(gens), n, d, (1, 1, 1))
    monkeypatch.undo()
    mixed = GradedPolynomial({(((1,), 1),): 1, (((1, 2), 1),): 1})
    with pytest.raises(ValueError):
        ideals._spanning_rows([mixed], n, d, (1, 1, 1))


_fractions = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.integers(0, 2**32), st.lists(_fractions, min_size=64, max_size=64))
def test_span_key_ignores_generator_order_and_scale(seed, scales):
    """The span key depends on the span only: shuffled, rescaled
    generators give the same key, plainly and for a grading, and the key
    is already in the sorted form the benchmark digests."""
    n, d, mu = 4, (1, 2, 3), (1, 1, 1)
    gens = plucker_relations(n, d)
    assert len(gens) <= len(scales)
    moved = [rel.scale(c) for rel, c in zip(gens, scales)]
    Random(seed).shuffle(moved)
    g = grading_vector(toric_weight_system(n), d)
    for make in (
        lambda gs: component_basis(gs, n, d, mu),
        lambda gs: initial_component(gs, n, d, mu, g),
    ):
        key = make(gens).span_key()
        assert make(moved).span_key() == key
        assert list(key) == sorted(key)


def _seeded_interior_point(n, seed=None):
    rng = Random(n if seed is None else f"{n}:{seed}")
    A = slack_point(n, [rng.randint(0, 3) for _ in range(n - 1)], lambda: rng.randint(1, 3))
    assert is_interior(A)
    return A


def _component_setups():
    for n in range(2, 6):
        for r in range(1, n):
            for d in combinations(range(1, n), r):
                yield n, d, 3
    yield 6, tuple(range(1, 6)), 2


def test_id_bases_match_the_pair_monomial_reference():
    """The id-tuple basis, read back as pair monomials, is the pair-monomial
    basis in the same order, and the grades agree under the toric grading
    and a seeded interior one: every n <= 5, every d and every mu of degree
    <= 3 (269 components with the n=6 full flag in degree <= 2). The
    integer rank keys order the columns exactly as sorting the id tuples
    by their pair monomials does."""
    count = 0
    for n, d, bound in _component_setups():
        systems = (toric_weight_system(n), _seeded_interior_point(n))
        gradings = [grading_vector(A, d) for A in systems]
        for mu in multidegrees_up_to(d, bound):
            basis = component_monomials(n, d, mu)
            want = reference_component_monomials(n, d, mu)
            assert pair_monomials(n, d, basis) == want, (n, d, mu)
            assert basis == pair_sorted_id_monomials(n, d, mu), (n, d, mu)
            count += 1
            for g in gradings:
                assert ideals._column_grades(basis, g, n, d) == reference_column_grades(want, g)
    assert count == 269


def test_component_rows_are_their_span_key():
    """The rows of initial_component and component_basis, from the cached
    component or spanned afresh, are a tuple of rows in pivot order, each
    a tuple of (column, Fraction) pairs sorted by column with pivot entry
    1, and are the span key itself: every canonical system at n=4, every
    multidegree of degree <= 3."""
    n, d = 4, (1, 2, 3)
    gens = plucker_relations(n, d)
    mus = multidegrees_up_to(d, 3)
    bases = [component_basis(spanned, n, d, mu) for spanned in (gens, list(gens)) for mu in mus]
    for _, A in canonical_weight_systems(n):
        g = grading_vector(A, d)
        bases += [initial_component(spanned, n, d, mu, g) for spanned in (gens, list(gens))
                  for mu in mus]
    for cb in bases:
        assert cb.span_key() is cb.rows and type(cb.rows) is tuple
        assert [row[0][0] for row in cb.rows] == sorted({row[0][0] for row in cb.rows})
        for row in cb.rows:
            assert type(row) is tuple and all(type(pair) is tuple for pair in row)
            cols = [c for c, _ in row]
            assert cols == sorted(set(cols)) and set(cols) <= set(range(len(cb.monomials)))
            assert all(type(v) is Fraction and v for _, v in row) and row[0][1] == 1
