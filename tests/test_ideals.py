from fractions import Fraction
from itertools import combinations, permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_echelon import FractionEchelon
from fraction_relations import fraction_plucker_relations, normalize_index
from pbwdegen import ideals
from pbwdegen.degrees import all_indices, degree_s, grading_vector
from pbwdegen.fflv import DominantWeight, weyl_dim
from pbwdegen.ideals import (
    GradedPolynomial,
    classical_component,
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
    plucker_relations,
    quadratic_generation_check,
    relation_pairs,
)
from pbwdegen.weights import (
    abelian_weight_system,
    canonical_weight_systems,
    toric_weight_system,
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
    [(n, d) for n in range(2, 6) for d in _all_sizes(n)] + [(6, (1, 2, 3, 4, 5))],
)
def test_relations_match_fraction_reference(n, d):
    ours = plucker_relations(n, d)
    ref = fraction_plucker_relations(n, d)
    assert len(ours) == len(ref)
    for rel, want in zip(ours, ref):
        # same monomials in the same order, so every output is byte-identical
        assert list(rel.terms.items()) == list(want.terms.items())
        assert all(type(c) is Fraction for c in rel.terms.values())


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
    x = GradedPolynomial.variable
    assert component_basis([x((1, 2)) * x((3, 4))], n, d, mu).rank == 1
    # n=9, d=(4): the relation set would take seconds to build
    assert component_basis([], 9, (4,), (1,)).rank == 0


def test_relation_pairs_that_fit_mu():
    d = (1, 2, 3)
    assert relation_pairs(d) == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    # e_p + e_q <= mu: a pair of equal sizes needs that size twice
    assert relation_pairs(d, (1, 1, 0)) == [(2, 1)]
    assert relation_pairs(d, (0, 2, 1)) == [(2, 2), (3, 2)]
    assert relation_pairs(d, (0, 1, 0)) == []
    # with mu, plucker_relations keeps exactly the relations that fit mu
    full = plucker_relations(4, d)
    for mu in multidegrees_up_to(d, 3):
        fit = [r for r in full if all(a <= b for a, b in zip(r.multidegree(d), mu))]
        assert plucker_relations(4, d, mu) == tuple(fit), mu


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
    assert list(g) == all_indices(4, d)
    for m in component_monomials(4, d, (1, 1, 1)):
        assert mono_grade(m, g) == sum(e * degree_s(A, elems) for elems, e in m)


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
        ech = Echelon()
        for row in cb.rows:
            ech.insert(row)
        added = 0
        for Y in enumerate_ssyt(lam):
            mono = tuple(
                sorted(
                    (tuple(sorted(set(c))), 1) for c in Y.columns
                )
            )
            merged = {}
            for elems, e in mono:
                merged[elems] = merged.get(elems, 0) + e
            mono = tuple(sorted(merged.items()))
            if ech.insert({col[mono]: Fraction(1)}) is not None:
                added += 1
        assert added == len(enumerate_ssyt(lam))
        assert added == len(cb.monomials) - cb.rank


def test_initial_part_min_convention():
    (rel,) = plucker_relations(3, (1, 2))
    g = grading_vector(abelian_weight_system(3), (1, 2))
    init = initial_part(rel, g)
    # X_1 X_23 and X_12 X_3 have grade 1, X_13 X_2 has grade 2
    names = {mono_str(m) for m in init.terms}
    assert names == {"X_{1}*X_{2,3}", "X_{1,2}*X_{3}"}


def test_zero_grading_recovers_ideal():
    n, d = 3, (1, 2)
    gens = plucker_relations(n, d)
    for mu in multidegrees_up_to(d, 3):
        assert (
            classical_component(n, d, mu).span_key()
            == component_basis(gens, n, d, mu).span_key()
        )


def test_toric_component_is_binomial():
    n, d = 4, (2,)
    g = grading_vector(toric_weight_system(n), d)
    cb = initial_component(plucker_relations(n, d), n, d, (2,), g)
    assert cb.rank == 1
    assert is_binomially_spanned(cb)
    assert contains_monomial(cb) is None


def test_contains_monomial_detects_unit_rows():
    n, d, mu = 3, (1, 2), (1, 1)
    basis = component_monomials(n, d, mu)
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
    doubled = rel + rel
    assert doubled == rel.scale(2)
    assert not (rel - rel)
    assert rel.canonical().terms[min(rel.terms)] == 1


_variables = st.sampled_from([(1,), (2,), (1, 2), (1, 3), (2, 3)])
_polys = st.dictionaries(
    st.lists(st.tuples(_variables, st.integers(1, 2)), max_size=3).map(
        lambda pairs: tuple(sorted(dict(pairs).items()))
    ),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
    max_size=4,
).map(GradedPolynomial)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_polys, _polys)
def test_product_is_the_sum_of_monomial_multiples(p, q):
    """One accumulating product equals adding the multiples of p by the
    terms of q one at a time, cancellations included."""
    want = GradedPolynomial()
    for m, c in q.terms.items():
        want = want + p.mul_monomial(m, c)
    got = p * q
    assert got == want
    assert all(type(c) is Fraction and c for c in got.terms.values())
    assert (p + q) * (p - q) == p * p - q * q


def test_multihomogeneity_error():
    x = GradedPolynomial.variable((1,))
    y = GradedPolynomial.variable((1, 2))
    with pytest.raises(ValueError):
        (x + y).multidegree((1, 2))


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
    return out.reduced_rows()


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
_grades = st.lists(st.integers(-2, 2), min_size=COLUMNS, max_size=COLUMNS)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_rows, _grades)
def test_initial_rows_match_fraction_reference(rows, grades):
    got = ideals._initial_rows(rows, grades)
    assert got == reference_initial_rows(rows, grades)
    assert all(type(v) is Fraction for row in got for v in row.values())


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
    basis = component_monomials(n, d, (1, 1))
    p = GradedPolynomial({basis[0]: Fraction(1, 2), basis[1]: Fraction(-2, 3), basis[4]: 5})
    for mu in [(1, 1), (2, 1), (1, 2)]:
        cb = component_basis((p,), n, d, mu)
        col = {m: c for c, m in enumerate(cb.monomials)}
        ref = FractionEchelon()
        for m in component_monomials(n, d, (mu[0] - 1, mu[1] - 1)):
            ref.insert({col[t]: v for t, v in p.mul_monomial(m).terms.items()})
        assert cb.rows == ref.reduced_rows()


def test_cached_echelon_rows_match_the_spanning_rows():
    """The Pluecker component is reduced once and shared by every grading:
    each grading's initial component, and the plain component, agree with
    the Fraction references applied to the raw spanning rows. Every
    canonical system at n=4 (degree <= 3) and n=5 (degree 2)."""
    for n, degrees in [(4, (1, 2, 3)), (5, (2,))]:
        d = tuple(range(1, n))
        gens = plucker_relations(n, d)
        gradings = [(label, grading_vector(A, d)) for label, A in canonical_weight_systems(n)]
        for mu in [mu for mu in multidegrees_up_to(d, 3) if sum(mu) in degrees]:
            basis, rows = ideals._spanning_rows(gens, n, d, mu)
            ref = FractionEchelon()
            for row in rows:
                ref.insert(row)
            plain = component_basis(gens, n, d, mu)
            assert plain.monomials == basis
            assert plain.rows == ref.reduced_rows(), mu
            cached_basis, cached_rows = ideals._canonical_rows_cache(n, d, mu)
            assert cached_basis == basis and len(cached_rows) == ref.rank
            for label, g in gradings:
                grades = [mono_grade(m, g) for m in basis]
                got = initial_component(gens, n, d, mu, g)
                assert got.rows == reference_initial_rows(rows, grades), (label, mu)


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
