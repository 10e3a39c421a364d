from fractions import Fraction
from itertools import accumulate, product
from math import comb
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbwdegen import linalg, representations
from pbwdegen.fflv import DominantWeight, enumerate_patterns, pattern_entries, weyl_dim
from pbwdegen.ideals import GradedPolynomial, initial_part, plucker_relations
from pbwdegen.degrees import all_indices, fundamental_pattern, grading_vector
from pbwdegen.representations import (
    annihilator_monomial_check,
    apply_generator,
    classical_action,
    cyclic_module_dim,
    essential_closure,
    exp_coordinates,
    fflv_basis_check,
    highest_weight_tensor,
    psi_images,
    psi_substitution_check,
    wedge_maps,
)
from pbwdegen.weights import (
    NotInConeError,
    WeightSystem,
    abelian_weight_system,
    canonical_weight_systems,
    check_cone_membership,
    is_interior,
    random_cone_points,
    toric_weight_system,
    triangle_pairs,
    zero_weight_system,
)
from lie_structure import graded_bracket, verify_lie_structure
from reference_closure import apply_generator as tensor_word_generator
from reference_closure import cyclic_module_dim as reference_cyclic_module_dim
from reference_closure import essential_exponents
from reference_substitution import exp_coordinates as reference_exp_coordinates
from reference_substitution import psi_substitution_check as reference_psi_check


def test_classical_action_signs():
    assert classical_action(1, 3, (1, 2)) == ((2, 3), -1)
    assert classical_action(1, 2, (1, 3)) == ((2, 3), 1)
    assert classical_action(2, 4, (1, 2)) == ((1, 4), 1)
    assert classical_action(1, 2, (2, 3)) is None
    assert classical_action(1, 3, (1, 3)) is None


def test_degenerate_action_filters_by_degree():
    maps = wedge_maps(abelian_weight_system(3), 3, (1,))
    e1, e2, e3 = 0, 1, 2  # the ids of (1,), (2,), (3,)
    # s_3 = a_{1,3} = 1 and s_1 = 0, so f_{1,3} (degree 1) survives on e_1
    assert maps[(1, 3)][e1] == (e3, 1)
    # s_3 = 1 but s_2 + a_{2,3} = 2, so f_{2,3} dies on e_2
    assert e2 not in maps[(2, 3)]
    # the classical table keeps it
    assert wedge_maps(None, 3, (1,))[(2, 3)][e2] == (e3, 1)


def test_graded_bracket():
    zero = zero_weight_system(3)
    ab = abelian_weight_system(3)
    assert graded_bracket(zero, (1, 2), (2, 3)) == {(1, 3): -1}
    assert graded_bracket(zero, (2, 3), (1, 2)) == {(1, 3): 1}
    # the abelian degeneration has vanishing brackets throughout
    assert graded_bracket(ab, (1, 2), (2, 3)) == {}


def test_lie_structure_canonical_systems():
    for n in (3, 4):
        for _, A in canonical_weight_systems(n):
            assert verify_lie_structure(A)


def test_lie_structure_random_points():
    for n, count in ((3, 7), (4, 7), (5, 6)):
        for A in random_cone_points(n, count, seed=n + 60):
            assert verify_lie_structure(A)


def test_degenerate_exp_is_min_grade_slice_of_classical():
    for n in (3, 4):
        for _, A in canonical_weight_systems(n):
            for k in range(1, n):
                classical = exp_coordinates(n, k)
                degenerate = exp_coordinates(n, k, A)
                pairs = triangle_pairs(n)
                for elems, poly in classical.items():
                    def zgrade(word):
                        return sum(A.a(*pairs[x]) for x in word)

                    low = min(zgrade(w) for w in poly)
                    slice_ = {w: c for w, c in poly.items() if zgrade(w) == low}
                    assert degenerate.get(elems, {}) == slice_


def test_cyclic_dimensions_classical_limit():
    lam = DominantWeight(3, (1, 1))
    A = zero_weight_system(3)
    assert cyclic_module_dim(A, lam) == 8
    assert cyclic_module_dim(A, DominantWeight(3, (2, 0))) == 6


def test_fflv_basis_small():
    for _, A in canonical_weight_systems(3):
        for coeffs in ((1, 0), (1, 1)):
            assert fflv_basis_check(A, DominantWeight(3, coeffs))


def test_annihilator_requires_interior():
    with pytest.raises(NotInConeError):
        annihilator_monomial_check(
            zero_weight_system(3), DominantWeight(3, (1, 0))
        )
    assert annihilator_monomial_check(
        toric_weight_system(3), DominantWeight(3, (1, 0))
    )


def test_highest_weight_tensor_shape():
    lam = DominantWeight(4, (1, 0, 2))
    ((key, coeff),) = highest_weight_tensor(lam).items()
    indices = all_indices(4, lam.column_sizes())
    assert key == tuple(sorted(key))
    assert tuple(indices[i] for i in key) == ((1,), (1, 2, 3), (1, 2, 3))
    assert coeff == 1


def test_equal_factors_collapse_with_the_derivation_coefficient():
    # f_{1,2} on e_1 (x) e_1 gives e_2 (x) e_1 + e_1 (x) e_2 in the tensor
    # product, and twice the monomial X_1 X_2 in the symmetric power
    maps = wedge_maps(None, 2, (1,))
    e1, e2 = 0, 1  # the ids of (1,), (2,)
    assert apply_generator(maps, {(e1, e1): 1}, (1, 2)) == {(e1, e2): 2}


def _pair_keys(n, coords):
    """Exponential coordinates with each word written as the reference
    writes a z-monomial: sorted ((("z", i, j), exponent), ...) pairs."""
    pairs = triangle_pairs(n)

    def key(word):
        return tuple((("z",) + pairs[x], word.count(x)) for x in sorted(set(word)))

    return {elems: {key(w): c for w, c in poly.items()} for elems, poly in coords.items()}


def test_exp_coordinates_classical_n3():
    coords = _pair_keys(3, exp_coordinates(3, 1))
    assert coords[(1,)] == {(): Fraction(1)}
    assert coords[(2,)] == {((("z", 1, 2), 1),): Fraction(1)}
    assert coords[(3,)] == {
        ((("z", 1, 3), 1),): Fraction(1),
        ((("z", 1, 2), 1), (("z", 2, 3), 1)): Fraction(1, 2),
    }


def test_exp_coordinates_toric_are_monomial():
    A = toric_weight_system(3)
    coords = _pair_keys(3, exp_coordinates(3, 1, A))
    assert coords[(3,)] == {((("z", 1, 3), 1),): Fraction(1)}


def test_psi_kills_relations_and_detects_sign_errors():
    n, d = 3, (1, 2)
    (rel,) = plucker_relations(n, d)
    assert psi_substitution_check([rel], n, d)
    broken = GradedPolynomial(dict(rel.terms))
    m = max(broken.terms)
    broken.terms[m] = -broken.terms[m]
    assert not psi_substitution_check([broken], n, d)
    # one survivor in a list of relations fails the whole list
    assert not psi_substitution_check([rel, broken, rel], n, d)
    assert psi_substitution_check([], n, d)


def test_psi_degenerate_initial_parts():
    n, d = 3, (1, 2)
    (rel,) = plucker_relations(n, d)
    for _, A in canonical_weight_systems(n):
        init = initial_part(rel, grading_vector(A, d))
        assert psi_substitution_check([init], n, d, A)


def _systems_and_classical(n):
    return [None] + [A for _, A in canonical_weight_systems(n)]


def test_interior_exp_coordinates_are_fundamental_pattern_monomials():
    """Under an interior system every coordinate C_I is one monomial with
    coefficient +-1, whose word is the support of the fundamental pattern
    of I: the toric system and seeded interior sums
    toric * (1 + c) + c_abelian + u_i, for n = 3, 4, 5."""
    for n in (3, 4, 5):
        rng = Random(n)
        toric = toric_weight_system(n)
        systems = [toric]
        for _ in range(10):
            c, c_ab = rng.randint(0, 2), rng.randint(0, 2)
            u = [rng.randint(0, 2) for _ in range(n)]
            A = WeightSystem.from_function(
                n, lambda i, j: (1 + c) * toric.a(i, j) + c_ab + u[i - 1])
            assert check_cone_membership(A) and is_interior(A)
            systems.append(A)
        pairs = triangle_pairs(n)
        for A in systems:
            for k in range(1, n):
                coords = exp_coordinates(n, k, A)
                assert set(coords) == set(all_indices(n, (k,)))
                for I, poly in coords.items():
                    T = fundamental_pattern(n, I)
                    word = tuple(x for x, pair in enumerate(pairs) if T.a(*pair))
                    assert list(poly) == [word]
                    assert abs(poly[word]) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exp_coordinates_match_reference(n):
    for A in _systems_and_classical(n):
        for k in range(1, n):
            ours = exp_coordinates(n, k, A)
            want = reference_exp_coordinates(n, k, A)
            assert _pair_keys(n, ours) == want


@pytest.mark.parametrize("n", [3, 4])
def test_psi_verdicts_match_reference(n):
    # every relation classically, every initial part under its system, and
    # each of them with the sign of its last term flipped
    d = tuple(range(1, n))
    rels = plucker_relations(n, d)
    cases = [(rel, None) for rel in rels]
    for _, A in canonical_weight_systems(n):
        g = grading_vector(A, d)
        cases += [(initial_part(rel, g), A) for rel in rels]
    verdicts = set()
    for f, A in cases:
        m = max(f.terms)
        flipped = GradedPolynomial({**f.terms, m: -f.terms[m]})
        for poly in (f, flipped):
            ours = psi_substitution_check([poly], n, d, A)
            assert ours == reference_psi_check(poly, n, d, A)
            verdicts.add((poly is f, ours))
    assert verdicts == {(True, True), (False, False)}


def test_psi_classical_n5_relations():
    n = 5
    d = tuple(range(1, n))
    assert psi_substitution_check(plucker_relations(n, d), n, d)


def test_psi_keeps_column_markers():
    # C_{1} = 1, so X_{1} - X_{1}^2 would cancel without the z_k markers
    n, d = 3, (1, 2)
    f = GradedPolynomial({(((1,), 1),): 1, (((1,), 2),): -1})
    for A in _systems_and_classical(n):
        assert not psi_substitution_check([f], n, d, A)


def test_psi_images_count_their_terms_up_to_the_cap():
    """With a cap, the images are built as without one while their terms
    fit, and a ValueError stops the build once they do not."""
    n, d = 4, (1, 2, 3)
    for A in _systems_and_classical(n):
        images = psi_images(n, d, A)
        total = sum(len(poly) for poly in images.values())
        assert psi_images(n, d, A, total) == images
        with pytest.raises(ValueError):
            psi_images(n, d, A, total - 1)


def test_psi_images_stop_within_one_coordinate_of_the_cap():
    """Classically the degree-p part of C_j, |I| = 1, has C(j-2, p-1)
    terms, and a power meets its coordinates in ascending j. At n=20 the
    default cap of rep psi-check, 100,000, is passed at C_16 of the eighth
    power, 619 terms past it; the whole eighth power would be 69,766."""
    n, cap = 20, 100000
    sizes = [1] + [comb(j - 2, p - 1) for p in range(1, n) for j in range(p + 1, n + 1)]
    stop = next(built for built in accumulate(sizes) if built > cap)
    assert stop == 100619
    with pytest.raises(ValueError, match=f": {stop} built$"):
        psi_images(n, (1,), None, cap)


def test_pattern_count_equals_cyclic_dim_degenerate():
    A = abelian_weight_system(3)
    for coeffs in ((1, 0), (0, 1), (1, 1)):
        lam = DominantWeight(3, coeffs)
        assert cyclic_module_dim(A, lam) == len(enumerate_patterns(lam))


@st.composite
def module_inputs(draw):
    """A small dominant weight and a weight system: classical, abelian,
    toric, or an interior point built as the toric system plus a
    nonnegative combination of closed-form cone points (abelian, toric and
    the column-independent a_{i,j} = u_i with u_i >= 0)."""
    n = draw(st.integers(3, 4))
    lam = DominantWeight(n, tuple(draw(st.integers(0, 2)) for _ in range(n - 1)))
    assume(weyl_dim(lam) <= 64)
    kind = draw(st.sampled_from(("classical", "abelian", "toric", "interior")))
    if kind == "interior":
        c_ab, c_tor = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        u = [draw(st.integers(0, 2)) for _ in range(n)]
        A = WeightSystem.from_function(
            n, lambda i, j: (1 + c_tor) * (j - i + 1) * (n - j) + c_ab + u[i - 1]
        )
        assert check_cone_membership(A) and is_interior(A)
    else:
        make = {"classical": zero_weight_system, "abelian": abelian_weight_system,
                "toric": toric_weight_system}[kind]
        A = make(n)
    return A, lam


@settings(derandomize=True, max_examples=60, deadline=None)
@given(module_inputs())
def test_module_dimension_is_weyl_dimension(inputs):
    A, lam = inputs
    assert cyclic_module_dim(A, lam) == weyl_dim(lam)
    assert fflv_basis_check(A, lam)


def test_lie_generators():
    # verify_lie_structure (tests/lie_structure.py) is the precondition of
    # the essential-monomial closure: the action must represent the graded
    # bracket for reordering to cost only lower degrees
    for n in (2, 3, 4, 5):
        systems = dict(canonical_weight_systems(n))
        for A in systems.values():
            assert verify_lie_structure(A)
        # toric plus a seeded cone point lies in the interior
        toric = systems["toric"]
        for B in random_cone_points(n, 3, seed=n + 80):
            A = WeightSystem.from_function(n, lambda i, j: toric.a(i, j) + B.a(i, j))
            assert is_interior(A)
            assert verify_lie_structure(A)


def _small_weights(n, total):
    """Dominant weights of rank n - 1 with 1 <= |lam| <= total."""
    out = []
    for coeffs in product(range(total + 1), repeat=n - 1):
        if 1 <= sum(coeffs) <= total:
            out.append(DominantWeight(n, coeffs))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closure_matches_reference_canonical(n):
    for lam in _small_weights(n, 3):
        for A in _systems_and_classical(n):
            assert cyclic_module_dim(A, lam) == reference_cyclic_module_dim(A, lam)


@pytest.mark.parametrize("coeffs", [(1, 1, 1, 1), (2, 1, 2)])
def test_closure_matches_reference_n5(coeffs):
    n = len(coeffs) + 1
    lam = DominantWeight(n, coeffs)
    for A in _systems_and_classical(n):
        assert cyclic_module_dim(A, lam) == reference_cyclic_module_dim(A, lam)


def test_closure_matches_reference_random_points():
    for n, lams in ((3, ((1, 1), (2, 1))), (4, ((1, 0, 1), (1, 1, 1)))):
        for A in random_cone_points(n, 5, seed=n + 90):
            for coeffs in lams:
                lam = DominantWeight(n, coeffs)
                assert cyclic_module_dim(A, lam) == reference_cyclic_module_dim(A, lam)


@pytest.mark.parametrize("coeffs, labels", [
    ((2, 1, 2), None),
    ((0, 3, 0), None),
    ((2, 0, 2), None),
    ((1, 2, 1), None),
    ((2, 1, 1, 2), ("toric", "abelian")),
])
def test_symmetric_closure_matches_tensor_words(coeffs, labels, monkeypatch):
    # the same walk over tensor words: every f^T v satisfies the same
    # linear relations, so the essential set and the dependent count agree
    lam = DominantWeight(len(coeffs) + 1, coeffs)
    systems = dict(canonical_weight_systems(lam.n))
    for A in _systems_and_classical(lam.n) if labels is None else [systems[l] for l in labels]:
        symmetric = essential_closure(A, lam)
        with monkeypatch.context() as m:
            m.setattr(representations, "apply_generator", tensor_word_generator)
            assert essential_closure(A, lam) == symmetric


def test_classical_closure_n4_frontier():
    # a column size three times over: the tensor words of (3,3,3) took
    # about 35 s and 0.9 GiB
    lam = DominantWeight(4, (3, 3, 3))
    assert cyclic_module_dim(None, lam) == weyl_dim(lam) == 4096


def test_classical_closure_n5_frontier():
    lam = DominantWeight(5, (1, 1, 1, 2))
    assert cyclic_module_dim(None, lam) == weyl_dim(lam) == 2520


@pytest.mark.parametrize("label, coeffs, dependent", [
    ("abelian", (1, 1, 1, 1), 153),
    ("toric", (1, 1, 1, 1), 0),
    ("pbw-locus-none", (1, 1, 1, 1), 153),
    ("abelian", (2, 1, 1, 2), 625),
    ("toric", (2, 1, 1, 2), 0),
    ("pbw-locus-none", (2, 1, 1, 2), 625),
    ("toric", (1, 1, 1, 1, 1), 0),
    (None, (1, 1, 1, 1), 195),
    ("classical", (1, 1, 1, 1), 195),
    ("pbw-locus-1", (1, 1, 1, 1), 166),
    ("pbw-locus-123", (1, 1, 1, 1), 195),
])
def test_essential_set_is_patterns(label, coeffs, dependent):
    # the abelian and pbw-locus-none modules have nonzero dependent
    # candidates, so their annihilators are not monomial; from the label
    # None (the classical action) on, the algebras are noncommutative
    lam = DominantWeight(len(coeffs) + 1, coeffs)
    A = None if label is None else dict(canonical_weight_systems(lam.n))[label]
    assert essential_closure(A, lam) == ({T.entries for T in enumerate_patterns(lam)}, dependent)


# dependent counts of the closures whose exponents reach N = |lam|, where
# an entry N + 1 is the largest digit of a candidate's code; 0 unless listed
BOUNDARY_DEPENDENT = {
    ((3, (2, 2)), None): 4,
    ((3, (2, 2)), "classical"): 4,
    ((3, (2, 2)), "pbw-locus-1"): 4,
    **{((4, (0, 3, 0)), label): 9 for label in (
        None, "classical", "abelian", "pbw-locus-none", "pbw-locus-1", "pbw-locus-2",
        "pbw-locus-12")},
}


@pytest.mark.parametrize("n, coeffs", [(2, (5,)), (3, (2, 2)), (3, (3, 0)), (3, (0, 3)),
                                       (4, (0, 3, 0))])
def test_closure_at_the_exponent_bound(n, coeffs):
    lam = DominantWeight(n, coeffs)
    for label, A in [(None, None)] + list(canonical_weight_systems(n)):
        essential, dependent = essential_closure(A, lam)
        assert essential == pattern_entries(lam) == essential_exponents(A, lam)
        assert dependent == BOUNDARY_DEPENDENT.get(((n, coeffs), label), 0)
        assert max(max(T) for T in essential) == sum(coeffs)


def test_essential_order_is_part_of_the_statement():
    lam = DominantWeight(5, (1, 1, 1, 1))
    A = abelian_weight_system(5)
    ascending = essential_exponents(A, lam)
    descending = essential_exponents(A, lam, descending=True)
    assert ascending == essential_closure(A, lam)[0]
    assert len(descending) == len(ascending) and descending != ascending


@pytest.mark.parametrize("label", ["classical", "pbw-locus-12"])
def test_essential_closure_matches_reference_noncommutative(label):
    # the reference applies every candidate's ordered monomial from the
    # highest weight tensor; the closure reuses the image one degree down
    lam = DominantWeight(5, (1, 1, 1, 1))
    A = dict(canonical_weight_systems(5))[label]
    assert essential_exponents(A, lam) == essential_closure(A, lam)[0]


def test_interior_closure_inserts_only_basis_vectors(monkeypatch):
    calls = []
    insert = linalg.Echelon.insert
    monkeypatch.setattr(linalg.Echelon, "insert", lambda ech, vec: calls.append(1) or insert(ech, vec))
    for n, coeffs in ((4, (1, 1, 1)), (5, (1, 1, 1, 1))):
        lam = DominantWeight(n, coeffs)
        toric = toric_weight_system(n)
        points = [toric] + [
            WeightSystem.from_function(n, lambda i, j: toric.a(i, j) + B.a(i, j))
            for B in random_cone_points(n, 2, seed=n + 80)
        ]
        for A in points:
            assert is_interior(A)
            del calls[:]
            assert cyclic_module_dim(A, lam) == len(calls) == weyl_dim(lam)


def test_essential_path_dispatch(monkeypatch):
    # one closure for every algebra, commutative or not
    closed = []
    real = representations.essential_closure
    monkeypatch.setattr(representations, "essential_closure",
                        lambda A, *rest: closed.append(A) or real(A, *rest))
    systems = dict(canonical_weight_systems(4))
    lam = DominantWeight(4, (1, 1, 1))
    for A in (None, systems["classical"], systems["pbw-locus-1"], systems["abelian"]):
        del closed[:]
        assert cyclic_module_dim(A, lam) == 64
        assert closed == [A]
