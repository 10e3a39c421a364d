import random
from fractions import Fraction

import pytest

import reference_tropical
from pbwdegen import suite, tropical
from pbwdegen.degrees import all_indices, degree_s
from pbwdegen.ideals import GradedPolynomial, initial_part
from pbwdegen.representations import psi_substitution_check
from pbwdegen.tropical import (
    TropicalPoint,
    cone_C_membership,
    grading_from_point,
    h_image_rank,
    in_trop_necessary_check,
    map_h,
    maximality_witness,
    point_from_triangle,
)
from pbwdegen.weights import (
    abelian_weight_system,
    canonical_weight_systems,
    random_cone_points,
    toric_weight_system,
    triangle_pairs,
)


def test_proper_subsets_count():
    for n in (3, 4, 5):
        assert len(all_indices(n, range(1, n))) == 2**n - 2


def test_point_validation(monkeypatch):
    with pytest.raises(ValueError):
        TropicalPoint(3, {(1,): 0})
    for n in (-3, 0, 1):
        with pytest.raises(ValueError, match="n >= 2"):
            TropicalPoint(n, {})

    def refuse(*args):
        raise AssertionError("listed the subsets")

    # the key count rules out n = 26 and n = 10^6 before any subset is listed
    monkeypatch.setattr(tropical, "all_indices", refuse)
    for n in (26, 10**6):
        with pytest.raises(ValueError, match="one coordinate per"):
            TropicalPoint(n, {(1,): 0})


def test_map_h_agrees_with_degrees():
    A = toric_weight_system(4)
    point = map_h(A)
    for elems in all_indices(4, range(1, 4)):
        assert point.s[elems] == degree_s(A, elems)


def test_cone_membership_of_image():
    for n in (3, 4):
        for _, A in canonical_weight_systems(n):
            ok, violations = cone_C_membership(map_h(A))
            assert ok, violations
        for A in random_cone_points(n, 10, seed=n + 40):
            assert cone_C_membership(map_h(A))[0]


def test_violating_point_reports_conditions():
    s = point_from_triangle(3, {(1, 2): 0, (2, 3): 0, (1, 3): 1})
    ok, violations = cone_C_membership(s)
    assert not ok
    assert violations == ["[iv] i=1"]
    t = point_from_triangle(
        4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 3): 0, (2, 4): 0, (1, 4): 2}
    )
    ok, violations = cone_C_membership(t)
    assert not ok
    assert "[v] i=1 j=3" in violations


def test_witness_is_monomial_after_degeneration():
    s = point_from_triangle(3, {(1, 2): 0, (2, 3): 0, (1, 3): 1})
    w = maximality_witness(s)
    assert w is not None
    g = grading_from_point(s, (1, 2))
    assert len(initial_part(w, g).terms) == 1
    # members of the cone have no witness
    assert maximality_witness(map_h(abelian_weight_system(3))) is None


def test_witness_builds_one_normalized_point(monkeypatch):
    # no point is built, shifted or not: the witness reads an integer
    # multiple of the normalized coordinates
    base = point_from_triangle(3, {(1, 2): 0, (2, 3): 0, (1, 3): 1})
    shifted = TropicalPoint(3, {e: v + len(e) for e, v in base.s.items()})
    made = []

    class Counted(TropicalPoint):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr(tropical, "TropicalPoint", Counted)
    assert maximality_witness(base) == maximality_witness(shifted) is not None
    assert made == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_witnesses_are_relations_with_monomial_initial_parts(n):
    # seeded triangles satisfy [i]-[iii]; each one outside C gets a witness
    # that vanishes under psi, so it lies in the Pluecker ideal
    rng = random.Random(n)
    d = tuple(range(1, n))
    kinds = set()
    for _ in range(40):
        values = {pq: rng.randint(-3, 3) for pq in triangle_pairs(n)}
        s = point_from_triangle(n, values)
        ok, violations = cone_C_membership(s)
        if ok:
            continue
        kinds.add(violations[0].split()[0])
        w = maximality_witness(s)
        assert psi_substitution_check([w], n, d)
        assert len(initial_part(w, grading_from_point(s, d)).terms) == 1
    assert kinds == ({"[iv]"} if n == 3 else {"[iv]", "[v]"})


def test_suite_refuses_witness_outside_the_ideal(monkeypatch):
    # the old [v] witness X_{2,3}X_{1,4} - X_{2,4}X_{1,3} - X_{3,4}X_{1,2}
    # at n=4, i=1, j=3 has one sign wrong: its initial part is still a
    # monomial, but it does not vanish under psi
    x = GradedPolynomial.variable
    wrong = x((2, 3)) * x((1, 4)) - x((2, 4)) * x((1, 3)) - x((3, 4)) * x((1, 2))
    real = tropical.maximality_witness

    def old_witness(point):
        ok, violations = cone_C_membership(point)
        if violations == ["[v] i=1 j=3"]:
            return wrong
        return real(point)

    assert suite.check_tropical_cone(cap=4)[0]
    monkeypatch.setattr(tropical, "maximality_witness", old_witness)
    ok, detail = suite.check_tropical_cone(cap=4)
    assert not ok
    assert detail == "witness not in the Pluecker ideal, n=4"


def test_witness_requires_linear_conditions():
    s = map_h(abelian_weight_system(3))
    coords = dict(s.s)
    coords[(2, 3)] = Fraction(7)
    broken = TropicalPoint(3, coords)
    with pytest.raises(ValueError):
        maximality_witness(broken)


def test_bounded_membership_check():
    s = map_h(abelian_weight_system(3))
    assert in_trop_necessary_check(s, (1, 2), 3)
    bad = point_from_triangle(3, {(1, 2): 0, (2, 3): 0, (1, 3): 1})
    assert not in_trop_necessary_check(bad, (1, 2), 2)


def test_condition_ii_index_families():
    # hand-built families: each shares the single complement pair (i, j)
    families = {
        (3, (1, 3)): [(3,), (2, 3)],
        (4, (1, 3)): [(3,), (2, 3)],
        (4, (1, 4)): [(4,), (2, 4), (2, 3, 4)],
        (4, (2, 4)): [(1, 4), (1, 3, 4)],
    }
    for (n, (i, j)), elems_list in families.items():
        for A in random_cone_points(n, 5, seed=n + 50):
            s = map_h(A)
            values = {s.s[elems] for elems in elems_list}
            assert values == {A.a(i, j)}


def test_grading_from_point_sizes():
    s = map_h(toric_weight_system(4))
    g = grading_from_point(s, (2,))
    assert set(len(I) for I in g) == {2}
    assert g[(3, 4)] == s.s[(3, 4)]


def test_h_image_rank():
    for n in (2, 3, 4, 5, 6):
        assert h_image_rank(n) == n * (n - 1) // 2


def test_json_round_trip_with_rationals():
    A = abelian_weight_system(3)
    s = TropicalPoint(3, {e: v + Fraction(1, 3) for e, v in map_h(A).s.items()})
    data = s.to_json()
    assert data["s"]["1,2"] == "1/3"
    assert TropicalPoint.from_json(data) == s


def test_json_round_trip_of_canonical_points():
    for n in (3, 4):
        for _, A in canonical_weight_systems(n):
            point = map_h(A)
            assert TropicalPoint.from_json(point.to_json()) == point


@pytest.mark.parametrize("value", [0.1, 2.0, True, False, None, [1], "abc", "1/0"])
def test_json_refuses_non_rational_values(value):
    data = map_h(abelian_weight_system(3)).to_json()
    data["s"]["1,2"] = value
    with pytest.raises(ValueError):
        TropicalPoint.from_json(data)


def test_json_refuses_repeated_subsets_and_non_integer_n():
    data = map_h(abelian_weight_system(3)).to_json()
    data["s"]["01,2"] = 0
    with pytest.raises(ValueError, match="repeats"):
        TropicalPoint.from_json(data)
    data = map_h(abelian_weight_system(3)).to_json()
    data["n"] = 3.0
    with pytest.raises(ValueError):
        TropicalPoint.from_json(data)


# the intended violations of suite.check_tropical_cone
BAD_TRIANGLES = [
    (3, {(1, 2): 0, (2, 3): 0, (1, 3): 1}),
    (4, {(1, 2): 0, (2, 3): 0, (3, 4): 0, (1, 3): 2, (2, 4): 0, (1, 4): 0}),
    (4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 3): 0, (2, 4): 0, (1, 4): 2}),
]


def _shifted(point, c):
    """The point plus c, and plus c times the cardinality, on every subset."""
    return [
        TropicalPoint(point.n, {I: v + c for I, v in point.s.items()}),
        TropicalPoint(point.n, {I: v + c * len(I) for I, v in point.s.items()}),
    ]


def _rational_points(n, rng):
    """Seeded points with denominators 2, 3 and 6: random coordinates,
    and images of map_h with one coordinate moved off the image."""
    out = []
    for den in (2, 3, 6):
        coords = all_indices(n, range(1, n))
        out.append(TropicalPoint(n, {I: Fraction(rng.randint(-6, 6), den) for I in coords}))
        A = rng.choice([A for _, A in canonical_weight_systems(n)])
        s = {I: v / den for I, v in map_h(A).s.items()}
        I = rng.choice([I for I in coords if I != tuple(range(1, len(I) + 1))])
        s[I] += Fraction(1, den)
        out.append(TropicalPoint(n, s))
    return out


def _reference_points(ns):
    rng = random.Random(11)
    out = []
    for n in ns:
        images = [map_h(A) for _, A in canonical_weight_systems(n)]
        if n <= 5:
            images += [map_h(A) for A in random_cone_points(n, 8, seed=n + 60)]
        out += images
        for point in images[:3]:
            out += _shifted(point, Fraction(5, 2)) + _shifted(point, Fraction(1, 3))
        for _ in range(4):
            out += _rational_points(n, rng)
    for n, values in BAD_TRIANGLES:
        if n in ns:
            point = point_from_triangle(n, values)
            out += [point] + _shifted(point, Fraction(5, 2)) + _shifted(point, Fraction(1, 3))
    return out


def test_cone_membership_matches_the_fraction_reference():
    kinds = set()
    for point in _reference_points((3, 4, 5, 6)):
        got = cone_C_membership(point)
        assert got == reference_tropical.cone_C_membership(point), point
        kinds.update(v.split()[0] for v in got[1])
    assert kinds == {"[ii]", "[iii]", "[iv]", "[v]"}


def test_bounded_membership_matches_the_fraction_reference():
    verdicts = set()
    for point in _reference_points((3, 4)):
        for d, bound in ([((1, 2), 3)] if point.n == 3 else [((1, 2, 3), 2), ((2,), 3)]):
            got = in_trop_necessary_check(point, d, bound)
            assert got == reference_tropical.in_trop_necessary_check(point, d, bound), point
            verdicts.add(got)
    assert verdicts == {True, False}
