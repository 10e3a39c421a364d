import pytest

from pbwdegen.fflv import TrianglePattern
from pbwdegen.weights import (
    NotInConeError,
    WeightSystem,
    abelian_weight_system,
    canonical_weight_systems,
    check_cone_membership,
    derived_inequalities_hold,
    face_contains,
    face_signature,
    ineq_b_indices,
    is_interior,
    random_cone_points,
    toric_weight_system,
    triangle_pairs,
    zero_weight_system,
)


def test_triangle_pairs_order_and_count():
    assert triangle_pairs(3) == [(1, 2), (1, 3), (2, 3)]
    assert len(triangle_pairs(6)) == 15


def test_entry_lookup():
    A = WeightSystem.from_function(4, lambda i, j: 10 * i + j)
    assert A.a(1, 2) == 12
    assert A.a(2, 4) == 24
    with pytest.raises(KeyError):
        A.a(2, 2)


@pytest.mark.parametrize("cls", [WeightSystem, TrianglePattern])
def test_triangle_indexing_matches_map(cls):
    for n in range(2, 9):
        T = cls(n, tuple(range(n * (n - 1) // 2)))
        for (i, j), v in T.as_map().items():
            assert T.a(i, j) == v
        for i, j in [(0, 1), (1, 1), (2, 2), (3, 2), (1, n + 1), (n, n + 1)]:
            with pytest.raises(KeyError):
                T.a(i, j)


def test_canonical_systems_are_members():
    for n in (3, 4, 5):
        assert check_cone_membership(zero_weight_system(n))
        assert check_cone_membership(abelian_weight_system(n))
        assert check_cone_membership(toric_weight_system(n))
        assert is_interior(toric_weight_system(n))
        assert not is_interior(zero_weight_system(n))


def test_violating_triangle_rejected():
    # a_{1,2} + a_{2,3} < a_{1,3} breaks inequality (a)
    A = WeightSystem.from_map(3, {(1, 2): 0, (2, 3): 0, (1, 3): 1})
    assert not check_cone_membership(A)
    with pytest.raises(NotInConeError):
        face_signature(A)


def test_face_signatures():
    sig_zero = face_signature(zero_weight_system(4))
    sig_ab = face_signature(abelian_weight_system(4))
    assert sig_zero.tight_a == frozenset({1, 2})
    assert sig_zero.tight_b == frozenset(ineq_b_indices(4))
    assert sig_ab.tight_a == frozenset()
    assert sig_ab.tight_b == frozenset(ineq_b_indices(4))
    # the abelian face contains the zero face but not conversely
    assert face_contains(sig_ab, sig_zero)
    assert not face_contains(sig_zero, sig_ab)


def test_derived_inequalities_on_samples():
    for n in (3, 4, 5):
        for A in random_cone_points(n, 10, seed=n):
            assert derived_inequalities_hold(A)


def test_canonical_weight_systems_labels():
    for n in (3, 4, 5):
        systems = canonical_weight_systems(n)
        labels = [label for label, _ in systems]
        assert labels[:3] == ["classical", "abelian", "toric"]
        assert len(systems) == 3 + 2 ** (n - 2)
        assert len(set(labels)) == len(labels)
        for _, A in systems:
            assert check_cone_membership(A)


def test_random_cone_points_deterministic():
    a = random_cone_points(4, 5, seed=7)
    b = random_cone_points(4, 5, seed=7)
    assert a == b


def test_json_round_trip():
    A = toric_weight_system(4)
    data = A.to_json()
    assert data["n"] == 4
    assert WeightSystem.from_json(data) == A


@pytest.mark.parametrize("change, message", [
    ({"a": {"1,2": 2.7, "1,3": 0, "2,3": 0}}, "must be an integer"),
    ({"a": {"1,2": 2.0, "1,3": 0, "2,3": 0}}, "must be an integer"),
    ({"a": {"1,2": True, "1,3": 0, "2,3": 0}}, "must be an integer"),
    ({"a": {"1,2": "1", "1,3": 0, "2,3": 0}}, "must be an integer"),
    ({"n": 3.0}, "must be an integer"),
    ({"n": True}, "must be an integer"),
    ({"a": {"1,2": 0, "1,3": 0}}, "2 keys for the 3 pairs"),
    ({"a": {"1,2": 0, "1,3": 0, "2,3": 0, "3,4": 0}}, "4 keys for the 3 pairs"),
    ({"a": {"1,2": 0, "1,3": 0, "3,4": 0}}, "outside the triangle"),
    ({"a": {"1,2": 0, "1,3": 0, "2,2": 0}}, "outside the triangle"),
    ({"a": {"2,1": 0, "1,3": 0, "2,3": 0}}, "outside the triangle"),
    ({"a": {"1,2": 0, "01,2": 0, "1,3": 0}}, "repeats the pair"),
    ({"a": {"01,2": 0, "1,2": 0, "1,3": 0}}, "is not spelled 1,2"),
    ({"a": {"1,2": 0, "1,3": 0, " 2,3": 0}}, "is not spelled 2,3"),
    ({"a": {"1,2": 0, "1,3": 0, "2, 3": 0}}, "is not spelled 2,3"),
    ({"a": {"1,2": 0, "1,3": 0, "+2,3": 0}}, "is not spelled 2,3"),
    ({"a": {"1,2": 0, "1,3": 0, "02,3": 0}}, "is not spelled 2,3"),
])
def test_json_is_strict(change, message):
    data = {"n": 3, "a": {"1,2": 0, "1,3": 0, "2,3": 0}}
    assert WeightSystem.from_json(data) == zero_weight_system(3)
    data.update(change)
    with pytest.raises(ValueError, match=message):
        WeightSystem.from_json(data)


def test_json_entries_must_be_an_object():
    with pytest.raises(TypeError):
        WeightSystem.from_json({"n": 3, "a": [0, 0, 0]})
