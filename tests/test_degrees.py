from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbwdegen.degrees import (
    GradingVector,
    all_indices,
    check_index,
    complement_pairs,
    degree_s,
    fundamental_pattern,
    grading_vector,
    index_label,
)
from pbwdegen.tropical import cone_C_membership, map_h
from pbwdegen.weights import (
    NotInConeError,
    WeightSystem,
    abelian_weight_system,
    check_cone_membership,
    random_cone_points,
    zero_weight_system,
)


def oracle_min_cost(A, I):
    """Shortest path from the leading subset to I in the move graph.

    One move replaces an element i by some j > i not yet present, at cost
    a_{i,j}. Processing states by increasing element sum makes the graph
    acyclic, so negative costs are fine.
    """
    n, k = A.n, len(I)
    states = sorted(combinations(range(1, n + 1), k), key=lambda s: (sum(s), s))
    dist = {tuple(range(1, k + 1)): 0}
    for st in states:
        if st not in dist:
            continue
        for i in st:
            for j in range(i + 1, n + 1):
                if j in st:
                    continue
                new = tuple(sorted(j if v == i else v for v in st))
                cost = dist[st] + A.a(i, j)
                if new not in dist or cost < dist[new]:
                    dist[new] = cost
    return dist[I]


def test_index_validation():
    assert check_index(4, [1, 3]) == (1, 3)
    with pytest.raises(ValueError, match="nonempty and proper"):
        check_index(3, (1, 2, 3))  # not proper
    with pytest.raises(ValueError, match="strictly increasing"):
        check_index(4, (2, 2))
    with pytest.raises(ValueError, match="nonempty and proper"):
        check_index(4, ())
    with pytest.raises(ValueError, match="out of range"):
        check_index(4, (0, 2))


def test_complement_pairs_examples():
    assert complement_pairs((2, 3)) == [(1, 3)]
    assert complement_pairs((3, 4)) == [(1, 4), (2, 3)]
    assert complement_pairs((1, 2)) == []
    assert complement_pairs((2, 4, 5)) == [(1, 5), (3, 4)]


def test_degree_matches_shortest_path_oracle():
    for n in (3, 4):
        for A in random_cone_points(n, 8, seed=n + 20):
            for k in range(1, n):
                for I in all_indices(n, (k,)):
                    assert degree_s(A, I) == oracle_min_cost(A, I)


def test_degree_requires_cone_membership():
    A = WeightSystem.from_map(3, {(1, 2): 0, (2, 3): 0, (1, 3): 5})
    with pytest.raises(NotInConeError):
        degree_s(A, (3,))
    with pytest.raises(NotInConeError):
        grading_vector(A, (1, 2))
    with pytest.raises(NotInConeError):
        map_h(A)


@st.composite
def cone_points(draw):
    """Integer points of the cone for n = 3..6, faces included. The
    entries a_{i,i+1} are free; every other entry is the bound that its
    inequality (a) or (b) puts on it minus a drawn slack, so each
    inequality is used once and a zero slack makes it tight."""
    n = draw(st.integers(3, 6))
    slack = st.integers(0, 3)
    a = {(i, i + 1): draw(st.integers(-3, 3)) for i in range(1, n)}
    for i in range(1, n - 1):
        a[(i, i + 2)] = a[(i, i + 1)] + a[(i + 1, i + 2)] - draw(slack)
    for diff in range(3, n):
        for i in range(1, n - diff + 1):
            j = i + diff - 1
            a[(i, j + 1)] = a[(i, j)] + a[(i + 1, j + 1)] - a[(i + 1, j)] - draw(slack)
    A = WeightSystem.from_map(n, a)
    assert check_cone_membership(A)
    return A


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cone_points())
def test_degrees_on_random_cone_points(A):
    for k in range(1, A.n):
        for I in all_indices(A.n, (k,)):
            assert degree_s(A, I) == oracle_min_cost(A, I)
    assert cone_C_membership(map_h(A))[0]


def test_abelian_grading_n3():
    g = grading_vector(abelian_weight_system(3), (1, 2))
    want = {"1": 0, "2": 1, "3": 1, "1,2": 0, "1,3": 1, "2,3": 1}
    assert {index_label(I): v for I, v in g.s.items()} == want
    assert g.to_json() == dict(sorted(want.items()))


def test_zero_grading():
    g = grading_vector(zero_weight_system(4), (2,))
    assert list(g.s) == all_indices(4, (2,))
    assert all(v == 0 for v in g.s.values())
    assert isinstance(g, GradingVector)


def test_grading_vector_validates_d():
    A = abelian_weight_system(4)
    with pytest.raises(ValueError):
        grading_vector(A, ())
    with pytest.raises(ValueError):
        grading_vector(A, (2, 1))
    with pytest.raises(ValueError):
        grading_vector(A, (1, 4))


def test_fundamental_patterns_exhaust_the_fundamental_polytope():
    from pbwdegen.fflv import DominantWeight, enumerate_patterns

    for n, k in [(3, 1), (3, 2), (4, 2), (4, 3)]:
        images = {fundamental_pattern(n, I).entries for I in all_indices(n, (k,))}
        target = {
            T.entries for T in enumerate_patterns(DominantWeight.fundamental(n, k))
        }
        assert len(images) == len(all_indices(n, (k,)))  # injective
        assert images == target


def test_fundamental_pattern_support():
    T = fundamental_pattern(4, (3, 4))
    assert set(T.support()) == {(1, 4), (2, 3)}
    assert T.a(1, 4) == 1
    assert fundamental_pattern(4, (1, 2)).support() == []
