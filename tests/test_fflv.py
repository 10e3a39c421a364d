import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbwdegen.fflv import (
    DominantWeight,
    DyckPath,
    TrianglePattern,
    cell_bound,
    dyck_paths,
    enumerate_patterns,
    is_fflv_pattern,
    minkowski_check,
    path_bound,
    weyl_dim,
)
from pbwdegen.weights import triangle_pairs


def path_sum(T, path):
    """The sum of T along a Dyck path: the left side of its inequality."""
    return sum(T.a(i, j) for i, j in path.steps)


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def test_dyck_path_count_closed_form():
    # a path from row start i to row end k is a ballot sequence, so there
    # are Catalan(k - i) of them for every start/end pair
    for n in (3, 4, 5, 6):
        want = sum((n - 1 - m) * catalan(m) for m in range(n - 1))
        assert len(dyck_paths(n)) == want


def test_dyck_path_validation():
    DyckPath(((1, 2),))
    DyckPath(((1, 2), (1, 3), (2, 3)))
    with pytest.raises(ValueError):
        DyckPath(())
    with pytest.raises(ValueError):
        DyckPath(((1, 3),))  # endpoints must sit in the top row
    with pytest.raises(ValueError):
        DyckPath(((1, 2), (2, 3)))  # illegal step


def test_path_bound_and_sum():
    lam = DominantWeight(4, (1, 0, 2))
    p = DyckPath(((1, 2), (1, 3), (1, 4), (2, 4), (3, 4)))
    assert path_bound(lam, p) == 1 + 0 + 2
    T = TrianglePattern.from_map(4, {(1, 2): 1, (1, 4): 2})
    assert path_sum(T, p) == 3


def test_pattern_counts_match_weyl_dimension():
    cases = [
        (3, (1, 0), 3),
        (3, (0, 1), 3),
        (3, (1, 1), 8),
        (3, (2, 1), 15),
        (4, (1, 0, 0), 4),
        (4, (0, 1, 0), 6),
        (4, (1, 0, 1), 15),
        (4, (1, 1, 1), 64),
    ]
    for n, coeffs, dim in cases:
        lam = DominantWeight(n, coeffs)
        assert weyl_dim(lam) == dim
        assert len(enumerate_patterns(lam)) == dim


def test_integer_weyl_dim_matches_the_fraction_formula():
    """Every lambda with n <= 6 and entries <= 3: the integer product
    formula gives the int that the product of Fractions does."""
    count = 0
    for n in range(2, 7):
        for coeffs in product(range(4), repeat=n - 1):
            lam = DominantWeight(n, coeffs)
            want = Fraction(1)
            for i, j in triangle_pairs(n):
                want *= Fraction(sum(lam.a(t) + 1 for t in range(i, j)), j - i)
            got = weyl_dim(lam)
            assert type(got) is int and got == want, coeffs
            count += 1
    assert count == 1364
    # n=448, the weight zero and fundamental weights omega_k, of dimension
    # C(n, k): the pairs of zero coefficient sum are skipped, not multiplied
    n = 448
    start = time.monotonic()
    for k in (0, 1, 200, 447):
        lam = DominantWeight(n, tuple(int(t == k) for t in range(1, n)))
        assert weyl_dim(lam) == comb(n, k), k
    assert time.monotonic() - start < 1.0


def test_membership_respects_path_bounds():
    lam = DominantWeight(3, (1, 1))
    ok = TrianglePattern.from_map(3, {(1, 3): 2})
    too_big = TrianglePattern.from_map(3, {(1, 3): 3})
    assert is_fflv_pattern(ok, lam)
    assert not is_fflv_pattern(too_big, lam)


@st.composite
def triangles_and_weights(draw):
    """A weight and a triangle of 0s and 1s with at most one spike, which
    may lie near the bounds or far above every one of them."""
    n = draw(st.integers(2, 6))
    lam = DominantWeight(n, tuple(draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1))))
    size = n * (n - 1) // 2
    entries = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    spike = draw(st.one_of(st.none(), st.integers(0, lam.total() + 2), st.integers(0, 2**70)))
    if spike is not None:
        entries[draw(st.integers(0, size - 1))] = spike
    return TrianglePattern(n, tuple(entries)), lam


@settings(derandomize=True, max_examples=300, deadline=None)
@given(triangles_and_weights())
def test_membership_is_the_path_definition(case):
    T, lam = case
    want = all(path_sum(T, p) <= path_bound(lam, p) for p in dyck_paths(lam.n))
    assert is_fflv_pattern(T, lam) == want


def test_membership_sums_along_the_long_path():
    # each entry alone fits its hook, their sum breaks the path bound only
    # on the long path of n=4: a_1 + a_2 + a_3 = 2
    lam = DominantWeight(4, (1, 0, 1))
    on_path = TrianglePattern.from_map(4, {(1, 2): 1, (3, 4): 1, (1, 4): 1})
    assert not is_fflv_pattern(on_path, lam)
    assert is_fflv_pattern(TrianglePattern.from_map(4, {(1, 2): 1, (3, 4): 1}), lam)
    assert not is_fflv_pattern(TrianglePattern.from_map(4, {(2, 3): 2**64}), lam)


def test_pattern_entries_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        TrianglePattern(3, (0, -1, 0))
    with pytest.raises(ValueError, match="wrong number"):
        TrianglePattern(3, (0, 0))
    assert TrianglePattern(1, ()).entries == ()  # the empty n=1 triangle


def test_cell_bound():
    lam = DominantWeight(4, (2, 1, 0))
    assert cell_bound(lam, 1, 2) == 2
    assert cell_bound(lam, 1, 4) == 3
    assert cell_bound(lam, 3, 4) == 0


def test_pattern_addition_and_json():
    b = TrianglePattern.from_map(3, {(1, 2): 1, (2, 3): 2})
    data = b.to_json()
    assert TrianglePattern.from_map(3, {
        tuple(int(x) for x in key.split(",")): val for key, val in data["t"].items()
    }) == b


def test_minkowski_beyond_fundamentals():
    lam = DominantWeight(3, (1, 1))
    mu = DominantWeight(3, (1, 0))
    assert minkowski_check(lam, mu)
    assert minkowski_check(DominantWeight(4, (1, 0, 1)), DominantWeight(4, (0, 1, 0)))


def test_weight_arithmetic():
    lam = DominantWeight(4, (1, 0, 2))
    mu = DominantWeight(4, (0, 1, 0))
    assert (lam + mu).coeffs == (1, 1, 2)
    assert lam.total() == 3
    assert lam.column_sizes() == (1, 3)
