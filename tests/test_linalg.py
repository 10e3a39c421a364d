"""The integer echelon kernel against the Fraction reference and sympy."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from fraction_echelon import FractionEchelon, canonical_rows
from pbwdegen.linalg import Echelon, _eliminate, _integral

COLUMNS = 8

entries = st.builds(
    Fraction,
    st.integers(-6, 6).filter(bool),
    st.sampled_from((1, 1, 1, 2, 3, 4)),
)
# Rational vectors, and all-int vectors as the ideal and module paths insert.
sparse_vectors = st.one_of(
    st.dictionaries(st.integers(0, COLUMNS - 1), entries, max_size=COLUMNS),
    st.dictionaries(st.integers(0, COLUMNS - 1), st.integers(-6, 6).filter(bool), max_size=COLUMNS),
)


@st.composite
def vector_lists(draw):
    """Random sparse vectors, each possibly followed by a rational
    combination of two earlier ones, so that dependent inserts occur."""
    vecs = []
    for vec in draw(st.lists(sparse_vectors, max_size=10)):
        vecs.append(vec)
        if len(vecs) >= 2 and draw(st.booleans()):
            i = draw(st.integers(0, len(vecs) - 1))
            j = draw(st.integers(0, len(vecs) - 1))
            a, b = draw(entries), draw(entries)
            combo = {}
            for c in set(vecs[i]) | set(vecs[j]):
                combo[c] = a * vecs[i].get(c, 0) + b * vecs[j].get(c, 0)
            vecs.append({c: v for c, v in combo.items() if v})
    return vecs


def sympy_rank(vecs):
    if not vecs:
        return 0
    rows = [[QQ(vec.get(c, 0).numerator, vec.get(c, Fraction(1)).denominator)
             for c in range(COLUMNS)] for vec in vecs]
    return DomainMatrix(rows, (len(vecs), COLUMNS), QQ).rank()


# The column order: the labels' own, or a permutation of them as a key,
# as the (grade, column) order of an initial ideal is.
orders = st.one_of(st.none(), st.permutations(range(COLUMNS)).map(lambda p: p.__getitem__))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(vector_lists(), orders)
def test_integer_kernel_matches_fraction_reference(vecs, order):
    fast, slow = Echelon(order), FractionEchelon(order)
    for vec in vecs:
        before = dict(vec)
        assert fast.insert(vec) == slow.insert(vec)
        assert vec == before  # callers' rows, cached ones too, are not touched
    assert fast.rank == slow.rank == sympy_rank(vecs)
    pivots = [min(row, key=slow.poskey) for row in fast.rref()]
    assert pivots == sorted(slow.rows, key=slow.poskey)
    assert all(row[pivot] > 0 for row, pivot in zip(fast.rref(), pivots))
    rows = fast.reduced_rows()
    assert rows == canonical_rows(slow.reduced_rows())
    for row in rows:
        assert all(type(v) is Fraction for _, v in row)


def test_stored_rows_are_primitive_integers():
    ech = Echelon()
    ech.insert({0: Fraction(-2, 3), 1: Fraction(4, 9)})
    ech.insert({0: 6, 2: -3})
    assert ech.rows == {0: {0: 3, 1: -2}, 1: {1: 4, 2: -3}}
    assert ech.reduced_rows() == (
        ((0, 1), (2, Fraction(-1, 2))),
        ((1, 1), (2, Fraction(-3, 4))),
    )


def test_a_row_reduced_by_a_unit_pivot_is_stored_primitive():
    # (1, 3) - (1, 1) = (0, 2): _eliminate leaves it as is when b = 1
    ech = Echelon()
    ech.insert({1: 1, 2: 1})
    assert ech.insert({1: 1, 2: 3}) == 2
    assert ech.rows[2] == {2: 1}
    assert ech.rref() == [{1: 1}, {2: 1}]


def test_integral_of_a_zero_vector_is_zero():
    # the gcd of a zero vector is 0: nothing is divided
    assert _integral({0: Fraction(0), 1: Fraction(0)}) == {0: 0, 1: 0}
    assert _integral({0: 0, 1: 0}) == {0: 0, 1: 0}
    assert _integral({0: Fraction(2, 3), 1: Fraction(0)}) == {0: 1, 1: 0}


def test_rows_put_in_directly_need_not_be_primitive():
    """reduced_rows needs integer rows with distinct, positive pivots only."""
    rows = {0: {0: 2, 1: 4, 3: 6}, 1: {1: 3, 3: -3}, 2: {2: 4, 3: 2}}
    ech = Echelon()
    ech.rows = {p: dict(row) for p, row in rows.items()}
    ref = FractionEchelon()
    for row in rows.values():
        ref.insert(row)
    assert ech.reduced_rows() == canonical_rows(ref.reduced_rows())
    assert ech.rows == rows


@pytest.mark.parametrize("vec, row, want", [
    # a = 2, b = -3, g = 1: -3 * vec - 2 * row
    ({0: 1, 1: 2}, {1: -3, 2: 1}, {0: -3, 2: -2}),
    # a = 4, b = -6, g = 2: -3 * vec - 2 * row
    ({0: 3, 1: 4}, {1: -6, 2: 1}, {0: -9, 2: -2}),
    # a = 2, b = -1: -vec - 2 * row; vec's entry off row's support changes sign
    ({0: 5, 1: 2}, {1: -1, 2: 3}, {0: -5, 2: -6}),
    # b = 1 and a = 2: vec - 2 * row, not made primitive
    ({0: 2, 1: 2}, {1: 1, 2: 1}, {0: 2, 2: -2}),
])
def test_eliminate_takes_a_leading_coefficient_of_either_sign(vec, row, want):
    """vec := (b/g)*vec - (a/g)*row for a = vec[col], b = row[col] of
    either sign and g = gcd(a, b) > 0: the result is the combination that
    clears col, with the sign of b/g on vec's part."""
    before = dict(row)
    _eliminate(vec, row, 1)
    assert vec == want
    assert row == before
