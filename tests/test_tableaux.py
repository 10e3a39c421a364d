import pytest

from pbwdegen import tableaux
from pbwdegen.fflv import DominantWeight, TrianglePattern, enumerate_patterns, weyl_dim
from pbwdegen.tableaux import (
    PBWTableau,
    _adjacent_ok,
    bijection_failure,
    enumerate_ssyt,
    is_pbw_ssyt,
    pbw_column,
    tau,
    zeta,
)


def test_column_arrangement():
    # small entries sit on their own row, large ones fill the gaps downwards
    assert pbw_column(4, {2, 4}) == (4, 2)
    assert pbw_column(4, {1, 2}) == (1, 2)
    assert pbw_column(5, {1, 4, 5}) == (1, 5, 4)
    assert pbw_column(5, {2, 3, 5}) == (5, 2, 3)


def test_tableau_validation():
    with pytest.raises(ValueError):
        PBWTableau(3, ((1,), (1, 2)))  # heights increase
    with pytest.raises(ValueError):
        PBWTableau(3, ((1, 2, 3),))  # height n-1 exceeded
    with pytest.raises(ValueError):
        PBWTableau(3, ((4,),))  # entry out of range
    # each check keeps its message
    with pytest.raises(ValueError, match="non-increasing"):
        PBWTableau(4, ((1,), (2, 1), (3,)))
    with pytest.raises(ValueError, match=r"\[1, n-1\]"):
        PBWTableau(4, ((1, 2), ()))  # zero-height column
    with pytest.raises(ValueError, match=r"\[1, n-1\]"):
        PBWTableau(4, ((1, 2, 3, 4),))  # a column of height n
    with pytest.raises(ValueError, match="out of range"):
        PBWTableau(4, ((1, 2), (0,)))  # entry 0
    with pytest.raises(ValueError, match="out of range"):
        PBWTableau(4, ((1, 5), (2,)))  # entry n+1
    assert PBWTableau(4, ()).columns == ()


def test_column_conditions():
    # the constructor holds only PBW columns
    assert PBWTableau(4, ((4, 2),)).columns == ((4, 2),)
    with pytest.raises(ValueError, match="not a PBW column"):
        PBWTableau(4, ((2, 4),))  # 2 off its row
    with pytest.raises(ValueError, match="not a PBW column"):
        PBWTableau(4, ((3, 3),))  # repeated entry
    with pytest.raises(ValueError, match="not a PBW column"):
        PBWTableau(5, ((1, 3, 4),))  # big block increasing


def test_adjacency_condition():
    good = PBWTableau(3, ((1, 3), (3,)))
    assert is_pbw_ssyt(good)
    bad = PBWTableau(3, ((1, 2), (3,)))  # PBW columns, so it is built
    assert not is_pbw_ssyt(bad)


def order_preceq(x, y, n):
    """Two-column order: x precedes y iff |x| >= |y| and the two-column
    tableau (x | y) is PBW semistandard."""
    x, y = frozenset(x), frozenset(y)
    for s in (x, y):
        if not s or len(s) >= n or any(not 1 <= v <= n for v in s):
            raise ValueError("arguments must be proper nonempty subsets of [1, n]")
    if len(x) < len(y):
        return False
    return _adjacent_ok(pbw_column(n, x), pbw_column(n, y))


def test_tau_rejects_a_non_pbw_tableau():
    # the column (2, 4) puts the small entry 2 in row 1: no tableau holds
    # it, so tau, which checks nothing, never sees it
    with pytest.raises(ValueError, match="not a PBW column"):
        PBWTableau(4, ((2, 4),))


def test_round_trip_checks_each_column_once(monkeypatch):
    # the 1,024 patterns of (1,1,1,1) give four-column tableaux: zeta's
    # constructor checks each column, and tau and is_pbw_ssyt check none
    calls = []
    check = tableaux._column_is_pbw

    def counted(col):
        calls.append(col)
        return check(col)

    monkeypatch.setattr(tableaux, "_column_is_pbw", counted)
    lam = DominantWeight(5, (1, 1, 1, 1))
    patterns = enumerate_patterns(lam)
    assert len(patterns) == 1024
    for T in patterns:
        assert tau(zeta(T, lam)) == T
    assert len(calls) == 4096


def test_bijection_failure_names_the_identity_that_fails(monkeypatch):
    lam = DominantWeight(3, (1, 1))
    assert bijection_failure(lam) is None
    zero = TrianglePattern(3, (0, 0, 0))
    monkeypatch.setattr(tableaux, "tau", lambda Y: zero)
    assert bijection_failure(lam) == "tau(zeta(T)) != T"
    monkeypatch.setattr(tableaux, "enumerate_patterns", lambda lam: [])
    assert bijection_failure(lam) == "zeta(tau(Y)) != Y"


def test_order_preceq():
    assert order_preceq({1, 3}, {3}, 3)
    assert not order_preceq({1, 2}, {3}, 3)
    assert not order_preceq({3}, {1, 3}, 3)  # shorter column cannot precede
    with pytest.raises(ValueError):
        order_preceq(set(), {1}, 3)


def test_enumeration_matches_dimension():
    for n, coeffs in [(3, (1, 1)), (3, (2, 0)), (4, (1, 0, 1)), (4, (0, 2, 0))]:
        lam = DominantWeight(n, coeffs)
        assert len(enumerate_ssyt(lam)) == weyl_dim(lam)


def test_empty_shape():
    lam = DominantWeight(3, (0, 0))
    assert enumerate_ssyt(lam) == [PBWTableau(3, ())]
    assert tau(PBWTableau(3, ())) == TrianglePattern(3, (0, 0, 0))


def test_zeta_example():
    lam = DominantWeight(3, (1, 1))
    T = TrianglePattern.from_map(3, {(1, 3): 1, (2, 3): 1})
    Y = zeta(T, lam)
    assert Y.columns == ((1, 3), (3,))
    assert tau(Y) == T


def test_zeta_raises_when_its_result_is_not_semistandard(monkeypatch):
    # the check must hold under python -O, so it is a raise, not an assert
    import pbwdegen.tableaux as tableaux

    monkeypatch.setattr(tableaux, "is_pbw_ssyt", lambda Y: False)
    lam = DominantWeight(3, (1, 1))
    T = TrianglePattern.from_map(3, {(1, 3): 1, (2, 3): 1})
    with pytest.raises(RuntimeError, match="not PBW semistandard"):
        zeta(T, lam)


def test_single_column_tau_is_fundamental_pattern():
    from itertools import combinations

    from pbwdegen.degrees import fundamental_pattern

    n = 4
    for k in (1, 2, 3):
        for content in combinations(range(1, n + 1), k):
            Y = PBWTableau(n, (pbw_column(n, content),))
            assert tau(Y) == fundamental_pattern(n, content)


def test_round_trip_small():
    for n, coeffs in [(3, (1, 1)), (4, (1, 1, 0)), (4, (0, 1, 1))]:
        lam = DominantWeight(n, coeffs)
        for T in enumerate_patterns(lam):
            assert tau(zeta(T, lam)) == T
        for Y in enumerate_ssyt(lam):
            assert zeta(tau(Y), lam) == Y


def test_zeta_rejects_outside_patterns():
    lam = DominantWeight(3, (1, 0))
    T = TrianglePattern.from_map(3, {(1, 3): 2})
    with pytest.raises(ValueError):
        zeta(T, lam)
