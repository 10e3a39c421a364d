from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbwdegen import cli, representations, suite, tableaux as tableaux_module
from pbwdegen.fflv import (
    DominantWeight,
    TrianglePattern,
    _walk_patterns,
    enumerate_patterns,
    minkowski_check,
    weyl_dim,
)
from pbwdegen.tableaux import PBWTableau, enumerate_ssyt, tau, zeta
from pbwdegen.weights import Triangle, toric_weight_system
from reference_combinatorics import cell_walk_patterns, reference_tau, reference_zeta
from reference_enumeration import reference_patterns, reference_ssyt


def _weights(n, total):
    return [
        DominantWeight(n, c)
        for c in product(range(total + 1), repeat=n - 1)
        if sum(c) <= total
    ]


EQUIVALENCE_CASES = (
    [lam for n in range(2, 6) for lam in _weights(n, 3)]
    + _weights(6, 2)
    + [DominantWeight(6, (1,) * 5)]
)


@pytest.mark.parametrize(
    "lam", EQUIVALENCE_CASES, ids=lambda lam: f"n{lam.n}-" + ",".join(map(str, lam.coeffs))
)
def test_enumerators_match_reference(lam):
    # same objects in the same order as the try-every-value references;
    # the enumerators build theirs unchecked, and rebuilding each through
    # the validating constructor changes nothing
    patterns, tableaux = enumerate_patterns(lam), enumerate_ssyt(lam)
    assert patterns == reference_patterns(lam)
    assert tableaux == reference_ssyt(lam)
    assert [TrianglePattern(T.n, T.entries) for T in patterns] == patterns
    assert [PBWTableau(Y.n, Y.columns) for Y in tableaux] == tableaux


def test_enumerators_check_once_per_call(monkeypatch):
    lam = DominantWeight(4, (1, 1, 1))
    checks = []
    post_init = TrianglePattern.__post_init__
    monkeypatch.setattr(TrianglePattern, "__post_init__", lambda T: checks.append(T) or post_init(T))
    assert len(enumerate_patterns(lam)) == 64 and len(checks) == 1
    check_shape = tableaux_module._check_shape
    monkeypatch.setattr(tableaux_module, "_check_shape",
                        lambda *args: checks.append(args) or check_shape(*args))
    assert len(enumerate_ssyt(lam)) == 64 and len(checks) == 2
    # the one check still refuses what the constructor refuses
    monkeypatch.setattr(tableaux_module, "_column_heights", lambda lam: [1, 2])
    with pytest.raises(ValueError, match="non-increasing"):
        enumerate_ssyt(lam)


def test_counting_callers_build_no_objects(monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (TrianglePattern, PBWTableau):
        monkeypatch.setattr(cls, "__init__", refuse)
        monkeypatch.setattr(cls, "__post_init__", refuse)
    assert suite.check_dimension_agreement()[0]
    for argv in (["fflv", "count", "--lam", "1,1,1"], ["tableaux", "count", "--lam", "1,1,1"]):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == "64"
    lam = DominantWeight(3, (1, 1))
    assert representations.fflv_basis_check(toric_weight_system(3), lam)
    assert representations.annihilator_monomial_check(toric_weight_system(3), lam)
    assert minkowski_check(DominantWeight.fundamental(4, 1), DominantWeight.fundamental(4, 2))
    with pytest.raises(AssertionError, match="built a TrianglePattern"):
        enumerate_patterns(lam)  # the patch is in force


# Weights whose largest Dyck path bound, the total a_1 + ... + a_{n-1}, is
# 2^k - 1 or 2^k, so the enumerator's slack fields are exactly full or one
# bit wider; all-zero weights and n=2 are among EQUIVALENCE_CASES.
BOUNDARY_CASES = [
    lam
    for t in (1, 2, 3, 4, 7, 8, 15, 16)
    for lam in (DominantWeight(2, (t,)), DominantWeight(3, (t // 2, t - t // 2)),
                DominantWeight(4, (t - 1, 0, 1)), DominantWeight(5, (t - 1, 0, 0, 1)))
]


@pytest.mark.parametrize(
    "lam", BOUNDARY_CASES, ids=lambda lam: f"n{lam.n}-" + ",".join(map(str, lam.coeffs))
)
def test_packed_slack_fields_match_reference(lam):
    assert enumerate_patterns(lam) == reference_patterns(lam)


# All of |lambda| on one fundamental weight or on the two ends: one row
# of the triangle holds every value, or one column, or two far apart.
SKEWED_CASES = [DominantWeight(len(c) + 1, c) for c in
                ((6, 0, 0, 0, 0), (0, 0, 0, 0, 6), (4, 0, 0, 4), (10, 0, 0, 0, 0, 0))]


def test_row_walk_matches_the_cell_walk():
    for lam in EQUIVALENCE_CASES + BOUNDARY_CASES + SKEWED_CASES:
        entries = []
        _walk_patterns(lam, entries.append)
        assert entries == cell_walk_patterns(lam), lam


@pytest.mark.parametrize(
    "lam", SKEWED_CASES, ids=lambda lam: f"n{lam.n}-" + ",".join(map(str, lam.coeffs))
)
def test_zeta_and_tau_match_the_references(lam):
    for T in enumerate_patterns(lam):
        Y = zeta(T, lam)
        assert Y == reference_zeta(T, lam)
        assert tau(Y) == reference_tau(Y) == T


def test_enumerated_objects_carry_no_dict():
    """Slots only: patterns, tableaux and weight systems hash, compare and
    serve as lru_cache keys as the dataclasses did."""
    lam = DominantWeight(4, (1, 1, 1))
    T, Y = enumerate_patterns(lam)[5], enumerate_ssyt(lam)[5]
    A = toric_weight_system(4)
    for obj, rebuilt in ((T, TrianglePattern(T.n, T.entries)),
                         (Y, PBWTableau(Y.n, Y.columns)), (A, toric_weight_system(4))):
        assert not hasattr(obj, "__dict__")
        assert obj == rebuilt and obj is not rebuilt and hash(obj) == hash(rebuilt)
        with pytest.raises(AttributeError):
            obj.n = 5
    assert T != TrianglePattern(4, (0,) * 6) and T != Triangle(T.n, T.entries)
    calls = []

    @lru_cache(maxsize=None)
    def key(obj):
        calls.append(obj)
        return obj.n

    assert [key(obj) for obj in (T, Y, A, TrianglePattern(T.n, T.entries), A)] == [4] * 5
    assert calls == [T, Y, A]


@st.composite
def small_weights(draw):
    """Dominant weights, n = 2..5, with Weyl dimension at most 2,000: the
    largest coefficient is lowered until the dimension fits."""
    n = draw(st.integers(2, 5))
    coeffs = draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1))
    while weyl_dim(DominantWeight(n, tuple(coeffs))) > 2000:
        coeffs[coeffs.index(max(coeffs))] -= 1
    return DominantWeight(n, tuple(coeffs))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_weights())
def test_patterns_and_tableaux_in_bijection(lam):
    patterns = enumerate_patterns(lam)
    tableaux = enumerate_ssyt(lam)
    assert len(patterns) == len(tableaux) == weyl_dim(lam)
    for T in patterns:
        assert tau(zeta(T, lam)) == T
    for Y in tableaux:
        assert zeta(tau(Y), lam) == Y
