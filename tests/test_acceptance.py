"""Acceptance battery: one test per criterion, one pass/fail line each."""

from fractions import Fraction
from itertools import product

import pytest

from pbwdegen import fflv, representations, suite, tropical


def _run(number, name, func):
    ok, detail = func()
    print(f"acceptance {number:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.mark.parametrize(
    "number,name,func",
    [(i + 1, name, func) for i, (name, func) in enumerate(suite.CHECKS)],
    ids=[name.replace(" ", "-") for name, _ in suite.CHECKS],
)
def test_acceptance(number, name, func):
    _run(number, name, func)


def test_no_check_passes_without_a_case():
    # below MIN_CAP some checks run no case; they must fail, not pass
    vacuous = set()
    for name, func in suite.CHECKS:
        ok, detail = func(2)
        if ok:
            assert int(detail.split()[0]) > 0, (name, detail)
        else:
            assert detail == "no case ran", (name, detail)
            vacuous.add(func.__name__)
    assert {"check_initial_dimensions", "check_toric_detection", "check_cone_soundness"} <= vacuous


def test_a_check_stops_at_its_first_failing_case(monkeypatch):
    # the cases after a failing one assume it held: they would use the
    # missing witness, or unpack the coordinate as one monomial
    monkeypatch.setattr(tropical, "maximality_witness", lambda point: None)
    assert suite.check_tropical_cone(cap=4) == (False, "no witness, n=3")

    real = representations.exp_coordinates

    def two_terms(n, k, A=None, cap=None):
        coords = dict(real(n, k, A, cap))
        coords[(1,)] = {**coords[(1,)], (0,): Fraction(1)}  # plus z_{1,2}
        return coords

    monkeypatch.setattr(representations, "exp_coordinates", two_terms)
    assert suite.check_toric_detection(cap=4) == (False, "C_1 is not a monomial, n=3")


def test_representation_dimensions_walk_each_weight_once(monkeypatch):
    walked = []
    real = fflv.pattern_entries
    monkeypatch.setattr(fflv, "pattern_entries", lambda lam: walked.append(lam.coeffs) or real(lam))
    ok, detail = suite.check_representation_dimensions()
    assert ok and detail.startswith("96 modules, ")
    assert len(walked) == len(set(walked)) == 16


@pytest.mark.parametrize("change, text", [
    (lambda essential: set(sorted(essential)[1:]), "1 != 2"),
    (lambda essential: set(sorted(essential)[1:]) | {(7,)}, "basis check"),
])
def test_representation_dimensions_failure_texts(change, text, monkeypatch):
    real = representations.essential_closure

    def changed(A, lam):
        essential, dependent = real(A, lam)
        return change(essential), dependent

    monkeypatch.setattr(representations, "essential_closure", changed)
    assert suite.check_representation_dimensions() == (False, f"classical n=2 lam=(1,): {text}")


@pytest.mark.parametrize("cap,drawn", [(3, 50), (4, 100), (None, 200)])
def test_cone_soundness_counts_the_triangles_drawn(cap, drawn):
    ok, detail = suite.check_cone_soundness(cap)
    assert ok
    assert detail.startswith(f"{drawn} triangles, ")


def test_dominant_weights_are_every_composition():
    for n in (2, 3, 4, 5):
        for total in (0, 1, 2, 3):
            got = [lam.coeffs for lam in suite._dominant_weights(n, total)]
            want = [c for c in product(range(total + 1), repeat=n - 1) if sum(c) <= total]
            assert len(got) == len(set(got))
            assert sorted(got) == want
    # the case counts of the dimension-agreement and round-trip details
    assert sum(len(suite._dominant_weights(n, 3)) for n in (2, 3, 4, 5)) == 69
    assert sum(len(suite._dominant_weights(n, 2)) for n in (2, 3, 4)) == 19
