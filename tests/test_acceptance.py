"""Acceptance battery: one test per criterion, one pass/fail line each."""

from itertools import product

import pytest

from pbwdegen import suite


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
