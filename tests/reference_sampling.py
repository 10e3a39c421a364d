"""Reference cone predicate and sampler, kept for the tests only.

These are the package's original definitions: the slacks of (a) and (b)
read entry by entry through ``A.a``, and a sampler that draws every
candidate with ``randint``, builds a validated ``WeightSystem`` from it
and tests it with the membership check below. The tests compare the
table-driven predicate and sampler of ``pbwdegen.weights`` against them.
"""

import random

from pbwdegen.weights import (
    FaceSignature,
    WeightSystem,
    ineq_a_indices,
    ineq_b_indices,
    triangle_pairs,
)


def slack_a(A, i):
    return A.a(i, i + 1) + A.a(i + 1, i + 2) - A.a(i, i + 2)


def slack_b(A, i, j):
    return A.a(i, j) + A.a(i + 1, j + 1) - A.a(i, j + 1) - A.a(i + 1, j)


def check_cone_membership(A):
    """True iff every defining inequality (a), (b) holds."""
    if any(slack_a(A, i) < 0 for i in ineq_a_indices(A.n)):
        return False
    return all(slack_b(A, i, j) >= 0 for i, j in ineq_b_indices(A.n))


def face_signature(A):
    """The tight sets of an admissible A; None outside the cone."""
    if not check_cone_membership(A):
        return None
    tight_a = frozenset(i for i in ineq_a_indices(A.n) if slack_a(A, i) == 0)
    tight_b = frozenset(p for p in ineq_b_indices(A.n) if slack_b(A, *p) == 0)
    return FaceSignature(A.n, tight_a, tight_b)


def random_cone_points(n, count, bound=3, seed=0):
    """Rejection-sample admissible integer triangles with entries in
    [-bound, bound]."""
    rng = random.Random(seed)
    pairs = triangle_pairs(n)
    found = []
    while len(found) < count:
        A = WeightSystem(n, tuple(rng.randint(-bound, bound) for _ in pairs))
        if check_cone_membership(A):
            found.append(A)
    return found
