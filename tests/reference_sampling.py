"""Reference cone predicate and sampler, kept for the tests only.

The predicate is the package's original definition: the slacks of (a)
and (b) read entry by entry through ``A.a``. The sampler builds each
point with ``slack_point`` from its superdiagonal and its slacks, the
construction that ``pbwdegen.weights.random_cone_points`` makes with the
same draws. The box sampler, the package's earlier one, rejection-samples
uniform triangles; it stays as a source of test triangles on and off the
faces of the cone.
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


def slack_point(n, superdiagonal, slack):
    """The integer triangle with the entries a_{i,i+1} taken from
    superdiagonal and every other entry the bound that its inequality (a)
    or (b) puts on it minus slack(): each inequality is used once, (a)
    first and then (b) by increasing gap j - i and then i. It lies in the
    cone iff every slack is >= 0, and a zero slack makes its inequality
    tight."""
    a = {(i, i + 1): superdiagonal[i - 1] for i in range(1, n)}
    for i in range(1, n - 1):
        a[(i, i + 2)] = a[(i, i + 1)] + a[(i + 1, i + 2)] - slack()
    for diff in range(3, n):
        for i in range(1, n - diff + 1):
            j = i + diff - 1
            a[(i, j + 1)] = a[(i, j)] + a[(i + 1, j + 1)] - a[(i + 1, j)] - slack()
    return WeightSystem.from_map(n, a)


def slack_order(n):
    """The inequalities in the order slack_point draws their slacks: i for
    (a) at i, then (i, j) for (b) at (i, j)."""
    return ineq_a_indices(n) + [(i, i + diff - 1) for diff in range(3, n)
                                for i in range(1, n - diff + 1)]


def random_cone_points(n, count, seed=0):
    """count points of slack_point, each with a superdiagonal uniform on
    [-3, 3] and slacks uniform on [0, 3], drawn from random.Random(seed)."""
    if count <= 0:
        return []
    rng = random.Random(seed)
    return [slack_point(n, [rng.randint(-3, 3) for _ in range(1, n)], lambda: rng.randint(0, 3))
            for _ in range(count)]


def box_triangles(n, count, bound=3, seed=0):
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
