"""Reference tropical cone tests over Fractions, kept for the tests only.

These are the package's original ``cone_C_membership``,
``maximality_witness`` and ``in_trop_necessary_check``: the conditions
[i]-[v] are evaluated on the normalized point's Fraction coordinates, and
the initial components are taken for the grading of the point's own
coordinates. The tests compare the integer-scaled versions of
``pbwdegen.tropical`` against them.
"""

from pbwdegen.degrees import all_indices, degree_table, index_label
from pbwdegen.ideals import (
    GradedPolynomial,
    contains_monomial,
    initial_component,
    multidegrees_up_to,
    plucker_relations,
)
from pbwdegen.tropical import TropicalPoint, grading_from_point
from pbwdegen.weights import Triangle, triangle_pairs


def _prefix(m):
    return tuple(range(1, m + 1))


def normalize(point):
    """The point shifted on each cardinality so that (1..k) sits at 0."""
    shifts = {k: point.s[_prefix(k)] for k in range(1, point.n)}
    return TropicalPoint(point.n, {I: v - shifts[len(I)] for I, v in point.s.items()})


def _inequalities(point):
    """Label and verdict of each inequality [iv] and [v], in order."""
    n, s, p = point.n, point.s, _prefix
    for i in range(1, n - 1):
        a, b, c = p(i - 1) + (i + 1,), p(i) + (i + 2,), p(i - 1) + (i + 2,)
        yield f"[iv] i={i}", s[a] + s[b] >= s[c]
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            a, b = p(i - 1) + (j,), p(i) + (j + 1,)
            c, e = p(i - 1) + (j + 1,), p(i) + (j,)
            yield f"[v] i={i} j={j}", s[a] + s[b] >= s[c] + s[e]


def cone_C_membership(point):
    """(verdict, violations) of the conditions [i]-[v] at the normalized
    point."""
    n = point.n
    point = normalize(point)
    violations = []
    for k in range(1, n):
        if point.s[_prefix(k)] != 0:
            violations.append(f"[i] k={k}")
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            idxs = [
                _prefix(i - 1) + tuple(range(i + 1, k + 1)) + (j,)
                for k in range(i, j)
            ]
            vals = {point.s[idx] for idx in idxs}
            if len(vals) > 1:
                violations.append(f"[ii] i={i} j={j}")
    T = Triangle(n, tuple(point.s[_prefix(p - 1) + (q,)] for p, q in triangle_pairs(n)))
    for I, total in degree_table(T, all_indices(n, range(1, n))).items():
        if point.s[I] != total:
            violations.append(f"[iii] I={index_label(I)}")
    violations += [label for label, holds in _inequalities(point) if not holds]
    return not violations, violations


def maximality_witness(point):
    """X_a X_b - X_c X_d - X_e X_f for the first of [iv] and [v] that fails
    at the normalized point, with [iv] at i read on a = {1..i-1, i+1},
    b = {1..i, i+2} and c = {1..i-1, i+2}, and [v] at (i, j) on
    a = {1..i-1, j}, b = {1..i, j+1}, c = {1..i-1, j+1} and e = {1..i, j};
    None when both hold, ValueError when one of [i]-[iii] fails."""
    ok, violations = cone_C_membership(point)
    linear = [v for v in violations if v.split()[0] in ("[i]", "[ii]", "[iii]")]
    if linear:
        raise ValueError(f"conditions [i]-[iii] must hold first: {linear}")
    if ok:
        return None
    label = violations[0]
    p = _prefix
    if label.startswith("[iv]"):
        i = int(label.split("=")[1])
        a, b, c = p(i - 1) + (i + 1,), p(i) + (i + 2,), p(i - 1) + (i + 2,)
        pairs = (b, a), (p(i) + (i + 1,), c), (p(i - 1) + (i + 1, i + 2), p(i))
    else:
        i, j = (int(part.split("=")[1]) for part in label.split()[1:])
        b, e = p(i) + (j + 1,), p(i) + (j,)
        pairs = ((p(i - 1) + (i + 1, j + 1), e), (p(i - 1) + (i + 1, j), b),
                 (p(i - 1) + (j, j + 1), p(i) + (i + 1,)))
    return GradedPolynomial({tuple(sorted(((x, 1), (y, 1)))): c
                             for (x, y), c in zip(pairs, (1, -1, -1))})


def in_trop_necessary_check(point, d, degree_bound):
    """True iff no initial component of total degree 2 to the bound, for
    the grading of the point's coordinates, contains a monomial."""
    n = point.n
    d = tuple(d)
    g = grading_from_point(point, d)
    gens = plucker_relations(n, d)
    for mu in multidegrees_up_to(d, degree_bound):
        if sum(mu) < 2:
            continue
        if contains_monomial(initial_component(gens, n, d, mu, g)) is not None:
            return False
    return True
