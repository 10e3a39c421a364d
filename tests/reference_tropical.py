"""Reference tropical cone tests over Fractions, kept for the tests only.

These are the package's original ``cone_C_membership`` and
``in_trop_necessary_check``: the conditions [i]-[v] are evaluated on the
normalized point's Fraction coordinates, and the initial components are
taken for the grading of the point's own coordinates. The tests compare
the integer-scaled versions of ``pbwdegen.tropical`` against them.
"""

from pbwdegen.degrees import all_indices, degree_table, index_label
from pbwdegen.ideals import (
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
