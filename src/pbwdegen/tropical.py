"""The degree map into tropical coordinates and its explicit maximal cone.

A tropical point assigns a rational degree to every proper nonempty
subset of [1, n]. The linear map from weight triangles sends a system to
the degrees of all Pluecker coordinates; its image is cut out by the
linear conditions [i]-[iii] and, inside that subspace, by the
inequalities [iv] and [v]. Violating an inequality produces a witness
relation whose initial part is a single monomial, certifying that the
point leaves the tropical variety.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .degrees import all_indices, degree_table, index_label
from .ideals import (
    GradedPolynomial,
    contains_monomial,
    initial_component,
    multidegrees_up_to,
    plucker_relations,
)
from .linalg import Echelon, _integral
from .weights import (Triangle, _cone_rows, _slacks, ineq_a_indices, ineq_b_indices,
                      json_int, json_keys, json_rational, require_cone_membership,
                      triangle_pairs)


@dataclass(frozen=True)
class TropicalPoint:
    """Rational coordinates over all proper nonempty subsets of [1, n],
    kept as Fractions in the order of all_indices(n, range(1, n))."""

    n: int
    s: dict

    def __post_init__(self):
        n, count = self.n, len(self.s)
        if n < 2:
            raise ValueError(f"need n >= 2, got n={n}")
        # count the keys before listing the subsets, by bit length first
        # so that a huge n never builds 2^n
        if ((count + 2).bit_length() != n + 1 or count != 2**n - 2
                or set(self.s) != set(subsets := all_indices(n, range(1, n)))):
            raise ValueError("need one coordinate per proper nonempty subset")
        object.__setattr__(self, "s", {I: Fraction(self.s[I]) for I in subsets})

    def to_json(self):
        out = {}
        for I in all_indices(self.n, range(1, self.n)):
            v = self.s[I]
            out[index_label(I)] = int(v) if v.denominator == 1 else str(v)
        return {"n": self.n, "s": out}

    @classmethod
    def from_json(cls, data):
        """Parse {"n": n, "s": {"i,j,...": value}}. A value is a JSON
        integer or a string such as "1/3"; floats and bools are refused,
        since they would be read as the binary float's exact value. A key
        is spelled as to_json spells it, so one subset has one key."""
        n = json_int(data["n"], "n")
        if not isinstance(data["s"], dict):
            raise TypeError("'s' must map \"i,j,...\" keys to rationals")
        s = {elems: json_rational(data["s"][key], f"s[{key!r}]")
             for elems, key in json_keys(data["s"], "subset").items()}
        return cls(n, s)


def point_from_triangle(n, values):
    """Point with s_I summing the given pair values over the complement
    pairs of I. No cone requirement; violating triangles give points
    satisfying [i]-[iii] but possibly not [iv]/[v]."""
    T = Triangle(n, tuple(values[pq] for pq in triangle_pairs(n)))
    return TropicalPoint(n, degree_table(T, all_indices(n, range(1, n))))


def map_h(A):
    """Degrees of all Pluecker coordinates of an admissible weight system.
    The point is built unchecked: the table lists every subset in order."""
    require_cone_membership(A)
    table = degree_table(A, all_indices(A.n, range(1, A.n)))
    value = {v: Fraction(v) for v in set(table.values())}
    point = object.__new__(TropicalPoint)
    point.__dict__.update(n=A.n, s={I: value[v] for I, v in table.items()})
    return point


def _violations(point):
    """The conditions [ii]-[v] that fail at the point, in order, each as
    its label and, for [iv] and [v], the index pairs (a, b), (c, d), (e, f)
    of the relation X_a X_b - X_c X_d - X_e X_f whose initial part is then
    a single monomial. They are read at a positive integer multiple s of
    the point, shifted on each cardinality so that the leading subsets
    (1..k) sit at 0: the conditions are homogeneous linear, so they read
    the same there, and [i] holds by the shift."""
    n = point.n
    p = [tuple(range(1, m + 1)) for m in range(n)]  # p[m] = (1..m)
    den = lcm(*[v.denominator for v in point.s.values()])
    s = {I: v.numerator * (den // v.denominator) for I, v in point.s.items()}
    shifts = [0] + [s[prefix] for prefix in p[1:]]
    if any(shifts):
        s = {I: v - shifts[len(I)] for I, v in s.items()}
    violations = []
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            if len({s[p[i - 1] + p[k][i:] + (j,)] for k in range(i, j)}) > 1:
                violations.append((f"[ii] i={i} j={j}", None))
    # [iii]: s_I is the degree of I under the triangle whose entry at
    # (p, q) is the coordinate of {1..p-1, q}; s lists every subset
    T = Triangle(n, tuple([s[p[a - 1] + (b,)] for a, b in triangle_pairs(n)]))
    for I, total in degree_table(T, s).items():
        if s[I] != total:
            violations.append((f"[iii] I={index_label(I)}", None))
    # [iv] at i is (a) at i on T, and [v] at (i, j) is (b) at (i, j)
    slacks = _slacks(T.entries, *_cone_rows(n))
    for i, slack in zip(ineq_a_indices(n), slacks):
        if slack < 0:
            violations.append((f"[iv] i={i}", (
                (p[i] + (i + 2,), p[i - 1] + (i + 1,)),
                (p[i] + (i + 1,), p[i - 1] + (i + 2,)),
                (p[i - 1] + (i + 1, i + 2), p[i]),
            )))
    for (i, j), slack in zip(ineq_b_indices(n), slacks):
        if slack < 0:
            violations.append((f"[v] i={i} j={j}", (
                (p[i - 1] + (i + 1, j + 1), p[i] + (j,)),
                (p[i - 1] + (i + 1, j), p[i] + (j + 1,)),
                (p[i - 1] + (j, j + 1), p[i] + (i + 1,)),
            )))
    return violations


def cone_C_membership(point):
    """Evaluate the cone conditions [i]-[v]; returns (verdict, violations).

    _violations reads them at the normalized point, where [i] holds.
    """
    violations = [label for label, _ in _violations(point)]
    return not violations, violations


def grading_from_point(point, d):
    """The coordinates of the point on the indices of the sizes d."""
    return {I: point.s[I] for I in all_indices(point.n, d)}


def in_trop_necessary_check(point, d, degree_bound):
    """Necessary tropical-membership test: no initial-ideal component of
    total degree up to the bound contains a monomial.

    Bounded-degree only; a True verdict certifies nothing beyond the
    inspected degrees. The grading is the primitive integer multiple of
    the point, which orders the monomials of a component as the point does.
    """
    n, d = point.n, tuple(d)
    g = _integral(point.s)
    gens = plucker_relations(n, d)
    for mu in multidegrees_up_to(d, degree_bound):
        if sum(mu) < 2:
            continue
        cb = initial_component(gens, n, d, mu, g)
        if contains_monomial(cb) is not None:
            return False
    return True


def _quad(plus, minus1, minus2):
    """X_a X_b - X_c X_d - X_e X_f for the index pairs (a, b), (c, d), (e, f),
    each of two distinct indices."""
    return GradedPolynomial({tuple(sorted(((a, 1), (b, 1)))): c
                             for (a, b), c in ((plus, 1), (minus1, -1), (minus2, -1))})


def maximality_witness(point):
    """For a point failing [iv] or [v], the Pluecker relation whose
    initial part degenerates to a single monomial; None when no
    inequality fails."""
    violations = _violations(point)
    linear = [label for label, pairs in violations if pairs is None]
    if linear:
        raise ValueError(f"conditions [i]-[iii] must hold first: {linear}")
    return _quad(*violations[0][1]) if violations else None


def h_image_rank(n):
    """Rank of the degree map over the basis of weight triangles."""
    coords = all_indices(n, range(1, n))
    size = len(triangle_pairs(n))
    ech = Echelon()
    for t in range(size):
        unit = Triangle(n, tuple(int(u == t) for u in range(size)))
        ech.insert({pos: v for pos, v in enumerate(degree_table(unit, coords).values()) if v})
    return ech.rank
