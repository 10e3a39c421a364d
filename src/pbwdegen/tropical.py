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
from .linalg import Echelon
from .weights import Triangle, json_int, json_rational, require_cone_membership, triangle_pairs


@dataclass(frozen=True)
class TropicalPoint:
    """Rational coordinates over all proper nonempty subsets of [1, n]."""

    n: int
    s: dict

    def __post_init__(self):
        n, count = self.n, len(self.s)
        if n < 2:
            raise ValueError(f"need n >= 2, got n={n}")
        # count the keys before listing the subsets, by bit length first
        # so that a huge n never builds 2^n
        if ((count + 2).bit_length() != n + 1 or count != 2**n - 2
                or set(self.s) != set(all_indices(n, range(1, n)))):
            raise ValueError("need one coordinate per proper nonempty subset")
        object.__setattr__(
            self, "s", {k: Fraction(v) for k, v in self.s.items()}
        )

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
        since they would be read as the binary float's exact value."""
        n = json_int(data["n"], "n")
        if not isinstance(data["s"], dict):
            raise TypeError("'s' must map \"i,j,...\" keys to rationals")
        s = {}
        for key, val in data["s"].items():
            elems = tuple(int(t) for t in key.split(","))
            if elems in s:
                raise ValueError(f"key {key!r} repeats the subset {list(elems)}")
            s[elems] = json_rational(val, f"s[{key!r}]")
        return cls(n, s)


def point_from_triangle(n, values):
    """Point with s_I summing the given pair values over the complement
    pairs of I. No cone requirement; violating triangles give points
    satisfying [i]-[iii] but possibly not [iv]/[v]."""
    T = Triangle(n, tuple(values[pq] for pq in triangle_pairs(n)))
    return TropicalPoint(n, degree_table(T, all_indices(n, range(1, n))))


def map_h(A):
    """Degrees of all Pluecker coordinates of an admissible weight system."""
    require_cone_membership(A)
    return TropicalPoint(A.n, degree_table(A, all_indices(A.n, range(1, A.n))))


def _prefix(m):
    return tuple(range(1, m + 1))


def _integer_multiple(point):
    """D * s as ints, for D the lcm of the denominators of the point, 1
    for every image of map_h. The conditions [i]-[v] are homogeneous
    linear and an initial part depends only on the order of the grades,
    so both read the same at D * s as at s."""
    s = point.s
    D = lcm(*[v.denominator for v in s.values()])
    return {I: v.numerator * (D // v.denominator) for I, v in s.items()}


def _normalized(n, t):
    """t shifted on each cardinality so that the leading subsets (1..k)
    sit at 0; t itself when they already do, as for every image of map_h."""
    shifts = {k: t[_prefix(k)] for k in range(1, n)}
    if not any(shifts.values()):
        return t
    return {elems: v - shifts[len(elems)] for elems, v in t.items()}


def _inequalities(n, s):
    """The inequalities [iv] and [v] on normalized coordinates s, in
    order: for each one its label, whether it holds, and the index pairs
    (a, b), (c, d), (e, f) of the relation X_a X_b - X_c X_d - X_e X_f
    whose initial part is a single monomial when it fails."""
    p = _prefix
    for i in range(1, n - 1):
        a, b, c = p(i - 1) + (i + 1,), p(i) + (i + 2,), p(i - 1) + (i + 2,)
        yield f"[iv] i={i}", s[a] + s[b] >= s[c], (
            (b, a),
            (p(i) + (i + 1,), c),
            (p(i - 1) + (i + 1, i + 2), p(i)),
        )
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            a, b = p(i - 1) + (j,), p(i) + (j + 1,)
            c, e = p(i - 1) + (j + 1,), p(i) + (j,)
            yield f"[v] i={i} j={j}", s[a] + s[b] >= s[c] + s[e], (
                (p(i - 1) + (i + 1, j + 1), e),
                (p(i - 1) + (i + 1, j), b),
                (p(i - 1) + (j, j + 1), p(i) + (i + 1,)),
            )


def _violations(n, s):
    """The conditions [i]-[v] that fail at normalized coordinates s."""
    violations = [f"[i] k={k}" for k in range(1, n) if s[_prefix(k)] != 0]
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            idxs = [
                _prefix(i - 1) + tuple(range(i + 1, k + 1)) + (j,)
                for k in range(i, j)
            ]
            vals = {s[idx] for idx in idxs}
            if len(vals) > 1:
                violations.append(f"[ii] i={i} j={j}")
    # [iii]: s_I is the degree of I under the triangle whose entry at
    # (p, q) is the coordinate of {1..p-1, q}
    T = Triangle(n, tuple(s[_prefix(p - 1) + (q,)] for p, q in triangle_pairs(n)))
    for I, total in degree_table(T, all_indices(n, range(1, n))).items():
        if s[I] != total:
            violations.append(f"[iii] I={index_label(I)}")
    violations += [label for label, holds, _ in _inequalities(n, s) if not holds]
    return violations


def cone_C_membership(point):
    """Evaluate the cone conditions [i]-[v]; returns (verdict, violations).

    The point is normalized first, so [i] holds by construction and the
    other conditions are evaluated on the normalized representative,
    scaled to integers by _integer_multiple.
    """
    violations = _violations(point.n, _normalized(point.n, _integer_multiple(point)))
    return not violations, violations


def grading_from_point(point, d):
    """The coordinates of the point on the indices of the sizes d."""
    return {I: point.s[I] for I in all_indices(point.n, d)}


def in_trop_necessary_check(point, d, degree_bound):
    """Necessary tropical-membership test: no initial-ideal component of
    total degree up to the bound contains a monomial.

    Bounded-degree only; a True verdict certifies nothing beyond the
    inspected degrees. The grading is the integer multiple of the point,
    which orders the monomials of a component as the point does.
    """
    n, d = point.n, tuple(d)
    g = _integer_multiple(point)
    gens = plucker_relations(n, d)
    for mu in multidegrees_up_to(d, degree_bound):
        if sum(mu) < 2:
            continue
        cb = initial_component(gens, n, d, mu, g)
        if contains_monomial(cb) is not None:
            return False
    return True


def _quad(plus, minus1, minus2):
    """X_a X_b - X_c X_d - X_e X_f for the index pairs (a, b), (c, d), (e, f)."""
    x = GradedPolynomial.variable
    (a, b), (c, d), (e, f) = plus, minus1, minus2
    return x(a) * x(b) - x(c) * x(d) - x(e) * x(f)


def maximality_witness(point):
    """For a point failing [iv] or [v], the Pluecker relation whose
    initial part degenerates to a single monomial; None when no
    inequality fails."""
    s = _normalized(point.n, _integer_multiple(point))
    linear = [v for v in _violations(point.n, s) if v.startswith(("[i]", "[ii]", "[iii]"))]
    if linear:
        raise ValueError(f"conditions [i]-[iii] must hold first: {linear}")
    for _, holds, pairs in _inequalities(point.n, s):
        if not holds:
            return _quad(*pairs)
    return None


def h_image_rank(n):
    """Rank of the degree map over the basis of weight triangles."""
    coords = all_indices(n, range(1, n))
    size = len(triangle_pairs(n))
    ech = Echelon()
    for t in range(size):
        unit = Triangle(n, tuple(int(u == t) for u in range(size)))
        ech.insert({pos: v for pos, v in enumerate(degree_table(unit, coords).values()) if v})
    return ech.rank
