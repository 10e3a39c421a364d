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
from itertools import combinations

from .degrees import GradingVector, PlueckerIndex, complement_pairs, triangle_degree
from .ideals import (
    GradedPolynomial,
    contains_monomial,
    initial_component,
    multidegrees_up_to,
    plucker_relations,
)
from .linalg import Echelon
from .weights import Triangle, json_int, json_rational, require_cone_membership, triangle_pairs


def proper_subsets(n):
    out = []
    for k in range(1, n):
        out.extend(combinations(range(1, n + 1), k))
    return out


@dataclass(frozen=True)
class TropicalPoint:
    """Rational coordinates over all proper nonempty subsets of [1, n]."""

    n: int
    s: dict

    def __post_init__(self):
        expected = proper_subsets(self.n)
        if set(self.s) != set(expected):
            raise ValueError("need one coordinate per proper nonempty subset")
        object.__setattr__(
            self, "s", {k: Fraction(v) for k, v in self.s.items()}
        )

    def value(self, elems):
        return self.s[tuple(elems)]

    def to_json(self):
        out = {}
        for elems in proper_subsets(self.n):
            v = self.s[elems]
            key = ",".join(str(x) for x in elems)
            out[key] = int(v) if v.denominator == 1 else str(v)
        return {"n": self.n, "s": out}

    @classmethod
    def from_json(cls, data):
        """Parse {"n": n, "s": {"i,j,...": value}}. A value is a JSON
        integer or a string such as "1/3"; floats and bools are refused,
        since they would be read as the binary float's exact value."""
        n = json_int(data["n"], "n")
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
    s = {}
    for elems in proper_subsets(n):
        s[elems] = triangle_degree(T, PlueckerIndex(n, elems))
    return TropicalPoint(n, s)


def map_h(A):
    """Degrees of all Pluecker coordinates of an admissible weight system."""
    require_cone_membership(A)
    return point_from_triangle(A.n, A.as_map())


def normalize(point):
    """Shift each cardinality so that the leading subsets (1..k) sit at 0."""
    shifts = {k: point.s[tuple(range(1, k + 1))] for k in range(1, point.n)}
    return TropicalPoint(
        point.n, {elems: v - shifts[len(elems)] for elems, v in point.s.items()}
    )


def _prefix(m):
    return tuple(range(1, m + 1))


def _inequalities(point):
    """The inequalities [iv] and [v] on a normalized point, in order: for
    each one its label, whether it holds, and the index pairs (a, b),
    (c, d), (e, f) of the relation X_a X_b - X_c X_d - X_e X_f whose
    initial part is a single monomial when it fails."""
    n, s, p = point.n, point.s, _prefix
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


def cone_C_membership(point):
    """Evaluate the cone conditions [i]-[v]; returns (verdict, violations).

    The point is normalized first, so [i] holds by construction and the
    other conditions are evaluated on the normalized representative.
    """
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
    for elems in proper_subsets(n):
        pairs = complement_pairs(elems)
        total = sum(
            (point.s[_prefix(p - 1) + (q,)] for p, q in pairs), Fraction(0)
        )
        if point.s[elems] != total:
            violations.append(f"[iii] I={','.join(map(str, elems))}")
    violations += [label for label, holds, _ in _inequalities(point) if not holds]
    return not violations, violations


def grading_from_point(point, d):
    s = {}
    for k in d:
        for elems in combinations(range(1, point.n + 1), k):
            s[PlueckerIndex(point.n, elems)] = point.s[elems]
    return GradingVector(point.n, tuple(d), s)


def in_trop_necessary_check(point, d, degree_bound):
    """Necessary tropical-membership test: no initial-ideal component of
    total degree up to the bound contains a monomial.

    Bounded-degree only; a True verdict certifies nothing beyond the
    inspected degrees.
    """
    n = point.n
    d = tuple(d)
    g = grading_from_point(point, d)
    gens = plucker_relations(n, d)
    for mu in multidegrees_up_to(d, degree_bound):
        if sum(mu) < 2:
            continue
        cb = initial_component(gens, n, d, mu, g)
        if contains_monomial(cb) is not None:
            return False
    return True


def _quad(n, plus, minus1, minus2):
    """X_a X_b - X_c X_d - X_e X_f for the index pairs (a, b), (c, d), (e, f)."""

    def x(elems):
        return GradedPolynomial.variable(PlueckerIndex(n, elems))

    (a, b), (c, d), (e, f) = plus, minus1, minus2
    return x(a) * x(b) - x(c) * x(d) - x(e) * x(f)


def maximality_witness(point):
    """For a point failing [iv] or [v], the Pluecker relation whose
    initial part degenerates to a single monomial; None when no
    inequality fails."""
    n = point.n
    point = normalize(point)
    ok, violations = cone_C_membership(point)
    linear = [v for v in violations if v.startswith(("[i]", "[ii]", "[iii]"))]
    if linear:
        raise ValueError(f"conditions [i]-[iii] must hold first: {linear}")
    for _, holds, pairs in _inequalities(point):
        if not holds:
            return _quad(n, *pairs)
    return None


def h_image_rank(n):
    """Rank of the degree map over the basis of weight triangles."""
    coords = proper_subsets(n)
    pos = {elems: idx for idx, elems in enumerate(coords)}
    ech = Echelon()
    for pair in triangle_pairs(n):
        vec = {}
        for elems in coords:
            count = complement_pairs(elems).count(pair)
            if count:
                vec[pos[elems]] = count
        ech.insert(vec)
    return ech.rank
