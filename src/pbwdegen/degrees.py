"""Closed-form degrees of Pluecker coordinates and grading vectors.

The degree of the coordinate indexed by I of size k pairs the ascending
complement {1..k} \\ I against the descending complement I \\ {1..k} and
sums the corresponding weight entries. Specializing to fundamental
columns this also produces the 0/1 triangle pattern supported on the
pair list.
"""

from dataclasses import dataclass
from itertools import combinations

from .fflv import TrianglePattern
from .weights import require_cone_membership


@dataclass(frozen=True)
class PlueckerIndex:
    """Strictly increasing proper nonempty tuple within [1, n]."""

    n: int
    elems: tuple

    def __post_init__(self):
        elems = self.elems
        if not elems or len(elems) >= self.n:
            raise ValueError("index must be nonempty and proper")
        if any(not 1 <= v <= self.n for v in elems):
            raise ValueError("entries out of range")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError("entries must be strictly increasing")

    @property
    def size(self):
        return len(self.elems)

    def label(self):
        return ",".join(str(v) for v in self.elems)


def all_indices(n, k):
    """All Pluecker indices of size k, lexicographically."""
    return [PlueckerIndex(n, c) for c in combinations(range(1, n + 1), k)]


def complement_pairs(elems):
    """Positional pairing of {1..k} \\ I (ascending) with I \\ {1..k}
    (descending), for the index I with entries elems and k = |I|."""
    base = set(range(1, len(elems) + 1))
    ps = sorted(base.difference(elems))
    qs = sorted(set(elems) - base, reverse=True)
    return list(zip(ps, qs))


def triangle_degree(T, I):
    """Sum of the entries of the triangle T over the complement pairs of I.

    For an admissible weight system this is the degree s_I; the cone is
    not checked here, so callers check it once per triangle.
    """
    return sum(T.a(p, q) for p, q in complement_pairs(I.elems))


def degree_s(A, I):
    """Degree of the Pluecker coordinate X_I under weight system A."""
    require_cone_membership(A)
    return triangle_degree(A, I)


def check_sizes(n, d):
    """The index sizes d as a tuple; ValueError unless d is a nonempty
    increasing subset of [1, n-1]."""
    d = tuple(d)
    if not d or any(not 1 <= k <= n - 1 for k in d) or list(d) != sorted(set(d)):
        raise ValueError("d must be a nonempty increasing subset of [1, n-1]")
    return d


@dataclass(frozen=True)
class GradingVector:
    """Degrees for every index of each size in d; ``by_elems``, derived
    from ``s`` and not a field, keys them by the index's elems tuple."""

    n: int
    d: tuple
    s: dict

    def __post_init__(self):
        object.__setattr__(self, "s", dict(self.s))
        object.__setattr__(self, "by_elems", {I.elems: v for I, v in self.s.items()})

    def grade(self, I):
        return self.s[I]

    def to_json(self):
        out = {}
        for I, val in self.s.items():
            out[I.label()] = val if isinstance(val, int) else str(val)
        return dict(sorted(out.items()))


def grading_vector(A, d):
    d = check_sizes(A.n, d)
    require_cone_membership(A)
    s = {}
    for k in d:
        for I in all_indices(A.n, k):
            s[I] = triangle_degree(A, I)
    return GradingVector(A.n, d, s)


def zero_grading(n, d):
    return GradingVector(n, tuple(d), {I: 0 for k in d for I in all_indices(n, k)})


def fundamental_pattern(I):
    """0/1 triangle supported on the complement pairs of I; its support is
    an antichain located in rows <= k and columns > k."""
    return TrianglePattern.from_map(I.n, {pair: 1 for pair in complement_pairs(I.elems)})
