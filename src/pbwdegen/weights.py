"""Weight systems and the polyhedral cone of admissible degenerations.

A weight system assigns an integer a_{i,j} to every pair 1 <= i < j <= n.
The admissible cone is cut out by

    (a)  a_{i,i+1} + a_{i+1,i+2} >= a_{i,i+2}          for 1 <= i <= n-2,
    (b)  a_{i,j} + a_{i+1,j+1} >= a_{i,j+1} + a_{i+1,j} for 1 <= i < j-1 <= n-2.

Which of these hold with equality determines the minimal face containing
the system; everything downstream (module structures, initial ideals)
only depends on that face.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations


def triangle_pairs(n):
    """All pairs (i, j) with 1 <= i < j <= n, in lexicographic order."""
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def json_int(val, what):
    """val if it is a JSON integer; ValueError for bools and non-integers."""
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValueError(f"{what} must be an integer, got {val!r}")
    return val


def json_rational(val, what):
    """Fraction of a JSON integer or of a string such as "1/3"; ValueError
    for floats and bools, which would be read as the binary float's value."""
    if isinstance(val, bool) or not isinstance(val, (int, str)):
        raise ValueError(f"{what} must be an integer or a string such as '1/3', got {val!r}")
    try:
        return Fraction(val)
    except ZeroDivisionError:
        raise ValueError(f"{what} has a zero denominator")


def json_keys(obj, what):
    """{elems: key} over the keys of a JSON object, each the comma-joined
    integers elems; ValueError, at the first key that is met, for a key
    repeating an earlier key's elems or not spelled as the package writes it."""
    keys = {}
    for key in obj:
        elems = tuple(int(t) for t in key.split(","))
        if elems in keys:
            raise ValueError(f"key {key!r} repeats the {what} {list(elems)} of key {keys[elems]!r}")
        if key != ",".join(map(str, elems)):
            raise ValueError(f"key {key!r} is not spelled {','.join(map(str, elems))}")
        keys[elems] = key
    return keys


class NotInConeError(ValueError):
    """Raised when an operation requires an admissible weight system."""


@dataclass(frozen=True)
class Triangle:
    """Values T_{i,j} on the pairs 1 <= i < j <= n.

    Weight systems and FFLV patterns are both such triangles; each
    subclass adds the conditions on its entries. Equality holds only
    between triangles of the same class.
    """

    __slots__ = ("n", "entries")
    n: int
    entries: tuple  # aligned with triangle_pairs(n)

    def __post_init__(self):
        if len(self.entries) != self.n * (self.n - 1) // 2:
            raise ValueError("wrong number of triangle entries")

    def a(self, i, j):
        """The entry at (i, j); KeyError unless 1 <= i < j <= n."""
        if not 1 <= i < j <= self.n:
            raise KeyError((i, j))
        # rows 1..i-1 hold (n-1) + ... + (n-i+1) entries before row i
        return self.entries[(i - 1) * (2 * self.n - i) // 2 + j - i - 1]

    @staticmethod
    def offsets(n):
        """off with off[i] + j the position of (i, j), by the formula of a."""
        return [(i - 1) * (2 * n - i) // 2 - i - 1 for i in range(n)]

    def as_map(self):
        return dict(zip(triangle_pairs(self.n), self.entries))


@dataclass(frozen=True)
class WeightSystem(Triangle):
    """Integer triangle a_{i,j}, 1 <= i < j <= n, with n >= 2."""

    __slots__ = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        super().__post_init__()
        if not all(isinstance(v, int) for v in self.entries):
            raise ValueError("weight entries must be integers")

    @classmethod
    def from_map(cls, n, a):
        pairs = triangle_pairs(n)
        missing = [p for p in pairs if p not in a]
        if missing:
            raise ValueError(f"missing entries {missing}")
        return cls(n, tuple(a[p] for p in pairs))

    @classmethod
    def from_function(cls, n, func):
        return cls(n, tuple(func(i, j) for i, j in triangle_pairs(n)))

    def to_json(self):
        return {
            "n": self.n,
            "a": {f"{i},{j}": self.a(i, j) for i, j in triangle_pairs(self.n)},
        }

    @classmethod
    def from_json(cls, data):
        """Parse {"n": n, "a": {"i,j": a_ij}}. Every value must be a JSON
        integer and the keys must be exactly the pairs of the triangle,
        spelled as to_json spells them."""
        n = json_int(data["n"], "n")
        entries = data["a"]
        if not isinstance(entries, dict):
            raise TypeError("'a' must map \"i,j\" keys to integers")
        pairs = n * (n - 1) // 2  # counted before from_map lists them
        if len(entries) != pairs:
            raise ValueError(f"{len(entries)} keys for the {pairs} pairs of a triangle")
        a = {}
        for (i, j), key in json_keys(entries, "pair").items():
            if not 1 <= i < j <= n:
                raise ValueError(f"key {key!r} lies outside the triangle for n={n}")
            a[(i, j)] = json_int(entries[key], f"a[{key!r}]")
        return cls.from_map(n, a)


def zero_weight_system(n):
    return WeightSystem.from_function(n, lambda i, j: 0)


def abelian_weight_system(n):
    return WeightSystem.from_function(n, lambda i, j: 1)


def toric_weight_system(n):
    return WeightSystem.from_function(n, lambda i, j: (j - i + 1) * (n - j))


def ineq_a_indices(n):
    return list(range(1, n - 1))


def ineq_b_indices(n):
    return [(i, j) for i in range(1, n - 1) for j in range(i + 2, n)]


def _cone_rows(n):
    """The defining inequalities as entry positions: (a) at each i of
    ineq_a_indices as (p, q, r), slack e[p] + e[q] - e[r], and (b) at each
    (i, j) of ineq_b_indices as (p, q, r, s), slack e[p] + e[q] - e[r] - e[s]."""
    off = Triangle.offsets(n)
    rows_a = [(off[i] + i + 1, off[i + 1] + i + 2, off[i] + i + 2) for i in ineq_a_indices(n)]
    rows_b = [(off[i] + j, off[i + 1] + j + 1, off[i] + j + 1, off[i + 1] + j)
              for i, j in ineq_b_indices(n)]
    return rows_a, rows_b


def _slacks(e, rows_a, rows_b):
    """The slack of every inequality at the entries e, (a) first."""
    for p, q, r in rows_a:
        yield e[p] + e[q] - e[r]
    for p, q, r, s in rows_b:
        yield e[p] + e[q] - e[r] - e[s]


def check_cone_membership(A):
    """True iff every defining inequality (a), (b) holds."""
    return all(s >= 0 for s in _slacks(A.entries, *_cone_rows(A.n)))


def derived_inequalities_hold(A):
    """Check the derived triangle and quadrangle inequalities.

    (A)  a_{i,j} + a_{j,k} >= a_{i,k}           for i < j < k,
    (B)  a_{i,j} + a_{k,l} >= a_{i,l} + a_{k,j} for i < k < j < l.

    Every admissible weight system satisfies these, each being a sum of
    defining inequalities.
    """
    a, labels = A.a, range(1, A.n + 1)
    if any(a(i, j) + a(j, k) < a(i, k) for i, j, k in combinations(labels, 3)):
        return False
    return all(a(i, j) + a(k, l) >= a(i, l) + a(k, j) for i, k, j, l in combinations(labels, 4))


@dataclass(frozen=True)
class FaceSignature:
    """Which defining inequalities are tight; encodes the minimal face."""

    n: int
    tight_a: frozenset
    tight_b: frozenset


def require_cone_membership(A):
    """Raise NotInConeError unless A lies in the admissible cone."""
    if not check_cone_membership(A):
        raise NotInConeError("weight system outside the admissible cone")


def face_signature(A):
    require_cone_membership(A)
    slacks = list(_slacks(A.entries, *_cone_rows(A.n)))  # the n-2 of (a) first
    tight_a = frozenset(i for i, s in zip(ineq_a_indices(A.n), slacks) if s == 0)
    tight_b = frozenset(p for p, s in zip(ineq_b_indices(A.n), slacks[A.n - 2:]) if s == 0)
    return FaceSignature(A.n, tight_a, tight_b)


def is_interior(A):
    sig = face_signature(A)
    return not sig.tight_a and not sig.tight_b


def face_contains(sig_outer, sig_inner):
    """True iff the face of sig_outer contains the face of sig_inner.

    Larger faces are tight on fewer inequalities, so containment is
    inclusion of tight sets.
    """
    if sig_outer.n != sig_inner.n:
        raise ValueError("signatures for different n")
    return (
        sig_outer.tight_a <= sig_inner.tight_a
        and sig_outer.tight_b <= sig_inner.tight_b
    )


def _pbw_locus_representative(n, tight):
    """A weight system with all (b) tight and (a) tight exactly on ``tight``.

    With every (b) an equality one has a_{i,j} = u_i (column independent);
    inequality (a) at position i then reads u_{i+1} >= 0 and is tight iff
    u_{i+1} = 0. The first row keeps u_1 = 1.
    """
    return WeightSystem.from_function(n, lambda i, j: 0 if i - 1 in tight else 1)


def canonical_weight_systems(n):
    """Labeled reference systems: classical, abelian, toric and the
    2^(n-2) representatives of the subfaces where all (b) are tight."""
    out = [
        ("classical", zero_weight_system(n)),
        ("abelian", abelian_weight_system(n)),
        ("toric", toric_weight_system(n)),
    ]
    positions = ineq_a_indices(n)
    by_size = (combinations(positions, size) for size in range(len(positions) + 1))
    for subset in chain.from_iterable(by_size):
        tight = frozenset(subset)
        A = _pbw_locus_representative(n, tight)
        sig = face_signature(A)
        if sig.tight_a != tight or sig.tight_b != frozenset(ineq_b_indices(n)):
            raise RuntimeError(f"pbw-locus representative off its face {sorted(tight)}")
        label = "pbw-locus-" + ("".join(str(i) for i in sorted(tight)) or "none")
        out.append((label, A))
    return out


def random_cone_points(n, count, seed=0):
    """count integer points of the cone, each built from its slacks with
    draws from random.Random(seed).

    The cone is simplicial: a_{i,i+1} is free, (a) at i fixes a_{i,i+2}
    and (b) at (i, j) fixes a_{i,j+1}. A point draws its superdiagonal
    with randint(-3, 3), then one slack with randint(0, 3) per inequality,
    by increasing gap j - i and then i, and sets the entry that the
    inequality fixes to its bound minus the slack. With a zero diagonal,
    (a) at i reads as (b) at (i, i+1), so one rule fills both, (a) first.
    The face of a point is the set of its zero slacks.
    """
    if count <= 0:
        return []
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(seed)
    pairs = triangle_pairs(n)
    points = []
    for _ in range(count):
        a = {(i, i): 0 for i in range(2, n)}
        for i in range(1, n):
            a[i, i + 1] = rng.randint(-3, 3)
        for gap in range(1, n - 1):
            for i in range(1, n - gap):
                j = i + gap
                a[i, j + 1] = a[i, j] + a[i + 1, j + 1] - a[i + 1, j] - rng.randint(0, 3)
        points.append(WeightSystem(n, tuple(a[p] for p in pairs)))
    return points
