"""Dyck paths, FFLV patterns and the polytope of a dominant weight.

Number triangles T_{i,j} (1 <= i < j <= n) are constrained along Dyck
paths: for each path the sum of the visited entries may not exceed the
sum a_{i_1} + ... + a_{i_N} of weight coefficients between the endpoint
rows. The integer points of this polytope count the dimension of the
irreducible module, which the Weyl dimension formula provides as an
independent oracle.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, count, groupby
from math import inf

from .weights import Triangle, triangle_pairs


@dataclass(frozen=True)
class DominantWeight:
    """Nonnegative coefficients (a_1, ..., a_{n-1}) on fundamental weights."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.n - 1:
            raise ValueError("need n-1 coefficients")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")

    @classmethod
    def fundamental(cls, n, k):
        return cls(n, tuple(1 if t == k else 0 for t in range(1, n)))

    def a(self, i):
        return self.coeffs[i - 1]

    def column_sizes(self):
        """Sorted set of i with a_i > 0."""
        return tuple(i for i in range(1, self.n) if self.a(i) > 0)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("mismatched n")
        return DominantWeight(self.n, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def total(self):
        return sum(self.coeffs)


@dataclass(frozen=True)
class TrianglePattern(Triangle):
    """Nonnegative integer triangle T_{i,j}."""

    __slots__ = ()

    def __post_init__(self):
        super().__post_init__()
        if self.entries and min(self.entries) < 0:
            raise ValueError("entries must be nonnegative")

    @classmethod
    def from_map(cls, n, t):
        return cls(n, tuple(t.get(p, 0) for p in triangle_pairs(n)))

    def support(self):
        return [p for p, v in zip(triangle_pairs(self.n), self.entries) if v]

    def to_json(self):
        return {
            "n": self.n,
            "t": {f"{i},{j}": v for (i, j), v in self.as_map().items() if v},
        }


@dataclass(frozen=True)
class DyckPath:
    steps: tuple  # sequence of pairs (i, j)

    def __post_init__(self):
        steps = self.steps
        if not steps:
            raise ValueError("empty path")
        if steps[0][1] - steps[0][0] != 1 or steps[-1][1] - steps[-1][0] != 1:
            raise ValueError("path must start and end in the top row")
        for (i, j), (i2, j2) in zip(steps, steps[1:]):
            if (i2, j2) not in ((i + 1, j), (i, j + 1)):
                raise ValueError("invalid step")


@lru_cache(maxsize=32)
def dyck_paths(n):
    """All Dyck paths for a given n, lexicographically ordered."""
    if n < 2:
        raise ValueError("need n >= 2")
    out = []

    def extend(path):
        i, j = path[-1]
        if j - i == 1:
            out.append(DyckPath(tuple(path)))
        for nxt in ((i + 1, j), (i, j + 1)):
            if nxt[0] < nxt[1] and nxt[1] <= n:
                path.append(nxt)
                extend(path)
                path.pop()

    for start in range(1, n):
        extend([(start, start + 1)])
    out.sort(key=lambda p: p.steps)
    return out


def is_fflv_pattern(T, lam):
    """True iff every Dyck path sum of T is within its bound under lam.

    One sweep over the rows, not one sum per path: best[j] is the largest
    a_1 + ... + a_{s-1} plus the sum of T along a path from some (s, s+1)
    to (i, j), so the paths ending in (i, i+1) hold iff best[i+1] <=
    a_1 + ... + a_i.
    """
    if T.n != lam.n:
        raise ValueError("mismatched n")
    prefix = list(accumulate(lam.coeffs, initial=0))
    best, entries = [-inf] * (lam.n + 1), iter(T.entries)
    for i in range(1, lam.n):
        cur = prefix[i - 1]  # a path may start at (i, i+1)
        for j in range(i + 1, lam.n + 1):
            cur = best[j] = max(cur, best[j]) + next(entries)
        if best[i + 1] > prefix[i]:
            return False
    return True


def _walk_patterns(lam, emit):
    """Call emit with the entry tuple of every integer point of the FFLV
    polytope, in lexicographic order.

    The slack (bound minus partial sum) of every Dyck path sits in a bit
    field of one int g, topped by a guard bit above the largest bound. A
    cell's mask has a 1 at the foot of the field of every path through
    it, so g - v*mask lowers all their slacks at once. Each row first
    lists its value tuples that fit the full slack, with the int each
    subtracts, by a cell walk that takes 0, 1, ... up to the hook bound
    and stops at the first value clearing a guard. The walk over rows
    then takes a tuple when no guard clears: a tuple lowers a path's
    slack by at most its bound, less than the guard bit, so no field
    ever borrows from the next.
    """
    n = lam.n
    prefix = list(accumulate(lam.coeffs, initial=0))  # prefix[t] = a_1 + ... + a_t
    maxima = [prefix[j - 1] - prefix[i - 1] for i, j in triangle_pairs(n)]  # hook bounds
    paths = dyck_paths(n)
    bounds = [prefix[p.steps[-1][0]] - prefix[p.steps[0][0] - 1] for p in paths]
    width = max(bounds).bit_length() + 1
    off = Triangle.offsets(n)
    masks = [0] * len(maxima)
    guard = slack = 0
    for idx, (p, bound) in enumerate(zip(paths, bounds)):
        guard |= 1 << (idx * width + width - 1)
        slack |= bound << (idx * width)
        for step in p.steps:
            masks[off[step[0]] + step[1]] |= 1 << (idx * width)
    full = slack | guard

    def row_tuples(cells, g, head):
        pos, rest = cells[0], cells[1:]
        for v in range(maxima[pos] + 1):
            if g & guard != guard:
                return
            if rest:
                yield from row_tuples(rest, g, head + (v,))
            else:
                yield head + (v,), full - g
            g -= masks[pos]

    rows = []  # per row, its tuples in runs that differ only in the last value
    for i in range(1, n):
        tuples = row_tuples(range(off[i] + i + 1, off[i] + n + 1), full, ())
        rows.append([list(run) for _, run in groupby(tuples, lambda t: t[0][:-1])])
    last = n - 2

    def assign(depth, g, head):
        for run in rows[depth]:
            for values, drop in run:
                if (g - drop) & guard != guard:
                    break  # the rest of the run only raises the last value
                if depth == last:
                    emit(head + values)
                else:
                    assign(depth + 1, g - drop, head + values)

    assign(0, full, ())


def _trusted_pattern(n, entries, new=object.__new__, set_n=Triangle.n.__set__,
                     set_entries=Triangle.entries.__set__):
    """TrianglePattern(n, entries) unchecked, slots set past the frozen setattr."""
    T = new(TrianglePattern)
    set_n(T, n)
    set_entries(T, entries)
    return T


def enumerate_patterns(lam):
    """All integer points of the FFLV polytope, in lexicographic order,
    built unchecked: the walk proves each a pattern, its entries come from
    ranges starting at 0, and their number, the same for all, is checked
    once on the first (the zero pattern)."""
    entries = []
    _walk_patterns(lam, entries.append)
    TrianglePattern(lam.n, entries[0])
    return [_trusted_pattern(lam.n, e) for e in entries]


def pattern_entries(lam):
    """The set of entry tuples of the patterns of lam; builds no pattern."""
    entries = set()
    _walk_patterns(lam, entries.add)
    return entries


def count_patterns(lam):
    """The number of patterns of lam; builds none."""
    tally = count()
    _walk_patterns(lam, partial(next, tally))  # next(tally, entries) steps the tally
    return next(tally)


def weyl_dim(lam):
    """Dimension of the irreducible sl_n module by the product formula, in
    integers. A pair (i, j) whose a_i + ... + a_{j-1} is 0 has factor 1 and
    is skipped: j starts past the first t >= i with a_t > 0."""
    prefix = list(accumulate(lam.coeffs, initial=0))  # prefix[t] = a_1 + ... + a_t
    num = den = 1
    start = lam.n + 1
    for i in range(lam.n - 1, 0, -1):
        if lam.coeffs[i - 1]:
            start = i + 1
        for j in range(start, lam.n + 1):
            num *= prefix[j - 1] - prefix[i - 1] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"Weyl dimension formula gave the non-integer {Fraction(num, den)}")
    return dim


def minkowski_check(lam, mu):
    """True iff the pattern sets satisfy the Minkowski sum property."""
    if lam.n != mu.n:
        raise ValueError("mismatched n")
    left, right = pattern_entries(lam), pattern_entries(mu)
    sums = {tuple(x + y for x, y in zip(a, b)) for a in left for b in right}
    return sums == pattern_entries(lam + mu)
