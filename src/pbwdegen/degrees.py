"""Closed-form degrees of Pluecker coordinates and the gradings they form.

A Pluecker coordinate, equally a wedge basis vector, is keyed by its
index: a strictly increasing proper nonempty tuple within [1, n]. The
degree of the coordinate indexed by I of size k pairs the ascending
complement {1..k} \\ I against the descending complement I \\ {1..k} and
sums the corresponding weight entries. Specializing to fundamental
columns this also produces the 0/1 triangle pattern supported on the
pair list. A grading is the table {I: s_I} that degree_table returns.
"""

from bisect import bisect
from itertools import combinations

from .fflv import TrianglePattern
from .weights import require_cone_membership


def check_index(n, elems):
    """elems as a tuple; ValueError unless it is a strictly increasing
    proper nonempty tuple within [1, n]."""
    elems = tuple(elems)
    if not elems or len(elems) >= n:
        raise ValueError("index must be nonempty and proper")
    if any(not 1 <= v <= n for v in elems):
        raise ValueError("entries out of range")
    if any(a >= b for a, b in zip(elems, elems[1:])):
        raise ValueError("entries must be strictly increasing")
    return elems


def check_sizes(n, d):
    """The index sizes d as a tuple; ValueError unless d is a nonempty
    increasing subset of [1, n-1]."""
    d = tuple(d)
    if not d or any(not 1 <= k <= n - 1 for k in d) or list(d) != sorted(set(d)):
        raise ValueError("d must be a nonempty increasing subset of [1, n-1]")
    return d


def all_indices(n, sizes):
    """All Pluecker indices of the given sizes, size by size and
    lexicographically within a size."""
    return [I for k in sizes for I in combinations(range(1, n + 1), k)]


def index_label(I):
    """The comma-joined entries of I, as in JSON keys and printed names."""
    return ",".join(map(str, I))


def complement_pairs(I):
    """Positional pairing of {1..k} \\ I (ascending) with I \\ {1..k}
    (descending), for the sorted index I with k = |I|: I \\ {1..k} is the
    tail of I with as many entries as {1..k} \\ I."""
    k = len(I)
    ps = [p for p in range(1, k + 1) if p not in I]
    return list(zip(ps, reversed(I[k - len(ps):])))


def degree_table(T, indices):
    """{I: s_I} over the given indices, s_I summing the entries of the
    triangle T over the complement pairs of I: the entries of I past the
    split at k, found by bisect, pair descending with the missing ones.

    For an admissible weight system these are the degrees of the Pluecker
    coordinates; the cone is not checked here, so callers check it once
    per triangle.
    """
    entries, off = T.entries, T.offsets(T.n)
    table = {}
    for I in indices:
        k, s = len(I), 0
        if bisect(I, k) < k:  # else I is (1..k), with no pairs
            tail = reversed(I)
            for p in range(1, k + 1):
                if p not in I:
                    s += entries[off[p] + next(tail)]
        table[I] = s
    return table


def degree_s(A, I):
    """Degree of the Pluecker coordinate X_I under weight system A."""
    require_cone_membership(A)
    return degree_table(A, (I,))[I]


def grading_vector(A, d):
    """The grading of A on the indices of the sizes d: its degree_table."""
    d = check_sizes(A.n, d)
    require_cone_membership(A)
    return degree_table(A, all_indices(A.n, d))


def fundamental_pattern(n, I):
    """0/1 triangle supported on the complement pairs of I; its support is
    an antichain located in rows <= k and columns > k."""
    return TrianglePattern.from_map(n, {pair: 1 for pair in complement_pairs(I)})
