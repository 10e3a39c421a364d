"""PBW Young tableaux, their semistandard subclass and the pattern bijection.

A column of height h places every entry <= h on its own row; the larger
entries occupy the free rows in decreasing order from the top. Such a
column is determined by its content set, so enumeration works over
content sets with an adjacency condition between neighboring columns.
The maps ``tau`` and ``zeta`` translate between tableaux and triangle
patterns; ``zeta`` peels off the maximal support antichain one column at
a time.
"""

from dataclasses import dataclass
from functools import partial
from itertools import accumulate, combinations, count
from operator import le

from .fflv import TrianglePattern, enumerate_patterns, is_fflv_pattern
from .weights import Triangle


@dataclass(frozen=True)
class PBWTableau:
    """Filling of the Young diagram of a dominant weight by PBW columns.

    ``columns`` lists entries top to bottom; heights are non-increasing
    left to right. Every column is checked PBW here, so no reader of a
    tableau checks it again.
    """

    __slots__ = ("n", "columns")
    n: int
    columns: tuple  # tuple of tuples

    def __post_init__(self):
        _check_shape(self.n, list(map(len, self.columns)), self.columns)


def _check_shape(n, heights, columns):
    """What a PBWTableau requires of its column heights and columns."""
    if heights != sorted(heights, reverse=True):
        raise ValueError("column heights must be non-increasing")
    if heights and (heights[-1] < 1 or heights[0] > n - 1):
        raise ValueError("column heights must lie in [1, n-1]")
    if any(min(col) < 1 or max(col) > n for col in columns):
        raise ValueError("entries out of range")
    if not all(map(_column_is_pbw, columns)):
        raise ValueError("not a PBW column")


def _trusted_tableau(n, columns, new=object.__new__, set_n=PBWTableau.n.__set__,
                     set_columns=PBWTableau.columns.__set__):
    """PBWTableau(n, columns) unchecked, slots set past the frozen setattr."""
    Y = new(PBWTableau)
    set_n(Y, n)
    set_columns(Y, columns)
    return Y


def pbw_column(n, content):
    """The unique PBW arrangement of a content set: small entries sit on
    their own row, large entries fill the free rows in decreasing order."""
    content = set(content)
    h = len(content)
    big = iter(sorted((v for v in content if v > h), reverse=True))
    return tuple(i if i in content else next(big) for i in range(1, h + 1))


def _column_is_pbw(col):
    h = len(col)
    if len(set(col)) != h:
        return False  # condition (1)
    for i, v in enumerate(col, start=1):
        if v <= h and v != i:
            return False  # condition (2)
    big = [v for v in col if v > h]
    if big != sorted(big, reverse=True):
        return False  # condition (3)
    return True


def _reach(left):
    """The suffix maxima of a column: reach[r] = max(left[r:])."""
    return list(accumulate(reversed(left), max))[::-1]


def _adjacent_ok(left, right):
    """Condition (4) between two neighboring columns: each right[r] has some
    left[k] >= right[r] with k >= r, that is right[r] <= max(left[r:]), as
    a set has an entry >= v iff its maximum is. A longer right column fails
    on a row where left[r:] is empty, which zip would skip."""
    return len(right) <= len(left) and all(map(le, right, _reach(left)))


def is_pbw_ssyt(Y):
    """Condition (4) between every two neighboring columns; the columns
    themselves are PBW by construction."""
    return all(
        _adjacent_ok(a, b) for a, b in zip(Y.columns, Y.columns[1:])
    )


def _column_heights(lam):
    return [i for i in range(lam.n - 1, 0, -1) for _ in range(lam.a(i))]


def _walk_ssyt(lam, emit):
    """Call emit with the column tuple of every PBW semistandard tableau
    of the given shape, depth first over column content sets in sorted
    order.

    The columns of each height are built once, and the columns that may
    stand right of a given column are found once per call; filtering
    keeps content order, so the output order is that of the content sets.
    Every tableau draws its heights and columns from those checked here.
    Heights never increase, so :func:`_adjacent_ok` reduces to all(map(le,
    right, reach)), with reach the left column's suffix maxima, taken once.
    """
    n = lam.n
    heights = _column_heights(lam)
    columns = {
        h: [pbw_column(n, c) for c in combinations(range(1, n + 1), h)]
        for h in set(heights)
    }
    _check_shape(n, heights, [col for cols in columns.values() for col in cols])
    if not heights:
        emit(())
        return
    following = {}  # (left column, next height) -> columns allowed right of it
    last = len(heights) - 1
    cols = []

    def extend(depth, choices):
        if depth == last:
            head = tuple(cols)
            for col in choices:
                emit(head + (col,))
            return
        h = heights[depth + 1]
        for col in choices:
            nxt = following.get((col, h))
            if nxt is None:
                reach = _reach(col)
                nxt = following[(col, h)] = [r for r in columns[h] if all(map(le, r, reach))]
            cols.append(col)
            extend(depth + 1, nxt)
            cols.pop()

    extend(0, columns[heights[0]])


def enumerate_ssyt(lam):
    """All PBW semistandard tableaux of the given shape, built unchecked:
    the walk checks their heights and columns once per call."""
    tableaux = []
    _walk_ssyt(lam, tableaux.append)
    return [_trusted_tableau(lam.n, columns) for columns in tableaux]


def count_ssyt(lam):
    """The number of PBW semistandard tableaux of the shape; builds none."""
    tally = count()
    _walk_ssyt(lam, partial(next, tally))  # next(tally, columns) steps the tally
    return next(tally)


def tau(Y):
    """Triangle pattern of a PBW tableau: one per column entry sitting
    below its own row, summed over columns."""
    n, off = Y.n, Triangle.offsets(Y.n)
    entries = [0] * (n * (n - 1) // 2)
    for col in Y.columns:
        for i, v in enumerate(col, start=1):
            if v > i:
                entries[off[i] + v] += 1
    return TrianglePattern(n, tuple(entries))


def zeta(T, lam):
    """Greedy inverse of tau: repeatedly extract the pattern supported on
    the maximal cells fitting the current column height. A maximal cell
    is the last of its row and right of all support in the rows below, so
    one bottom-up scan finds them; those with i <= h < j, an antichain,
    put j on row i, every other row r keeps r: pbw_column's arrangement.
    """
    if T.n != lam.n:
        raise ValueError("mismatched n")
    if not is_fflv_pattern(T, lam):
        raise ValueError("pattern outside the polytope of the given weight")
    n, off = T.n, Triangle.offsets(T.n)
    residual = list(T.entries)
    columns = []
    for h in _column_heights(lam):
        col = list(range(1, h + 1))
        right = 0  # the last support column in the rows below
        for i in range(n - 1, 0, -1):
            for j in range(n, max(right, i), -1):
                if residual[off[i] + j]:
                    right = j
                    if i <= h < j:
                        col[i - 1] = j
                        residual[off[i] + j] -= 1
                    break
        columns.append(tuple(col))
    if any(residual):
        raise ValueError("pattern decomposition left a nonzero residual")
    Y = PBWTableau(n, tuple(columns))
    if not is_pbw_ssyt(Y):
        raise RuntimeError("zeta produced a tableau that is not PBW semistandard")
    return Y


def bijection_failure(lam):
    """None if tau and zeta invert each other on the patterns and the PBW
    semistandard tableaux of lam, else the identity that fails."""
    for T in enumerate_patterns(lam):
        if tau(zeta(T, lam)) != T:
            return "tau(zeta(T)) != T"
    for Y in enumerate_ssyt(lam):
        if zeta(tau(Y), lam) != Y:
            return "zeta(tau(Y)) != Y"
    return None
