"""Reference pattern and tableau enumerators, kept for the tests only.

These are the package's original ``enumerate_patterns`` and
``enumerate_ssyt``: the first tries every value of a cell until one
breaks a Dyck path bound, the second rebuilds each PBW column and
checks adjacency at every node of the search. The tests require the
package's enumerators to return the same lists, order included.
"""

from itertools import combinations

from pbwdegen.fflv import TrianglePattern, dyck_paths
from pbwdegen.tableaux import PBWTableau, _column_heights, pbw_column
from pbwdegen.weights import triangle_pairs
from reference_definitions import cell_bound, path_bound


def reference_patterns(lam):
    """All integer points of the FFLV polytope, in lexicographic order."""
    n = lam.n
    pairs = triangle_pairs(n)
    paths = dyck_paths(n)
    bounds = [path_bound(lam, p) for p in paths]
    cell_paths = {pair: [] for pair in pairs}
    for idx, p in enumerate(paths):
        for step in p.steps:
            cell_paths[step].append(idx)
    maxima = [cell_bound(lam, i, j) for i, j in pairs]
    sums = [0] * len(paths)
    values = [0] * len(pairs)
    out = []

    def assign(pos):
        if pos == len(pairs):
            out.append(TrianglePattern(n, tuple(values)))
            return
        pair = pairs[pos]
        for v in range(maxima[pos] + 1):
            values[pos] = v
            ok = True
            for idx in cell_paths[pair]:
                sums[idx] += v
                if sums[idx] > bounds[idx]:
                    ok = False
            if ok:
                assign(pos + 1)
            for idx in cell_paths[pair]:
                sums[idx] -= v
            if not ok:
                break
        values[pos] = 0

    assign(0)
    return out


def adjacent_literal(left, right):
    """Condition (4) as written: every entry v of right, in row i, has an
    entry >= v in a row >= i of left."""
    for i, v in enumerate(right, start=1):
        if not any(left[k] >= v for k in range(i - 1, len(left))):
            return False
    return True


def reference_ssyt(lam):
    """All PBW semistandard tableaux of the given shape, depth first over
    column content sets in sorted order."""
    n = lam.n
    heights = _column_heights(lam)
    if not heights:
        return [PBWTableau(n, ())]
    contents = {
        h: [c for c in combinations(range(1, n + 1), h)] for h in set(heights)
    }
    out = []
    cols = []

    def extend(depth):
        if depth == len(heights):
            out.append(PBWTableau(n, tuple(cols)))
            return
        for content in contents[heights[depth]]:
            col = pbw_column(n, content)
            if cols and not adjacent_literal(cols[-1], col):
                continue
            cols.append(col)
            extend(depth + 1)
            cols.pop()

    extend(0)
    return out
