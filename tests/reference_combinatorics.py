"""Reference cell walk, zeta, tau and degree table, kept for the tests only.

These are the package's earlier ``_walk_patterns``, ``zeta``, ``_tau``
and ``degree_table``. The walk backtracks over single cells with the
packed Dyck path slacks; ``zeta`` keeps its residual in a dict keyed by
pair and compares every support cell with every other to find the
maximal ones; ``tau`` looks positions up in a dict built per call; the
degree table sums ``Triangle.a`` over the list of complement pairs. The
tests require the package's row walk, scans and offset arithmetic to
give the same results.
"""

from pbwdegen.degrees import complement_pairs
from pbwdegen.fflv import TrianglePattern, dyck_paths, is_fflv_pattern
from pbwdegen.tableaux import PBWTableau, _column_heights, is_pbw_ssyt, pbw_column
from pbwdegen.weights import triangle_pairs
from reference_definitions import cell_bound, path_bound


def cell_walk_patterns(lam):
    """The entry tuples of the FFLV polytope's integer points, in
    lexicographic order, one cell at a time: a cell takes 0, 1, ... up to
    its hook bound and stops at the first value that clears a guard."""
    n = lam.n
    pairs = triangle_pairs(n)
    paths = dyck_paths(n)
    bounds = [path_bound(lam, p) for p in paths]
    width = max(bounds).bit_length() + 1
    position = {pair: pos for pos, pair in enumerate(pairs)}
    masks = [0] * len(pairs)
    guard = slack = 0
    for idx, (p, bound) in enumerate(zip(paths, bounds)):
        guard |= 1 << (idx * width + width - 1)
        slack |= bound << (idx * width)
        for step in p.steps:
            masks[position[step]] |= 1 << (idx * width)
    maxima = [cell_bound(lam, i, j) for i, j in pairs]
    values = [0] * len(pairs)
    last = len(pairs) - 1
    out = []

    def assign(pos, g):
        mask = masks[pos]
        head = tuple(values[:last]) if pos == last else None
        for v in range(maxima[pos] + 1):
            if g & guard != guard:
                return
            if head is None:
                values[pos] = v
                assign(pos + 1, g)
            else:
                out.append(head + (v,))
            g -= mask

    assign(0, slack | guard)
    return out


def reference_tau(Y):
    """Triangle pattern of a PBW tableau, positions from a dict."""
    position = {pair: pos for pos, pair in enumerate(triangle_pairs(Y.n))}
    entries = [0] * len(position)
    for col in Y.columns:
        for i, v in enumerate(col, start=1):
            if v > i:
                entries[position[(i, v)]] += 1
    return TrianglePattern(Y.n, tuple(entries))


def _maximal_cells(support):
    return [
        c
        for c in support
        if not any(d != c and d[0] >= c[0] and d[1] >= c[1] for d in support)
    ]


def reference_zeta(T, lam):
    """Greedy inverse of tau over a residual dict keyed by pair."""
    if T.n != lam.n:
        raise ValueError("mismatched n")
    if not is_fflv_pattern(T, lam):
        raise ValueError("pattern outside the polytope of the given weight")
    n = T.n
    residual = dict(T.as_map())
    columns = []
    for h in _column_heights(lam):
        support = [c for c, v in residual.items() if v > 0]
        cells = [
            (i, j)
            for i, j in _maximal_cells(support)
            if i <= h and j >= h + 1
        ]
        content = set(range(1, h + 1))
        for i, j in cells:
            content.discard(i)
            content.add(j)
            residual[(i, j)] -= 1
        columns.append(pbw_column(n, content))
    if any(v for v in residual.values()):
        raise ValueError("pattern decomposition left a nonzero residual")
    Y = PBWTableau(n, tuple(columns))
    if not is_pbw_ssyt(Y):
        raise RuntimeError("zeta produced a tableau that is not PBW semistandard")
    return Y


def reference_degree_table(T, indices):
    """{I: s_I}, s_I summing T.a over the complement pairs of I."""
    return {I: sum([T.a(p, q) for p, q in complement_pairs(I)]) for I in indices}
