"""Literal definitions that the package computes in closed form, kept for
the tests and the reference oracles only.

``classical_action`` is the lowering generator on one wedge basis tuple,
``path_bound`` and ``cell_bound`` sum weight coefficients one by one, and
``literal_wedge_maps`` is the action table built from ``classical_action``
on every pair and every index, then filtered by the degree test. The
package builds its tables over the acting pairs only and takes its
bounds from prefix sums; the tests require the same results.
"""

from pbwdegen.degrees import all_indices, grading_vector
from pbwdegen.weights import triangle_pairs


def classical_action(i, j, elems):
    """Action of the lowering generator for (i, j) on a wedge basis tuple.

    Returns (new tuple, sign) or None. The sign counts entries strictly
    between i and j (transpositions needed to re-sort).
    """
    if i not in elems or j in elems:
        return None
    between = sum(1 for v in elems if i < v < j)
    new = tuple(sorted(j if v == i else v for v in elems))
    return new, (-1) ** between


def path_bound(lam, path):
    """Upper bound a_{i_1} + ... + a_{i_N} for the path under weight lam."""
    return sum(lam.a(i) for i in range(path.steps[0][0], path.steps[-1][0] + 1))


def cell_bound(lam, i, j):
    """Bound on T_{i,j} from the hook path through the single cell (i, j)."""
    return sum(lam.a(t) for t in range(i, j))


def literal_wedge_maps(A, n, sizes):
    """x -> {id: (image id, sign)} from classical_action on every pair and
    index, kept under a weight system A only when s_I + a_x is the degree
    of the image."""
    indices = all_indices(n, sizes)
    ids = {I: i for i, I in enumerate(indices)}
    s = None if A is None or not indices else grading_vector(A, sizes)
    maps = {x: {} for x in triangle_pairs(n)}
    for x, images in maps.items():
        for I in indices:
            res = classical_action(*x, I)
            if res is None:
                continue
            new, sign = res
            if s is None or s[I] + A.a(*x) == s[new]:
                images[ids[I]] = (ids[new], sign)
    return maps
