"""Lie structure of the graded algebra, kept for the tests only.

The module closure ``pbwdegen.representations.essential_closure`` is valid
because the degenerate action is a representation of the graded bracket,
under which two generators bracket to zero or to +-1 times one generator:
reordering a product of generators then only adds products of lower
degree. :func:`verify_lie_structure` checks that on explicit systems.
"""

from pbwdegen.representations import wedge_maps
from pbwdegen.weights import triangle_pairs


def graded_bracket(A, x, y):
    """Bracket of two generators in the associated graded algebra, as a
    dict root -> coefficient.

    With the generators realized as matrix units (f_{i,j} maps e_i to
    e_j), the surviving bracket is [f_{i,j}, f_{j,l}] = -f_{i,l}; the
    degeneration keeps it only when the degrees add up.
    """
    if x == y:
        return {}
    (i, j), (k, l) = x, y
    if i > k:
        return {root: -c for root, c in graded_bracket(A, y, x).items()}
    if j == k and A.a(i, j) + A.a(k, l) == A.a(i, l):
        return {(i, l): -1}
    return {}


def verify_lie_structure(A):
    """Antisymmetry and Jacobi for the graded bracket, plus the commutator
    identity on every fundamental module."""
    n = A.n
    gens = triangle_pairs(n)

    def combo_bracket(combo, y):
        out = {}
        for x, c in combo.items():
            for root, c2 in graded_bracket(A, x, y).items():
                out[root] = out.get(root, 0) + c * c2
        return {r: c for r, c in out.items() if c}

    for x in gens:
        for y in gens:
            lhs = graded_bracket(A, x, y)
            rhs = {r: -c for r, c in graded_bracket(A, y, x).items()}
            if lhs != rhs:
                return False
    for x in gens:
        for y in gens:
            for z in gens:
                total = {}
                for term in (
                    combo_bracket(graded_bracket(A, x, y), z),
                    combo_bracket(graded_bracket(A, y, z), x),
                    combo_bracket(graded_bracket(A, z, x), y),
                ):
                    for r, c in term.items():
                        total[r] = total.get(r, 0) + c
                if any(total.values()):
                    return False

    for k in range(1, n):
        maps = wedge_maps(A, n, (k,))
        for x in gens:
            for y in gens:
                comm = {}
                for col in maps[y]:
                    mid, s1 = maps[y][col]
                    if mid in maps[x]:
                        row, s2 = maps[x][mid]
                        comm[(col, row)] = comm.get((col, row), 0) + s1 * s2
                for col in maps[x]:
                    mid, s1 = maps[x][col]
                    if mid in maps[y]:
                        row, s2 = maps[y][mid]
                        comm[(col, row)] = comm.get((col, row), 0) - s1 * s2
                expected = {}
                for root, c in graded_bracket(A, x, y).items():
                    for col, (row, sign) in maps[root].items():
                        expected[(col, row)] = expected.get((col, row), 0) + c * sign
                comm = {k2: v for k2, v in comm.items() if v}
                expected = {k2: v for k2, v in expected.items() if v}
                if comm != expected:
                    return False
    return True
