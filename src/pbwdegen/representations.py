"""Classical and degenerate actions on fundamental modules and tensors.

The degenerate action is the graded slice of the classical one: a lowering
generator survives on a wedge basis vector exactly when the coordinate
degrees match up. Everything is exact on explicit bases: tensors have
integer coefficients and act through per-computation action tables, and
the polynomial coordinates of nilpotent exponentials are rational
``ideals.GradedPolynomial``s.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .degrees import PlueckerIndex, all_indices, degree_s
from .fflv import TrianglePattern, cell_bound, enumerate_patterns
from .ideals import GradedPolynomial
from .linalg import Echelon
from .weights import NotInConeError, is_interior, triangle_pairs, zero_weight_system


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


@lru_cache(maxsize=None)
def _coordinate_degree(A, elems):
    return degree_s(A, PlueckerIndex(A.n, elems))


def degenerate_action(A, i, j, elems):
    """Classical action kept only when degrees match: s_I + a_{i,j} must
    equal the degree of the image coordinate."""
    res = classical_action(i, j, elems)
    if res is None:
        return None
    new, sign = res
    if _coordinate_degree(A, elems) + A.a(i, j) != _coordinate_degree(A, new):
        return None
    return new, sign


def _action(A, i, j, elems):
    if A is None:
        return classical_action(i, j, elems)
    return degenerate_action(A, i, j, elems)


# -- Lie structure -----------------------------------------------------------


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


def wedge_maps(A, n, sizes):
    """Every generator as a partial map on the wedge bases of the given
    sizes, x -> {elems: (image, sign)}: the action table that one
    computation builds once and then looks up."""
    maps = {x: {} for x in triangle_pairs(n)}
    for x, images in maps.items():
        for k in sizes:
            for I in all_indices(n, k):
                res = _action(A, *x, I.elems)
                if res is not None:
                    images[I.elems] = res
    return maps


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


# -- tensor products ---------------------------------------------------------


def _tensor_factors(lam):
    factors = []
    for k in range(1, lam.n):
        factors.extend([k] * lam.a(k))
    return factors


def highest_weight_tensor(lam):
    key = tuple(tuple(range(1, k + 1)) for k in _tensor_factors(lam))
    return {key: 1}


def apply_generator(maps, state, x):
    """Leibniz action of one generator across all tensor factors, looked
    up in the action table of :func:`wedge_maps`; coefficients are ints."""
    act = maps[x]
    out = {}
    for key, coeff in state.items():
        for t, factor in enumerate(key):
            if factor not in act:
                continue
            new, sign = act[factor]
            newkey = key[:t] + (new,) + key[t + 1 :]
            val = out.get(newkey, 0) + coeff * sign
            if val:
                out[newkey] = val
            else:
                del out[newkey]
    return out


def apply_pattern_monomial(maps, state, T):
    """Apply the product of generators with exponents T, factors ordered
    lexicographically by (i, j)."""
    for pair in triangle_pairs(T.n):
        for _ in range(T.a(*pair)):
            state = apply_generator(maps, state, pair)
            if not state:
                return state
    return state


def lie_generators(A, n):
    """The generators f_{i,l} that are not brackets in the graded algebra:
    those with no j, i < j < l, for which [f_{i,j}, f_{j,l}] survives.

    Together they generate the algebra (by induction on l - i). A=None
    means the classical algebra, graded by the zero system, whose
    generators are the simple roots; for interior systems no bracket
    survives and every pair is kept.
    """
    if A is None:
        A = zero_weight_system(n)
    return [
        (i, l)
        for i, l in triangle_pairs(n)
        if not any(graded_bracket(A, (i, j), (j, l)) for j in range(i + 1, l))
    ]


def cyclic_module_dim(A, lam, max_dim=100000):
    """Dimension of the cyclic submodule generated by the highest weight
    tensor under the degenerate action.

    Only the :func:`lie_generators` are applied: since x(yv) - y(xv) =
    [x, y]v, a span closed under a generating set is closed under the whole
    algebra. That holds because the action is a representation of the
    graded bracket, which is what :func:`verify_lie_structure` checks. The
    closure extends from the stored echelon rows, which span the same space
    as the images they came from and are sparser.
    """
    gens = lie_generators(A, lam.n)
    maps = wedge_maps(A, lam.n, lam.column_sizes())
    ech = Echelon()
    queue = [ech.rows[ech.insert(highest_weight_tensor(lam))]]
    while queue:
        vec = queue.pop()
        for x in gens:
            img = apply_generator(maps, vec, x)
            if not img:
                continue
            pivot = ech.insert(img)
            if pivot is not None:
                if ech.rank > max_dim:
                    raise RuntimeError("cyclic closure exceeded the size bound")
                queue.append(ech.rows[pivot])
    return ech.rank


def fflv_basis_check(A, lam):
    """The pattern monomials applied to the highest weight tensor are
    linearly independent and span the cyclic module."""
    patterns = enumerate_patterns(lam)
    maps = wedge_maps(A, lam.n, lam.column_sizes())
    ech = Echelon()
    for T in patterns:
        vec = apply_pattern_monomial(maps, highest_weight_tensor(lam), T)
        if not vec or ech.insert(vec) is None:
            return False
    return ech.rank == cyclic_module_dim(A, lam)


def annihilator_monomial_check(A, lam):
    """For interior weight systems the annihilator is monomial: a bounded
    exponent triangle kills the cyclic vector iff it is not a pattern."""
    if not is_interior(A):
        raise NotInConeError("monomial annihilator requires an interior weight system")
    n = lam.n
    pairs = triangle_pairs(n)
    bounds = [cell_bound(lam, i, j) for i, j in pairs]
    inside = {T.entries for T in enumerate_patterns(lam)}
    maps = wedge_maps(A, lam.n, lam.column_sizes())
    for entries in product(*[range(b + 1) for b in bounds]):
        S = TrianglePattern(n, entries)
        vec = apply_pattern_monomial(maps, highest_weight_tensor(lam), S)
        if (entries in inside) != bool(vec):
            return False
    return True


# -- exponential coordinates and the substitution oracle ---------------------
# Polynomials in the variables z_{i,j} (one per generator, keyed ("z", i, j))
# and z_k (one per column size, keyed ("col", k)) are GradedPolynomials.


def exp_coordinates(n, k, A=None):
    """Coordinates of exp(sum z_{i,j} f_{i,j}) applied to the highest
    wedge vector, as {elems: GradedPolynomial in the z_{i,j}}.

    The classical mode uses the full action, the degenerate mode (weight
    system given) its graded slice; the exponential truncates because the
    action is nilpotent.
    """
    start = tuple(range(1, k + 1))
    term = {start: GradedPolynomial({(): 1})}
    total = dict(term)
    order = 1
    while term:
        nxt = {}
        for elems, poly in term.items():
            for pair in triangle_pairs(n):
                res = _action(A, *pair, elems)
                if res is None:
                    continue
                new, sign = res
                contrib = poly.mul_monomial(((("z",) + pair, 1),), Fraction(sign, order))
                nxt[new] = nxt.get(new, GradedPolynomial()) + contrib
        term = {e: p for e, p in nxt.items() if p}
        for elems, poly in term.items():
            total[elems] = total.get(elems, GradedPolynomial()) + poly
        order += 1
    return total


def psi_substitution_check(polys, n, d, A=None):
    """Substitute X_I -> z_{|I|} * C_I into each polynomial of a list and
    test that every one of them becomes zero.

    C_I are the exponential coordinates (classical or degenerate), built
    once per call; the kernel of this substitution is the defining ideal,
    so relations must vanish. The markers z_k keep apart terms of
    different multidegree.
    """
    factors = {
        elems: coord.mul_monomial(((("col", k), 1),))
        for k in d
        for elems, coord in exp_coordinates(n, k, A).items()
    }
    zero = GradedPolynomial()
    for f in polys:
        total = GradedPolynomial()
        for mono, coeff in f.terms.items():
            prod = GradedPolynomial({(): coeff})
            for elems, e in mono:
                for _ in range(e):
                    prod = prod * factors.get(elems, zero)
            total = total + prod
        if total:
            return False
    return True
