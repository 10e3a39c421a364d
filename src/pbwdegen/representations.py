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

from .degrees import all_indices, degree_s
from .fflv import enumerate_patterns
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
    return degree_s(A, elems)


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
    computation builds once and then looks up.

    A=None gives the classical action. A weight system gives its graded
    slice: f_x is kept on I only when s_I + a_x is the degree of the image.
    """
    indices = all_indices(n, sizes)
    maps = {x: {} for x in triangle_pairs(n)}
    for x, images in maps.items():
        for I in indices:
            res = classical_action(*x, I)
            if res is None:
                continue
            if A is None or _coordinate_degree(A, I) + A.a(*x) == _coordinate_degree(A, res[0]):
                images[I] = res
    return maps


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


def is_commutative(A, n):
    """True iff no graded bracket survives, so that :func:`lie_generators`
    keeps every pair, as for the abelian system and every interior one."""
    return len(lie_generators(A, n)) == len(triangle_pairs(n))


def essential_closure(A, lam, max_dim=100000):
    """Essential exponents of the cyclic module of a commutative graded
    algebra, and how many candidates had a nonzero dependent image.

    Without brackets the f^T v span the module, and the exponents whose
    vector is new, taken degree by degree and in ascending tuple order
    within a degree, are closed under division: the essential monomials of
    Feigin-Fourier-Littelmann. A candidate T = S + e_x is made once, from
    S = T - e_t with t the last nonzero position of T, and kept only if
    every T - e_y is essential. Its vector is f_x applied to the raw image
    of S, held for the previous degree only, and T is essential iff that
    vector enlarges the span. Exponents are indexed by :func:`triangle_pairs`.
    """
    pairs = triangle_pairs(lam.n)
    maps = wedge_maps(A, lam.n, lam.column_sizes())
    ech = Echelon()
    top = highest_weight_tensor(lam)
    ech.insert(top)
    layer = {(0,) * len(pairs): top}  # essential exponent -> its raw image
    essential = set(layer)
    dependent = 0
    while layer:
        candidates = {}
        for S in layer:
            support = [y for y, e in enumerate(S) if e]
            for x in range(support[-1] if support else 0, len(pairs)):
                T = S[:x] + (S[x] + 1,) + S[x + 1 :]
                if all(T[:y] + (T[y] - 1,) + T[y + 1 :] in layer for y in support):
                    candidates[T] = (S, x)
        nxt = {}
        for T in sorted(candidates):
            S, x = candidates[T]
            img = apply_generator(maps, layer[S], pairs[x])
            if not img:
                continue
            if ech.insert(img) is None:
                dependent += 1
                continue
            if ech.rank > max_dim:
                raise RuntimeError("cyclic closure exceeded the size bound")
            nxt[T] = img
        essential.update(nxt)
        layer = nxt
    return essential, dependent


def cyclic_module_dim(A, lam, max_dim=100000):
    """Dimension of the cyclic submodule generated by the highest weight
    tensor under the degenerate action.

    A commutative algebra is closed by :func:`essential_closure`. Otherwise
    only the :func:`lie_generators` are applied: since x(yv) - y(xv) =
    [x, y]v, a span closed under a generating set is closed under the whole
    algebra, the action being a representation of the graded bracket. That
    closure extends from the stored echelon rows, which span the same space
    as the images they came from and are sparser.
    """
    if is_commutative(A, lam.n):
        return len(essential_closure(A, lam, max_dim)[0])
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
    linearly independent and span the cyclic module. For a commutative
    algebra this is checked as the stronger statement that the patterns
    are exactly the essential exponents."""
    patterns = enumerate_patterns(lam)
    if is_commutative(A, lam.n):
        return essential_closure(A, lam)[0] == {T.entries for T in patterns}
    maps = wedge_maps(A, lam.n, lam.column_sizes())
    ech = Echelon()
    for T in patterns:
        vec = apply_pattern_monomial(maps, highest_weight_tensor(lam), T)
        if not vec or ech.insert(vec) is None:
            return False
    return ech.rank == cyclic_module_dim(A, lam)


def annihilator_monomial_check(A, lam):
    """For interior weight systems the annihilator of the cyclic vector is
    the monomial ideal of the non-patterns.

    Interior systems are commutative. The check is that the essential
    exponents are the patterns and that every other candidate of
    :func:`essential_closure` has a zero image. That suffices: a
    non-pattern T has a minimal divisor U that is not essential, U is a
    candidate, and f^T v = f^(T-U) f^U v = 0.
    """
    if not is_interior(A):
        raise NotInConeError("monomial annihilator requires an interior weight system")
    essential, dependent = essential_closure(A, lam)
    return not dependent and essential == {T.entries for T in enumerate_patterns(lam)}


# -- exponential coordinates and the substitution oracle ---------------------
# Polynomials in the variables z_{i,j} (one per generator, keyed ("z", i, j))
# and z_k (one per column size, keyed ("col", k)) are GradedPolynomials.


def exp_coordinates(n, k, A=None):
    """Coordinates of exp(sum z_{i,j} f_{i,j}) applied to the highest
    wedge vector, as {elems: GradedPolynomial in the z_{i,j}}.

    The classical mode uses the full action, the degenerate mode (weight
    system given) its graded slice, both read from :func:`wedge_maps`; the
    exponential truncates because the action is nilpotent.
    """
    maps = wedge_maps(A, n, (k,))
    start = tuple(range(1, k + 1))
    term = {start: GradedPolynomial({(): 1})}
    total = dict(term)
    order = 1
    while term:
        nxt = {}
        for elems, poly in term.items():
            for pair, images in maps.items():
                res = images.get(elems)
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
