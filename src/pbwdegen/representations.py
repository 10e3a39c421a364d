"""Classical and degenerate actions on wedge powers and their symmetric powers.

The degenerate action is the graded slice of the classical one: a lowering
generator survives on a wedge basis vector exactly when the coordinate
degrees match up. Everything is exact on explicit bases: module vectors
have integer coefficients, generators act through per-computation action
tables, and the polynomial coordinates of nilpotent exponentials are
rational ``ideals.GradedPolynomial``s.
"""

from fractions import Fraction
from functools import lru_cache

from .degrees import all_indices, grading_vector
from .fflv import pattern_entries
from .ideals import GradedPolynomial
from .linalg import Echelon
from .weights import NotInConeError, is_interior, triangle_pairs


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


# the default suite reads 50 (system, sizes) tables and a module closure one,
# so none is evicted
@lru_cache(maxsize=64)
def _coordinate_degree(A, sizes):
    """The degrees of the Pluecker coordinates of A of the given sizes, the
    cone checked once; callers only read it."""
    return grading_vector(A, sizes)


def wedge_maps(A, n, sizes):
    """Every generator as a partial map on the wedge bases of the given
    sizes, x -> {elems: (image, sign)}: the action table that one
    computation builds once and then looks up.

    A=None gives the classical action. A weight system gives its graded
    slice: f_x is kept on I only when s_I + a_x is the degree of the image.
    """
    indices = all_indices(n, sizes)
    s = None if A is None or not indices else _coordinate_degree(A, tuple(sizes))
    maps = {x: {} for x in triangle_pairs(n)}
    for x, images in maps.items():
        for I in indices:
            res = classical_action(*x, I)
            if res is None:
                continue
            if s is None or s[I] + A.a(*x) == s[res[0]]:
                images[I] = res
    return maps


# -- the cyclic module in the symmetric power --------------------------------


def highest_weight_tensor(lam):
    return {tuple(tuple(range(1, k + 1)) for k in range(1, lam.n) for _ in range(lam.a(k))): 1}


def apply_generator(maps, state, x):
    """Leibniz action of one generator across all factors, read from the
    table of :func:`wedge_maps`, with int coefficients. An image is larger
    than its factor (an i becomes a j > i), so it moves right in its block."""
    act = maps[x]
    out = {}
    for key, coeff in state.items():
        for t, factor in enumerate(key):
            if factor not in act:
                continue
            new, sign = act[factor]
            u = t + 1
            while u < len(key) and len(key[u]) == len(new) and key[u] < new:
                u += 1
            newkey = key[:t] + key[t + 1 : u] + (new,) + key[u:]
            val = out.get(newkey, 0) + coeff * sign
            if val:
                out[newkey] = val
            else:
                del out[newkey]
    return out


def essential_closure(A, lam):
    """Essential exponents of the cyclic module under the degenerate action
    of A (the classical one for A=None), and how many candidates had a
    nonzero dependent image.

    Exponents are indexed by :func:`triangle_pairs`, and f^T v applies the
    generators in that order, so f^T v = f_t f^(T - e_t) v with t the last
    nonzero position of T. T is essential when f^T v is not in the span of
    the f^S v of lower degree and of those of its own degree that precede
    it in ascending tuple order: the essential monomials of
    Feigin-Fourier-Littelmann, a basis of the module for every graded
    algebra of the cone. The action represents the graded bracket, and a
    graded bracket of two generators is zero or +-1 times one generator, so
    reordering a product of generators only adds products of lower degree,
    which the earlier degrees already span. Hence the ordered monomials of
    degree <= k span everything that words of length <= k do. And if a
    divisor U of T is not essential, f^U v is a combination of earlier
    vectors; applying f^(T-U), again up to lower degree, and using that
    tuple order is translation-invariant, f^T v is one too. So a candidate
    with a non-essential divisor is dropped unseen.

    Vectors live in prod_k Sym^(a_k)(Lambda^k C^n): words sorted within
    blocks of equal sizes, where e equal factors give e equal terms, the
    derivation rule. Generators commute with permuting equal-size factors,
    and symmetrization into the tensor product is injective over Q, so the
    linear relations, essential set and dependent count match tensor words.

    The walk goes degree by degree. A candidate T = S + e_x is made once,
    from S = T - e_t, and kept only if every T - e_y is essential. Its
    vector is f_x applied to the raw image of S, held for the previous
    degree only, and T is essential iff that vector enlarges the span.
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
            else:
                nxt[T] = img
        essential.update(nxt)
        layer = nxt
    return essential, dependent


def cyclic_module_dim(A, lam):
    """Dimension of the cyclic module of v_lambda under the degenerate
    action (classical for A=None): the size of :func:`essential_closure`."""
    return len(essential_closure(A, lam)[0])


def fflv_basis_check(A, lam):
    """The pattern monomials applied to the highest weight tensor form a
    basis of the cyclic module, checked as the stronger statement that the
    patterns are exactly the essential exponents."""
    return essential_closure(A, lam)[0] == pattern_entries(lam)


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
    return not dependent and essential == pattern_entries(lam)


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
