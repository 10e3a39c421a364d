"""Classical and degenerate actions on wedge powers and their symmetric powers.

The degenerate action is the graded slice of the classical one: a lowering
generator survives on a wedge basis vector exactly when the coordinate
degrees match up. Everything is exact on explicit bases: module vectors
have integer coefficients, generators act through per-computation action
tables, and the polynomial coordinates of nilpotent exponentials are
rational polynomials keyed by sorted words of generator positions.
"""

from bisect import bisect
from fractions import Fraction
from functools import lru_cache

from .degrees import all_indices, grading_vector
from .fflv import pattern_entries
from .linalg import Echelon
from .weights import NotInConeError, Triangle, is_interior, triangle_pairs


# the default suite reads 50 (system, sizes) tables and a module closure one,
# so none is evicted
@lru_cache(maxsize=64)
def _coordinate_degree(A, sizes):
    """The degrees of the Pluecker coordinates of A of the given sizes, the
    cone checked once; callers only read it."""
    return grading_vector(A, sizes)


def wedge_maps(A, n, sizes):
    """Every generator as a partial map on the wedge bases of the given
    sizes, x -> {id: (image id, sign)}: the action table that one
    computation builds once and then looks up. The id of e_I is the
    position of I in all_indices(n, sizes), so an image has a larger id.

    f_{i,j}, i < j, kills e_I unless i = I[t] and j is not in I, so only
    those (I, t, j) are visited. With u entries of I below j, the re-sorted
    image is I[:t] + I[t+1:u] + (j,) + I[u:], and j passes the u-t-1
    entries between i and j, one transposition each, for the sign
    (-1)^(u-t-1). I goes in id order, so each table lists its ids ascending.

    A=None gives the classical action. A weight system gives its graded
    slice: f_x is kept on I only when s_I + a_x is the degree of the image.
    """
    indices = all_indices(n, sizes)
    ids = {I: i for i, I in enumerate(indices)}
    maps = {x: {} for x in triangle_pairs(n)}
    tables, off = list(maps.values()), Triangle.offsets(n)  # x = (i, j) at off[i] + j
    s = None if A is None or not indices else _coordinate_degree(A, tuple(sizes))
    for src, I in enumerate(indices):
        k = len(I)
        for t, i in enumerate(I):
            head, sign, u = I[:t], 1, t + 1
            for j in range(i + 1, n + 1):
                if u < k and I[u] == j:  # j in I: no image, and every later j passes it
                    sign, u = -sign, u + 1
                    continue
                new, pos = head + I[t + 1 : u] + (j,) + I[u:], off[i] + j
                if s is None or s[I] + A.a(i, j) == s[new]:
                    tables[pos][src] = (ids[new], sign)
    return maps


# -- the cyclic module in the symmetric power --------------------------------


def highest_weight_tensor(lam):
    """e_(1..k) once per column of size k, as a sorted word of the ids of
    wedge_maps(A, lam.n, lam.column_sizes())."""
    indices = all_indices(lam.n, lam.column_sizes())
    return {tuple(indices.index(tuple(range(1, k + 1)))
                  for k in lam.column_sizes() for _ in range(lam.a(k))): 1}


def apply_generator(maps, state, x):
    """Leibniz action of one generator on sorted id words, read from the
    table of :func:`wedge_maps`, with int coefficients. An image's id is
    larger than its factor's but not than the ids of larger sizes, so it
    moves right within its size block."""
    act = maps[x]
    out = {}
    for key, coeff in state.items():
        for t, factor in enumerate(key):
            if factor not in act:
                continue
            new, sign = act[factor]
            u = bisect(key, new, t + 1)
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

    Vectors live in prod_k Sym^(a_k)(Lambda^k C^n): sorted words of wedge
    basis ids, whose blocks of equal sizes come in size order (see
    :func:`wedge_maps`), where e equal factors give e equal terms, the
    derivation rule. Generators commute with permuting equal-size factors,
    and symmetrization into the tensor product is injective over Q, so the
    linear relations, essential set and dependent count match tensor words.

    The walk goes degree by degree. A candidate T = S + e_x is made once,
    from S = T - e_t, and kept only if every T - e_y is essential. Its
    vector is f_x applied to the raw image of S, held for the previous
    degree only, and T is essential iff that vector enlarges the span.

    The layer and the candidates are keyed by the integer code
    sum_x T_x * B**(m-1-x) of T, with m generators, N = |lam| wedge factors
    and B = N + 2, so a candidate is one add and a divisor test one
    subtract and one lookup. The digits never carry: f_x squares to zero
    on one wedge factor, whose image has lost i, so by the Leibniz rule
    f_x**(N+1) kills the product of the N factors. An essential entry is
    then at most N, a candidate entry at most N + 1 < B, and a divisor
    test subtracts only at a position in the support. Codes sort as the
    tuples do, and each layer entry carries its tuple, so none is decoded.
    """
    pairs = triangle_pairs(lam.n)
    m = len(pairs)
    base = lam.total() + 2
    unit = [base ** (m - 1 - x) for x in range(m)]
    maps = wedge_maps(A, lam.n, lam.column_sizes())
    ech = Echelon()
    top = highest_weight_tensor(lam)
    ech.insert(top)
    zero = (0,) * m
    # code -> (raw image, support positions, exponent tuple)
    layer = {0: (top, (), zero)}
    essential = {zero}
    dependent = 0
    while layer:
        candidates = {}
        for S, (_, support, _) in layer.items():
            for x in range(support[-1] if support else 0, m):
                T = S + unit[x]
                for y in support:
                    if T - unit[y] not in layer:
                        break
                else:
                    candidates[T] = (S, x)
        nxt = {}
        for T in sorted(candidates):
            S, x = candidates[T]
            img, support, expo = layer[S]
            img = apply_generator(maps, img, pairs[x])
            if not img:
                continue
            if ech.insert(img) is None:
                dependent += 1
                continue
            # x is at or past the last support position, so expo ends in zeros
            expo = expo[:x] + (expo[x] + 1,) + zero[x + 1 :]
            essential.add(expo)
            nxt[T] = (img, support if support and support[-1] == x else support + (x,), expo)
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
# A polynomial in the variables z_{i,j} (one per generator) and z_k (one per
# column size) is a dict {word: Fraction}. A word is the sorted tuple of the
# positions x in triangle_pairs(n) of its z_{i,j}, each repeated by its
# exponent; psi_images appends the marker id m + p of z_k, with
# m = len(triangle_pairs(n)) and p the position of k in d.


def exp_coordinates(n, k, A=None, cap=None):
    """Coordinates of exp(sum z_{i,j} f_{i,j}) applied to the highest
    wedge vector, as {elems: {word: Fraction}} over the z_{i,j}.

    The classical mode uses the full action, the degenerate mode (weight
    system given) its graded slice, both read from :func:`wedge_maps`; the
    exponential truncates because the action is nilpotent. Each power of
    the action adds terms of a new degree; with cap, a ValueError is
    raised after the first coordinate of a power that brings their count
    past cap: each new coordinate is finished, from its contributions in
    the order they are met, before the next.
    """
    maps = wedge_maps(A, n, (k,))
    term = {0: {(): Fraction(1)}}  # the id of e_(1..k)
    total = {0: dict(term[0])}
    built = 1
    order = 1
    while term:
        parts = {}  # new coordinate -> (poly, position, sign) sending a term to it
        for i, poly in term.items():
            for x, images in enumerate(maps.values()):
                res = images.get(i)
                if res is not None:
                    parts.setdefault(res[0], []).append((poly, x, res[1]))
        term = {}
        for new, sources in parts.items():
            coord = {}
            for poly, x, sign in sources:
                c = Fraction(sign, order)
                for word, v in poly.items():
                    u = bisect(word, x)
                    key = word[:u] + (x,) + word[u:]
                    coord[key] = coord.get(key, 0) + c * v
            coord = {word: v for word, v in coord.items() if v}
            if not coord:
                continue
            term[new] = coord
            # the words of one power have its degree, so powers never meet
            total.setdefault(new, {}).update(coord)
            built += len(coord)
            if cap is not None and built > cap:
                raise ValueError(f"exponential coordinates of size {k} pass {cap} terms: "
                                 f"{built} built")
        order += 1
    indices = all_indices(n, (k,))
    return {indices[i]: poly for i, poly in total.items()}


def psi_images(n, d, A=None, cap=None):
    """The image z_k * C_I of every variable X_I with |I| = k in d under
    the substitution psi: C_I is the exponential coordinate (classical or
    degenerate), and the marker z_k keeps apart terms of different
    multidegree. A variable whose coordinate is zero has no entry. With
    cap, a ValueError is raised once more than cap terms are built in
    all, counted after each coordinate of each power of the action, so a
    build that cannot fit stops early."""
    marker = len(triangle_pairs(n))
    images = {}
    built = 0
    for p, k in enumerate(d):
        coords = exp_coordinates(n, k, A, None if cap is None else cap - built)
        for elems, coord in coords.items():
            # the marker id is past every position, so the word stays sorted
            images[elems] = {word + (marker + p,): c for word, c in coord.items()}
            built += len(coord)
    return images


def psi_vanishes(polys, images):
    """Whether psi, given by psi_images, maps every polynomial of a list
    to zero. The products of a polynomial's terms are summed into one dict
    keyed by their sorted words."""
    for f in polys:
        total = {}
        for mono, coeff in f.terms.items():
            prod = [((), coeff)]
            for elems, e in mono:
                image = images.get(elems, {}).items()
                for _ in range(e):
                    prod = [(T + U, a * b) for T, a in prod for U, b in image]
            for T, c in prod:
                word = tuple(sorted(T))
                total[word] = total.get(word, 0) + c
        if any(total.values()):
            return False
    return True


def psi_substitution_check(polys, n, d, A=None):
    """Substitute X_I -> z_{|I|} * C_I into each polynomial of a list and
    test that every one of them becomes zero.

    The images are built once per call; the kernel of this substitution
    is the defining ideal, so relations must vanish.
    """
    return psi_vanishes(polys, psi_images(n, d, A))
