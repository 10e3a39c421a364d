"""Reference module closures, kept for the tests only.

``cyclic_module_dim`` is the package's original one: every generator
f_{i,j} is applied to every raw image that enlarged the span, and every
image is inserted. The tests compare ``pbwdegen.representations`` against
it. ``essential_exponents`` searches the essential exponents directly,
applying each candidate's ordered monomial to the highest weight tensor
from scratch, in either order within a degree.

Both act through ``apply_generator``, the package's original action on
words of the full tensor product, unsorted: a column size repeated m
times gives up to m! words where the package's symmetric power has one
monomial. So they stay independent of the package's own action.
"""

from pbwdegen.fflv import TrianglePattern
from pbwdegen.linalg import Echelon
from pbwdegen.representations import highest_weight_tensor, wedge_maps
from pbwdegen.weights import triangle_pairs


def apply_generator(maps, state, x):
    """Leibniz action of one generator across all tensor factors, on words
    of the full tensor product."""
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


def cyclic_module_dim(A, lam, max_dim=100000):
    """Dimension of the cyclic submodule generated by the highest weight
    tensor under the degenerate action."""
    gens = triangle_pairs(lam.n)
    maps = wedge_maps(A, lam.n, lam.column_sizes())
    ech = Echelon()
    w = highest_weight_tensor(lam)
    ech.insert(w)
    queue = [w]
    while queue:
        vec = queue.pop()
        for x in gens:
            img = apply_generator(maps, vec, x)
            if img and ech.insert(img) is not None:
                if ech.rank > max_dim:
                    raise RuntimeError("cyclic closure exceeded the size bound")
                queue.append(img)
    return ech.rank


def essential_exponents(A, lam, descending=False):
    """Exponents T whose f^T v is independent of the vectors before it,
    taken degree by degree and within a degree in ascending (or
    descending) tuple order. Only exponents whose divisors one degree down
    are all essential are tried. Both orders are translation-invariant, so
    by the argument of ``pbwdegen.representations.essential_closure`` this
    loses none in any graded algebra of the cone."""
    n = lam.n
    size = len(triangle_pairs(n))
    maps = wedge_maps(A, n, lam.column_sizes())
    top = highest_weight_tensor(lam)
    ech = Echelon()
    ech.insert(top)
    layer = {(0,) * size}
    essential = set(layer)
    while layer:
        candidates = set()
        for S in layer:
            for x in range(size):
                T = S[:x] + (S[x] + 1,) + S[x + 1 :]
                if all(T[:y] + (T[y] - 1,) + T[y + 1 :] in layer
                       for y in range(size) if T[y]):
                    candidates.add(T)
        layer = set()
        for T in sorted(candidates, reverse=descending):
            vec = apply_pattern_monomial(maps, top, TrianglePattern(n, T))
            if vec and ech.insert(vec) is not None:
                layer.add(T)
        essential |= layer
    return essential
