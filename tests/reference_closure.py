"""Reference module closures, kept for the tests only.

``cyclic_module_dim`` is the package's original one: every generator
f_{i,j} is applied to every raw image that enlarged the span, and every
image is inserted. The tests compare the closures of
``pbwdegen.representations`` against it. ``essential_exponents`` searches
the essential exponents of a commutative algebra directly, applying each
candidate monomial from the highest weight tensor, in either order.
"""

from pbwdegen.fflv import TrianglePattern
from pbwdegen.linalg import Echelon
from pbwdegen.representations import (
    apply_generator,
    apply_pattern_monomial,
    highest_weight_tensor,
    wedge_maps,
)
from pbwdegen.weights import triangle_pairs


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
    are all essential are tried, which for a commutative algebra loses
    none."""
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
