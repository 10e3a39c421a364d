"""Reference module closure, kept for the tests only.

This is the package's original ``cyclic_module_dim``: every generator
f_{i,j} is applied to every raw image that enlarged the span, and every
image is inserted. The tests compare the generator-only closure of
``pbwdegen.representations`` against it.
"""

from pbwdegen.linalg import Echelon
from pbwdegen.representations import apply_generator, highest_weight_tensor, wedge_maps
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
