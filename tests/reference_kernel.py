"""The kernel of psi_A on a component, an oracle for in_A(I), kept for the tests only.

For a weight system A in the cone and a multidegree mu, in_A(I)_mu equals
ker(psi_A)_mu when two things hold: psi_A kills every row of in_A(I)_mu,
and the psi_A images of the component's monomials have rank equal to the
Weyl dimension of lambda(mu). Then ker(psi_A)_mu contains in_A(I)_mu and
has the same codimension. ``images_rank`` gives the second; the first is
``representations.psi_vanishes`` on the rows.

At the toric point each X_I maps to +-1 times one word, so the kernel is
known in closed form: ``toric_kernel_key``. It is derived from the
coordinates alone and never from the library's elimination, so comparing
it with ``initial_component`` checks the code rather than restating it.
"""

from fractions import Fraction
from math import prod

from fraction_echelon import FractionEchelon
from pbwdegen.degrees import all_indices
from pbwdegen.ideals import component_monomials
from pbwdegen.representations import exp_coordinates, psi_images
from pbwdegen.weights import toric_weight_system


def images_rank(n, d, mu, A):
    """The rank of the psi_A images of the monomials of the component mu:
    each image the product of its variables' images, over sorted words."""
    indices = all_indices(n, d)
    images = psi_images(n, d, A)
    ech = FractionEchelon()
    for mono in component_monomials(n, d, mu):
        image = {(): Fraction(1)}
        for i in mono:
            factor = images.get(indices[i], {})
            out = {}
            for T, a in image.items():
                for U, b in factor.items():
                    word = tuple(sorted(T + U))
                    out[word] = out.get(word, 0) + a * b
            image = {word: c for word, c in out.items() if c}
        ech.insert(image)
    return ech.rank


def toric_kernel_key(n, d, mu):
    """The span key of ker(psi_toric) on the component mu, in closed form.

    Each toric coordinate C_I is s_I times one word w_I, s_I = +-1. A
    monomial m maps to s(m) times the sorted union of its variables' words,
    s(m) the product of their signs (the size markers agree on a
    component). Within a class of monomials of one word, at columns
    c_0 < ... < c_r, the kernel's RREF rows are e_{c_j} - s_j s_r e_{c_r}
    for j < r; the rows of all classes, in pivot order, are the key.
    """
    toric = toric_weight_system(n)
    word_sign = {}
    for k in d:
        for I, coord in exp_coordinates(n, k, toric).items():
            (word, c), = coord.items()  # one word
            assert c in (1, -1), (I, c)
            word_sign[I] = (word, int(c))
    indices = all_indices(n, d)
    classes = {}
    for col, mono in enumerate(component_monomials(n, d, mu)):
        word = tuple(sorted(x for i in mono for x in word_sign[indices[i]][0]))
        classes.setdefault(word, []).append((col, prod(word_sign[indices[i]][1] for i in mono)))
    rows = []
    for cols in classes.values():
        c_r, s_r = cols[-1]
        rows += [{c_j: Fraction(1), c_r: Fraction(-s_j * s_r)} for c_j, s_j in cols[:-1]]
    return tuple(tuple(sorted(row.items())) for row in sorted(rows, key=min))
