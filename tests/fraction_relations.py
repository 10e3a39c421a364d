"""Reference Pluecker relation builder over Fractions, kept for the tests only.

This is the package's original ``plucker_relations``: every exchange
relation is summed as a dict of Fraction coefficients, with its own
``mono_mul``, through indices validated by ``check_index``, then made a
``GradedPolynomial`` scaled to lead coefficient 1; no exchange data is
skipped. The tests compare the integer builder of ``pbwdegen.ideals``
against it.
"""

from fractions import Fraction
from itertools import combinations

from pbwdegen.degrees import check_index
from pbwdegen.ideals import GradedPolynomial


def mono_mul(m1, m2):
    """Product of two sorted (variable, exponent) monomials."""
    exps = {}
    for elems, e in m1 + m2:
        exps[elems] = exps.get(elems, 0) + e
    return tuple(sorted(exps.items()))


def normalize_index(n, seq):
    """The original ``ideals.normalize_index``, so the reference shares no
    sorting code with the builder it checks."""
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        return None, 0
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return check_index(n, sorted(seq)), sign


def add_term_product(terms, n, seq1, seq2, c):
    """Add c times the sign-normalized product X_{seq1} X_{seq2} to the
    {monomial: Fraction} dict terms."""
    I1, s1 = normalize_index(n, seq1)
    I2, s2 = normalize_index(n, seq2)
    if s1 == 0 or s2 == 0:
        return
    m = mono_mul(((I1, 1),), ((I2, 1),))
    terms[m] = terms.get(m, Fraction(0)) + c * s1 * s2


def exchange_relation(n, i_tuple, j_tuple, k):
    """Single Pluecker exchange: swap the first k entries of j into i in
    all possible ways."""
    terms = {}
    add_term_product(terms, n, i_tuple, j_tuple, 1)
    for positions in combinations(range(len(i_tuple)), k):
        i_new = list(i_tuple)
        for m, pos in enumerate(positions):
            i_new[pos] = j_tuple[m]
        r_tuple = tuple(i_tuple[pos] for pos in positions)
        add_term_product(terms, n, tuple(i_new), r_tuple + j_tuple[k:], -1)
    return GradedPolynomial(terms)


def fraction_plucker_relations(n, d):
    """The relations of ``plucker_relations(n, d)``, in the same order."""
    d = tuple(d)
    seen = set()
    out = []
    for p in d:
        for q in d:
            if p < q:
                continue
            for i_set in combinations(range(1, n + 1), p):
                for j_set in combinations(range(1, n + 1), q):
                    for k in range(1, q + 1):
                        for block in combinations(j_set, k):
                            rest = tuple(v for v in j_set if v not in block)
                            rel = exchange_relation(n, i_set, block + rest, k)
                            rel = rel.canonical()
                            if not rel:
                                continue
                            key = rel.key()
                            if key not in seen:
                                seen.add(key)
                                out.append(rel)
    out.sort(key=lambda r: r.key())
    return tuple(out)
