"""Reference component bases over pair monomials, kept for the tests only.

This is the package's original ``component_monomials`` and
``_column_grades``: a monomial is a sorted tuple of (index tuple,
exponent) pairs, built by multiplying the factors of each size with
its own ``mono_mul``, and its grade sums the degree table over the pairs. The
tests compare the id-tuple bases of ``pbwdegen.ideals`` against them, and
the order of those bases against ``pair_sorted_id_monomials``, the sort by
pair monomials that ordered them before they were ordered by integer ranks.
"""

from itertools import chain, combinations_with_replacement, product

from pbwdegen.degrees import all_indices


def mono_mul(m1, m2):
    """Product of two sorted (variable, exponent) monomials."""
    exps = {}
    for elems, e in m1 + m2:
        exps[elems] = exps.get(elems, 0) + e
    return tuple(sorted(exps.items()))


def component_monomials(n, d, mu):
    """Ordered pair-monomial basis of the coordinate-ring component of
    multidegree mu (aligned with d)."""
    factor_lists = []
    for k, count in zip(d, mu):
        variables = all_indices(n, (k,))
        factor_lists.append(
            [tuple(c) for c in combinations_with_replacement(variables, count)]
        )
    monos = [()]
    for factors in factor_lists:
        monos = [
            mono_mul(m, tuple((e, 1) for e in f)) for m in monos for f in factors
        ]
    return sorted(set(monos))


def column_grades(monomials, g):
    """Grade of every pair monomial under the degree table g."""
    return [sum([g[elems] * e for elems, e in m]) for m in monomials]


def pair_sorted_id_monomials(n, d, mu):
    """The id-tuple basis of the component of multidegree mu, the id of X_I
    being the position of I in all_indices(n, d): every product of a
    multiset of mu_k ids of each size k in d, sorted by its pair monomial."""
    indices = all_indices(n, d)
    blocks = [combinations_with_replacement([i for i, I in enumerate(indices) if len(I) == k], count)
              for k, count in zip(d, mu)]
    monos = [tuple(chain.from_iterable(factors)) for factors in product(*blocks)]
    return sorted(monos, key=lambda m: tuple(sorted((indices[i], m.count(i)) for i in set(m))))
