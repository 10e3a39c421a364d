"""Reference exponential coordinates and psi substitution, kept for the tests only.

This is the package's original ``exp_coordinates`` and
``psi_substitution_check``: polynomials in the variables z_{i,j} (one
per generator) and z_k (one per column size) are plain dicts, sorted
((var, exponent), ...) tuples -> Fraction, with their own add, scale and
multiply. The tests compare the sorted-word versions of
``pbwdegen.representations`` against them, after writing each word of
generator positions as such a tuple.
"""

from fractions import Fraction

from pbwdegen.degrees import degree_s
from pbwdegen.weights import triangle_pairs
from reference_definitions import classical_action


def zp_scale(p, c):
    c = Fraction(c)
    if not c:
        return {}
    return {m: c * v for m, v in p.items()}


def zp_add(p, q):
    out = dict(p)
    for m, v in q.items():
        new = out.get(m, Fraction(0)) + v
        if new:
            out[m] = new
        else:
            out.pop(m, None)
    return out


def zp_mul(p, q):
    out = {}
    for m1, v1 in p.items():
        for m2, v2 in q.items():
            exps = {}
            for var, e in m1 + m2:
                exps[var] = exps.get(var, 0) + e
            key = tuple(sorted(exps.items()))
            new = out.get(key, Fraction(0)) + v1 * v2
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def zp_var(var):
    return {((var, 1),): Fraction(1)}


ZP_ONE = {(): Fraction(1)}


def _action(A, i, j, elems):
    """The classical action, kept under a weight system A only when
    s_I + a_{i,j} is the degree of the image coordinate."""
    res = classical_action(i, j, elems)
    if res is None or A is None:
        return res
    if degree_s(A, elems) + A.a(i, j) != degree_s(A, res[0]):
        return None
    return res


def exp_coordinates(n, k, A=None):
    """Coordinates of exp(sum z_{i,j} f_{i,j}) applied to the highest
    wedge vector, as dicts {elems: zp polynomial}."""
    start = tuple(range(1, k + 1))
    term = {start: ZP_ONE}
    total = {start: ZP_ONE}
    order = 1
    while term:
        nxt = {}
        for elems, poly in term.items():
            for pair in triangle_pairs(n):
                res = _action(A, *pair, elems)
                if res is None:
                    continue
                new, sign = res
                contrib = zp_mul(
                    zp_var(("z",) + pair), zp_scale(poly, Fraction(sign, order))
                )
                nxt[new] = zp_add(nxt.get(new, {}), contrib)
        term = {e: p for e, p in nxt.items() if p}
        for elems, poly in term.items():
            total[elems] = zp_add(total.get(elems, {}), poly)
        order += 1
    return total


def psi_substitution_check(f, n, d, A=None):
    """Substitute X_I -> z_{|I|} * C_I into f and test for zero."""
    coords = {k: exp_coordinates(n, k, A) for k in d}
    total = {}
    for mono, coeff in f.terms.items():
        prod = dict(ZP_ONE)
        for elems, e in mono:
            k = len(elems)
            factor = zp_mul(zp_var(("col", k)), coords[k].get(elems, {}))
            for _ in range(e):
                prod = zp_mul(prod, factor)
        total = zp_add(total, zp_scale(prod, coeff))
    return not total
